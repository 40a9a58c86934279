"""Oscillatory-quadrature kernels shared by the charge solver and the propagator.

Everything here revolves around exact integration of piecewise-linear data
against the mode oscillations e^{i*lam*t}, lam = k^2/4.  The two phi functions
are the standard exponential-integrator coefficients

    phi1(u) = (e^u - 1)/u,        phi2(u) = (e^u - 1 - u)/u^2,

phi1 from the complex expm1 and phi2 through a series branch for small |u|, so
both stay accurate down to u = 0.  With them, a linear segment
q(s) = q_a + r*(s - t_a) on [t_a, t_a+h] integrates exactly:

    int e^{i*lam*s} q(s) ds = h*e^{i*lam*t_a} * (q_a*phi1(u) + (q_b-q_a)*(phi1(u)-phi2(u)))

with u = i*lam*h.  No quadrature error is incurred beyond the piecewise-linear
model of the data itself.

States and U are built from one object, the causal mode integral of the charge
h_k(t) = int_0^t q(s) e^{-i*lam_k*(t-s)} ds = (q(t) - e^{-i*lam_k*t} S_k(t))/(i*lam_k),
S_k = q(0) + B_k the summed slope moments.  `block_starts` computes S at the
first node of every block of TIME_BLOCK nodes, and at the end, from one product
of the block-reshaped increments with the phase table.  Inside a block S moves
by the block's own increments only, so a per-node sum over modes is a lag sum
(`lag_sums`, on the lag matrices of `lag_matrix`) and h_k is never formed on
every node.  `history_at_end` and the charge march close S(T) with
`close_history`.  Every kernel shares one set of phases on the uniform grid,
`block_phases`: e^{-i*lam*(b*B + r)*dt} is an anchor per block b times a
table of block-relative phases, so no node-by-mode exp is evaluated.  The
table and the anchors are each built the same way again, over about
sqrt(rows) blocks, so a grid's phases cost a few dozen exps per mode: each
caller builds its own and drops it when done.

On a horizon T = 8*pi*N the phases are exact lattice points, lam_k*t_j =
2*pi*((k^2*N*j) mod n)/n: `lattice_angles` reduces the integer product in int64
and scales it once, so a phase is within pi*eps of the exact one at any k and j
(the float product lam_k*t_j is off by about eps*lam_k*t_j).  The moment
solver's direct sine sum and its fold's roots and twiddles, and the control's
carrier, read it.

The march's one triangular solve per block is `lower_solve`: OpenBLAS's
cblas_ztrsv from the library numpy itself links, called through ctypes, so no
command needs scipy.  Where numpy's BLAS is not that library, the solve is
scipy.linalg.solve_triangular, imported on first use.

The CLI also sets the process up before it runs: `use_one_blas_thread` (the same
bits at any thread count) and `keep_grid_arrays_on_heap`, which raises glibc's
mmap and trim thresholds through mallopt so that whole-grid temporaries reuse
the heap instead of each being a fresh mmap.  Library callers keep both defaults;
`runtime_record` reports what ran.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os

import numpy as np

# sum over odd k of 1/lam_k = sum 4/k^2 = pi^2/2
ODD_INVERSE_EIGENVALUE_SUM = np.pi**2 / 2.0

# modes per block of the mode-by-point arrays outside the modal-history kernels
# (state synthesis, projection, origin series at arbitrary times)
MODE_BLOCK = 64

# nodes per block on the uniform time grid: one triangular solve of this size per
# block of the charge march, and the length of the phase table every kernel shares
TIME_BLOCK = 128

_PHI_SERIES_CUTOFF = 0.25
_PHI_SERIES_TERMS = 18


def phi1(u: np.ndarray | complex) -> np.ndarray:
    """(e^u - 1)/u with phi1(0) = 1, from numpy's complex expm1: its real part
    expm1(x)*cos(y) - 2*sin(y/2)^2 keeps full relative precision as u -> 0."""
    u = np.asarray(u, dtype=complex)
    return np.divide(np.expm1(u), u, out=np.ones_like(u), where=u != 0)


def phi2(u: np.ndarray | complex) -> np.ndarray:
    """(e^u - 1 - u)/u^2 with a series branch for small |u| (phi2(0) = 1/2)."""
    u = np.asarray(u, dtype=complex)
    small = np.abs(u) < _PHI_SERIES_CUTOFF
    safe = np.where(small, 1.0, u)
    direct = (np.exp(safe) - 1.0 - safe) / safe**2
    # Horner on sum_{m>=0} u^m/(m+2)!
    acc = np.full_like(u, 1.0 / math.factorial(_PHI_SERIES_TERMS + 2))
    for m in range(_PHI_SERIES_TERMS, 0, -1):
        acc = acc * u + 1.0 / math.factorial(m + 1)
    return np.where(small, acc, direct)


def eigenvalues(k_max: int) -> np.ndarray:
    """Eigenvalues lam_k = k^2/4 of modes 1..k_max, each exact for k^2 < 2^53."""
    lam = np.arange(1, k_max + 1, dtype=float)
    lam *= lam  # in place: green_series builds this at k_max = 10^5 in verify
    lam *= 0.25
    return lam


def odd_eigenvalues(k_max: int) -> np.ndarray:
    """Eigenvalues on the odd (cosine) modes k = 1, 3, 5, ... <= k_max."""
    return eigenvalues(k_max)[0::2]


def tail_deficit(k_max: int) -> float:
    """pi^2/2 minus the truncated sum of 1/lam_k over odd k <= k_max."""
    return ODD_INVERSE_EIGENVALUE_SUM - float(np.sum(1.0 / odd_eigenvalues(k_max)))


def segment_moments(q: np.ndarray, dt: float, lam: float) -> np.ndarray:
    """Per-segment exact integrals int_{t_{m-1}}^{t_m} q_PL(s) e^{i*lam*s} ds.

    q holds node samples (n+1,); returns the n segment contributions.
    """
    q = np.asarray(q, dtype=complex)
    n = q.size - 1
    u = 1j * lam * dt
    p1 = complex(phi1(u))
    p2 = complex(phi2(u))
    phase = np.exp(1j * lam * dt * np.arange(n))
    return dt * phase * (q[:-1] * p1 + (q[1:] - q[:-1]) * (p1 - p2))


def slope_moments(q: np.ndarray, dt: float, lam: float) -> np.ndarray:
    """Per-segment exact integrals of the piecewise-constant derivative of q_PL
    against e^{i*lam*s}: slope_m * (e^{i*lam*t_m} - e^{i*lam*t_{m-1}})/(i*lam).

    Single-frequency reference form of the B_k sums of `block_starts`.
    """
    q = np.asarray(q, dtype=complex)
    n = q.size - 1
    u = 1j * lam * dt
    p1 = complex(phi1(u))
    phase = np.exp(1j * lam * dt * np.arange(n))
    return (q[1:] - q[:-1]) * phase * p1


def block_phases(lam: np.ndarray, dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Phases e^{-i*lam*t_n} on the grid t_n = n*dt, n <= n_steps, as anchor x table.

    With B = min(TIME_BLOCK, n_steps) (at least 1) and n = b*B + r, 0 <= r <= B:
    table[r] = e^{-i*lam*r*dt} (shape (B+1, K)) and anchors[b] = e^{-i*lam*b*B*dt}
    for b = 0..n_steps//B.  Each of the two is itself anchor x table over
    ceil(sqrt(rows)) blocks, about 2*sqrt(rows) exps per mode, and every entry is
    within a few eps*max(1, lam*t_n) of the exact phase at t_n = n*dt.
    """
    angles = -1j * np.asarray(lam, dtype=float)
    block = max(1, min(TIME_BLOCK, n_steps))
    phases = []
    for stride, rows in ((1, block + 1), (block, n_steps // block + 1)):  # table, anchors
        root = math.isqrt(rows - 1) + 1  # ceil(sqrt(rows))
        count = -(-rows // root)
        # one exp call: rows j*stride for j < root, then the block starts j = a*root, a < count
        steps = stride * np.concatenate((np.arange(root), root * np.arange(count)))
        exps = np.exp(np.outer(dt * steps, angles))
        phases.append((exps[root:, None] * exps[:root]).reshape(count * root, angles.size)[:rows])
    return tuple(phases)


def lattice_angles(harmonic: int, n_steps: int, count: int) -> np.ndarray:
    """Phases 2*pi*((harmonic*j) mod n_steps)/n_steps of the nodes j < count, in [-pi, pi).

    On a horizon T = 8*pi*N every lam_k*t_j = 2*pi*(k^2*N)*j/n is a point of this
    integer lattice.  The product is reduced in int64 (exact while
    (harmonic mod n)*count < 2^63) and centred on zero before the one scaling by
    2*pi/n, so every phase is within pi*eps of the exact one at any harmonic and
    node; the float product lam*t_j is off by about eps*lam*t_j.
    """
    half = n_steps // 2
    m = np.arange(count, dtype=np.int64)
    m *= harmonic % n_steps
    m += half
    m %= n_steps
    m -= half
    return m * (2.0 * np.pi / n_steps)


def lag_matrix(lags: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrices T[..., r, j] = lags[..., r - j] (r >= j), zero above.

    lags[..., 0] is the diagonal.  A lag kernel on the grid is a sum over modes
    of weights times the phase table of `block_phases`, and applying its matrix
    to the increments of a block is the block's discrete convolution.  Each
    matrix is copied out of a sliding window over the zero-padded lags, so no
    other array of its size is made.
    """
    size = lags.shape[-1]
    padded = np.zeros(lags.shape[:-1] + (2 * size - 1,), dtype=lags.dtype)
    padded[..., size - 1:] = lags
    window = np.lib.stride_tricks.sliding_window_view(padded, size, axis=-1)
    return np.ascontiguousarray(window[..., ::-1])


def block_starts(q: np.ndarray, dt: float, lam: np.ndarray):
    """Phase table, anchors, increments, phi1 and the block-start sums of the samples q.

    With table, anchors = block_phases(lam, dt, n) cut to the B rows r < B of a
    block, and the increments x[b, j] = q_{b*B+j+1} - q_{b*B+j} (zero past the
    last node), returns (table, anchors, x, phi1(i*lam*dt), S) where
    S[b] = q(0) + B_k(t_{b*B}) for every block b and S[-1] = q(0) + B_k(T).
    B_k over a block is phi1 * conj(anchor_b) * (x[b] @ conj(table)): one
    product for all blocks, summed over the blocks.
    """
    q = np.asarray(q, dtype=complex)
    table, anchors = block_phases(lam, dt, q.size - 1)
    table = table[:-1]
    x = np.zeros((anchors.shape[0], table.shape[0]), dtype=complex)
    x.flat[:q.size - 1] = np.diff(q)
    p1 = phi1(1j * lam * dt)
    sums = np.empty((x.shape[0] + 1, lam.size), dtype=complex)
    sums[0] = q[0]
    np.matmul(x, np.conj(table), out=sums[1:])
    sums[1:] *= np.conj(anchors)
    sums[1:] *= p1
    np.cumsum(sums, axis=0, out=sums)
    return table, anchors, x, p1, sums


def lag_sums(starts: np.ndarray, table: np.ndarray, x: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """Per-node sums over modes sum_k w_k e^{-i*lam_k*t_n} y_k(t_n), one row per block.

    starts[b] = w * anchor_b * y(t_{b*B}) holds the weighted values at the
    block's first node; inside the block y_k(t_{b*B+r}) = y_k(t_{b*B})
    - beta_k sum_{j<r} e^{i*lam_k*t_{b*B+j}} x[b, j], and lag is the lag matrix
    (`lag_matrix`) of sum_k w_k beta_k e^{-i*lam_k*l*dt} with zero lag 0.
    table, x are those of `block_starts`; node b*B + r is entry [b, r].
    """
    out = starts @ table.T
    out -= x @ lag.T
    return out


def history_at_end(q: np.ndarray, dt: float, lam: np.ndarray) -> np.ndarray:
    """h_k at the last node of q for every frequency in lam: S(T) of `block_starts`, closed."""
    q = np.asarray(q, dtype=complex)
    *_, sums = block_starts(q, dt, lam)
    return close_history(q[-1], sums[-1], lam, (q.size - 1) * dt)


def close_history(q_end, start_sum: np.ndarray, lam: np.ndarray, t_end: float) -> np.ndarray:
    """h_k(T) = (q(T) - e^{-i*lam_k*T}*start_sum_k)/(i*lam_k), start_sum = q(0) + B(T)."""
    return (q_end - np.exp(-1j * lam * t_end) * start_sum) / (1j * lam)


# BLAS thread settings as the process saw them when deltabox was imported
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREADS_AT_IMPORT = {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES}

# CBLAS enum values (cblas.h): row-major, lower, no transpose, non-unit diagonal
_CBLAS_LOWER_SOLVE = (101, 122, 111, 131)


def _numpy_blas() -> dict:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]


@functools.cache
def _bundled_openblas():
    """numpy's bundled 64-bit-integer OpenBLAS as a ctypes.CDLL, or None if numpy has another BLAS.

    Only a scipy-openblas build with 64-bit integers exports scipy_cblas_ztrsv64_
    with int64 sizes; the library sits next to the numpy package (numpy.libs on
    Linux and Windows, numpy/.dylibs on macOS) and is already loaded by numpy.
    """
    blas = _numpy_blas()
    if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in blas.get(
            "openblas configuration", ""):
        return None
    here = os.path.dirname(np.__file__)
    for folder in (os.path.join(here, os.pardir, "numpy.libs"), os.path.join(here, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(folder, "libscipy_openblas64_*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(lib, "scipy_cblas_ztrsv64_"):
                return lib
    return None


@functools.cache
def _bundled_trsv():
    """scipy_cblas_ztrsv64_ of `_bundled_openblas`, or None if numpy has another BLAS."""
    lib = _bundled_openblas()
    if lib is None:
        return None
    trsv = lib.scipy_cblas_ztrsv64_
    trsv.restype = None
    trsv.argtypes = [ctypes.c_int] * 4 + [ctypes.c_int64, ctypes.c_void_p,
                                          ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    return trsv


def _openblas_threads() -> str:
    """Threads the bundled OpenBLAS runs with, or 'unknown' if numpy has another BLAS."""
    get = getattr(_bundled_openblas(), "scipy_openblas_get_num_threads64_", None)
    return "unknown" if get is None else str(get())


def use_one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS (if numpy has it) on one thread, so that no output
    bit depends on the thread count through a product's summation order."""
    set_threads = getattr(_bundled_openblas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(1)


# glibc's mallopt parameters (malloc.h) and the thresholds `keep_grid_arrays_on_heap`
# sets: every whole-grid array here is below 32 MiB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20
_malloc_thresholds = "default"


def keep_grid_arrays_on_heap() -> None:
    """Set glibc's M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to 64 MiB, where libc
    has mallopt (elsewhere a no-op).

    A whole-grid temporary (25134 complex values, 402 KB) is above glibc's 128 KB
    default threshold, so each one would be a fresh zero-filled mmap, faulted in
    page by page and unmapped on free; on the heap it reuses freed memory.
    glibc raises its threshold itself when an mmapped block is freed, so without
    the fixed setting which arrays are mmapped depends on what was freed before.
    `runtime_record` reports the outcome.
    """
    global _malloc_thresholds
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        _malloc_thresholds = "unavailable"
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    set_ok = (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1,
              mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    _malloc_thresholds = (f"mmap {MMAP_THRESHOLD} trim {TRIM_THRESHOLD}" if all(set_ok)
                          else "refused")


def lower_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with system @ x = rhs for a square lower-triangular complex system (upper part ignored).

    cblas_ztrsv of numpy's bundled OpenBLAS when `_bundled_trsv` finds it,
    else scipy.linalg.solve_triangular; both give the same bits.
    """
    system = np.ascontiguousarray(system, dtype=complex)
    x = np.array(rhs, dtype=complex)  # a contiguous copy, solved in place
    m = x.size
    if system.shape != (m, m) or x.shape != (m,):
        raise ValueError(f"lower_solve needs an (m, m) system and an (m,) rhs, "
                         f"got {system.shape} and {x.shape}")
    trsv = _bundled_trsv()
    if trsv is None:
        from scipy.linalg import solve_triangular  # numpy has no usable BLAS symbol here

        return solve_triangular(system, x, lower=True, check_finite=False)
    trsv(*_CBLAS_LOWER_SOLVE, m, system.ctypes.data, max(m, 1), x.ctypes.data, 1)
    return x


def runtime_record() -> dict:
    """What ran the linear algebra: the triangular-solve path, numpy's BLAS, the threads
    OpenBLAS runs with and the thread variables seen at import ('unset' when absent);
    and the malloc thresholds: 'default' unless `keep_grid_arrays_on_heap` ran, then
    the thresholds it set, 'refused' if mallopt rejected one, or 'unavailable'."""
    blas = _numpy_blas()
    return {"triangular_solve": "scipy" if _bundled_trsv() is None else "bundled-openblas",
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_threads": _openblas_threads(), **_THREADS_AT_IMPORT,
            "malloc_thresholds": _malloc_thresholds}


def discrete_h1_norm(values: np.ndarray, dt: float) -> float:
    """Discrete H^1(0,T) norm: L^2 of the nodes plus L^2 of forward differences."""
    v = np.asarray(values, dtype=complex)
    l2 = np.sum(np.abs(v) ** 2) * dt
    dv = np.diff(v) / dt
    h1 = np.sum(np.abs(dv) ** 2) * dt
    return float(np.sqrt(l2 + h1))


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); y is floored at 1e-300."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    return float(np.polyfit(lx, ly, 1)[0])
