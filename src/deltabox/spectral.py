"""Dirichlet eigenbasis of the box [-pi, pi] and the spectral state representation.

Modes are indexed by k = 1, 2, 3, ...:

    psi_k(x) = sin(k x / 2)/sqrt(pi)   (k even, odd function, zero at the origin)
    psi_k(x) = cos(k x / 2)/sqrt(pi)   (k odd,  even function, 1/sqrt(pi) at the origin)

with eigenvalues lam_k = k^2/4.  States live on a truncated coefficient vector
a_1..a_{k_max}; all mode sums run in ascending k (numpy's deterministic
pairwise reduction), and truncation defaults to k_max = 401.

Units: hbar = 1 and the mass is scaled so the free Hamiltonian is -d^2/dx^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, DomainError, InputError
from .kernels import MODE_BLOCK, block_phases, eigenvalues

BOX_HALF_WIDTH = np.pi
DEFAULT_K_MAX = 401
INV_SQRT_PI = 1.0 / np.sqrt(np.pi)


def _check_in_box(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= BOX_HALF_WIDTH + 1e-12):  # NaN fails too
        raise DomainError("coordinate outside the box [-pi, pi]")
    return x


def mode_table(modes: range, x) -> np.ndarray:
    """sqrt(pi)*psi_k(x) for the consecutive k in modes: rows k, columns x.

    Odd rows are Re and even rows Im of e^{i*k*x/2} = anchor x table over even
    blocks of B ~ sqrt(K) consecutive k: about 2*sqrt(K) cos/sin pairs per x, not
    K, each row within a few eps*max(1, k*|x|/2) of cos/sin(k*x/2).  Callers apply
    1/sqrt(pi) where their sums need it.
    """
    half_x = 0.5 * np.asarray(x, dtype=float)
    root = math.isqrt(max(len(modes) - 1, 0)) + 1  # ceil(sqrt(K))
    block = root + root % 2
    starts = modes.start + block * np.arange(-(-len(modes) // block))
    tab = np.multiply.outer(np.arange(block), half_x)
    anc = np.multiply.outer(starts, half_x)[:, None]
    tab_cos, tab_sin, anc_cos, anc_sin = np.cos(tab), np.sin(tab), np.cos(anc), np.sin(anc)
    out = np.empty((starts.size, block) + half_x.shape)
    odd = 1 - modes.start % 2  # rows r of odd k
    re, im = out[:, odd::2], out[:, 1 - odd::2]
    np.multiply(anc_cos, tab_cos[odd::2], out=re)
    re -= anc_sin * tab_sin[odd::2]
    np.multiply(anc_sin, tab_cos[1 - odd::2], out=im)
    im += anc_cos * tab_sin[1 - odd::2]
    return out.reshape((-1,) + half_x.shape)[:len(modes)]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt on [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.t_end) or self.t_end < 0:
            raise InputError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if self.n_steps < 1 or int(self.n_steps) != self.n_steps:
            raise InputError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        if self.n_steps >= np.iinfo(np.intp).max // np.dtype(complex).itemsize:
            raise InputError(f"n_steps {self.n_steps!r} needs more complex nodes than an array "
                             f"can index")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class SpectralCoefficients:
    """Truncated complex coefficient vector of a state on the Dirichlet eigenbasis."""

    k_max: int
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.a, dtype=complex).copy()
        if arr.shape != (self.k_max,):
            raise InputError(f"coefficient vector must have shape ({self.k_max},)")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise InputError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @classmethod
    def unit(cls, k: int, k_max: int = DEFAULT_K_MAX) -> "SpectralCoefficients":
        """The eigenstate psi_k as a coefficient vector."""
        if not 1 <= k <= k_max:
            raise InputError(f"mode {k} outside 1..{k_max}")
        a = np.zeros(k_max, dtype=complex)
        a[k - 1] = 1.0
        return cls(k_max, a)

    def norm(self) -> float:
        """L^2 norm, by Parseval just the Euclidean norm of the coefficients."""
        return float(np.linalg.norm(self.a))

    def scaled(self, c: complex) -> "SpectralCoefficients":
        return SpectralCoefficients(self.k_max, self.a * c)

    def add(self, other: "SpectralCoefficients") -> "SpectralCoefficients":
        if other.k_max != self.k_max:
            raise InputError("truncation mismatch")
        return SpectralCoefficients(self.k_max, self.a + other.a)

    def sub(self, other: "SpectralCoefficients") -> "SpectralCoefficients":
        if other.k_max != self.k_max:
            raise InputError("truncation mismatch")
        return SpectralCoefficients(self.k_max, self.a - other.a)

    def even_sector_defect(self) -> float:
        """Max |a_k| over even k; zero iff the state lies in the even sector W."""
        return float(np.max(np.abs(self.a[1::2]))) if self.k_max >= 2 else 0.0


def origin_trace(c: SpectralCoefficients) -> complex:
    """psi(0) = sum over odd k of a_k/sqrt(pi) (sine modes vanish at the origin)."""
    return complex(INV_SQRT_PI * np.sum(c.a[0::2]))


def free_evolve(c: SpectralCoefficients, t: float) -> SpectralCoefficients:
    """Free propagator: a_k -> a_k * e^{-i*lam_k*t}; unitary mode by mode."""
    lam = eigenvalues(c.k_max)
    return SpectralCoefficients(c.k_max, c.a * np.exp(-1j * lam * t))


def free_origin_series(c: SpectralCoefficients, times: np.ndarray) -> np.ndarray:
    """Origin value of the freely evolved state on a batch of times:
    sum over odd k with a_k != 0 of a_k e^{-i*lam_k*t}/sqrt(pi).

    On the uniform grid times = times[1]*arange(n) (TimeGrid.times) the phases
    come from kernels.block_phases and the sum is one product, table @ (a*anchors);
    any other times take one exp per time and mode.  The result has the shape
    of times, so a scalar time gives a 0-d array.
    """
    times = np.asarray(times, dtype=float)
    nonzero = np.flatnonzero(c.a[0::2])
    lam = eigenvalues(c.k_max)[0::2][nonzero]
    coeff = c.a[0::2][nonzero]
    if times.ndim == 1 and times.size > 1 and np.array_equal(
            times, times[1] * np.arange(times.size)):
        table, anchors = block_phases(lam, times[1], times.size - 1)
        by_block = table[:-1] @ (coeff[:, None] * anchors.T)  # [r, b]: node b*B + r
        return INV_SQRT_PI * by_block.T.ravel()[:times.size]
    out = np.zeros(times.size, dtype=complex)
    # mode-blocked accumulation keeps memory O(len(times))
    for j in range(0, lam.size, MODE_BLOCK):
        lj = lam[j:j + MODE_BLOCK]
        cj = coeff[j:j + MODE_BLOCK]
        out += np.exp(-1j * np.outer(lj, times)).T @ cj
    return INV_SQRT_PI * out.reshape(times.shape)


def evaluate_state(c: SpectralCoefficients, xs) -> np.ndarray:
    """Pointwise synthesis sum_k a_k psi_k(x) on a batch of coordinates."""
    xa = np.atleast_1d(_check_in_box(xs))
    out = np.zeros(xa.shape, dtype=complex)
    for j in range(0, c.k_max, MODE_BLOCK):
        modes = mode_table(range(j + 1, min(j + MODE_BLOCK, c.k_max) + 1), xa)
        out.real += c.a[j:j + MODE_BLOCK].real @ modes  # by parts: modes stays float
        out.imag += c.a[j:j + MODE_BLOCK].imag @ modes
    return INV_SQRT_PI * out


def box_trapezoid(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and trapezoid weights of `panels` equal panels on the box [-pi, pi]."""
    xs = np.linspace(-BOX_HALF_WIDTH, BOX_HALF_WIDTH, panels + 1)
    w = np.full(xs.size, 2.0 * BOX_HALF_WIDTH / panels)
    w[0] *= 0.5
    w[-1] *= 0.5
    return xs, w


def project_function(f, k_max: int = DEFAULT_K_MAX, resolution: int = 4096) -> SpectralCoefficients:
    """Coefficients (psi_k, f) by trapezoid quadrature on a uniform grid.

    resolution counts quadrature panels; fewer than 2*k_max panels cannot
    resolve the highest retained mode and raises AliasingError.
    """
    if resolution < 2 * k_max:
        raise AliasingError(
            f"resolution {resolution} < 2*k_max = {2 * k_max}: mode sums would alias")
    xs, w = box_trapezoid(resolution)
    try:
        fx = np.asarray(f(xs), dtype=complex)
        if fx.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        fx = np.asarray([complex(f(x)) for x in xs])
    a = np.zeros(k_max, dtype=complex)
    for j in range(0, k_max, MODE_BLOCK):
        modes = mode_table(range(j + 1, min(j + MODE_BLOCK, k_max) + 1), xs)
        a[j:j + MODE_BLOCK] = (modes * (w * fx)[None, :]).sum(axis=1) * INV_SQRT_PI
    return SpectralCoefficients(k_max, a)
