"""Oscillatory Volterra machinery: the causal mode-sum operator U and the charge march.

The evolution of a state coupled to the origin is carried by a single complex
function of time, the charge q.  It solves a Volterra-type equation whose
kernel is the odd-mode sum of e^{-i*lam_k*(t-s)}; that raw kernel is weakly
singular on the diagonal, so U is always evaluated through its integrated
form

    (Uq)(t) = sum_k [ q(t) - q(0) e^{-i*lam_k*t} - int_0^t q'(s) e^{-i*lam_k*(t-s)} ds ] / (i*lam_k)

whose retained terms decay at least like 1/lam_k.  The instantaneous
coefficient sum_k 1/(i*lam_k) is replaced by its analytic value pi^2/(2i),
which removes the dominant truncation bias for free.  The charge is modeled
as piecewise linear in time and every per-mode oscillatory integral is done
in closed form per segment (product integration).  The history of U is then a
discrete convolution in time, so each block of TIME_BLOCK steps costs one
small lower-triangular solve plus two O(TIME_BLOCK*k_max) products with the
table of block-relative phases from `kernels.block_phases`.  The solve is
row-scaled: every block shares one persistent lag matrix and writes only its
diagonal, and a block holding a zero or tiny coupling falls back to its dense
system (see `_march`).  The march
solves v = f - phi*(i/pi) U v and nothing else: the physical charge takes
f = -alpha*e^{it*Lap}psi0(0), the linearization its own sources (a block of
them in one march), and the general scheme folds its Green-source term into f.

The bracket is i*lam_k times the causal mode integral h_k.  Off the march, U
is one lag sum (kernels.lag_sums) of the block-start slope-moment sums of
kernels.block_starts, with the march's own lag kernel kappa.  A trajectory
built from samples takes its end-time h_k from `kernels.history_at_end`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainCompatibilityError,
    InputError,
    SingularityError,
    SolverError,
    StepSingularityError,
)
from .greens import SpectralShift, green_coefficients, green_origin
from .kernels import (
    ODD_INVERSE_EIGENVALUE_SUM,
    block_phases,
    block_starts,
    close_history,
    discrete_h1_norm,
    history_at_end,
    lag_matrix,
    lag_sums,
    lower_solve,
    odd_eigenvalues,
    phi1,
)
from .spectral import (
    DEFAULT_K_MAX,
    SpectralCoefficients,
    TimeGrid,
    free_origin_series,
    origin_trace,
)

STEP_SINGULARITY_MARGIN = 1e-12
# a block with a coupling |c_n| below this keeps its dense system: above it,
# 1/c_n and rhs/c_n stay far from overflow and keep full precision
ROW_SCALE_FLOOR = np.sqrt(np.finfo(float).tiny)
BOUNDARY_COMPAT_TOL = 1e-9


@dataclass(frozen=True)
class CouplingProfile:
    """Real coupling strength alpha(t) on [0, t_end] with pointwise value and derivative.

    kinds: 'constant' (value amplitude), 'sine_bump' (amplitude*sin(pi t/T),
    vanishing at both ends), 'piecewise_linear' (node samples on a uniform
    grid).  H_alpha is self-adjoint only for real alpha, so the profile is real
    by construction: piecewise-linear samples are stored as float64, a complex
    sample with a nonzero imaginary part is refused, and every value is float.
    """

    kind: str
    t_end: float
    amplitude: float = 0.0
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("constant", "sine_bump", "piecewise_linear"):
            raise InputError(f"unknown coupling kind {self.kind!r}")
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise InputError("t_end must be positive and finite")
        if self.kind == "piecewise_linear":
            if self.samples is None:
                raise InputError("piecewise_linear profile needs samples")
            arr = np.asarray(self.samples, dtype=complex)
            if arr.ndim != 1 or arr.size < 2:
                raise InputError("samples must be a 1-d array with at least two nodes")
            if not np.all(np.isfinite(arr)):
                raise InputError("samples must be finite")
            if np.any(arr.imag != 0):
                raise InputError("the physical coupling must be real-valued")
            arr = arr.real.copy()
            arr.flags.writeable = False
            object.__setattr__(self, "samples", arr)
        elif not np.isfinite(self.amplitude):
            raise InputError("amplitude must be finite")

    @classmethod
    def zero(cls, t_end: float) -> "CouplingProfile":
        return cls("constant", t_end, 0.0)

    @classmethod
    def constant(cls, amplitude: float, t_end: float) -> "CouplingProfile":
        return cls("constant", t_end, amplitude)

    @classmethod
    def sine_bump(cls, amplitude: float, t_end: float) -> "CouplingProfile":
        return cls("sine_bump", t_end, amplitude)

    @classmethod
    def piecewise_linear(cls, grid: TimeGrid, samples) -> "CouplingProfile":
        arr = np.asarray(samples)
        if arr.shape != (grid.n_steps + 1,):
            raise InputError("samples must match the grid nodes")
        return cls("piecewise_linear", grid.t_end, 0.0, arr)

    @property
    def grid(self) -> TimeGrid:
        """The uniform grid whose nodes carry a piecewise-linear profile's samples."""
        return TimeGrid(self.t_end, self.samples.size - 1)

    def _check_time(self, t: np.ndarray):
        if np.any(t < -1e-12) or np.any(t > self.t_end * (1 + 1e-12) + 1e-12):
            raise InputError("profile evaluated outside [0, t_end]")

    def value(self, t) -> np.ndarray | float:
        ta = np.asarray(t, dtype=float)
        self._check_time(ta)
        if self.kind == "constant":
            out = np.full(ta.shape, self.amplitude, dtype=float)
        elif self.kind == "sine_bump":
            out = self.amplitude * np.sin(np.pi * ta / self.t_end)
        else:
            out = np.interp(ta, self.grid.times, self.samples)
        return out if np.ndim(t) else out[()]

    def derivative(self, t) -> np.ndarray | float:
        ta = np.asarray(t, dtype=float)
        self._check_time(ta)
        if self.kind == "constant":
            out = np.zeros(ta.shape)
        elif self.kind == "sine_bump":
            out = self.amplitude * np.pi / self.t_end * np.cos(np.pi * ta / self.t_end)
        else:
            dt = self.grid.dt
            slopes = np.diff(self.samples) / dt
            idx = np.clip((ta / dt).astype(int), 0, slopes.size - 1)
            out = slopes[idx]
        return out if np.ndim(t) else out[()]

    def values_on(self, grid: TimeGrid) -> np.ndarray:
        if self.kind == "piecewise_linear" and grid == self.grid:
            return self.samples  # read-only, and the bits np.interp gives at the nodes
        return np.atleast_1d(self.value(grid.times))


@dataclass(frozen=True)
class ChargeTrajectory:
    """Grid samples of the charge plus its causal mode integrals at the final node,
    end_history_k = int_0^T q(s) e^{-i*lam_k*(T-s)} ds over odd k: from the march,
    or from kernels.history_at_end for a trajectory built from samples."""

    grid: TimeGrid
    q: np.ndarray = field(repr=False)
    k_max: int
    end_history: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.q, dtype=complex).copy()
        if arr.shape != (self.grid.n_steps + 1,):
            raise InputError("charge samples must match the grid nodes")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise InputError("charge samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "q", arr)
        if self.end_history is None:
            object.__setattr__(self, "end_history", history_at_end(
                arr, self.grid.dt, odd_eigenvalues(self.k_max)))


def apply_U(traj: ChargeTrajectory, analytic_tail: bool = True) -> np.ndarray:
    """(Uq)(t_n) = -i*c_tail*q(t_n) - sum_k e^{-i*lam_k*t_n} S_k(t_n)/(i*lam_k) on every grid node.

    S_k = q(0) + B_k is the slope-moment sum of kernels.block_starts, and the
    mode sum is its lag sum: within a block S_k grows by phi1_k times the
    increments, so the lag kernel is the march's kappa.  c_tail is the
    instantaneous coefficient: the analytic pi^2/2 with analytic_tail, the
    truncated sum_{k<=k_max} 1/lam_k without.  (Uq)(t_0) = 0 always (empty
    integral); the tail replacement only applies to marched nodes.
    """
    q = traj.q
    lam = odd_eigenvalues(traj.k_max)
    table, anchors, x, p1, sums = block_starts(q, traj.grid.dt, lam)
    kappa = table @ (1j * p1 / lam)
    kappa[0] = 0.0
    history = lag_sums(anchors * sums[:-1] * (-1j / lam), table, x, lag_matrix(kappa))
    c_tail = ODD_INVERSE_EIGENVALUE_SUM if analytic_tail else np.sum(1.0 / lam)
    out = -1j * c_tail * q
    out -= history.reshape(-1)[:q.size]
    out[0] = 0.0
    return out


def initial_charge(f0: complex, phi0: complex, shift: SpectralShift = SpectralShift()) -> complex:
    """v(0) = f(0) / (1 + phi(0) * G^lam(0,0)).

    A vanishing denominator is the static eigenvalue condition of the coupled
    Hamiltonian and raises SingularityError.
    """
    den = 1.0 + complex(phi0) * green_origin(shift.lam)
    if abs(den) < STEP_SINGULARITY_MARGIN:
        raise SingularityError(
            "1 + phi(0)*G(0,0) vanishes: initial coupling sits on an eigenvalue configuration")
    return complex(f0) / den


def _march(f_nodes: np.ndarray, phi_nodes: np.ndarray, v0, grid: TimeGrid,
           k_max: int) -> ChargeTrajectory | list[ChargeTrajectory]:
    """Product-integration march for v = f - phi*(i/pi) U v with v(0) = v0.

    f_nodes is one source (n+1,) with a scalar v0, or a block of R sources
    (n+1, R) with v0 of shape (R,).  The equation is linear in its source, so
    every column shares the phase table, kappa, the lag matrix, the step
    denominators and each block's system; the history terms of all columns
    are one matrix product per block, and each column has its own solve.
    Returns one ChargeTrajectory, or a list of R for a block of sources.

    The history part of U at t_n is the discrete convolution
    w_n = w0_n + sum_{m<n} (v_m - v_{m-1}) kappa(n-m+1),
    kappa(j) = i sum_k e^{-i*lam_k*j*dt} phi1(i*lam_k*dt)/lam_k, so the nodes of
    a block of TIME_BLOCK steps solve one lower-triangular system

        (diag(d_n) + diag(phi_n*i/pi) L) v = f_n - phi_n*(i/pi)*w_old_n
                                             + phi_n*(i/pi)*kappa(n-s+1)*v_{s-1}

    with d_n = 1 + phi_n*(pi^2/2 + i*kappa(1))/pi the per-step denominator and
    L[n, m] = kappa(n-m+1) - kappa(n-m) below the diagonal.  With c_n =
    phi_n*i/pi the system is diag(c) (L + diag(d/c)) wherever no c_n of the
    block is zero, so the march keeps one copy of L, writes d_n/c_n on its
    diagonal per block and solves it against the right-hand side over c: no
    (m, m) system is built per block.  A block that holds a coupling below
    ROW_SCALE_FLOOR (a node where alpha vanishes, or a subnormal one, where
    1/c_n would overflow or lose bits) builds the dense system above instead.
    Older history
    enters through the modal accumulator acc_k = v0 + B_k(t_{s-1}): the
    right-hand side's history terms and the update of acc are each one product
    with the block-relative phases e^{-i*lam_k*r*dt}, r <= TIME_BLOCK,
    re-anchored by one e^{-i*lam_k*t_{s-1}} per block (both from
    kernels.block_phases, as in kernels.block_starts).  Every d_n is
    checked before the march; the first one below STEP_SINGULARITY_MARGIN
    raises StepSingularityError.  A charge that is not finite on every node raises
    SolverError at its first non-finite node.  At the end acc gives the end_history.
    """
    n_steps = grid.n_steps
    dt = grid.dt
    lam = odd_eigenvalues(k_max)
    p1 = phi1(1j * lam * dt)
    phases, anchors = block_phases(lam, dt, n_steps)  # phases[r] = e^{-i lam r dt}
    block = phases.shape[0] - 1
    kappa = phases[1:] @ (1j * p1 / lam)  # kappa(1), ..., kappa(block)
    coupling = phi_nodes * (1j / np.pi)
    d = 1.0 + phi_nodes[1:] * (ODD_INVERSE_EIGENVALUE_SUM + 1j * kappa[0]) / np.pi
    bad = np.flatnonzero(np.abs(d) < STEP_SINGULARITY_MARGIN)
    if bad.size:
        n = int(bad[0]) + 1
        raise StepSingularityError(n, n * dt, float(abs(d[n - 1])), complex(phi_nodes[n]))
    # L with its diagonal free: row-scaled blocks write d/c there, dense ones overwrite it
    lower = np.array(lag_matrix(np.concatenate(([0.0], np.diff(kappa)))))
    diagonal = lower.reshape(-1)[::block + 1]
    dense_blocks = set((np.flatnonzero(np.abs(coupling[1:]) < ROW_SCALE_FLOOR) // block).tolist())

    f = np.asarray(f_nodes, dtype=complex)
    sources = f.reshape(n_steps + 1, -1)  # one column per source
    q = np.empty(sources.shape, dtype=complex)
    q[0] = v0
    acc = np.tile(q[0, :, None], lam.size)  # one row per source
    weight = -1j / lam
    for b, s in enumerate(range(1, n_steps + 1, block)):
        m = min(block, n_steps + 1 - s)
        nodes = slice(s, s + m)
        anchor = anchors[b]  # e^{-i lam t_{s-1}}
        c = coupling[nodes, None]
        # the right-hand side is sources + c*history, history = kappa*v_{s-1} - w_old
        history = phases[1:m + 1] @ (anchor * acc * weight).T
        history += kappa[:m, None] * q[s - 1]
        if b in dense_blocks:
            system = c * lower[:m, :m]
            system.flat[::m + 1] = d[s - 1:s - 1 + m]
            rhs = sources[nodes] + c * history
        else:
            diagonal[:m] = d[s - 1:s - 1 + m] / c[:, 0]
            system = lower[:m, :m]
            rhs = sources[nodes] / c + history
        for j, column in enumerate(rhs.T):
            q[nodes, j] = lower_solve(system, column)
        increments = q[s:s + m] - q[s - 1:s + m - 1]
        acc += p1 * np.conj(anchor * (np.conj(increments).T @ phases[:m]))

    if not np.all(np.isfinite(q)):  # an overflow, or phases lost at huge lam*t
        n = int(np.argmin(np.all(np.isfinite(q), axis=1)))
        raise SolverError(f"first non-finite charge at node n={n}, t={n * dt!r}")
    end = close_history(q[-1, :, None], acc, lam, n_steps * dt)
    trajs = [ChargeTrajectory(grid, q[:, j], k_max, end[j]) for j in range(q.shape[1])]
    return trajs if f.ndim == 2 else trajs[0]


def solve_charge_general(f: np.ndarray, phi: np.ndarray, shift: SpectralShift,
                         grid: TimeGrid, k_max: int = DEFAULT_K_MAX) -> ChargeTrajectory:
    """Grid solution of v = f - phi*(v(0)*g(t) + (i/pi) U v), g the Green origin series.

    g(t) = (1/pi) sum_k e^{-i*lam_k*t}/(lam_k + lam) is the origin series of the
    freely evolved Green state G^lam(., 0); the Green-source term is folded
    into the source, so the march solves v = f - phi*v0*g - phi*(i/pi) U v.
    f and phi are node samples (n+1,); phi may be complex, as the scheme is not
    tied to a self-adjoint coupling.  v0 = v(0) comes from initial_charge with the
    closed-form Green value.
    """
    times = grid.times
    f_nodes = np.asarray(f, dtype=complex)
    phi_nodes = np.asarray(phi)
    if f_nodes.shape != times.shape or phi_nodes.shape != times.shape:
        raise InputError("f and phi samples must match the grid nodes")
    v0 = initial_charge(f_nodes[0], phi_nodes[0], shift)
    green = free_origin_series(green_coefficients(shift, k_max), times)
    return _march(f_nodes - phi_nodes * v0 * green, phi_nodes, v0, grid, k_max)


def solve_charge(alpha: CouplingProfile, psi0, grid: TimeGrid) -> ChargeTrajectory:
    """Solve q = -alpha*(e^{it*Lap}psi0(0) + (i/pi) U q) on the grid.

    psi0 is a SpectralCoefficients vector or a DomainState-like object with
    .charge and .full_coefficients; its truncation is the solver's.  The
    initial charge is q(0) = -alpha(0)*psi0(0), or the DomainState's own
    charge; the march then takes f = -alpha * e^{it*Lap}psi0(0) on the full
    state, whose Green part needs no separate source term, so the resolvent
    shift of the split drops out.
    """
    times = grid.times
    alpha_nodes = alpha.values_on(grid)

    if isinstance(psi0, SpectralCoefficients):
        full = psi0
        q0 = -complex(alpha_nodes[0]) * origin_trace(psi0)
    else:
        q0 = complex(psi0.charge)
        full = psi0.full_coefficients
        resid = abs(q0 + alpha_nodes[0] * origin_trace(full))
        if resid > BOUNDARY_COMPAT_TOL:
            raise DomainCompatibilityError(
                f"initial state violates -q = alpha*psi(0) by {resid:.3e}")

    f_nodes = -alpha_nodes * free_origin_series(full, times)
    return _march(f_nodes, alpha_nodes, q0, grid, full.k_max)


def lipschitz_probe(alpha: CouplingProfile, alpha_tilde: CouplingProfile, psi0,
                    grid: TimeGrid) -> tuple[float, float]:
    """Discrete-H^1 distances (|q - q_tilde|, |alpha - alpha_tilde|) for ratio studies."""
    qa = solve_charge(alpha, psi0, grid)
    qb = solve_charge(alpha_tilde, psi0, grid)
    dq = discrete_h1_norm(qa.q - qb.q, grid.dt)
    da = discrete_h1_norm(alpha.values_on(grid) - alpha_tilde.values_on(grid), grid.dt)
    return dq, da
