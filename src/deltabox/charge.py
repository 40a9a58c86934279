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
table of block-relative phases from `kernels.block_phases`.  The march
solves v = f - phi*(i/pi) U v and nothing else: the physical charge takes
f = -alpha*e^{it*Lap}psi0(0), the linearization its own source, and the
general scheme folds its Green-source term into f.

The bracket is i*lam_k times the causal mode integral h_k of the single
kernel `kernels.mode_history`, from which U is evaluated off the march, one
block of TIME_BLOCK nodes at a time.  A trajectory built from samples takes
its end-time h_k from `kernels.history_at_end`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .errors import (
    DomainCompatibilityError,
    InputError,
    SingularityError,
    StepSingularityError,
)
from .greens import SpectralShift, green_coefficients, green_origin
from .kernels import (
    ODD_INVERSE_EIGENVALUE_SUM,
    block_phases,
    discrete_h1_norm,
    history_at_end,
    mode_history,
    odd_eigenvalues,
    phi1,
    tail_deficit,
)
from .spectral import (
    DEFAULT_K_MAX,
    SpectralCoefficients,
    TimeGrid,
    free_origin_series,
    origin_trace,
)

STEP_SINGULARITY_MARGIN = 1e-12
BOUNDARY_COMPAT_TOL = 1e-9


@dataclass(frozen=True)
class CouplingProfile:
    """Coupling strength alpha(t) on [0, t_end] with pointwise value and derivative.

    kinds: 'constant' (value amplitude), 'sine_bump' (amplitude*sin(pi t/T),
    vanishing at both ends), 'piecewise_linear' (node samples on a uniform
    grid).
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
            arr = np.ascontiguousarray(self.samples, dtype=complex)
            if arr.ndim != 1 or arr.size < 2:
                raise InputError("samples must be a 1-d array with at least two nodes")
            if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
                raise InputError("samples must be finite")
            arr = arr.copy()
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
        arr = np.asarray(samples, dtype=complex)
        if arr.shape != (grid.n_steps + 1,):
            raise InputError("samples must match the grid nodes")
        return cls("piecewise_linear", grid.t_end, 0.0, arr)

    @property
    def is_real(self) -> bool:
        if self.kind == "piecewise_linear":
            return bool(np.all(self.samples.imag == 0))
        return True

    def _check_time(self, t: np.ndarray):
        if np.any(t < -1e-12) or np.any(t > self.t_end * (1 + 1e-12) + 1e-12):
            raise InputError("profile evaluated outside [0, t_end]")

    def value(self, t) -> np.ndarray | complex:
        ta = np.asarray(t, dtype=float)
        self._check_time(ta)
        if self.kind == "constant":
            out = np.full(ta.shape, self.amplitude, dtype=float)
        elif self.kind == "sine_bump":
            out = self.amplitude * np.sin(np.pi * ta / self.t_end)
        else:
            nodes = np.linspace(0.0, self.t_end, self.samples.size)
            out = np.interp(ta, nodes, self.samples.real).astype(complex)
            if not self.is_real:
                out = out + 1j * np.interp(ta, nodes, self.samples.imag)
        return out if np.ndim(t) else out[()]

    def derivative(self, t) -> np.ndarray | complex:
        ta = np.asarray(t, dtype=float)
        self._check_time(ta)
        if self.kind == "constant":
            out = np.zeros(ta.shape)
        elif self.kind == "sine_bump":
            out = self.amplitude * np.pi / self.t_end * np.cos(np.pi * ta / self.t_end)
        else:
            dt = self.t_end / (self.samples.size - 1)
            slopes = np.diff(self.samples) / dt
            idx = np.clip((ta / dt).astype(int), 0, slopes.size - 1)
            out = slopes[idx]
        return out if np.ndim(t) else out[()]

    def values_on(self, grid: TimeGrid) -> np.ndarray:
        return np.atleast_1d(self.value(grid.times))


@dataclass(frozen=True)
class ChargeTrajectory:
    """Grid samples of the charge plus its causal mode integrals at the final node,
    end_history_k = int_0^T q(s) e^{-i*lam_k*(T-s)} ds over odd k: from the march,
    or from kernels.history_at_end for a trajectory built from samples."""

    grid: TimeGrid
    q: np.ndarray = field(repr=False)
    k_max: int = DEFAULT_K_MAX
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
    """(Uq)(t_n) = -i*tail*q(t_n) + sum_k h_k(t_n) on every grid node.

    analytic_tail swaps the truncated instantaneous coefficient
    sum_{k<=k_max} 1/lam_k for the analytic pi^2/2 (tail = tail_deficit(k_max));
    without it tail = 0.  (Uq)(t_0) = 0 always (empty integral); the tail
    replacement only applies to marched nodes.
    """
    q = traj.q
    out = -1j * (tail_deficit(traj.k_max) if analytic_tail else 0.0) * q
    for nodes, _, h in mode_history(q, traj.grid.dt, odd_eigenvalues(traj.k_max)):
        out[nodes] += h.sum(axis=0)
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


def _march(f_nodes: np.ndarray, phi_nodes: np.ndarray, v0: complex, grid: TimeGrid,
           k_max: int) -> ChargeTrajectory:
    """Product-integration march for v = f - phi*(i/pi) U v with v(0) = v0.

    The history part of U at t_n is the discrete convolution
    w_n = w0_n + sum_{m<n} (v_m - v_{m-1}) kappa(n-m+1),
    kappa(j) = i sum_k e^{-i*lam_k*j*dt} phi1(i*lam_k*dt)/lam_k, so the nodes of
    a block of TIME_BLOCK steps solve one lower-triangular system

        (diag(d_n) + diag(phi_n*i/pi) L) v = f_n - phi_n*(i/pi)*w_old_n
                                             + phi_n*(i/pi)*kappa(n-s+1)*v_{s-1}

    with d_n = 1 + phi_n*(pi^2/2 + i*kappa(1))/pi the per-step denominator and
    L[n, m] = kappa(n-m+1) - kappa(n-m) below the diagonal.  Older history
    enters through the modal accumulator acc_k = v0 + B_k(t_{s-1}): the
    right-hand side's history terms and the update of acc are each one product
    with the block-relative phases e^{-i*lam_k*r*dt}, r <= TIME_BLOCK,
    re-anchored by one exact e^{-i*lam_k*t_{s-1}} per block (both from
    kernels.block_phases, as in mode_history).  Every d_n is
    checked before the march; the first one below STEP_SINGULARITY_MARGIN
    raises StepSingularityError.  At the end acc gives the end_history.
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
    lower = toeplitz(np.concatenate(([0.0], np.diff(kappa))), np.zeros(block))

    q = np.empty(n_steps + 1, dtype=complex)
    q[0] = v0
    acc = np.full(lam.size, v0, dtype=complex)
    for b, s in enumerate(range(1, n_steps + 1, block)):
        m = min(block, n_steps + 1 - s)
        nodes = slice(s, s + m)
        anchor = anchors[b]  # e^{-i lam t_{s-1}}
        history = phases[1:m + 1] @ (anchor * (-acc / lam)) / np.pi
        rhs = f_nodes[nodes] - phi_nodes[nodes] * history + coupling[nodes] * kappa[:m] * q[s - 1]
        system = coupling[nodes, None] * lower[:m, :m]
        system.flat[::m + 1] = d[s - 1:s - 1 + m]
        q[nodes] = solve_triangular(system, rhs, lower=True, check_finite=False)
        acc += p1 * np.conj(anchor * (np.conj(np.diff(q[s - 1:s + m])) @ phases[:m]))

    end_phase = np.exp(-1j * lam * (n_steps * dt))
    return ChargeTrajectory(grid, q, k_max, (q[-1] - end_phase * acc) / (1j * lam))


def solve_charge_general(f, phi: CouplingProfile, shift: SpectralShift, grid: TimeGrid,
                         k_max: int = DEFAULT_K_MAX, v0: complex | None = None) -> ChargeTrajectory:
    """Grid solution of v = f - phi*(v(0)*g(t) + (i/pi) U v), g the Green origin series.

    g(t) = (1/pi) sum_k e^{-i*lam_k*t}/(lam_k + lam) is the origin series of the
    freely evolved Green state G^lam(., 0); the Green-source term is folded
    into the source, so the march solves v = f - phi*v0*g - phi*(i/pi) U v.
    f may be a node-sample array or a callable of t.  When v0 is not supplied
    it comes from initial_charge with the closed-form Green value.
    """
    times = grid.times
    f_nodes = np.asarray(f(times) if callable(f) else f, dtype=complex)
    if f_nodes.shape != times.shape:
        raise InputError("f samples must match the grid nodes")
    phi_nodes = np.atleast_1d(np.asarray(phi.values_on(grid)))
    if v0 is None:
        v0 = initial_charge(f_nodes[0], phi_nodes[0], shift)
    v0 = complex(v0)
    green = free_origin_series(green_coefficients(shift, k_max), times)
    return _march(f_nodes - phi_nodes * v0 * green, phi_nodes, v0, grid, k_max)


def solve_charge(alpha: CouplingProfile, psi0, grid: TimeGrid,
                 k_max: int = DEFAULT_K_MAX) -> ChargeTrajectory:
    """Solve q = -alpha*(e^{it*Lap}psi0(0) + (i/pi) U q) on the grid.

    psi0 is a SpectralCoefficients vector or a DomainState-like object with
    .charge and .full_coefficients().  The initial charge is q(0) =
    -alpha(0)*psi0(0), or the DomainState's own charge; the march then takes
    f = -alpha * e^{it*Lap}psi0(0) on the full state, whose Green part needs
    no separate source term, so the resolvent shift of the split drops out.
    """
    if not alpha.is_real:
        raise InputError("the physical coupling must be real-valued")
    times = grid.times
    alpha_nodes = np.real(alpha.values_on(grid))

    if isinstance(psi0, SpectralCoefficients):
        full = psi0
        q0 = -complex(alpha_nodes[0]) * origin_trace(psi0)
    else:
        q0 = complex(psi0.charge)
        full = psi0.full_coefficients()
        if q0 != 0:
            resid = abs(q0 + alpha_nodes[0] * origin_trace(full))
            if resid > BOUNDARY_COMPAT_TOL:
                raise DomainCompatibilityError(
                    f"initial state violates -q = alpha*psi(0) by {resid:.3e}")
    if full.k_max != k_max:
        raise InputError(
            f"state truncation {full.k_max} must match the solver k_max {k_max}")

    f_nodes = -alpha_nodes * free_origin_series(full, times)
    return _march(f_nodes, alpha_nodes.astype(complex), q0, grid, k_max)


def lipschitz_probe(alpha: CouplingProfile, alpha_tilde: CouplingProfile, psi0,
                    grid: TimeGrid, k_max: int = DEFAULT_K_MAX) -> tuple[float, float]:
    """Discrete-H^1 distances (|q - q_tilde|, |alpha - alpha_tilde|) for ratio studies."""
    qa = solve_charge(alpha, psi0, grid, k_max)
    qb = solve_charge(alpha_tilde, psi0, grid, k_max)
    dq = discrete_h1_norm(qa.q - qb.q, grid.dt)
    da = discrete_h1_norm(
        np.asarray(alpha.values_on(grid), dtype=complex)
        - np.asarray(alpha_tilde.values_on(grid), dtype=complex), grid.dt)
    return dq, da
