"""Control map, its linearization, and trigonometric moment synthesis.

The end-time map Gamma(alpha) = e^{iT*Lap} psi0 + F(q_alpha, T) is steered by
the coupling profile.  Its directional derivative in a direction u solves the
linear charge-like equation

    qdot = -u * (e^{it*Lap}psi0(0) + (i/pi) U q_alpha) - alpha * (i/pi) U qdot,

the same march as the nonlinear solver, which makes the linearization the
exact derivative of the discrete map.

Targets supported on the even sector are reached at first order by solving the
moment problem c_k = (i/sqrt(pi)) int_0^T rho(s) e^{-i*lam_k*(T-s)} ds.  On
horizons T = 8*pi*N every lam_k is an integer harmonic of 2*pi/T, so a
particular solution respecting rho(0) = rho(T) = 0 is the sine superposition

    rho(t) = -(sqrt(pi)/(4*pi)) * sum_k c_k sin(lam_k t)   on [0, 8*pi],

extended by zero up to T.  (Orthogonality over [0, 8*pi] forces the 1/(8*pi)
normalization; the moment-residual quadrature below is the independent check
pinning it.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .charge import ChargeTrajectory, CouplingProfile, _march, apply_U, solve_charge
from .errors import InputError, UnsupportedHorizonError
from .kernels import MODE_BLOCK, fit_loglog_slope, history_at_end, odd_eigenvalues, phi1
from .propagator import assemble_F
from .spectral import (
    DEFAULT_K_MAX,
    INV_SQRT_PI,
    SpectralCoefficients,
    TimeGrid,
    eigenvalue,
    free_evolve,
    free_origin_series,
)

BASE_HORIZON = 8.0 * np.pi
DEFAULT_CONTROL_STEPS = 1 << 15


@dataclass(frozen=True)
class ControlTarget:
    """Even-sector target coefficients (odd mode indices only) with horizon T."""

    c: SpectralCoefficients
    t_end: float

    def __post_init__(self):
        defect = self.c.even_sector_defect()
        if defect != 0.0:
            raise InputError(
                f"target must be supported on the even sector (odd k); even-k defect {defect:g}")
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise InputError("horizon must be positive and finite")

    @property
    def k_max(self) -> int:
        return self.c.k_max


@dataclass(frozen=True)
class SynthesizedControl:
    """Grid samples of a synthesized complex control profile."""

    grid: TimeGrid
    u: np.ndarray = field(repr=False)
    realness_defect: float = 0.0

    def profile(self) -> CouplingProfile:
        return CouplingProfile.piecewise_linear(self.grid, self.u)


def _horizon_periods(t_end: float) -> int:
    n = t_end / BASE_HORIZON
    n_round = int(round(n))
    if n_round < 1 or abs(n - n_round) > 1e-9:
        raise UnsupportedHorizonError(
            f"horizon {t_end} is not a positive integer multiple of 8*pi")
    return n_round


def gamma(alpha: CouplingProfile, psi0, grid: TimeGrid,
          k_max: int = DEFAULT_K_MAX) -> SpectralCoefficients:
    """End-time state e^{iT*Lap} psi0 + F(q_alpha, T) of the nonlinear evolution."""
    full = psi0 if isinstance(psi0, SpectralCoefficients) else psi0.full_coefficients()
    charge = solve_charge(alpha, psi0, grid, k_max)
    return free_evolve(full, grid.t_end).add(assemble_F(charge))


def apply_linearized(alpha: CouplingProfile, u, psi0: SpectralCoefficients,
                     grid: TimeGrid, k_max: int = DEFAULT_K_MAX,
                     base_charge: ChargeTrajectory | None = None) -> SpectralCoefficients:
    """Directional derivative of Gamma at alpha in the direction u.

    u may be a CouplingProfile or complex node samples.  The linear charge is
    marched with the same kernels as the nonlinear solve, with source
    f = -u * (e^{it*Lap}psi0(0) + (i/pi) U q_alpha) and qdot(0) = f(0), so the
    result is the exact derivative of the discrete map.  At alpha = 0
    the march is the identity: the linear charge is f, and only its end
    history (kernels.history_at_end) is computed.
    """
    times = grid.times
    if isinstance(u, CouplingProfile):
        u_nodes = np.asarray(u.values_on(grid), dtype=complex)
    else:
        u_nodes = np.asarray(u, dtype=complex)
        if u_nodes.shape != times.shape:
            raise InputError("u samples must match the grid nodes")

    source = free_origin_series(psi0, times)
    if alpha_is_zero(alpha):
        return assemble_F(ChargeTrajectory(grid, -u_nodes * source, k_max))
    if base_charge is None:
        base_charge = solve_charge(alpha, psi0, grid, k_max)
    f_nodes = -u_nodes * (source + (1j / np.pi) * apply_U(base_charge))
    alpha_nodes = np.real(np.atleast_1d(alpha.values_on(grid))).astype(complex)
    qdot = _march(f_nodes, alpha_nodes, f_nodes[0], grid, k_max)
    return assemble_F(qdot)


def alpha_is_zero(alpha: CouplingProfile) -> bool:
    if alpha.kind == "piecewise_linear":
        return bool(np.all(alpha.samples == 0))
    return alpha.amplitude == 0.0


def solve_moment(target: ControlTarget, grid: TimeGrid | None = None) -> SynthesizedControl:
    """Particular moment-problem solution rho with rho(0) = rho(T) = 0.

    Requires T = 8*pi*N.  On [0, 8*pi] the solution is the sine superposition
    described in the module docstring; for N > 1 it is extended by zero.
    """
    n_periods = _horizon_periods(target.t_end)
    if grid is None:
        grid = TimeGrid(target.t_end, DEFAULT_CONTROL_STEPS * n_periods)
    elif abs(grid.t_end - target.t_end) > 1e-9:
        raise InputError("control grid horizon must match the target horizon")

    times = grid.times
    c_odd = target.c.a[0::2]
    lam = odd_eigenvalues(target.k_max)
    k_odd = np.arange(1, target.k_max + 1, 2)
    rho = np.zeros(times.size, dtype=complex)
    scale = -INV_SQRT_PI / 4.0  # -(sqrt(pi)/(4*pi))
    n = grid.n_steps
    if n_periods == 1:
        # every sin(lam_k t) is an exact DFT harmonic of the grid: synthesize
        # all modes with a single inverse FFT of the bin spectrum
        spec = np.zeros(n, dtype=complex)
        bins = (k_odd.astype(np.int64) ** 2) % n
        np.add.at(spec, bins, c_odd / 2j)
        np.add.at(spec, (-bins) % n, -c_odd / 2j)
        rho[:n] = scale * np.fft.ifft(spec) * n
        rho[n] = 0.0  # sin(2*pi*k^2) = 0 exactly at t = 8*pi
    else:
        active = times <= BASE_HORIZON * (1 + 1e-12)
        t_act = times[active]
        acc = np.zeros(t_act.size, dtype=complex)
        modes = np.flatnonzero(c_odd)
        for start in range(0, modes.size, MODE_BLOCK):
            idx = modes[start:start + MODE_BLOCK]
            acc += np.sin(np.outer(t_act, lam[idx])) @ c_odd[idx]
        rho[active] = scale * acc
    defect = float(np.max(np.abs(rho.imag)))
    return SynthesizedControl(grid, rho, defect)


def _pl_fourier_coefficients(samples: np.ndarray, grid: TimeGrid, lam: np.ndarray) -> np.ndarray:
    """Exact integrals int_0^T rho_PL(s) e^{i*lam*s} ds of the piecewise-linear
    interpolant, one value per requested frequency.

    Uses integration by parts: C = (rho_T e^{i lam T} - rho_0 - B)/(i lam) with
    B = sum_m (rho_m - rho_{m-1}) e^{i lam t_{m-1}} phi1(i lam dt).  When every
    lam*dt is a rational multiple of 2*pi/n (uniform grid), the segment sums
    are Fourier bins of the increment sequence, evaluated with one FFT;
    otherwise C = e^{i lam T} h(T) with h from the modal-history kernel.
    """
    dt = grid.dt
    t_end = grid.t_end
    bins = lam * t_end / (2.0 * np.pi)
    bins_round = np.round(bins)
    if not np.all(np.abs(bins - bins_round) < 1e-9):
        return np.exp(1j * lam * t_end) * history_at_end(samples, dt, lam)
    # every frequency is an exact DFT bin of the increment sequence
    inc = np.diff(samples)
    spectrum = np.fft.ifft(inc) * inc.size  # bin j: sum_m inc_m e^{+2*pi*i*j*m/n}
    b = spectrum[bins_round.astype(int) % grid.n_steps] * phi1(1j * lam * dt)
    return (samples[-1] * np.exp(1j * lam * t_end) - samples[0] - b) / (1j * lam)


def moment_residual(rho: SynthesizedControl, target: ControlTarget) -> float:
    """max_k |c_k - (i/sqrt(pi)) int_0^T rho(s) e^{-i*lam_k*(T-s)} ds| over odd k.

    The integral treats the sampled control as piecewise linear and integrates
    each segment exactly, independently of how rho was constructed.
    """
    lam = odd_eigenvalues(target.k_max)
    grid = rho.grid
    c_int = _pl_fourier_coefficients(np.asarray(rho.u, dtype=complex), grid, lam)
    moments = 1j * INV_SQRT_PI * np.exp(-1j * lam * grid.t_end) * c_int
    return float(np.max(np.abs(target.c.a[0::2] - moments)))


def synthesize_control(delta_target: ControlTarget, k_bar: int, t_end: float | None = None,
                       grid: TimeGrid | None = None) -> SynthesizedControl:
    """First-order control for steering psi_kbar by delta_target at alpha = 0.

    Inverts the linearized charge relation -qdot = u(t) e^{-i*lam_kbar*t}/sqrt(pi):
    u(t) = -sqrt(pi) * rho(t) * e^{i*lam_kbar*t} with rho from the moment solver.
    """
    if k_bar % 2 == 0:
        raise InputError("the anchor eigenstate must be an even-sector mode (odd k)")
    if t_end is not None and abs(t_end - delta_target.t_end) > 1e-9:
        raise InputError("horizon mismatch between target and request")
    rho = solve_moment(delta_target, grid)
    lam_bar = eigenvalue(k_bar)
    u = -np.sqrt(np.pi) * rho.u * np.exp(1j * lam_bar * rho.grid.times)
    defect = float(np.max(np.abs(u.imag)))
    return SynthesizedControl(rho.grid, u, defect)


@dataclass(frozen=True)
class SteeringReport:
    """Remainder scaling of first-order steering around an eigenstate."""

    k_bar: int
    epsilons: tuple
    remainders: tuple
    displacement_errors: tuple  # |Gamma(a) - free - dGamma(a)| / |dGamma(a)|
    remainder_slope: float
    realness_defects: tuple
    collision_note: str
    runtime_seconds: float

    def to_text(self) -> str:
        lines = [f"steering anchor k_bar={self.k_bar}",
                 f"remainder slope (log-log): {self.remainder_slope:.4f}"]
        for eps, r, d, rd in zip(self.epsilons, self.remainders,
                                 self.displacement_errors, self.realness_defects):
            lines.append(
                f"  eps={eps:<8g} remainder={r:.6e} displacement_rel_err={d:.6e} "
                f"im_defect={rd:.3e}")
        lines.append(self.collision_note)
        lines.append(f"runtime: {self.runtime_seconds:.1f} s")
        return "\n".join(lines)


def _frequency_collisions(k_bar: int, k_max: int) -> list[tuple[int, int]]:
    """Symmetric mode pairs (j, k) with j^2 + k^2 = 2*k_bar^2, which a real
    control couples at the same beat frequency."""
    pairs = []
    target = 2 * k_bar * k_bar
    for j in range(1, k_max + 1, 2):
        rem = target - j * j
        if rem <= j * j:
            break
        k = int(round(np.sqrt(rem)))
        if k * k == rem and k % 2 == 1 and k <= k_max:
            pairs.append((j, k))
    return pairs


def controllability_experiment(k_bar: int, epsilons, delta_direction: ControlTarget,
                               grid: TimeGrid, k_max: int = DEFAULT_K_MAX) -> SteeringReport:
    """Nonlinear steering test around psi_kbar with the real part of the
    synthesized control.

    For each eps the control for eps*delta_direction is synthesized, its real
    part drives the full evolution, and the remainder against the first-order
    prediction e^{-i*lam_kbar*T}psi_kbar + dGamma_0(alpha) is recorded; the
    log-log remainder slope estimates the quadratic-order of the rest term.
    """
    t_start = time.time()
    _horizon_periods(grid.t_end)
    norm = delta_direction.c.norm()
    if abs(norm - 1.0) > 1e-9:
        raise InputError("delta_direction must be normalized")
    psi0 = SpectralCoefficients.unit(k_bar, k_max)
    free_final = free_evolve(psi0, grid.t_end)
    control_unit = synthesize_control(delta_direction, k_bar, grid=grid)

    # at alpha = 0 the linearization is linear in u: one solve serves every eps
    linear_unit = apply_linearized(CouplingProfile.zero(grid.t_end),
                                   CouplingProfile.piecewise_linear(grid, control_unit.u.real),
                                   psi0, grid, k_max)
    remainders = []
    disp_errors = []
    defects = []
    for eps in epsilons:
        u_scaled = control_unit.u * eps
        alpha_re = CouplingProfile.piecewise_linear(grid, u_scaled.real)
        final = gamma(alpha_re, psi0, grid, k_max)
        linear = linear_unit.scaled(eps)
        predicted = free_final.add(linear)
        remainders.append(final.sub(predicted).norm())
        disp = final.sub(free_final)
        lin_norm = linear.norm()
        disp_errors.append(disp.sub(linear).norm() / lin_norm if lin_norm > 0 else np.inf)
        defects.append(float(np.max(np.abs(u_scaled.imag))))

    slope = fit_loglog_slope(list(epsilons), remainders)
    pairs = _frequency_collisions(k_bar, delta_direction.k_max)
    note = ("frequency collisions (j^2+k^2=2*k_bar^2): none" if not pairs
            else f"frequency collisions (j^2+k^2=2*k_bar^2): {pairs} "
                 "(real controls couple these pairs; not resolved here)")
    return SteeringReport(
        k_bar=k_bar, epsilons=tuple(epsilons), remainders=tuple(remainders),
        displacement_errors=tuple(disp_errors), remainder_slope=slope,
        realness_defects=tuple(defects), collision_note=note,
        runtime_seconds=time.time() - t_start)
