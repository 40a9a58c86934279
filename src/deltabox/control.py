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
from .kernels import block_phases, close_history, fit_loglog_slope, odd_eigenvalues, phi1
from .propagator import assemble_F, end_state, initial_coefficients
from .spectral import (
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

    def check_grid(self, grid: TimeGrid) -> None:
        """Refuse a control grid whose horizon differs from the target's by more than 1e-9."""
        if abs(grid.t_end - self.t_end) > 1e-9:
            raise InputError("control grid horizon must match the target horizon")


@dataclass(frozen=True)
class SynthesizedControl:
    """Grid samples of a synthesized complex control profile."""

    grid: TimeGrid
    u: np.ndarray = field(repr=False)

    @property
    def realness_defect(self) -> float:
        return float(np.max(np.abs(self.u.imag)))


def _horizon_periods(t_end: float) -> int:
    n = t_end / BASE_HORIZON
    n_round = int(round(n))
    if n_round < 1 or abs(n - n_round) > 1e-9:
        raise UnsupportedHorizonError(
            f"horizon {t_end} is not a positive integer multiple of 8*pi")
    return n_round


def gamma(alpha: CouplingProfile, psi0, grid: TimeGrid) -> SpectralCoefficients:
    """End-time state e^{iT*Lap} psi0 + F(q_alpha, T) of the nonlinear evolution
    (propagator.end_state of the charge solve; evolve's final state)."""
    return end_state(initial_coefficients(psi0), solve_charge(alpha, psi0, grid))


def apply_linearized(alpha: CouplingProfile, u, psi0: SpectralCoefficients,
                     grid: TimeGrid) -> SpectralCoefficients | list[SpectralCoefficients]:
    """Directional derivative of Gamma at alpha in the direction u.

    u is node samples (n+1,), real or complex, or a stack of R directions
    (R, n+1), for which the result is a list of R states, one per row.  The
    linear charge is marched with the same kernels as the nonlinear solve,
    with source f = -u * (e^{it*Lap}psi0(0) + (i/pi) U q_alpha) and
    qdot(0) = f(0), so the result is the exact derivative of the discrete map,
    at psi0's truncation.  The source's factor in brackets is formed once, and
    a stack is one march of R sources.  Where alpha vanishes on every node the
    march is the identity: the linear charge is f, and only its end history
    (kernels.history_at_end) is computed.
    """
    times = grid.times
    u_nodes = np.asarray(u, dtype=complex)
    if u_nodes.shape[-1:] != times.shape or u_nodes.ndim > 2:
        raise InputError("u samples must match the grid nodes")

    source = free_origin_series(psi0, times)
    alpha_nodes = alpha.values_on(grid)
    if not np.any(alpha_nodes):
        states = [assemble_F(ChargeTrajectory(grid, -row * source, psi0.k_max))
                  for row in np.atleast_2d(u_nodes)]
        return states if u_nodes.ndim == 2 else states[0]
    f_nodes = (-u_nodes * (source + (1j / np.pi) * apply_U(solve_charge(alpha, psi0, grid)))).T
    qdot = _march(f_nodes, alpha_nodes, f_nodes[0], grid, psi0.k_max)
    return [assemble_F(q) for q in qdot] if u_nodes.ndim == 2 else assemble_F(qdot)


def _odd_harmonics(k_max: int, n_periods: int) -> np.ndarray:
    """k^2*N for the odd modes k <= k_max: lam_k*t_j = 2*pi*(k^2*N)*j/n on n steps of 8*pi*N."""
    return np.arange(1, k_max + 1, 2, dtype=np.int64) ** 2 * n_periods


# e^{2*pi*i*p/8}, exact where the value is representable
_EIGHTH_ROOTS = np.array([1, np.sqrt(0.5) * (1 + 1j), 1j, np.sqrt(0.5) * (-1 + 1j),
                          -1, -np.sqrt(0.5) * (1 + 1j), -1j, np.sqrt(0.5) * (1 - 1j)])


def _fold(n: int, bins: np.ndarray):
    """Prune the n-point sums X_b = sum_m x_m e^{2*pi*i*b*m/n} to the residue class of `bins`.

    f is the largest divisor of gcd(n, 8) with every bin = r (mod f).  Every odd k
    has k^2 = 1 (mod 8), so the moment bins (k^2*N) mod n give f = gcd(n, 8) and
    r = N mod f.  With M = n/f, bin f*j + r of the n-point sum is bin j of the
    M-point sum of the folded, twisted samples

        z_m = e^{2*pi*i*r*m/n} * sum_{p<f} e^{2*pi*i*r*p/f} x_{m+p*M},    m < M.

    Returns f, r, the roots e^{2*pi*i*r*p/f} (p < f), the twiddles e^{2*pi*i*r*m/n}
    (m < M; None when r = 0, where they are exactly 1) and each bin's index j.
    The twiddles are the phases of one frequency on the grid m*(2*pi*r/n), as
    anchor x table from kernels.block_phases: about M/TIME_BLOCK + TIME_BLOCK
    exps, not M.
    """
    f = int(np.gcd.reduce(np.concatenate(([n, 8], bins - bins[:1]))))
    r = int(bins[0]) % f if bins.size else 0
    roots = _EIGHTH_ROOTS[(8 // f) * r * np.arange(f) % 8]
    twiddle = None
    if r:
        table, anchors = block_phases(np.array([-1.0]), 2.0 * np.pi * r / n, n // f - 1)
        twiddle = (anchors * table[:-1, 0]).reshape(-1)[:n // f]
    return f, r, roots, twiddle, (bins - r) // f


def check_resolved(target: ControlTarget, n_steps: int) -> None:
    """Refuse a nonzero target mode at or above the Nyquist bin of n_steps on T = 8*pi*N:
    its harmonic k^2*N folds onto another frequency of the grid."""
    harmonics = _odd_harmonics(target.k_max, _horizon_periods(target.t_end))
    aliased = np.flatnonzero((2 * harmonics >= n_steps) & (target.c.a[0::2] != 0))
    if aliased.size:
        k, h = 2 * aliased[-1] + 1, harmonics[aliased[-1]]
        raise InputError(f"target mode k={k} (k^2*N = {h}) is aliased on {n_steps} steps; "
                         f"it needs at least {2 * h + 1}")


def solve_moment(target: ControlTarget, grid: TimeGrid | None = None) -> SynthesizedControl:
    """Particular moment-problem solution rho with rho(0) = rho(T) = 0.

    Requires T = 8*pi*N.  On [0, 8*pi] the solution is the sine superposition
    described in the module docstring, zero after 8*pi.  With n steps,
    lam_k*t_j = 2*pi*(k^2*N)*j/n, so every sin(lam_k t) is a harmonic of the
    grid, at the bins (k^2*N) mod n and -(k^2*N) mod n.  These lie in the
    classes N and -N mod f = gcd(n, 8) (`_fold`), so rho is synthesized by the
    transpose of the fold: one n/f-point inverse FFT of the class-N spectrum
    and, when -N is another class, one n/f-point FFT of the -bins at the same
    indices, spread over the f rows of rho's own buffer.
    """
    n_periods = _horizon_periods(target.t_end)
    if grid is None:
        grid = TimeGrid(target.t_end, DEFAULT_CONTROL_STEPS * n_periods)
    target.check_grid(grid)

    check_resolved(target, grid.n_steps)
    c_odd = target.c.a[0::2]
    n = grid.n_steps
    bins = _odd_harmonics(target.k_max, n_periods) % n
    f, r, roots, twiddle, index = _fold(n, bins)
    # rho[:n] as f rows, t = m + p*n/f.  Row 0 holds the class-N spectrum, then its
    # transform, in place: the synthesis adds no full-length array to rho
    rho = np.zeros(n + 1, dtype=complex)
    rows = rho[:n].reshape(f, n // f)
    a = rows[0]
    np.add.at(a, index, c_odd / 2j)
    if 2 * r % f == 0:  # -N = N (mod f): one class, r = 0 or f/2, roots +-1
        np.add.at(a, ((-bins) % n - r) // f, -c_odd / 2j)
        np.fft.ifft(a, norm="forward", out=a)
        if twiddle is not None:
            a *= twiddle
        np.multiply(roots[1:, None], a, out=rows[1:])
    else:
        # bin n - b of class -N is e^{-2*pi*i*b*t/n}: a forward FFT at b's index, in row 1
        b = rows[1]
        np.add.at(b, index, -c_odd / 2j)
        np.fft.ifft(a, norm="forward", out=a)
        np.fft.fft(b, out=b)
        a *= twiddle
        b *= twiddle.conj()
        # row p = roots[p]*a + conj(roots[p])*b; rows 0 and 1 last, as they hold a and b.
        # (A matmul here pages in OpenBLAS's GEMM buffer early: the steering run's peak RSS rose.)
        for p in range(f - 1, 1, -1):
            np.multiply(a, roots[p], out=rows[p])
            rows[p] += roots[p].conj() * b
        row1 = roots[1] * a + roots[1].conj() * b
        a += b
        rows[1] = row1
    rho *= -INV_SQRT_PI / 4.0  # -(sqrt(pi)/(4*pi))
    # zero after 8*pi: the nodes j*dt > 8*pi*(1 + 1e-12), all at or after node
    # n // N, since every earlier node lies at least dt inside 8*pi
    first = n // n_periods
    rho[first:][grid.dt * np.arange(first, n + 1) > BASE_HORIZON * (1 + 1e-12)] = 0.0
    rho[n] = 0.0  # sin(2*pi*k^2) = 0 exactly at t = 8*pi
    return SynthesizedControl(grid, rho)


def _pl_end_history(samples: np.ndarray, grid: TimeGrid, k_max: int) -> np.ndarray:
    """End history h(T) = int_0^T rho_PL(s) e^{-i*lam_k*(T-s)} ds over odd k <= k_max on
    T = 8*pi*N.  The slope-moment sums B are the Fourier bins (k^2*N) mod n of the
    increments, the bins of solve_moment, taken with one n/f-point FFT of their fold
    (`_fold`) and closed by close_history.
    """
    lam = odd_eigenvalues(k_max)
    n = grid.n_steps
    f, r, roots, twiddle, index = _fold(n, _odd_harmonics(k_max, _horizon_periods(grid.t_end)) % n)
    inc = np.diff(samples)
    # bin j: sum_m inc_m e^{+2*pi*i*j*m/n}.  The fold accumulates in inc's first
    # row, transformed in place as in solve_moment (inc is complex)
    rows = inc.reshape(f, n // f)
    z = rows[0]
    if f > 1:
        z += roots[1:] @ rows[1:]
    if twiddle is not None:
        z *= twiddle
    np.fft.ifft(z, norm="forward", out=z)
    b = z[index] * phi1(1j * lam * grid.dt)
    return close_history(samples[-1], samples[0] + b, lam, grid.n_steps * grid.dt)


def moment_errors(rho: SynthesizedControl, target: ControlTarget) -> np.ndarray:
    """|c_k - (i/sqrt(pi)) int_0^T rho(s) e^{-i*lam_k*(T-s)} ds| for each odd k.

    The moments are the odd part of assemble_F of rho: each segment of the piecewise-linear
    control is integrated exactly, independently of how rho was constructed.  rho's grid
    must span the target's horizon T = 8*pi*N, as in solve_moment.
    """
    target.check_grid(rho.grid)
    h = _pl_end_history(np.asarray(rho.u, dtype=complex), rho.grid, target.k_max)
    return np.abs(target.c.a[0::2] - 1j * INV_SQRT_PI * h)


def moment_residual(rho: SynthesizedControl, target: ControlTarget) -> float:
    """max_k of moment_errors: the largest moment defect of rho over the odd modes."""
    return float(np.max(moment_errors(rho, target)))


def synthesize_control(rho: SynthesizedControl, k_bar: int) -> SynthesizedControl:
    """First-order control for steering psi_kbar by a target at alpha = 0.

    Inverts the linearized charge relation -qdot = u(t) e^{-i*lam_kbar*t}/sqrt(pi):
    u(t) = -sqrt(pi) * rho(t) * e^{i*lam_kbar*t} with rho the target's solve_moment.
    """
    if k_bar % 2 == 0:
        raise InputError("the anchor eigenstate must be an even-sector mode (odd k)")
    lam_bar = eigenvalue(k_bar)
    u = -np.sqrt(np.pi) * rho.u * np.exp(1j * lam_bar * rho.grid.times)
    return SynthesizedControl(rho.grid, u)


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
                               grid: TimeGrid) -> SteeringReport:
    """Nonlinear steering test around psi_kbar with the real part of the
    synthesized control, at the truncation of delta_direction.

    For each eps the control for eps*delta_direction is synthesized, its real
    part drives the full evolution, and the remainder against the first-order
    prediction e^{-i*lam_kbar*T}psi_kbar + dGamma_0(alpha) is recorded; the
    log-log remainder slope estimates the quadratic-order of the rest term.
    """
    t_start = time.time()
    norm = delta_direction.c.norm()
    if abs(norm - 1.0) > 1e-9:
        raise InputError("delta_direction must be normalized")
    psi0 = SpectralCoefficients.unit(k_bar, delta_direction.k_max)
    free_final = free_evolve(psi0, grid.t_end)
    control_unit = synthesize_control(solve_moment(delta_direction, grid), k_bar)

    # at alpha = 0 the linearization is linear in u: one solve serves every eps
    linear_unit = apply_linearized(CouplingProfile.zero(grid.t_end), control_unit.u.real,
                                   psi0, grid)
    remainders = []
    disp_errors = []
    defects = []
    for eps in epsilons:
        u_scaled = control_unit.u * eps
        alpha_re = CouplingProfile.piecewise_linear(grid, u_scaled.real)
        final = gamma(alpha_re, psi0, grid)
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
