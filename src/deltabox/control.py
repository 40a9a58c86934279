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
pinning it.)  With n steps of T every phase is a lattice point,
lam_k*t_j = 2*pi*((k^2*N*j) mod n)/n (kernels.lattice_angles), and `solve_moment`
synthesizes rho on one of two paths, by a rule on the sizes alone: a sparse
target (2 modes in the steering experiment) as the sine sum itself over its
nonzero modes, a dense one as one folded inverse FFT.

The control is the real coupling alpha = 2*Re(u_c) built from such a rho
(`synthesize_control`), with the carrier e^{i*lam_kbar*t_j} on the same lattice:
its conjugate half couples the mode pairs j^2 + k^2 = 2*k_bar^2, and
`real_moments` chooses the moments that reach the part of the target a real
control can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charge import ChargeTrajectory, CouplingProfile, _march, apply_U, solve_charge
from .errors import InputError, UnsupportedHorizonError
from .kernels import TIME_BLOCK, fit_loglog_slope, lattice_angles, odd_eigenvalues, phi1
from .propagator import assemble_F, end_state, initial_coefficients
from .spectral import (
    INV_SQRT_PI,
    SpectralCoefficients,
    TimeGrid,
    free_evolve,
    free_origin_series,
)

BASE_HORIZON = 8.0 * np.pi
# step sizes of the steering experiment, in units of the target's norm
STEERING_EPSILONS = (1e-1, 3e-2, 1e-2)


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
        if self.periods < 1 or abs(self.t_end / BASE_HORIZON - self.periods) > 1e-9:
            raise UnsupportedHorizonError(
                f"horizon {self.t_end} is not a positive integer multiple of 8*pi")
        if self.k_max**2 * self.periods > np.iinfo(np.int64).max:
            raise InputError(f"horizon {self.t_end}: k^2*N for k <= {self.k_max} leaves int64")

    @property
    def k_max(self) -> int:
        return self.c.k_max

    @property
    def periods(self) -> int:
        """N of the horizon T = 8*pi*N."""
        return int(round(self.t_end / BASE_HORIZON))

    @property
    def harmonics(self) -> np.ndarray:
        """k^2*N for the odd modes k <= k_max: lam_k*t_j = 2*pi*(k^2*N)*j/n on n steps of T."""
        return np.arange(1, self.k_max + 1, 2, dtype=np.int64) ** 2 * self.periods


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


def _fold(target: ControlTarget, n: int):
    """The lattice of the target's moment bins (k^2*N) mod n on n steps of its horizon T = 8*pi*N.

    Every odd k has k^2 = 1 (mod 8), so with f = gcd(n, 8) every bin is r = N (mod f).
    With M = n/f, bin f*j + r of an n-point sum X_b = sum_t x_t e^{2*pi*i*b*t/n} is
    bin j of the M-point sum of the folded, twisted samples

        z_m = e^{2*pi*i*r*m/n} * sum_{p<f} e^{2*pi*i*r*p/f} x_{m+p*M},    m < M.

    Returns the roots e^{2*pi*i*r*p/f} (p < f, so f is their number), the twiddles
    e^{2*pi*i*r*m/n} (m < M) and each mode's bin index j.  Every phase is a point of
    the n-point lattice (kernels.lattice_angles): a root is the harmonic r*M at p, and
    the twiddles are anchor x table, the harmonic r*B at every block b of B = TIME_BLOCK
    points times the harmonic r at the block's m < B, about M/B + B exps, not M.
    """
    f = math.gcd(n, 8)
    size = n // f
    r = target.periods % f
    roots = np.exp(1j * lattice_angles(r * size, n, f))
    anchors = np.exp(1j * lattice_angles(r * TIME_BLOCK, n, -(-size // TIME_BLOCK)))
    table = np.exp(1j * lattice_angles(r, n, TIME_BLOCK))
    twiddle = np.multiply.outer(anchors, table).reshape(-1)[:size]
    return roots, twiddle, (target.harmonics % n - r) // f


def check_resolved(target: ControlTarget, n_steps: int) -> None:
    """Refuse a nonzero target mode at or above the Nyquist bin of n_steps on T = 8*pi*N:
    its harmonic k^2*N folds onto another frequency of the grid."""
    aliased = np.flatnonzero((target.harmonics >= (n_steps + 1) // 2) & (target.c.a[0::2] != 0))
    if aliased.size:
        k, h = 2 * aliased[-1] + 1, int(target.harmonics[aliased[-1]])
        raise InputError(f"target mode k={k} (k^2*N = {h}) is aliased on {n_steps} steps; "
                         f"it needs at least {2 * h + 1}")


def solve_moment(target: ControlTarget, grid: TimeGrid | None = None) -> np.ndarray:
    """Particular moment-problem solution rho with rho(0) = rho(T) = 0, on grid's nodes
    (2^15*N steps when no grid is given; every program path passes its grid).

    Requires a grid spanning the target's horizon T = 8*pi*N to within 1e-9.
    On [0, 8*pi] the solution is the sine superposition described in the module
    docstring, zero on the nodes j > n/N (t_j > 8*pi).  With n steps, lam_k*t_j =
    2*pi*(k^2*N)*j/n, and rho has two syntheses of the same sum:

    - `_direct_synthesis` sums the sines of the K nonzero modes on the nodes
      t_j <= 8*pi, from their exact lattice phases: at most K*n sines;
    - `_folded_synthesis` takes one inverse FFT of length M = n/f, f = gcd(n, 8),
      whose work grows as M*log2(M), and twists it by the fold's roots and twiddles
      (`_fold`), which are lattice phases too: no path reads kernels.block_phases.

    The direct sum is taken when K*n <= M*log2(M).  Grids of the control command
    need the rule: its default n = 25133 = 41*613 has a large prime factor, where
    numpy's FFT falls back to Bluestein's algorithm (several power-of-two FFTs of
    length at least 2*M) and one transform costs several times a 2-mode sine sum.
    Dense targets, as in verify's moment-exactness (201 modes on 2^19 steps), keep
    the FFT.
    """
    if grid is None:
        grid = TimeGrid(target.t_end, (1 << 15) * target.periods)
    if abs(grid.t_end - target.t_end) > 1e-9:
        raise InputError("control grid horizon must match the target horizon")
    check_resolved(target, grid.n_steps)
    n = grid.n_steps
    fft_size = n // math.gcd(n, 8)
    direct = np.count_nonzero(target.c.a[0::2]) * n <= fft_size * math.log2(fft_size)
    rho = (_direct_synthesis if direct else _folded_synthesis)(target, n)
    rho[n // target.periods + 1:] = 0.0  # t_j > 8*pi
    rho[0] = rho[n] = 0.0  # sin(0) = sin(2*pi*k^2) = 0 exactly at t = 0 and t = 8*pi
    return rho


def _direct_synthesis(target: ControlTarget, n: int) -> np.ndarray:
    """rho on the n+1 nodes as the sine sum itself over the target's nonzero modes, on the
    nodes j <= n/N (t_j <= 8*pi), each sine of its lattice phase (kernels.lattice_angles)."""
    rho = np.zeros(n + 1, dtype=complex)
    count = n // target.periods + 1
    c = target.c.a[0::2] * (-INV_SQRT_PI / 4.0)
    for k in np.flatnonzero(c):
        rho[:count] += c[k] * np.sin(lattice_angles(target.harmonics[k], n, count))
    return rho


def _folded_synthesis(target: ControlTarget, n: int) -> np.ndarray:
    """rho on the first n nodes by the transpose of the fold (`_fold`), rho[n] unset.

    sin(lam_k t) is the grid harmonic at the bins (k^2*N) mod n, less its mirror at
    the bins -(k^2*N) mod n: one n/f-point inverse FFT A of the mode spectrum at the
    bins' indices, whose mirror bins are the same sums read backwards, A[-m mod M].
    Row p of rho's (f, M) buffer, t = m + p*M, is
    roots[p]*twiddle*A[m] - conj(roots[p]*twiddle)*A[-m mod M].
    """
    roots, twiddle, index = _fold(target, n)
    # rho[:n] as f rows, t = m + p*M.  Row 0 holds the spectrum times -(sqrt(pi)/(4*pi)),
    # then its transform A in place; the synthesis adds one M-point array, A[-m mod M]
    rho = np.empty(n + 1, dtype=complex)
    rows = rho[:n].reshape(roots.size, -1)
    a = rows[0]
    a.fill(0.0)
    np.add.at(a, index, target.c.a[0::2] * (-INV_SQRT_PI / 4.0) / 2j)
    np.fft.ifft(a, norm="forward", out=a)
    b = np.concatenate((a[:1], a[:0:-1]))  # A[-m mod M]
    a *= twiddle
    b *= np.conj(twiddle)
    # e^{2*pi*i*r*(p + f/2)/f} = (-1)^r*e^{2*pi*i*r*p/f}, so the rows p >= f/2 are signed copies
    half = max(1, roots.size // 2)
    buf = np.empty_like(b) if half > 1 else None
    for p in range(1, half):
        np.multiply(a, roots[p], out=rows[p])
        rows[p] -= np.multiply(roots[p].conj(), b, out=buf)
    a -= b  # row 0 last, as it holds a; roots[0] = 1
    if half < roots.size:
        np.multiply(rows[:half], roots[half].real, out=rows[half:])  # Re roots[f/2] = +-1 exactly
    return rho


def _pl_end_history(samples: np.ndarray, target: ControlTarget) -> np.ndarray:
    """End history h(T) = int_0^T rho_PL(s) e^{-i*lam_k*(T-s)} ds over the target's odd
    modes of complex samples on the n+1 nodes of its horizon T = 8*pi*N.  The sums B
    are the Fourier bins (k^2*N) mod n of the increments, solve_moment's bins, taken
    with one n/f-point inverse FFT of their fold (`_fold`).  On the lattice
    e^{-i*lam_k*T} = 1 exactly, so h(T) = (rho(T) - rho(0) - B)/(i*lam_k).
    """
    grid = TimeGrid(target.t_end, samples.size - 1)
    lam = odd_eigenvalues(target.k_max)
    roots, twiddle, index = _fold(target, grid.n_steps)
    # bin j: sum_m inc_m e^{+2*pi*i*j*m/n}.  The increments' fold is two products over
    # (f, M) views of the samples, so no n-point array is made beside them unless f = 1
    z = roots @ samples[1:].reshape(roots.size, -1)
    z -= roots @ samples[:-1].reshape(roots.size, -1)
    z *= twiddle
    np.fft.ifft(z, norm="forward", out=z)
    b = z[index] * phi1(1j * lam * grid.dt)
    return (samples[-1] - samples[0] - b) / (1j * lam)


def moment_residual(samples, target: ControlTarget) -> float:
    """max_k |c_k - (i/sqrt(pi)) int_0^T rho(s) e^{-i*lam_k*(T-s)} ds| over the odd modes.

    samples are rho on the n+1 nodes of the uniform grid over the target's horizon
    T = 8*pi*N, as from solve_moment.  The moments are the odd part of assemble_F
    of rho: each segment of the piecewise-linear rho is integrated exactly,
    independently of how rho was constructed.
    """
    h = _pl_end_history(np.asarray(samples, dtype=complex), target)
    return float(np.max(np.abs(target.c.a[0::2] - 1j * INV_SQRT_PI * h)))


def real_moments(target: ControlTarget, k_bar: int, grid: TimeGrid):
    """Moments m over the odd modes whose real control reaches the target from psi_kbar
    on grid, and the part c - s*p of the target that no real control reaches.

    u_c = -sqrt(pi) * rho * e^{i*lam_kbar*t} puts the moments m of rho on the
    linear charge; the real alpha = u_c + conj(u_c) adds conj(rho)*e^{-2i*lam_kbar*t},
    which on T = 8*pi*N (e^{-i*lam_k*T} = 1) meets mode k only where a mode j has
    j^2 + k^2 = 2*k_bar^2: the pairs of _frequency_collisions and the anchor pair
    (k_bar, k_bar).  There mode k receives m_k - conj(m_j).  The march sees the
    piecewise-linear interpolant of the samples, which scales mode k by
    s_k = sinc^2(lam_k*dt/2) = sinc^2(pi*k^2*N/n), so the target is compensated to
    q = c/s (check_resolved keeps k^2*N < n/2, where 1/s_k <= pi^2/4).  On each pair
    q is projected onto what a real control reaches, p_j = (q_j - conj(q_k))/2 and
    p_k = (q_k - conj(q_j))/2, whose moments are m = p/2; elsewhere m = p = q.
    """
    if k_bar % 2 == 0 or not 1 <= k_bar <= target.k_max:
        raise InputError(f"the anchor eigenstate k_bar={k_bar} must be an even-sector "
                         f"mode (odd k) in 1..{target.k_max}")
    check_resolved(target, grid.n_steps)
    c = target.c.a[0::2]
    s = np.sinc(target.harmonics / grid.n_steps) ** 2
    q = np.divide(c, s, out=np.zeros_like(c), where=c != 0)  # s_k may be 0 where c_k = 0
    j, k = np.array(_frequency_collisions(k_bar, target.k_max) + [(k_bar, k_bar)]).T // 2
    p = q.copy()
    p[j], p[k] = (q[j] - q[k].conj()) / 2, (q[k] - q[j].conj()) / 2
    unreachable = s * (q - p)
    p[np.concatenate((j, k))] /= 2  # m = p/2; the anchor's index, listed twice, is halved once
    return p, unreachable


def synthesize_control(target: ControlTarget, k_bar: int, grid: TimeGrid) -> CouplingProfile:
    """Real first-order control alpha = 2*Re(u_c) on grid for steering psi_kbar by the
    target at alpha = 0, u_c = -sqrt(pi) * rho * e^{i*lam_kbar*t}.

    rho is solve_moment of the moments of real_moments, so dGamma_0(alpha) is the
    reachable part of the target (all of it off the collision pairs) up to rounding.
    The carrier's phase lam_kbar*t_j is the lattice point of the harmonic k_bar^2*N
    (kernels.lattice_angles), within a few eps of the exact one at any k_bar.
    A partner mode that the grid aliases is refused by solve_moment's check_resolved.
    """
    m = real_moments(target, k_bar, grid)[0]
    a = np.zeros(target.k_max, dtype=complex)
    a[0::2] = m
    rho = solve_moment(ControlTarget(SpectralCoefficients(target.k_max, a), target.t_end), grid)
    rho *= np.exp(1j * lattice_angles(target.harmonics[k_bar // 2], grid.n_steps, rho.size))
    alpha = -2.0 * np.sqrt(np.pi) * rho.real
    alpha += 0.0  # rho's exact zeros give -0.0; the control file shows them as 0.0
    return CouplingProfile.piecewise_linear(grid, alpha)


@dataclass(frozen=True)
class SteeringReport:
    """Remainder scaling of first-order steering around an eigenstate."""

    k_bar: int
    remainders: tuple
    displacement_errors: tuple  # |Gamma(a) - free - dGamma(a)| / |dGamma(a)|
    remainder_slope: float
    collision_note: str

    def to_text(self) -> str:
        lines = [f"steering anchor k_bar={self.k_bar}",
                 f"remainder slope (log-log): {self.remainder_slope:.4f}"]
        for eps, r, d in zip(STEERING_EPSILONS, self.remainders, self.displacement_errors):
            lines.append(f"  eps={eps:<8g} remainder={r:.6e} displacement_rel_err={d:.6e}")
        lines.append(self.collision_note)
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


def controllability_experiment(k_bar: int, target: ControlTarget, control: CouplingProfile,
                               reach: SpectralCoefficients) -> SteeringReport:
    """Nonlinear steering test around psi_kbar, at the truncation of the target, with
    the real control synthesized for it (synthesize_control).

    For each eps in STEERING_EPSILONS the control scaled by eps/|target| drives the
    full evolution, so eps is the size of the step in the target's direction, and the
    remainder against the first-order prediction e^{-i*lam_kbar*T}psi_kbar + dGamma_0(alpha)
    is recorded; the log-log remainder slope estimates the quadratic order of the
    rest term.  reach is dGamma_0(control), the linearization at alpha = 0
    (apply_linearized) that the `control` command reports; it is linear in the
    control, so reach/|target| times eps predicts every step.
    """
    norm = target.c.norm()
    if norm == 0:
        raise InputError("the steering experiment needs a nonzero target")
    grid = control.grid
    psi0 = SpectralCoefficients.unit(k_bar, target.k_max)
    free_final = free_evolve(psi0, grid.t_end)
    unit = control.samples / norm

    linear_unit = reach.scaled(1.0 / norm)
    remainders = []
    disp_errors = []
    for eps in STEERING_EPSILONS:
        final = gamma(CouplingProfile.piecewise_linear(grid, eps * unit), psi0, grid)
        linear = linear_unit.scaled(eps)
        remainders.append(final.sub(free_final).sub(linear).norm())
        lin_norm = linear.norm()
        disp_errors.append(remainders[-1] / lin_norm if lin_norm > 0 else np.inf)

    slope = fit_loglog_slope(STEERING_EPSILONS, remainders)
    pairs = _frequency_collisions(k_bar, target.k_max)
    note = ("frequency collisions (j^2+k^2=2*k_bar^2): none" if not pairs
            else f"frequency collisions (j^2+k^2=2*k_bar^2): {pairs} "
                 "(a real control reaches their projection; the rest is unreachable)")
    return SteeringReport(
        k_bar=k_bar, remainders=tuple(remainders),
        displacement_errors=tuple(disp_errors), remainder_slope=slope,
        collision_note=note)
