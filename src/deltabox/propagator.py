"""Wavefunction assembly from the charge, domain decomposition, and diagnostics.

The evolved state is the mild solution

    psi(t) = e^{it*Lap} psi0 + F(q, t),
    F(q, t) = (i/sqrt(pi)) sum_{k odd} ( int_0^t q(s) e^{-i*lam_k*(t-s)} ds ) psi_k,

with the per-mode integrals h_k(t) taken from the single modal-history kernel
(kernels.mode_history), the same exact piecewise-linear product integration
the charge march uses, walked in blocks of TIME_BLOCK nodes with the march's
phase table.  The final state is the end-time map a0*e^{-i*lam*T} +
(i/sqrt(pi))*h(T), from exact phases at T and the march's end history, as in
control.gamma.  States are stored as full spectral
coefficient vectors; the decomposition into regular part + charge * Green
state is computed on demand for a chosen shift (the split depends on the
shift, the operator does not).

Diagnostics evaluate the origin value of psi(t) with the tail-corrected mode
sum sum_odd a_k/sqrt(pi) + tail*q/pi (the same convention the charge equation
is solved with), so the boundary relation -q = alpha*psi(0) is checked
against the equation actually solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charge import ChargeTrajectory, CouplingProfile, solve_charge
from .errors import InputError
from .greens import SpectralShift, green_coefficients
from .kernels import mode_history, odd_eigenvalues, tail_deficit
from .spectral import DEFAULT_K_MAX, INV_SQRT_PI, SpectralCoefficients, TimeGrid, eigenvalues


@dataclass(frozen=True)
class DomainState:
    """Decomposition psi = regular + charge * G^lam(., 0) of a state in D(H_alpha)."""

    regular: SpectralCoefficients
    charge: complex
    shift: SpectralShift = SpectralShift()

    def full_coefficients(self) -> SpectralCoefficients:
        green = green_coefficients(self.shift, self.regular.k_max)
        return self.regular.add(green.scaled(self.charge))

    def h2_tail(self, k_from: int) -> float:
        """sum over k > k_from of lam_k^2 |a_k|^2 on the regular part."""
        lam = eigenvalues(self.regular.k_max)
        mask = np.arange(1, self.regular.k_max + 1) > k_from
        return float(np.sum((lam[mask] * np.abs(self.regular.a[mask])) ** 2))


def regular_part(state: SpectralCoefficients, q: complex,
                 shift: SpectralShift = SpectralShift()) -> SpectralCoefficients:
    """Subtract the singular Green component: phi = psi - q * G^lam(., 0)."""
    return state.sub(green_coefficients(shift, state.k_max).scaled(q))


def decompose(state: SpectralCoefficients, q: complex,
              shift: SpectralShift = SpectralShift()) -> DomainState:
    return DomainState(regular_part(state, q, shift), complex(q), shift)


def apply_hamiltonian(state: DomainState) -> SpectralCoefficients:
    """H_alpha psi = -phi'' - lam * q * G^lam(., 0), coefficientwise."""
    k_max = state.regular.k_max
    lam = eigenvalues(k_max)
    green = green_coefficients(state.shift, k_max)
    out = lam * state.regular.a - state.shift.lam * state.charge * green.a
    return SpectralCoefficients(k_max, out)


def assemble_F(traj: ChargeTrajectory) -> SpectralCoefficients:
    """State contribution F(q, T) of the charge history at the final node.

    Odd-mode coefficient: (i/sqrt(pi)) int_0^T q(s) e^{-i*lam_k*(T-s)} ds, the
    trajectory's end_history.  Even modes are zero.
    """
    a = np.zeros(traj.k_max, dtype=complex)
    a[0::2] = 1j * INV_SQRT_PI * traj.end_history
    return SpectralCoefficients(traj.k_max, a)


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory record: decimated state snapshots plus per-node diagnostics.

    snapshot_matrix[:, j] holds the coefficients at node snapshot_indices[j];
    `snapshots` and `state_at` wrap its columns on demand.
    """

    grid: TimeGrid
    k_max: int
    charge: ChargeTrajectory
    final_state: SpectralCoefficients
    snapshot_indices: np.ndarray = field(repr=False)
    snapshot_matrix: np.ndarray = field(repr=False)
    norm: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    boundary_residual: np.ndarray = field(repr=False)
    origin_values: np.ndarray = field(repr=False)
    alpha_values: np.ndarray = field(repr=False)

    @property
    def snapshots(self) -> list[SpectralCoefficients]:
        return [SpectralCoefficients(self.k_max, col) for col in self.snapshot_matrix.T]

    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norm - self.norm[0])))

    def max_boundary_residual(self) -> float:
        return float(np.max(self.boundary_residual))

    def state_at(self, n: int) -> SpectralCoefficients:
        pos = np.where(self.snapshot_indices == n)[0]
        if pos.size == 0:
            raise InputError(f"node {n} was not stored (stored: every snapshot stride)")
        return SpectralCoefficients(self.k_max, self.snapshot_matrix[:, int(pos[0])])


def evolve(psi0, alpha: CouplingProfile, grid: TimeGrid, k_max: int = DEFAULT_K_MAX,
           store_every: int = 10) -> EvolutionResult:
    """Propagate psi0 under the time-dependent point interaction alpha(t).

    psi(t_n) = e^{i t_n Lap} psi0 + F(q, t_n) with q from the charge equation.
    store_every thins the stored snapshots (node 0 and the final node are
    always kept); diagnostics (norm, energy, boundary residual) cover every
    node regardless.  One pass over the node blocks of kernels.mode_history
    fills the diagnostics and the snapshots, so memory beyond the per-node
    series and the snapshots is O(TIME_BLOCK*k_max).
    """
    traj = solve_charge(alpha, psi0, grid, k_max)
    a0 = (psi0 if isinstance(psi0, SpectralCoefficients) else psi0.full_coefficients()).a
    if a0.size != k_max:
        raise InputError("state truncation must match k_max")

    times = grid.times
    n_nodes = times.size
    q = traj.q
    alpha_nodes = np.real(np.atleast_1d(alpha.values_on(grid)))

    if store_every is None or store_every < 1:
        snap_idx = np.array([0, n_nodes - 1])
    else:
        snap_idx = np.unique(np.concatenate(
            (np.arange(0, n_nodes, store_every), [n_nodes - 1])))
    snap_matrix = np.zeros((k_max, snap_idx.size), dtype=complex)

    norm2 = np.empty(n_nodes)
    h1_form = np.empty(n_nodes)
    origin_sum = np.empty(n_nodes, dtype=complex)

    # odd modes, one node block at a time: a_t = a0*phase + (i/sqrt(pi))*h,
    # built in place in the block's phase array
    lam_odd = odd_eigenvalues(k_max)
    a0_odd = a0[0::2, None]
    for nodes, a_t, h in mode_history(q, grid.dt, lam_odd):
        a_t *= a0_odd
        h *= 1j * INV_SQRT_PI
        a_t += h
        mag2 = np.abs(a_t) ** 2
        norm2[nodes] = np.sum(mag2, axis=0)
        h1_form[nodes] = lam_odd @ mag2
        origin_sum[nodes] = np.sum(a_t, axis=0)
        lo, hi = np.searchsorted(snap_idx, (nodes.start, nodes.stop))
        cols = snap_idx[lo:hi] - nodes.start
        snap_matrix[0::2, lo:hi] = a_t[:, cols]

    # even modes evolve freely: the same exp as free_evolve at the snapshot
    # times, so the sine sector matches it bit for bit
    lam_even = eigenvalues(k_max)[1::2]
    mag2 = np.abs(a0[1::2]) ** 2
    norm2 += np.sum(mag2)
    h1_form += np.sum(lam_even * mag2)
    snap_matrix[1::2] = a0[1::2, None] * np.exp(-1j * np.outer(lam_even, times[snap_idx]))
    # the final state is the end-time map: exact phases at t_N and the march's
    # end history, as in gamma, not the anchor x table phase of the last block
    snap_matrix[0::2, -1] = (a0[0::2] * np.exp(-1j * lam_odd * times[-1])
                             + 1j * INV_SQRT_PI * traj.end_history)

    # energy uses the tail-dressed origin at every node and the analytic mode
    # tail of the quadratic form: for k > k_max the coefficients behave like
    # q(t)/(sqrt(pi)*lam_k), adding |q|^2 * (pi^2/2 - truncated sum)/pi to
    # sum_k lam_k |a_k|^2
    tail = tail_deficit(k_max) / np.pi
    origin_dressed = INV_SQRT_PI * origin_sum + tail * q
    energy = h1_form + tail * np.abs(q) ** 2 + alpha_nodes * np.abs(origin_dressed) ** 2
    # boundary residual checks the equation actually marched, whose U vanishes
    # at the initial node (empty integral), so the tail term is left out there
    origin_values = origin_dressed.copy()
    origin_values[0] = INV_SQRT_PI * origin_sum[0]
    boundary_residual = np.abs(q + alpha_nodes * origin_values)
    norm = np.sqrt(norm2)

    return EvolutionResult(
        grid=grid, k_max=k_max, charge=traj,
        final_state=SpectralCoefficients(k_max, snap_matrix[:, -1]),
        snapshot_indices=snap_idx, snapshot_matrix=snap_matrix, norm=norm, energy=energy,
        boundary_residual=boundary_residual, origin_values=origin_values,
        alpha_values=alpha_nodes)

@dataclass(frozen=True)
class DiagnosticsReport:
    """Conservation and boundary-consistency summary of an evolution run."""

    norm_drift: float
    max_boundary_residual: float
    energy_drift: float
    energy_balance_residual: float
    energy_balance_scale: float

    @property
    def energy_balance_relative(self) -> float:
        scale = self.energy_balance_scale
        return self.energy_balance_residual / scale if scale > 0 else 0.0

    def to_text(self) -> str:
        lines = [
            f"norm_drift            {self.norm_drift:.6e}",
            f"boundary_residual_max {self.max_boundary_residual:.6e}",
            f"energy_drift          {self.energy_drift:.6e}",
            f"energy_balance_resid  {self.energy_balance_residual:.6e}",
            f"energy_balance_rel    {self.energy_balance_relative:.6e}",
        ]
        return "\n".join(lines)


def diagnostics(result: EvolutionResult, alpha: CouplingProfile) -> DiagnosticsReport:
    """Norm drift, boundary relation max |q + alpha*psi(0)|, and the energy balance.

    The energy trace E(t) = sum_k lam_k |a_k|^2 + alpha(t)|psi(0,t)|^2 obeys
    dE/dt = alpha'(t) |psi(0,t)|^2; the discrete balance compares centered
    differences of E against that source on interior nodes.
    """
    times = result.grid.times
    dt = result.grid.dt
    energy = result.energy
    drive = np.real(np.atleast_1d(alpha.derivative(times))) * np.abs(result.origin_values) ** 2
    if times.size >= 3:
        de = (energy[2:] - energy[:-2]) / (2.0 * dt)
        resid = float(np.max(np.abs(de - drive[1:-1])))
        scale = float(np.max(np.abs(drive[1:-1]))) if np.max(np.abs(drive[1:-1])) > 0 else 0.0
    else:
        resid, scale = 0.0, 0.0
    return DiagnosticsReport(
        norm_drift=result.norm_drift(),
        max_boundary_residual=result.max_boundary_residual(),
        energy_drift=float(np.max(np.abs(energy - energy[0]))),
        energy_balance_residual=resid,
        energy_balance_scale=scale,
    )
