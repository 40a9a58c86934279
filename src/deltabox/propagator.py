"""Wavefunction assembly from the charge, domain decomposition, and diagnostics.

The evolved state is the mild solution

    psi(t) = e^{it*Lap} psi0 + F(q, t),
    F(q, t) = (i/sqrt(pi)) sum_{k odd} ( int_0^t q(s) e^{-i*lam_k*(t-s)} ds ) psi_k,

with the per-mode integrals h_k(t) of the same exact piecewise-linear product
integration the charge march uses.  evolve's per-node diagnostics never form
h_k on every node: they are lag sums (kernels.lag_sums) from the block-start
slope-moment sums of kernels.block_starts, TIME_BLOCK nodes to a block
(_odd_sector).  The state at any node is one formula, `_mild_state`: at the
last node it is the end-time map Gamma (`end_state`, also control.gamma's)
from the march's end history, elsewhere (`state_at`) from
kernels.history_at_end.  States are stored as full spectral
coefficient vectors; the decomposition into regular part + charge * Green
state is computed on demand for a chosen shift (the split depends on the
shift, the operator does not).

evolve's per-node series evaluate the origin value of psi(t) with the
tail-corrected mode sum sum_odd a_k/sqrt(pi) + tail*q/pi (the same convention
the charge equation is solved with), so the boundary relation -q = alpha*psi(0)
is checked against the equation actually solved.  `diagnostics` reduces them
to a run's five named stability numbers, a plain dict in report order that is
the one place those names are decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .charge import ChargeTrajectory, CouplingProfile, solve_charge
from .errors import InputError
from .greens import SpectralShift, green_coefficients
from .kernels import (block_starts, history_at_end, lag_matrix, lag_sums, odd_eigenvalues,
                      tail_deficit)
from .spectral import INV_SQRT_PI, SpectralCoefficients, TimeGrid, eigenvalues, free_evolve


@dataclass(frozen=True)
class DomainState:
    """Decomposition psi = regular + charge * G^lam(., 0) of a state in D(H_alpha)."""

    regular: SpectralCoefficients
    charge: complex
    shift: SpectralShift = SpectralShift()

    def full_coefficients(self) -> SpectralCoefficients:
        """psi = regular + charge * G^lam(., 0) as one coefficient vector.

        Built on first use and kept, so the charge solve and the state
        assembly of one evolution share it.
        """
        return self._full

    @cached_property
    def _full(self) -> SpectralCoefficients:
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


def _history_state(k_max: int, history: np.ndarray) -> SpectralCoefficients:
    """F(q, t) from the odd-mode histories h_k(t): (i/sqrt(pi)) h_k, even modes zero."""
    a = np.zeros(k_max, dtype=complex)
    a[0::2] = 1j * INV_SQRT_PI * history
    return SpectralCoefficients(k_max, a)


def assemble_F(traj: ChargeTrajectory) -> SpectralCoefficients:
    """State contribution F(q, T) of the charge history at the final node.

    Odd-mode coefficient: (i/sqrt(pi)) int_0^T q(s) e^{-i*lam_k*(T-s)} ds, the
    trajectory's end_history.  Even modes are zero.
    """
    return _history_state(traj.k_max, traj.end_history)


def initial_coefficients(psi0) -> SpectralCoefficients:
    """psi0 as one coefficient vector: a DomainState adds its charge times the Green state."""
    return psi0 if isinstance(psi0, SpectralCoefficients) else psi0.full_coefficients()


def _mild_state(full: SpectralCoefficients, t: float, history: np.ndarray) -> SpectralCoefficients:
    """psi(t) = e^{it*Lap} psi0 + F(q, t) from psi0's full vector and the histories h_k(t)."""
    return free_evolve(full, t).add(_history_state(full.k_max, history))


def end_state(full: SpectralCoefficients, traj: ChargeTrajectory) -> SpectralCoefficients:
    """End-time map Gamma = e^{i*t_N*Lap} psi0 + F(q, t_N) at the last node t_N = n*dt."""
    return _mild_state(full, traj.grid.n_steps * traj.grid.dt, traj.end_history)


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory record: psi0, the end-time state and per-node diagnostics.

    initial_state is psi0's full coefficient vector; `state_at` builds the
    state at any node from it and the charge.  The grid and the truncation are
    the charge's.
    """

    charge: ChargeTrajectory
    initial_state: SpectralCoefficients
    final_state: SpectralCoefficients
    norm: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    boundary_residual: np.ndarray = field(repr=False)
    origin_values: np.ndarray = field(repr=False)

    def state_at(self, n: int) -> SpectralCoefficients:
        """psi(t_n) = e^{i*t_n*Lap} psi0 + F(q, t_n) at node 0 <= n <= N, t_n = n*dt.

        F takes h(t_n) = kernels.history_at_end of the charge up to node n; the
        last node returns final_state, the end-time map itself.
        """
        grid = self.charge.grid
        if not isinstance(n, (int, np.integer)) or not 0 <= n <= grid.n_steps:
            raise InputError(f"node must be an integer in 0..{grid.n_steps}, got {n!r}")
        if n == grid.n_steps:
            return self.final_state
        lam = odd_eigenvalues(self.charge.k_max)
        return _mild_state(self.initial_state, n * grid.dt,
                           history_at_end(self.charge.q[:n + 1], grid.dt, lam))


def _odd_sector(traj: ChargeTrajectory, a0: np.ndarray):
    """Per-node sum |a_k|^2, sum lam_k |a_k|^2 and sum a_k over the odd modes of the
    charge traj; a0 holds the odd modes of psi0.

    a_k(t_n) = a0_k e^{-i*lam_k*t_n} + (i/sqrt(pi)) h_k(t_n) is never formed on
    every node.  With nu_k = 1/(sqrt(pi)*lam_k) and the slope-moment sum
    S_k = q(0) + B_k of kernels.block_starts it is

        a_k(t_n) = e^{-i*lam_k*t_n} c_k(t_n) + nu_k q_n,   c_k = a0_k - nu_k S_k(t_n),

    and inside the block of TIME_BLOCK nodes that starts at node s, with the
    increments x_j = q_{s+j+1} - q_{s+j},

        c_k(s+r) = c_k(s) - beta_k sum_{j<r} e^{i*lam_k*j*dt} x_j,   beta_k = nu_k phi1_k e^{i*lam_k*t_s}.

    So with the phase table and anchors of kernels.block_starts, and lag
    matrices (kernels.lag_matrix) of kernels v_l = sum_k v_k e^{-i*lam_k*l*dt}:

        sum_k w_k e^{-i*lam_k*t} c_k = table @ (w anchor c(s)) - L[w nu phi1] x
        sum_k w_k |c_k|^2 = sum_k w_k |c_k(s)|^2
            - 2 sum_{j<r} Re conj(x_j) (table @ (w nu conj(phi1) anchor c(s)) - G[w nu^2 |phi1|^2] x)_j

    where L has zero diagonal and G carries half its lag-0 value there.  Then
    sum |a|^2 = sum |c|^2 + |q|^2 sum nu^2 + 2 Re(conj(q) sum nu e^{-i*lam*t} c),
    and the lam-weighted form likewise with lam*nu = 1/sqrt(pi).  All blocks
    are done at once: c(s) = a0 - nu*S(s) with the block-start sums S of
    kernels.block_starts, and each sum over modes is a kernels.lag_sums.
    """
    q = traj.q
    n_nodes = q.size
    lam = odd_eigenvalues(traj.k_max)
    table, anchors, x, p1, sums = block_starts(q, traj.grid.dt, lam)
    n_blocks, block = x.shape
    nu = INV_SQRT_PI / lam

    # c at every block start, anchored: anchor_b * c(s_b)
    c = sums[:-1]
    c *= -nu
    c += a0
    mag2 = np.abs(c) ** 2
    start_norm2, start_h1 = mag2.sum(axis=1), mag2 @ lam
    del mag2
    c *= anchors

    g = nu * nu * np.abs(p1) ** 2
    lags = (table @ np.stack((nu * p1, nu * nu * p1, g, lam * g), axis=1)).T
    lags[:2, 0] = 0.0
    lags[2:, 0] *= 0.5
    lag_one, lag_nu, gram_one, gram_lam = lag_matrix(lags)

    def squares(start, weight, gram):
        terms = np.conj(x)
        terms *= lag_sums(c * weight, table, x, gram)
        out = np.empty((n_blocks, block))
        out[:, 0] = 0.0
        np.cumsum(terms.real[:, :-1], axis=1, out=out[:, 1:])
        out *= -2.0
        out += start[:, None]
        return out.reshape(-1)[:n_nodes]

    q_conj = np.conj(q)
    abs_q2 = np.abs(q) ** 2
    norm2 = squares(start_norm2, nu * np.conj(p1), gram_one)
    norm2 += abs_q2 * np.sum(nu * nu)
    norm2 += 2.0 * np.real(q_conj * lag_sums(c * nu, table, x, lag_nu).reshape(-1)[:n_nodes])
    h1_form = squares(start_h1, INV_SQRT_PI * np.conj(p1), gram_lam)
    h1_form += abs_q2 * np.sum(lam * nu * nu)
    origin_sum = lag_sums(c, table, x, lag_one).reshape(-1)[:n_nodes]
    h1_form += 2.0 * INV_SQRT_PI * np.real(q_conj * origin_sum)
    origin_sum += q * np.sum(nu)
    return norm2, h1_form, origin_sum


def evolve(psi0, alpha: CouplingProfile, grid: TimeGrid) -> EvolutionResult:
    """Propagate psi0 under the time-dependent point interaction alpha(t).

    psi(t_n) = e^{i t_n Lap} psi0 + F(q, t_n) with q from the charge equation,
    at psi0's own truncation.  The result keeps psi0 and the end-time map
    (state_at builds any other node); diagnostics (norm, energy, boundary
    residual) cover every node.  The odd-mode sums come from block lag kernels
    (_odd_sector), so no node-by-mode array is formed: memory beyond the
    per-node series is one block-start vector per block of TIME_BLOCK nodes.
    """
    traj = solve_charge(alpha, psi0, grid)
    k_max = traj.k_max
    full = initial_coefficients(psi0)
    a0 = full.a
    q = traj.q
    alpha_nodes = alpha.values_on(grid)

    norm2, h1_form, origin_sum = _odd_sector(traj, a0[0::2])
    # even modes evolve freely: their |a_k|^2 never changes
    mag2 = np.abs(a0[1::2]) ** 2
    norm2 += np.sum(mag2)
    h1_form += np.sum(eigenvalues(k_max)[1::2] * mag2)

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
        charge=traj, initial_state=full, final_state=end_state(full, traj), norm=norm,
        energy=energy, boundary_residual=boundary_residual, origin_values=origin_values)


def diagnostics(result: EvolutionResult, alpha: CouplingProfile) -> dict:
    """A run's stability diagnostics, by name in report order, each a maximum over nodes:
    norm_drift |norm(t) - norm(0)|, boundary_residual_max |q + alpha*psi(0)| (the
    relation that defines D(H_alpha)), energy_drift |E(t) - E(0)|, and the energy balance.
    `simulate` prints, records and holds to its tolerances these names, and verify reads them.

    The energy trace E(t) = sum_k lam_k |a_k|^2 + alpha(t)|psi(0,t)|^2 obeys
    dE/dt = alpha'(t) |psi(0,t)|^2; energy_balance_resid compares centered
    differences of E against that source on interior nodes, and energy_balance_rel
    divides it by the source's largest magnitude: nan where there is no source
    (alpha' |psi(0)|^2 = 0 on every interior node), whose ratio is undefined.
    """
    grid = result.charge.grid
    energy = result.energy
    drive = (alpha.derivative(grid.times) * np.abs(result.origin_values) ** 2)[1:-1]
    resid = float(np.max(np.abs((energy[2:] - energy[:-2]) / (2.0 * grid.dt) - drive),
                         initial=0.0))
    scale = float(np.max(np.abs(drive), initial=0.0))
    return {"norm_drift": float(np.max(np.abs(result.norm - result.norm[0]))),
            "boundary_residual_max": float(np.max(result.boundary_residual)),
            "energy_drift": float(np.max(np.abs(energy - energy[0]))),
            "energy_balance_resid": resid,
            "energy_balance_rel": resid / scale if scale > 0 else float("nan")}
