import tracemalloc

import numpy as np
import pytest

from deltabox.charge import ChargeTrajectory, CouplingProfile
from deltabox.control import gamma
from deltabox.errors import InputError
from deltabox.greens import SpectralShift, green_coefficients
from deltabox.kernels import TIME_BLOCK, odd_eigenvalues, tail_deficit
from deltabox.propagator import (
    DomainState,
    apply_hamiltonian,
    assemble_F,
    decompose,
    diagnostics,
    evolve,
    regular_part,
)
from deltabox.spectral import (
    INV_SQRT_PI,
    SpectralCoefficients,
    TimeGrid,
    eigenvalues,
    free_evolve,
    origin_trace,
)
from deltabox import propagator, verify

from conftest import assert_check, galerkin_reference, slope_moment_history


def pl_l2_norm(q, dt):
    """Exact L^2(0,T) norm of the piecewise-linear interpolant of the samples."""
    a, b = q[:-1], q[1:]
    seg = (np.abs(a) ** 2 + np.real(np.conj(a) * b) + np.abs(b) ** 2) / 3.0
    return float(np.sqrt(dt * np.sum(seg.real)))


class TestAssembleF:
    def test_zero_charge(self):
        grid = TimeGrid(1.0, 100)
        traj = ChargeTrajectory(grid, np.zeros(101, dtype=complex), 51)
        out = assemble_F(traj)
        assert np.all(out.a == 0)

    def test_constant_charge_coefficients(self):
        # mode k gets (1/sqrt(pi)) (1 - e^{-i*lam_k*t})/lam_k
        grid = TimeGrid(1.0, 400)
        traj = ChargeTrajectory(grid, np.ones(401, dtype=complex), 51)
        out = assemble_F(traj)
        lam = odd_eigenvalues(51)
        expected = (1.0 - np.exp(-1j * lam * 1.0)) / lam / np.sqrt(np.pi)
        assert np.max(np.abs(out.a[0::2] - expected)) < 1e-13
        assert np.all(out.a[1::2] == 0)

    def test_l2_bound(self, rng):
        # |F(q, T)| <= |q|_{L^2(0,T)} / sqrt(pi), exact for the interpolant
        grid = TimeGrid(2.0, 300)
        for _ in range(10):
            q = rng.standard_normal(301) + 1j * rng.standard_normal(301)
            traj = ChargeTrajectory(grid, q, 101)
            out = assemble_F(traj)
            assert out.norm() <= pl_l2_norm(q, grid.dt) / np.sqrt(np.pi) * (1 + 1e-12)


class TestEvolve:
    def test_free_eigenstate_phase(self):
        grid = TimeGrid(1.0, 100)
        psi0 = SpectralCoefficients.unit(1, 51)
        alpha = CouplingProfile.zero(1.0)
        res = evolve(psi0, alpha, grid)
        assert res.final_state.a[0] == pytest.approx(np.exp(-0.25j), abs=1e-15)
        rep = diagnostics(res, alpha)
        assert rep["norm_drift"] < 1e-15
        assert rep["boundary_residual_max"] == 0.0

    def test_odd_state_free_evolution_exact(self):
        grid = TimeGrid(2.0, 500)
        psi0 = SpectralCoefficients.unit(2, 101)
        res = evolve(psi0, CouplingProfile.sine_bump(0.7, 2.0), grid)
        free = free_evolve(psi0, 2.0)
        assert np.max(np.abs(res.final_state.a - free.a)) == 0.0
        assert np.all(res.charge.q == 0)

    def test_unitarity_dt_order(self):
        assert_check(verify.check_unitarity_dt_order)

    def test_unitarity_kmax_bound(self):
        assert_check(verify.check_unitarity_kmax_bound)

    def test_mild_solution_odd_support(self):
        assert_check(verify.check_mild_odd_support)

    def test_boundary_equivalence(self):
        assert_check(verify.check_boundary_equivalence)

    def test_state_at_nodes(self):
        grid = TimeGrid(1.0, 100)
        psi0 = SpectralCoefficients.unit(1, 21)
        res = evolve(psi0, CouplingProfile.sine_bump(0.2, 1.0), grid)
        assert res.state_at(grid.n_steps) is res.final_state
        for n in (-1, grid.n_steps + 1, 2.5):
            with pytest.raises(InputError):
                res.state_at(n)

    def test_eigenstate_rotation(self):
        assert_check(verify.check_eigenstate_rotation)

    def test_memory_is_blocked_in_time(self):
        # k_max = 401, n = 25133: the peak stays below
        # one 64 x (n+1) complex array, the size of a mode-blocked node array
        grid = TimeGrid(8.0 * np.pi, 25133)
        psi0 = SpectralCoefficients.unit(1, 401)
        alpha = CouplingProfile.sine_bump(0.5, grid.t_end)
        tracemalloc.start()
        try:
            evolve(psi0, alpha, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * (grid.n_steps + 1) * 16


def node_by_node_diagnostics(psi0, alpha, grid, q):
    """(norm, energy, origin_values, boundary_residual) from a_k(t_n) on every
    node and mode, built from the per-mode slope-moment histories."""
    k_max = psi0.k_max
    lam = odd_eigenvalues(k_max)
    h = slope_moment_history(q, grid.dt, lam)
    a = psi0.a[0::2, None] * np.exp(-1j * np.outer(lam, grid.times)) + 1j * INV_SQRT_PI * h
    norm2 = np.sum(np.abs(a) ** 2, axis=0)
    h1 = lam @ np.abs(a) ** 2
    origin = np.sum(a, axis=0)
    even = np.abs(psi0.a[1::2]) ** 2
    norm2 += np.sum(even)
    h1 += np.sum(eigenvalues(k_max)[1::2] * even)
    alpha_nodes = alpha.values_on(grid)
    tail = tail_deficit(k_max) / np.pi
    origin_values = INV_SQRT_PI * origin + tail * q
    energy = h1 + tail * np.abs(q) ** 2 + alpha_nodes * np.abs(origin_values) ** 2
    origin_values[0] = INV_SQRT_PI * origin[0]
    return np.sqrt(norm2), energy, origin_values, np.abs(q + alpha_nodes * origin_values)


class TestOddSectorSums:
    # evolve's block lag-kernel sums against the same diagnostics summed over
    # every node and mode: dense k^-3 state, alpha(0) != 0, one grid whose n is
    # not a multiple of TIME_BLOCK and one shorter than a block
    K_MAX = 101

    def run(self, n_steps):
        k = np.arange(1, self.K_MAX + 1)
        psi0 = SpectralCoefficients(self.K_MAX, k**-3.0 * np.exp(2.1j * k))
        grid = TimeGrid(2.5, n_steps)
        alpha = CouplingProfile.piecewise_linear(
            grid, 0.35 + 0.15 * np.sin(3.0 * grid.times))
        return psi0, alpha, grid, evolve(psi0, alpha, grid)

    @pytest.mark.parametrize("n_steps", [2 * TIME_BLOCK + 37, TIME_BLOCK // 2 + 3])
    def test_matches_node_by_node_sums(self, n_steps):
        psi0, alpha, grid, res = self.run(n_steps)
        norm, energy, origin, resid = node_by_node_diagnostics(psi0, alpha, grid, res.charge.q)
        for got, ref in ((res.norm, norm), (res.energy, energy), (res.origin_values, origin)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the residual is a rounding-level difference of q and alpha*psi(0):
        # its scale is |q|
        q_scale = np.max(np.abs(res.charge.q))
        assert np.max(np.abs(res.boundary_residual - resid)) <= 1e-13 * q_scale

    @pytest.mark.parametrize("n_steps", [2 * TIME_BLOCK + 37, TIME_BLOCK // 2 + 3])
    def test_state_at_matches_node_by_node(self, n_steps):
        psi0, _, grid, res = self.run(n_steps)
        lam = eigenvalues(self.K_MAX)
        ref = psi0.a[:, None] * np.exp(-1j * np.outer(lam, grid.times))
        ref[0::2] += 1j * INV_SQRT_PI * slope_moment_history(res.charge.q, grid.dt, lam[0::2])
        got = np.array([res.state_at(n).a for n in range(grid.n_steps + 1)]).T
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_initial_snapshot_is_psi0(self):
        psi0, alpha, _, res = self.run(2 * TIME_BLOCK + 37)
        assert alpha.value(0.0) != 0.0
        assert np.array_equal(res.state_at(0).a, psi0.a)


class TestDomainStateCoefficients:
    def compatible_state(self, alpha0, k_max):
        psi = SpectralCoefficients.unit(1, k_max).add(SpectralCoefficients.unit(4, k_max))
        g0 = origin_trace(green_coefficients(SpectralShift(), k_max))
        q = -alpha0 * origin_trace(psi) / (1.0 + alpha0 * g0)
        return DomainState(psi, q, SpectralShift())

    @pytest.mark.parametrize("solver", ["evolve", "gamma"])
    def test_full_vector_built_once(self, solver, monkeypatch):
        # the charge solve and the state assembly share one full vector
        alpha0, k_max, grid = 0.4, 51, TimeGrid(1.0, 300)
        alpha = CouplingProfile.constant(alpha0, 1.0)
        final = {"evolve": lambda s: evolve(s, alpha, grid).final_state,
                 "gamma": lambda s: gamma(alpha, s, grid)}[solver]
        calls = []

        def counted(*args):
            calls.append(args)
            return green_coefficients(*args)

        prebuilt = self.compatible_state(alpha0, k_max)
        prebuilt.full_coefficients()
        monkeypatch.setattr(propagator, "green_coefficients", counted)
        first = final(self.compatible_state(alpha0, k_max))
        assert len(calls) == 1
        assert np.array_equal(first.a, final(prebuilt).a)
        assert len(calls) == 1


class TestRegularPart:
    def test_zero_charge_identity(self):
        state = SpectralCoefficients.unit(1, 21)
        out = regular_part(state, 0.0)
        assert np.all(out.a == state.a)

    def test_green_state_annihilated(self):
        green = green_coefficients(SpectralShift(), 31)
        out = regular_part(green, 1.0)
        assert np.max(np.abs(out.a)) < 1e-16

    def test_evolved_tail_is_h2(self):
        assert_check(verify.check_regular_part_h2_tail)


class TestApplyHamiltonian:
    def test_free_eigenstate(self):
        ds = DomainState(SpectralCoefficients.unit(1, 21), 0.0, SpectralShift())
        out = apply_hamiltonian(ds)
        assert out.a[0] == pytest.approx(0.25)
        assert np.max(np.abs(out.a[1:])) == 0.0

    def test_interacting_eigenstate(self):
        assert_check(verify.check_hamiltonian_eigenstate)

    def test_green_difference_identity(self):
        assert_check(verify.check_phi4_identity)

    def test_green_difference_sign(self):
        # the Green-difference expansion carries denominator lam_k*(lam_k + lam)
        res = assert_check(verify.check_green_difference_sign)
        assert "(lam-lam0) deviates" in res.detail


class TestDiagnostics:
    def test_free_run_conserves_everything(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(1, 51)
        alpha = CouplingProfile.zero(1.0)
        rep = diagnostics(evolve(psi0, alpha, grid), alpha)
        assert rep["boundary_residual_max"] == 0.0
        assert rep["energy_drift"] < 1e-14

    def test_balance_ratio_undefined_without_a_source(self):
        # a constant coupling has alpha' = 0, so the source alpha'|psi(0)|^2 vanishes on
        # every node: the ratio is nan, while the residual keeps its absolute number
        grid = TimeGrid(1.0, 10)
        alpha = CouplingProfile.constant(0.5, 1.0)
        rep = diagnostics(evolve(SpectralCoefficients.unit(1, 5), alpha, grid), alpha)
        assert np.isnan(rep["energy_balance_rel"])
        assert 0.0 < rep["energy_balance_resid"] < np.inf
        assert rep["energy_drift"] > 0.0

    def test_static_coupling_conserves_energy(self):
        assert_check(verify.check_energy_constant_static)

    def test_energy_balance_on_bump(self):
        assert_check(verify.check_energy_balance)

    def test_decompose_round_trip(self):
        state = SpectralCoefficients.unit(1, 41)
        ds = decompose(state, 0.37 - 0.11j)
        back = ds.full_coefficients()
        assert np.max(np.abs(back.a - state.a)) < 1e-15


class TestIndependentDynamicOracle:
    def test_galerkin_ode_agreement(self):
        # adaptive ODE integration of the equivalent mode system, no shared
        # numerics with the march
        assert_check(verify.check_galerkin_ode_oracle)

    def test_rk4_matches_dop853(self):
        # the fixed-step oracle against scipy's adaptive DOP853 on the check's system
        from scipy.integrate import solve_ivp
        from deltabox.oracles import galerkin_evolution

        k_use, t_end = 25, 2.0
        alpha = CouplingProfile.sine_bump(0.5, t_end)
        lam = eigenvalues(k_use)
        dressing = tail_deficit(k_use) / np.pi
        swap = np.roll(np.arange(2 * k_use), k_use)  # y = (Re a, Im a) -> (Im a, Re a)
        signed_lam = np.concatenate((lam, -lam))

        def rhs(t, y):
            # da = -i*(lam*a + s), s = alpha*psi(0)/sqrt(pi) on the odd modes (even slots)
            al = float(alpha.value(t))
            origin = INV_SQRT_PI * complex(y[:k_use:2].sum(), y[k_use::2].sum())
            s = al * (origin / (1.0 + al * dressing)) * INV_SQRT_PI
            dy = y[swap]  # a new array each call: the integrator keeps what it is given
            dy *= signed_lam
            dy[:k_use:2] += s.imag
            dy[k_use::2] -= s.real
            return dy

        for psi0 in (SpectralCoefficients.unit(1, k_use),
                     SpectralCoefficients(k_use, np.exp(0.3j * np.arange(k_use)) / 5.0)):
            sol = solve_ivp(rhs, (0.0, t_end), np.concatenate((psi0.a.real, psi0.a.imag)),
                            rtol=1e-11, atol=1e-12, method="DOP853")
            ref = sol.y[:k_use, -1] + 1j * sol.y[k_use:, -1]
            mine = galerkin_evolution(psi0.a, alpha.value, t_end, k_use)
            assert np.max(np.abs(mine - ref)) <= 1e-9

    @pytest.mark.parametrize("psi0", [SpectralCoefficients.unit(1, 25),
                                      SpectralCoefficients(25, np.exp(0.3j * np.arange(25)) / 5.0)],
                             ids=["galerkin-ode-oracle", "dop853-state"])
    def test_rank_one_step_matches_dense_rk4(self, psi0):
        # the rank-one RK4 step is the dense-rate method with the same steps and
        # nodes: on the verify check's inputs and on a state filling every mode
        from deltabox.oracles import galerkin_evolution

        alpha = CouplingProfile.sine_bump(0.5, 2.0)
        ref = galerkin_reference(psi0.a, alpha.value, 2.0, 25)
        assert np.max(np.abs(galerkin_evolution(psi0.a, alpha.value, 2.0, 25) - ref)) <= 1e-13

    def test_order_against_ode_oracle(self):
        # halving dt quarters the deviation from the reference trajectory
        from deltabox.oracles import galerkin_evolution
        from deltabox.kernels import fit_loglog_slope

        k_use = 25
        psi0 = SpectralCoefficients.unit(1, k_use)
        alpha = CouplingProfile.sine_bump(0.5, 2.0)
        ref = galerkin_evolution(psi0.a, lambda t: alpha.value(t), 2.0, k_use)
        dts, errs = [4e-3, 2e-3, 1e-3], []
        for dt in dts:
            grid = TimeGrid(2.0, int(round(2.0 / dt)))
            res = evolve(psi0, alpha, grid)
            errs.append(float(np.max(np.abs(res.final_state.a - ref))))
        assert fit_loglog_slope(dts, errs) > 1.9
