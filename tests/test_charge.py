import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltabox.charge import (
    ChargeTrajectory,
    CouplingProfile,
    _march,
    apply_U,
    initial_charge,
    lipschitz_probe,
    solve_charge,
    solve_charge_general,
)
from deltabox.errors import (
    DomainCompatibilityError,
    InputError,
    SingularityError,
    StepSingularityError,
)
from deltabox.greens import SpectralShift, green_coefficients, green_origin
from deltabox.kernels import (
    ODD_INVERSE_EIGENVALUE_SUM,
    TIME_BLOCK,
    discrete_h1_norm,
    history_at_end,
    mode_history,
    odd_eigenvalues,
    phi1,
    slope_moments,
)
from deltabox.oracles import picard_charge
from deltabox.propagator import DomainState
from deltabox.spectral import (
    SpectralCoefficients,
    TimeGrid,
    free_origin_series,
    origin_trace,
)
from deltabox import verify

from conftest import assert_check


class TestCouplingProfile:
    def test_sine_bump_endpoints(self):
        p = CouplingProfile.sine_bump(0.5, 2.0)
        assert p.value(0.0) == 0.0
        assert abs(p.value(2.0)) < 1e-16

    def test_derivative(self):
        p = CouplingProfile.sine_bump(0.5, 2.0)
        assert p.derivative(0.0) == pytest.approx(0.5 * np.pi / 2.0)
        c = CouplingProfile.constant(0.3, 1.0)
        assert c.derivative(0.5) == 0.0

    def test_piecewise_linear(self):
        grid = TimeGrid(1.0, 4)
        p = CouplingProfile.piecewise_linear(grid, [0.0, 1.0, 0.5, 0.5, 0.0])
        assert p.value(0.125) == pytest.approx(0.5)
        assert p.derivative(0.1) == pytest.approx(4.0)
        assert p.derivative(0.3) == pytest.approx(-2.0)

    def test_outside_domain(self):
        with pytest.raises(InputError):
            CouplingProfile.sine_bump(1.0, 1.0).value(1.5)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            CouplingProfile("gaussian", 1.0, 1.0)


class TestApplyU:
    def test_zero_charge(self):
        grid = TimeGrid(1.0, 50)
        traj = ChargeTrajectory(grid, np.zeros(51, dtype=complex), 51)
        assert np.all(apply_U(traj) == 0)

    def test_constant_charge_analytic(self):
        assert_check(verify.check_u_constant_analytic)

    def test_linearity(self):
        assert_check(verify.check_u_linearity)

    def test_vanishes_at_start(self):
        assert_check(verify.check_u_zero_at_start)

    def test_integration_by_parts_identity(self):
        # full identity with the q(0) boundary term reproduces the raw
        # causal integrals on (sampled) smooth charges
        assert_check(verify.check_u_integration_by_parts)


_unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _slope_moment_history(q, dt, lam_k):
    """h_k on every node from the single-mode slope moments and a per-node exp."""
    times = dt * np.arange(q.size)
    b = np.concatenate(([0.0], np.cumsum(slope_moments(q, dt, lam_k))))
    return (q - np.exp(-1j * lam_k * times) * (q[0] + b)) / (1j * lam_k)


class TestModeHistory:
    def test_matches_single_mode_reference(self, rng):
        # every node of every block: h against the per-mode slope-moment sums,
        # phase against an extended-precision exp, within 4*eps*(lam*t + 1)
        grid = TimeGrid(1.0, 300)
        q = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        lam = odd_eigenvalues(151)
        t_ext = np.longdouble(grid.dt) * np.arange(grid.n_steps + 1)
        exact = np.exp(-1j * np.outer(lam.astype(np.longdouble), t_ext))
        bound = 4 * np.finfo(float).eps * (np.outer(lam, grid.times) + 1)
        reference = np.array([_slope_moment_history(q, grid.dt, lam_k) for lam_k in lam])
        covered = []
        for nodes, phase, h in mode_history(q, grid.dt, lam):
            assert phase.shape == h.shape == (lam.size, nodes.stop - nodes.start)
            assert np.all(np.abs(phase - exact[:, nodes]) <= bound[:, nodes])
            assert np.max(np.abs(h - reference[:, nodes])) < 1e-13
            covered += range(nodes.start, nodes.stop)
        assert covered == list(range(grid.n_steps + 1))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_nodes=st.integers(1, 3 * TIME_BLOCK + 1),
           k_max=st.integers(1, 201), t_end=st.floats(0.01, 3.0))
    def test_matches_single_mode_reference_property(self, data, n_nodes, k_max, t_end):
        q = data.draw(hnp.arrays(complex, n_nodes, elements=_unit_complex))
        dt = t_end / max(n_nodes - 1, 1)
        lam = odd_eigenvalues(k_max)
        h = np.concatenate([h for _, _, h in mode_history(q, dt, lam)], axis=1)
        reference = np.array([_slope_moment_history(q, dt, lam_k) for lam_k in lam])
        assert np.max(np.abs(h - reference)) <= 1e-13

    @pytest.mark.parametrize("n_nodes", [2, 3, TIME_BLOCK, TIME_BLOCK + 1, TIME_BLOCK + 2,
                                         3 * TIME_BLOCK + 37])
    def test_history_at_end_matches_last_node(self, rng, n_nodes):
        q = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        lam = odd_eigenvalues(201)
        dt = 2.0 / (n_nodes - 1)
        *_, (nodes, _, h) = mode_history(q, dt, lam)
        assert nodes.stop == n_nodes
        assert np.max(np.abs(history_at_end(q, dt, lam) - h[:, -1])) < 1e-13

    def test_march_end_history_matches_kernel(self):
        # the march builds h(T) block by block, the kernel on every node at once
        k_max = 101
        grid = TimeGrid(2.0, 2000)
        traj = solve_charge(CouplingProfile.sine_bump(0.5, 2.0),
                            SpectralCoefficients.unit(1, k_max), grid, k_max)
        *_, (_, _, h) = mode_history(traj.q, grid.dt, odd_eigenvalues(k_max))
        assert np.max(np.abs(traj.end_history - h[:, -1])) < 1e-13


def reference_march(f_nodes, phi_nodes, v0, g_coeff, shift, grid, k_max):
    """Step-by-step form of `_march`: one scalar solve and one O(k_max) update
    of the modal accumulator b = B_k(t_{n-1}) per step; returns (q, end_history)."""
    dt = grid.dt
    lam = odd_eigenvalues(k_max)
    u = 1j * lam * dt
    p1 = phi1(u)
    c_u = 1j * np.sum(np.exp(-u) * p1 / lam)
    denom_base = (ODD_INVERSE_EIGENVALUE_SUM + 1j * c_u) / np.pi
    green_weights = 1.0 / (lam + shift.lam)
    q = np.empty(grid.n_steps + 1, dtype=complex)
    q[0] = v0
    b = np.zeros(lam.size, dtype=complex)
    exp_prev = np.ones(lam.size, dtype=complex)  # e^{+i lam t_{n-1}}
    for n in range(1, grid.n_steps + 1):
        e_n = np.exp(-1j * lam * (n * dt))
        w_n = 1j * np.sum(e_n * (v0 + b) / lam)
        rhs = f_nodes[n] - phi_nodes[n] * (1j / np.pi) * (w_n - c_u * q[n - 1])
        if g_coeff != 0:
            rhs -= phi_nodes[n] * g_coeff * np.sum(e_n * green_weights) / np.pi
        q[n] = rhs / (1.0 + phi_nodes[n] * denom_base)
        b += (q[n] - q[n - 1]) * exp_prev * p1
        exp_prev = np.conj(e_n)
    return q, (q[-1] - e_n * (v0 + b)) / (1j * lam)


def _assert_matches_reference(f, phi, v0, green_source, shift, grid, k_max, tol=1e-13):
    """`_march` against the step reference; with green_source the general
    scheme, whose Green-source term v0*g(t) is folded into the march's source."""
    if green_source:
        profile = CouplingProfile.piecewise_linear(grid, phi)
        phi = profile.values_on(grid)
        traj = solve_charge_general(f, profile, shift, grid, k_max, v0=v0)
    else:
        traj = _march(f, phi, v0, grid, k_max)
    q, end_history = reference_march(f, phi, v0, v0 if green_source else 0.0, shift, grid,
                                     k_max)
    assert np.max(np.abs(traj.q - q)) <= tol
    assert np.max(np.abs(traj.end_history - end_history)) <= tol


_shifts = st.sampled_from([SpectralShift(), SpectralShift(2.5 - 0.3j)])


class TestBlockMarch:
    # |phi| <= 1 keeps every step denominator |d_n| >= 0.38 on these grids
    # (|d_n - 1| <= 0.62*|phi_n| for k_max <= 201, dt <= 3)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_steps=st.integers(1, 3 * TIME_BLOCK + 1),
           k_max=st.integers(1, 201), t_end=st.floats(0.01, 3.0),
           v0=_unit_complex, green_source=st.booleans(), shift=_shifts)
    def test_matches_step_reference(self, data, n_steps, k_max, t_end, v0, green_source, shift):
        f = data.draw(hnp.arrays(complex, n_steps + 1, elements=_unit_complex))
        phi = data.draw(hnp.arrays(complex, n_steps + 1, elements=_unit_complex))
        _assert_matches_reference(f, phi, v0, green_source, shift, TimeGrid(t_end, n_steps),
                                  k_max)

    @pytest.mark.parametrize("n_steps", [TIME_BLOCK - 1, TIME_BLOCK, TIME_BLOCK + 1,
                                         2 * TIME_BLOCK + 7])
    def test_block_edges(self, rng, n_steps):
        f = rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1)
        phi = 0.5 * (rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1))
        for shift in (SpectralShift(), SpectralShift(2.5 - 0.3j)):
            _assert_matches_reference(f, phi, f[0], True, shift, TimeGrid(2.0, n_steps), 101)

    def test_simulate_size(self, rng):
        # k_max = 401, T = 8*pi, n = 25133: a unit-norm state with a_k ~ k^-3 and
        # random phases, coupled by a sum of three sines bounded by 0.5
        k_max, grid = 401, TimeGrid(8.0 * np.pi, 25133)
        k = np.arange(1, k_max + 1)
        a = k**-3.0 * np.exp(2j * np.pi * rng.random(k_max))
        psi0 = SpectralCoefficients(k_max, a / np.linalg.norm(a))
        amp, omega, phase = rng.uniform(-1 / 6, 1 / 6, 3), rng.uniform(0.25, 2, 3), rng.random(3)
        alpha = np.sin(np.outer(grid.times, omega) + 2 * np.pi * phase) @ amp
        f = -alpha * free_origin_series(psi0, grid.times)
        _assert_matches_reference(f, alpha.astype(complex), -alpha[0] * origin_trace(psi0),
                                  False, SpectralShift(), grid, k_max)


class TestInitialCharge:
    def test_decoupled(self):
        assert initial_charge(1.5 + 0.5j, 0.0) == 1.5 + 0.5j

    def test_zero_source(self):
        assert initial_charge(0.0, 2.0) == 0.0

    def test_reference_value(self):
        got = initial_charge(1.0, 2.0, SpectralShift(1.0))
        expected = 1.0 / (1.0 + 2.0 * green_origin(1.0))  # 1/1.9962721...
        assert got == pytest.approx(expected)
        assert got.real == pytest.approx(0.50093, abs=1e-5)

    def test_singular_configuration(self):
        phi0 = -1.0 / complex(green_origin(1.0)).real
        with pytest.raises(SingularityError):
            initial_charge(1.0, phi0)


class TestSolveChargeGeneral:
    def test_zero_source(self):
        grid = TimeGrid(1.0, 100)
        phi = CouplingProfile.sine_bump(0.7, 1.0)
        traj = solve_charge_general(np.zeros(101, dtype=complex), phi, SpectralShift(), grid, 51)
        assert np.all(traj.q == 0)

    def test_zero_coupling_returns_source(self, rng):
        grid = TimeGrid(1.0, 100)
        f = rng.standard_normal(101) + 1j * rng.standard_normal(101)
        traj = solve_charge_general(f, CouplingProfile.zero(1.0), SpectralShift(), grid, 51)
        assert np.max(np.abs(traj.q - f)) == 0.0

    def test_generic_against_picard_oracle(self):
        assert_check(verify.check_general_scheme_picard)


class TestSolveCharge:
    def test_zero_coupling(self):
        grid = TimeGrid(2.0, 200)
        traj = solve_charge(CouplingProfile.zero(2.0), SpectralCoefficients.unit(1, 101),
                            grid, 101)
        assert np.all(traj.q == 0)

    def test_odd_state_does_not_feel_the_interaction(self):
        grid = TimeGrid(2.0, 500)
        for amp in (0.2, 0.5, 1.0):
            traj = solve_charge(CouplingProfile.sine_bump(amp, 2.0),
                                SpectralCoefficients.unit(2, 101), grid, 101)
            assert np.all(traj.q == 0)

    def test_initial_value_and_picard_trajectory(self):
        # q(0) = -alpha(0)*psi1(0) for a constant coupling, and the whole
        # trajectory tracks the fixed-point oracle on a 4x finer grid
        k_use = 15
        grid = TimeGrid(2.0, 2000)
        psi0 = SpectralCoefficients.unit(1, k_use)
        alpha = CouplingProfile.constant(0.1, 2.0)
        traj = solve_charge(alpha, psi0, grid, k_use)
        assert traj.q[0] == pytest.approx(-0.1 / np.sqrt(np.pi), abs=1e-15)

        fgrid = TimeGrid(2.0, 8000)
        src = free_origin_series(psi0, fgrid.times)
        av = np.real(alpha.values_on(fgrid))
        v0 = -av[0] * origin_trace(psi0)
        q_oracle = picard_charge(-av * src, av.astype(complex), v0, 0.0,
                                 SpectralShift(), fgrid, k_use)
        assert np.max(np.abs(traj.q - q_oracle[::4])) < 1e-6

    def test_bump_against_picard_oracle(self):
        assert_check(verify.check_picard_oracle)

    def test_dt_self_convergence(self):
        assert_check(verify.check_dt_self_convergence)

    def test_truncation_decay(self):
        assert_check(verify.check_kmax_truncation)

    def test_conjugation_reversal(self):
        assert_check(verify.check_conjugation_reversal)

    def test_large_amplitude_wellposed(self):
        assert_check(verify.check_large_amplitude)

    @staticmethod
    def _critical_coupling(grid, k_max):
        # phi with d_n = 1 + phi*(pi^2/2 + i*c_u)/pi = 0 exactly
        lam = odd_eigenvalues(k_max)
        u = 1j * lam * grid.dt
        c_u = 1j * np.sum(np.exp(-u) * phi1(u) / lam)
        return -np.pi / (ODD_INVERSE_EIGENVALUE_SUM + 1j * c_u)

    def test_step_singularity_reported(self):
        # a real coupling never zeroes the per-step denominator (its imaginary
        # part reflects self-adjointness), so exercise the guard through the
        # general scheme with the exactly-critical complex coupling
        grid = TimeGrid(1.0, 100)
        phi_bad = self._critical_coupling(grid, 401)
        prof = CouplingProfile.piecewise_linear(grid, np.full(101, phi_bad, dtype=complex))
        with pytest.raises(StepSingularityError) as err:
            solve_charge_general(np.ones(101, dtype=complex), prof,
                                 SpectralShift(), grid, 401)
        assert err.value.n == 1
        assert err.value.t == pytest.approx(grid.dt)
        assert err.value.abs_d < 1e-12
        assert err.value.phi == phi_bad
        assert "n=1" in str(err.value) and "phi_n=" in str(err.value)

    def test_first_bad_node_in_a_later_block(self):
        n_steps = 3 * TIME_BLOCK
        grid = TimeGrid(1.0, n_steps)
        phi = np.full(n_steps + 1, 0.2, dtype=complex)
        first = 2 * TIME_BLOCK + 5
        phi[[first, first + 3]] = self._critical_coupling(grid, 101)
        with pytest.raises(StepSingularityError) as err:
            _march(np.ones(n_steps + 1, dtype=complex), phi, 1.0, grid, 101)
        assert err.value.n == first
        assert err.value.t == pytest.approx(first * grid.dt)
        assert err.value.phi == phi[first]

    def test_domain_compatibility(self):
        grid = TimeGrid(1.0, 100)
        regular = SpectralCoefficients.unit(1, 101)
        bad = DomainState(regular, 0.3 + 0.1j, SpectralShift())
        with pytest.raises(DomainCompatibilityError):
            solve_charge(CouplingProfile.constant(0.5, 1.0), bad, grid, 101)

    def test_domain_state_accepted_when_compatible(self):
        grid = TimeGrid(1.0, 200)
        k_use = 101
        alpha0 = 0.5
        # build a compatible state: full = psi1 + q*G with q = -alpha*full(0)
        green = green_coefficients(SpectralShift(), k_use)
        base = SpectralCoefficients.unit(1, k_use)
        g0 = origin_trace(green)
        q = -alpha0 * origin_trace(base) / (1.0 + alpha0 * g0)
        state = DomainState(base, q, SpectralShift())
        traj = solve_charge(CouplingProfile.constant(alpha0, 1.0), state, grid, k_use)
        assert traj.q[0] == pytest.approx(q)

    def test_truncation_mismatch_rejected(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(InputError):
            solve_charge(CouplingProfile.zero(1.0), SpectralCoefficients.unit(1, 51),
                         grid, 101)

    def test_complex_coupling_rejected(self):
        grid = TimeGrid(1.0, 10)
        prof = CouplingProfile.piecewise_linear(grid, np.linspace(0, 1, 11) * (1 + 1j))
        with pytest.raises(InputError):
            solve_charge(prof, SpectralCoefficients.unit(1, 51), grid, 51)


class TestLipschitzProbe:
    def test_identical_profiles(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(1, 51)
        a = CouplingProfile.sine_bump(0.3, 1.0)
        dq, da = lipschitz_probe(a, a, psi0, grid, 51)
        assert dq == 0.0 and da == 0.0

    def test_odd_sector_charge_free(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(2, 51)
        a = CouplingProfile.sine_bump(0.3, 1.0)
        z = CouplingProfile.zero(1.0)
        dq, da = lipschitz_probe(a, z, psi0, grid, 51)
        assert dq == 0.0
        assert da == pytest.approx(
            discrete_h1_norm(np.asarray(a.values_on(grid), complex), grid.dt))

    def test_nearby_bump_ratios_bounded(self):
        assert_check(verify.check_lipschitz_ratio)


class TestErrorPropagation:
    def test_singular_initial_value_propagates(self):
        # phi(0) sitting on the eigenvalue configuration must surface from
        # the general scheme as the initial-charge singularity
        grid = TimeGrid(1.0, 50)
        phi0 = -1.0 / complex(green_origin(1.0)).real
        prof = CouplingProfile.piecewise_linear(
            grid, np.full(51, phi0, dtype=complex))
        with pytest.raises(SingularityError):
            solve_charge_general(np.ones(51, dtype=complex), prof,
                                 SpectralShift(), grid, 51)
