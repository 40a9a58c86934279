import numpy as np
import pytest

from deltabox.charge import CouplingProfile, _march, lipschitz_probe, solve_charge
from deltabox.control import (
    ControlTarget,
    _frequency_collisions,
    apply_linearized,
    controllability_experiment,
    gamma,
    moment_residual,
    real_moments,
    solve_moment,
    synthesize_control,
)
from deltabox.errors import InputError, UnsupportedHorizonError
from deltabox.greens import SpectralShift, green_coefficients
from deltabox.propagator import DomainState, assemble_F, evolve
from deltabox.spectral import (
    SpectralCoefficients,
    TimeGrid,
    free_evolve,
    free_origin_series,
    origin_trace,
)
from deltabox import verify

from conftest import assert_check

T8PI = 8.0 * np.pi
GRID_2_15 = TimeGrid(T8PI, 1 << 15)


def target_on(k, k_max=401, value=1.0, t_end=T8PI):
    a = np.zeros(k_max, dtype=complex)
    a[k - 1] = value
    return ControlTarget(SpectralCoefficients(k_max, a), t_end)


def steer(target, grid, epsilons, k_bar=1):
    """controllability_experiment with the control and the reach the control command passes."""
    alpha = synthesize_control(target, k_bar, grid)
    reach = apply_linearized(CouplingProfile.zero(grid.t_end), alpha.samples,
                             SpectralCoefficients.unit(k_bar, target.k_max), grid)
    return controllability_experiment(k_bar, epsilons, target, alpha, reach)


def resolved_target(rng, k_max, grid):
    """Random odd-mode coefficients ~ k^-3, zero at and above grid's Nyquist bin."""
    kk = np.arange(1, k_max + 1, 2)
    a = np.zeros(k_max, dtype=complex)
    a[0::2] = kk**-3.0 * np.exp(2j * np.pi * rng.random(kk.size))
    a[0::2][2 * kk**2 * round(grid.t_end / T8PI) >= grid.n_steps] = 0.0
    return a


def direct_moment_solution(a, grid):
    """-(sqrt(pi)/(4*pi)) * sum_k c_k sin(lam_k t), mode by mode, on grid's nodes t <= 8*pi."""
    kk = np.arange(1, a.size + 1, 2)
    times = grid.times[grid.times <= T8PI * (1 + 1e-12)]
    return -np.sin(np.outer(times, kk**2 / 4.0)) @ a[0::2] / (4.0 * np.sqrt(np.pi))


class TestControlTarget:
    def test_rejects_even_support(self):
        a = np.zeros(9, dtype=complex)
        a[1] = 0.3
        with pytest.raises(InputError):
            ControlTarget(SpectralCoefficients(9, a), T8PI)

    def test_accepts_odd_support(self):
        t = target_on(3, k_max=9)
        assert t.k_max == 9

    @pytest.mark.parametrize("t_end", [7.0, T8PI * (1 + 1e-8)])
    def test_refuses_a_horizon_off_the_lattice(self, t_end):
        with pytest.raises(UnsupportedHorizonError,
                           match=r"is not a positive integer multiple of 8\*pi"):
            target_on(1, t_end=t_end)

    @pytest.mark.parametrize("t_end", [np.nan, -T8PI])
    def test_refuses_a_horizon_that_is_not_positive(self, t_end):
        with pytest.raises(InputError, match="horizon must be positive and finite") as exc:
            target_on(1, t_end=t_end)
        assert type(exc.value) is InputError

    def test_periods_and_harmonics_are_exact(self):
        kk = np.arange(1, 402, 2)
        for n_periods in range(1, 9):
            t = target_on(1, t_end=n_periods * T8PI)
            assert type(t.periods) is int and t.periods == n_periods
            assert t.harmonics.dtype == np.int64
            assert np.array_equal(t.harmonics, kk**2 * n_periods)


class TestSolveMoment:
    def test_zero_target(self):
        t = target_on(1, value=0.0)
        rho = solve_moment(t, GRID_2_15)
        assert np.all(rho == 0)

    def test_mode_one_closed_form(self):
        t = target_on(1)
        rho = solve_moment(t, GRID_2_15)
        ts = GRID_2_15.times
        expected = -np.sin(ts / 4.0) / (4.0 * np.sqrt(np.pi))
        assert np.max(np.abs(rho - expected)) < 1e-10

    def test_boundary_values(self, rng):
        k_max = 101
        a = np.zeros(k_max, dtype=complex)
        kk = np.arange(1, k_max + 1, 2)
        a[0::2] = kk**-3.0 * np.exp(2j * np.pi * rng.random(kk.size))
        rho = solve_moment(ControlTarget(SpectralCoefficients(k_max, a), T8PI), GRID_2_15)
        assert abs(rho[0]) < 1e-12
        assert abs(rho[-1]) < 1e-12

    def test_unsupported_horizon(self):
        with pytest.raises(UnsupportedHorizonError):
            solve_moment(target_on(1, t_end=7.0), TimeGrid(7.0, 1 << 15))

    def test_multiple_period_extension(self):
        t = target_on(1, t_end=2 * T8PI)
        grid = TimeGrid(2 * T8PI, 1 << 16)
        rho = solve_moment(t, grid)
        beyond = grid.times > T8PI + 1e-9
        assert np.all(rho[beyond] == 0)
        assert moment_residual(rho, t) < 1e-7

    def test_multiple_periods_match_direct_sum(self, rng):
        # the FFT bins (k^2*N) mod n against sin(lam_k t) summed mode by mode, on
        # every class r = N mod f of f = gcd(n, 8): f = 1 on 30001 steps (N = 3, not
        # a divisor of n), 2 on 24002, 4 on 24004 and 8 on 24000
        for n_steps, periods in [(30001, [3]), (24002, [1, 2]), (24004, [1, 2, 3, 4]),
                                 (24000, range(1, 9))]:
            for n_periods in periods:
                grid = TimeGrid(n_periods * T8PI, n_steps)
                a = resolved_target(rng, 101, grid)
                rho = solve_moment(ControlTarget(SpectralCoefficients(101, a), grid.t_end), grid)
                active = grid.times <= T8PI * (1 + 1e-12)
                assert np.max(np.abs(rho[active] - direct_moment_solution(a, grid))) <= 1e-14, (
                    n_steps, n_periods)
                assert np.all(rho[~active] == 0)

    @pytest.mark.parametrize("n_steps, periods", [(30001, [3]), (24002, [1, 2]),
                                                  (24004, [1, 2, 3, 4]), (24000, range(1, 9))])
    def test_mirrored_rows_match_the_per_row_formula(self, rng, n_steps, periods):
        # rows p >= f/2 of rho's (f, M) buffer are signed copies of rows p - f/2; the
        # reference forms every row p as roots[p]*twiddle*A[m] - conj(...)*A[-m mod M]
        from deltabox.control import _fold

        for n_periods in periods:
            grid = TimeGrid(n_periods * T8PI, n_steps)
            target = ControlTarget(SpectralCoefficients(101, resolved_target(rng, 101, grid)),
                                   grid.t_end)
            roots, twiddle, index = _fold(target, n_steps)
            spectrum = np.zeros(n_steps // roots.size, dtype=complex)
            np.add.at(spectrum, index, target.c.a[0::2] / 2j)
            fwd = np.fft.ifft(spectrum, norm="forward")
            back = np.roll(fwd[::-1], 1)  # A[-m mod M]
            ref = np.zeros(n_steps + 1, dtype=complex)
            ref[:n_steps] = np.concatenate(
                [root * twiddle * fwd - np.conj(root * twiddle) * back for root in roots])
            ref *= -1.0 / (4.0 * np.sqrt(np.pi))
            ref[0] = ref[n_steps // n_periods + 1:] = 0.0
            rho = solve_moment(target, grid)
            assert np.max(np.abs(rho - ref)) <= 1e-15 * np.max(np.abs(ref)), (n_steps, n_periods)

    @pytest.mark.parametrize("n_steps", [25133, 30001, 24002, 24004, 24000])
    def test_one_inverse_fft_per_solve(self, rng, monkeypatch, n_steps):
        # f = gcd(n, 8) = 1, 1, 2, 4, 8: rho is one n/f-point inverse FFT, whose
        # mirror bins are read backwards, and no forward FFT.  The modes past the
        # Nyquist bin are zero, and their bins still wrap mod n
        calls = []
        for name in ("fft", "ifft"):
            def counted(x, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls.append((_name, len(x)))
                return _transform(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        for n_periods in (1, 3):
            grid = TimeGrid(n_periods * T8PI, n_steps)
            a = resolved_target(rng, 401, grid)
            calls.clear()
            rho = solve_moment(ControlTarget(SpectralCoefficients(401, a), grid.t_end), grid)
            assert calls == [("ifft", n_steps // np.gcd(n_steps, 8))]
            active = grid.times <= T8PI * (1 + 1e-12)
            assert np.max(np.abs(rho[active] - direct_moment_solution(a, grid))) <= 1e-14

    @pytest.mark.parametrize("n_steps, n_periods", [
        (1001, 2), (3001, 4), (24001, 7), (24000, 8), (1000, 4)])
    def test_integer_zeroing_matches_the_float_rule(self, rng, n_steps, n_periods):
        # rho vanishes after 8*pi on the nodes j > n/N, the nodes t_j > 8*pi*(1 + 1e-12),
        # where N divides n and where it does not
        grid = TimeGrid(n_periods * T8PI, n_steps)
        beyond = np.flatnonzero(grid.times > T8PI * (1 + 1e-12))
        assert np.array_equal(beyond, np.arange(n_steps // n_periods + 1, n_steps + 1))
        a = resolved_target(rng, 101, grid)
        rho = solve_moment(ControlTarget(SpectralCoefficients(101, a), grid.t_end), grid)
        assert np.all(rho[beyond] == 0) and np.count_nonzero(rho[1:beyond[0] - 1]) > 0

    def test_residual_of_construction(self):
        t = target_on(1)
        assert moment_residual(solve_moment(t, GRID_2_15), t) < 1e-8

    def test_aliased_mode_rejected_on_default_grid(self):
        # 2^15 steps on 8*pi put k^2 < 2^14 below the Nyquist bin: k = 127 is
        # accepted, k = 129 folds onto another frequency
        assert solve_moment(target_on(127), GRID_2_15).shape == ((1 << 15) + 1,)
        with pytest.raises(InputError, match="k=129 .* at least 33283"):
            solve_moment(target_on(129), GRID_2_15)

    @pytest.mark.parametrize("n", [1 << 15, 1 << 19])
    def test_fold_twiddles_match_direct_exp(self, n):
        # N = r periods on n steps put the bins in class r of f = gcd(n, 8) = 8.  The
        # twiddles come from block_phases (anchor x table), the reference is one exp
        # per point; at r = 0 the twiddle is exactly 1
        from deltabox.control import _fold

        for r in range(8):
            n_periods = r or 8
            roots, twiddle, index = _fold(target_on(1, k_max=9, t_end=n_periods * T8PI), n)
            np.testing.assert_allclose(roots, np.exp(2j * np.pi * (r * np.arange(8) % 8) / 8),
                                       rtol=0, atol=1e-15)
            direct = np.exp(2j * np.pi * r / n * np.arange(n // 8))
            assert np.max(np.abs(twiddle - direct)) <= 1e-15, r
            assert np.array_equal(8 * index + r, np.array([1, 9, 25, 49, 81]) * n_periods % n)


class TestMomentResidual:
    def test_zero_control_gives_target_norm(self):
        t = target_on(3, value=0.7)
        zero = np.zeros(4097, dtype=complex)
        assert moment_residual(zero, t) == pytest.approx(0.7)

    def test_joint_scaling(self):
        t = target_on(1)
        rho = solve_moment(t, GRID_2_15)
        t2 = target_on(1, value=2.0)
        assert moment_residual(rho * 2.0, t2) == pytest.approx(2 * moment_residual(rho, t),
                                                              abs=1e-12)

    def test_random_targets_battery(self):
        assert_check(verify.check_moment_exactness)

    def test_grid_horizon_must_match_target(self):
        # solve_moment's rule: the grid spans the target's horizon to within 1e-9.
        # The residual takes node samples on the target's own horizon
        t = target_on(1)
        with pytest.raises(InputError, match="horizon must match"):
            solve_moment(ControlTarget(t.c, 2 * T8PI), GRID_2_15)
        with pytest.raises(InputError, match="horizon must match"):
            synthesize_control(t, 1, TimeGrid(T8PI + 1e-8, 1 << 15))

    def test_residual_forms_no_full_length_increments(self):
        # on 2^19 steps (f = 8) the increments are formed one fold row of 2^16 points at
        # a time; one 2^19-point complex array alone would take 8.4 MB
        import tracemalloc

        t = target_on(3)
        rho = solve_moment(t, TimeGrid(T8PI, 1 << 19))
        tracemalloc.start()
        try:
            moment_residual(rho, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_fft_matches_direct_segment_sum(self, rng):
        # the FFT bin evaluation is the same per-segment exact quadrature:
        # h(T) = (rho_T - e^{-i*lam*T}(rho_0 + B))/(i*lam), B the summed slope moments
        from deltabox.control import _pl_end_history
        from deltabox.kernels import odd_eigenvalues, slope_moments

        grid = TimeGrid(T8PI, 512)
        samples = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        lam = odd_eigenvalues(25)
        got = _pl_end_history(samples, target_on(1, k_max=25))
        direct = np.array([
            (samples[-1] - np.exp(-1j * l * T8PI)
             * (samples[0] + np.sum(slope_moments(samples, grid.dt, l)))) / (1j * l)
            for l in lam])
        assert np.max(np.abs(got - direct)) < 1e-10


    @pytest.mark.parametrize("n_steps", [1001, 1002, 1004, 1000, 4096])
    def test_folded_bins_match_full_fft(self, rng, n_steps):
        # gcd(n, 8) = 1, 2, 4, 8, 8: the fold against the plain n-point FFT of the
        # increments, closed the same way; the bound is set by the dtype before measuring
        from deltabox.control import _pl_end_history
        from deltabox.kernels import close_history, odd_eigenvalues, phi1

        lam = odd_eigenvalues(101)
        for n_periods in range(1, 6):
            grid = TimeGrid(n_periods * T8PI, n_steps)
            samples = rng.standard_normal(n_steps + 1) + 1j * rng.standard_normal(n_steps + 1)
            inc = np.diff(samples)
            bins = np.round(lam * grid.t_end / (2 * np.pi)).astype(np.int64) % n_steps
            b = np.fft.ifft(inc, norm="forward")[bins] * phi1(1j * lam * grid.dt)
            ref = close_history(samples[-1], samples[0] + b, lam, grid.t_end)
            bound = 8 * np.finfo(float).eps * np.log2(n_steps) * np.linalg.norm(inc) / lam[0]
            got = _pl_end_history(samples, target_on(1, k_max=101, t_end=grid.t_end))
            assert np.max(np.abs(got - ref)) <= bound, n_periods


class TestSynthesizeControl:
    def test_zero_target(self):
        alpha = synthesize_control(target_on(1, value=0.0), 1, GRID_2_15)
        assert np.all(alpha.samples == 0)

    def test_mode_one_closed_form(self):
        # i on the anchor mode: q = i/s_1, its pair projection is q itself, the
        # moment i/(2*s_1), and 2*Re(u_c) = -sin^2(t/4)/(4*s_1)
        s1 = np.sinc(1.0 / (1 << 15)) ** 2
        alpha = synthesize_control(target_on(1, value=1j), 1, GRID_2_15)
        expected = -np.sin(GRID_2_15.times / 4.0) ** 2 / (4.0 * s1)
        assert np.max(np.abs(alpha.samples - expected)) < 1e-10

    def test_modulus_matches_rho(self):
        # off the pairs alpha = -2*sqrt(pi)*Re(rho*e^{i*lam_1*t}) with rho the moment
        # solution of the compensated target c_k/sinc^2(lam_k*dt/2)
        t = target_on(3)
        alpha = synthesize_control(t, 1, GRID_2_15)
        rho = solve_moment(target_on(3, value=1.0 / np.sinc(9.0 / (1 << 15)) ** 2), GRID_2_15)
        assert np.all(np.abs(alpha.samples) <= 2 * np.sqrt(np.pi) * np.abs(rho) + 1e-15)
        expected = -2 * np.sqrt(np.pi) * (rho * np.exp(0.25j * GRID_2_15.times)).real
        assert np.max(np.abs(alpha.samples - expected)) < 1e-12

    def test_even_anchor_rejected(self):
        with pytest.raises(InputError):
            synthesize_control(target_on(1), 2, GRID_2_15)

    @pytest.mark.parametrize("k_bar", [0, 403])
    def test_anchor_outside_the_truncation_rejected(self, k_bar):
        with pytest.raises(InputError, match=f"k_bar={k_bar} .* in 1..401"):
            synthesize_control(target_on(3), k_bar, GRID_2_15)

    def test_linearized_round_trip(self):
        # the synthesized control reaches its target through the linearized map
        k_max = 101
        grid = TimeGrid(T8PI, 20000)
        t = target_on(3, k_max=k_max, value=0.5)
        alpha = synthesize_control(t, 1, grid)
        psi0 = SpectralCoefficients.unit(1, k_max)
        out = apply_linearized(CouplingProfile.zero(T8PI), alpha.samples, psi0, grid)
        assert out.sub(t.c).norm() < 1e-6

    @pytest.mark.parametrize("k_bar, target", [
        (5, {7: 1.0}),  # pair (1, 7)
        (5, {1: 0.3, 5: 0.4 + 0.1j, 7: 0.2j, 9: 1.0}),  # pair (1, 7) and the anchor
        (25, {3: 0.5, 5: 1.0, 17: 0.2, 35: 0.3j}),  # pairs (5, 35) and (17, 31)
    ])
    def test_reachable_part_is_reached(self, k_bar, target):
        # a real control reaches c - unreachable, the target's projection on the pairs
        # j^2 + k^2 = 2*k_bar^2, and exactly nothing of the rest
        grid = TimeGrid(T8PI, 25133)
        a = np.zeros(401, dtype=complex)
        for k, value in target.items():
            a[k - 1] = value
        t = ControlTarget(SpectralCoefficients(401, a), T8PI)
        alpha = synthesize_control(t, k_bar, grid)
        reach = apply_linearized(CouplingProfile.zero(T8PI), alpha.samples,
                                 SpectralCoefficients.unit(k_bar, 401), grid)
        unreachable = real_moments(t, k_bar, grid)[1]
        assert np.max(np.abs(a[0::2] - unreachable - reach.a[0::2])) <= 1e-12
        assert np.max(np.abs(unreachable)) > 0.1

    def test_aliased_partner_rejected(self):
        # k_bar = 5 pairs mode 1 with mode 7: on 97 steps 7 is past the Nyquist bin
        # (2*49 >= 97) while the target's mode 1 is not
        with pytest.raises(InputError, match="k=7 .* at least 99"):
            synthesize_control(target_on(1, k_max=9), 5, TimeGrid(T8PI, 97))


class TestGamma:
    def test_free_map(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(1, 51)
        out = gamma(CouplingProfile.zero(1.0), psi0, grid)
        assert np.max(np.abs(out.a - free_evolve(psi0, 1.0).a)) == 0.0

    def test_even_sector_closure(self):
        assert_check(verify.check_even_sector_closure)

    @pytest.mark.parametrize("domain", [False, True])
    def test_evolve_final_state_is_gamma(self, domain):
        # one end-time map: T/n*n != T on this grid, and both must close at t_N
        k_max, alpha0 = 51, 0.4
        grid = TimeGrid(T8PI, 600)
        alpha = CouplingProfile.sine_bump(0.5, T8PI)
        psi0 = SpectralCoefficients.unit(1, k_max).add(SpectralCoefficients.unit(4, k_max))
        if domain:
            # compatible state: q = -alpha(0)*full(0) with full = psi0 + q*G
            alpha = CouplingProfile.constant(alpha0, T8PI)
            g0 = origin_trace(green_coefficients(SpectralShift(), k_max))
            q = -alpha0 * origin_trace(psi0) / (1.0 + alpha0 * g0)
            psi0 = DomainState(psi0, q, SpectralShift())
        final = evolve(psi0, alpha, grid).final_state
        assert np.array_equal(final.a, gamma(alpha, psi0, grid).a)

    def test_norm_preserved(self):
        grid = TimeGrid(1.0, 1000)
        psi0 = SpectralCoefficients.unit(1, 101)
        out = gamma(CouplingProfile.sine_bump(0.5, 1.0), psi0, grid)
        assert abs(out.norm() - 1.0) < 1e-6


class TestTruncationFromState:
    # every solver entry point runs at the truncation of the state it is given
    def test_solvers_accept_a_51_mode_state(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(1, 51)
        alpha = CouplingProfile.sine_bump(0.3, 1.0)
        assert solve_charge(alpha, psi0, grid).k_max == 51
        assert evolve(psi0, alpha, grid).final_state.k_max == 51
        assert gamma(alpha, psi0, grid).k_max == 51
        u = np.sin(np.pi * grid.times) + 0j
        assert apply_linearized(alpha, u, psi0, grid).k_max == 51
        dq, da = lipschitz_probe(alpha, CouplingProfile.sine_bump(0.31, 1.0), psi0, grid)
        assert dq > 0 and da > 0

    def test_zero_coupling_linearization_keeps_the_truncation(self):
        grid = TimeGrid(1.0, 200)
        u = np.sin(np.pi * grid.times) + 0j
        out = apply_linearized(CouplingProfile.zero(1.0), u, SpectralCoefficients.unit(1, 51),
                               grid)
        assert out.k_max == 51


class TestApplyLinearized:
    def test_zero_direction(self):
        grid = TimeGrid(1.0, 100)
        psi0 = SpectralCoefficients.unit(1, 51)
        out = apply_linearized(CouplingProfile.sine_bump(0.3, 1.0),
                               np.zeros(101, dtype=complex), psi0, grid)
        assert np.all(out.a == 0)

    def test_eigenstate_reduction_at_zero_coupling(self):
        # at alpha = 0 with psi0 = psi_kbar the linear charge is
        # -u(t) e^{-i*lam_kbar*t}/sqrt(pi); check through the assembled state
        k_max = 51
        grid = TimeGrid(T8PI, 8000)
        psi0 = SpectralCoefficients.unit(1, k_max)
        ts = grid.times
        u = np.sin(ts / 4.0) * np.exp(1j * ts / 4.0)
        out = apply_linearized(CouplingProfile.zero(T8PI), u, psi0, grid)
        # q = -(1/sqrt(pi)) sin(t/4): its transform to mode 1 is known in
        # closed form: (i/sqrt(pi)) e^{-i lam T} int q e^{i lam s} ds with
        # int_0^{8pi} -sin(s/4)e^{is/4} ds/sqrt(pi) = -4*pi*i/sqrt(pi)
        expected_c1 = 1j / np.sqrt(np.pi) * (-4j * np.pi / np.sqrt(np.pi))
        assert out.a[0] == pytest.approx(expected_c1, abs=1e-6)

    def test_zero_coupling_skips_the_march(self, rng):
        # with alpha = 0 the march is the identity: the charge is f itself and
        # F comes from its end history, as on the marched route
        k_max = 101
        grid = TimeGrid(2.0, 2000)
        psi0 = SpectralCoefficients(k_max, rng.standard_normal(k_max) + 0j)
        u = rng.standard_normal(grid.n_steps + 1) + 1j * rng.standard_normal(grid.n_steps + 1)
        f = -u * free_origin_series(psi0, grid.times)
        marched = _march(f, np.zeros(f.size, dtype=complex), f[0], grid, k_max)
        assert np.array_equal(marched.q, f)
        out = apply_linearized(CouplingProfile.zero(2.0), u, psi0, grid)
        assert np.max(np.abs(out.a - assemble_F(marched).a)) < 1e-13

    @pytest.mark.parametrize("alpha", [CouplingProfile.zero(1.0),
                                       CouplingProfile.sine_bump(0.3, 1.0)])
    def test_stack_matches_single_directions(self, rng, alpha):
        # one state per row of an (R, n+1) stack, as from R separate calls
        grid = TimeGrid(1.0, 300)
        psi0 = SpectralCoefficients.unit(1, 51).add(SpectralCoefficients.unit(3, 51))
        us = rng.standard_normal((3, 301)) + 1j * rng.standard_normal((3, 301))
        stacked = apply_linearized(alpha, us, psi0, grid)
        assert len(stacked) == 3
        for u, out in zip(us, stacked):
            single = apply_linearized(alpha, u, psi0, grid)
            assert np.max(np.abs(out.a - single.a)) <= 1e-13

    def test_linearity(self):
        assert_check(verify.check_linearized_linearity)

    def test_frechet_remainder_order(self):
        assert_check(verify.check_frechet_order)

    def test_gateaux_continuity(self):
        assert_check(verify.check_gateaux_continuity)


class TestControllabilityExperiment:
    def test_frequency_collisions(self):
        assert _frequency_collisions(1, 401) == []
        assert _frequency_collisions(5, 401) == [(1, 7)]

    def test_zero_direction_rejected(self):
        grid = TimeGrid(T8PI, 4096)
        t = target_on(3, value=0.0)
        with pytest.raises(InputError):
            steer(t, grid, [1e-2])

    def test_aliased_mode_rejected(self):
        # k = 9 on 8*pi needs n > 2*81 steps; 162 steps fold it onto its negative
        with pytest.raises(InputError, match="k=9 .* at least 163"):
            synthesize_control(target_on(9, k_max=21), 1, TimeGrid(T8PI, 162))

    def test_small_experiment(self):
        grid = TimeGrid(T8PI, 6283)
        t = target_on(3, k_max=51)
        rep = steer(t, grid, [3e-2, 1e-2])
        assert rep.remainder_slope > 1.8
        assert all(np.isfinite(rep.remainders))
        assert "none" in rep.collision_note

    def test_reach_is_scaled_to_the_step(self):
        # the prediction for each eps is the passed reach times eps/|c|: on a target
        # of norm 0.76 a missing or doubled scale would leave O(1) displacement errors
        grid = TimeGrid(T8PI, 2000)
        a = np.zeros(25, dtype=complex)
        a[2], a[4] = 0.7, 0.3j
        eps = [3e-2, 1e-2]
        rep = steer(ControlTarget(SpectralCoefficients(25, a), T8PI), grid, eps)
        assert rep.remainder_slope > 1.9
        assert all(d <= 10 * e for d, e in zip(rep.displacement_errors, eps))

    def test_zero_amplitude_limit(self):
        # with no control the final state is exactly the free phase rotation
        grid = TimeGrid(T8PI, 2000)
        psi0 = SpectralCoefficients.unit(1, 51)
        out = gamma(CouplingProfile.zero(T8PI), psi0, grid)
        assert np.max(np.abs(out.a - free_evolve(psi0, T8PI).a)) == 0.0
