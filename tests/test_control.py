import numpy as np
import pytest

from deltabox.charge import CouplingProfile, _march
from deltabox.control import (
    ControlTarget,
    SynthesizedControl,
    _frequency_collisions,
    apply_linearized,
    controllability_experiment,
    gamma,
    moment_residual,
    solve_moment,
    synthesize_control,
)
from deltabox.errors import InputError, UnsupportedHorizonError
from deltabox.propagator import assemble_F
from deltabox.spectral import SpectralCoefficients, TimeGrid, free_evolve, free_origin_series
from deltabox import verify

from conftest import assert_check

T8PI = 8.0 * np.pi


def target_on(k, k_max=401, value=1.0, t_end=T8PI):
    a = np.zeros(k_max, dtype=complex)
    a[k - 1] = value
    return ControlTarget(SpectralCoefficients(k_max, a), t_end)


class TestControlTarget:
    def test_rejects_even_support(self):
        a = np.zeros(9, dtype=complex)
        a[1] = 0.3
        with pytest.raises(InputError):
            ControlTarget(SpectralCoefficients(9, a), T8PI)

    def test_accepts_odd_support(self):
        t = target_on(3, k_max=9)
        assert t.k_max == 9


class TestSolveMoment:
    def test_zero_target(self):
        t = target_on(1, value=0.0)
        rho = solve_moment(t)
        assert np.all(rho.u == 0)

    def test_mode_one_closed_form(self):
        t = target_on(1)
        rho = solve_moment(t)
        ts = rho.grid.times
        expected = -np.sin(ts / 4.0) / (4.0 * np.sqrt(np.pi))
        assert np.max(np.abs(rho.u - expected)) < 1e-10

    def test_boundary_values(self, rng):
        k_max = 101
        a = np.zeros(k_max, dtype=complex)
        kk = np.arange(1, k_max + 1, 2)
        a[0::2] = kk**-3.0 * np.exp(2j * np.pi * rng.random(kk.size))
        rho = solve_moment(ControlTarget(SpectralCoefficients(k_max, a), T8PI))
        assert abs(rho.u[0]) < 1e-12
        assert abs(rho.u[-1]) < 1e-12

    def test_unsupported_horizon(self):
        with pytest.raises(UnsupportedHorizonError):
            solve_moment(target_on(1, t_end=7.0))

    def test_multiple_period_extension(self):
        t = target_on(1, t_end=2 * T8PI)
        rho = solve_moment(t, TimeGrid(2 * T8PI, 1 << 16))
        times = rho.grid.times
        beyond = times > T8PI + 1e-9
        assert np.all(rho.u[beyond] == 0)
        assert moment_residual(rho, t) < 1e-7

    def test_residual_of_construction(self):
        t = target_on(1)
        assert moment_residual(solve_moment(t), t) < 1e-8


class TestMomentResidual:
    def test_zero_control_gives_target_norm(self):
        t = target_on(3, value=0.7)
        grid = TimeGrid(T8PI, 4096)
        zero = SynthesizedControl(grid, np.zeros(4097, dtype=complex))
        assert moment_residual(zero, t) == pytest.approx(0.7)

    def test_joint_scaling(self):
        t = target_on(1)
        rho = solve_moment(t)
        t2 = target_on(1, value=2.0)
        rho2 = SynthesizedControl(rho.grid, rho.u * 2.0, rho.realness_defect)
        assert moment_residual(rho2, t2) == pytest.approx(2 * moment_residual(rho, t), abs=1e-12)

    def test_random_targets_battery(self):
        assert_check(verify.check_moment_exactness)

    def test_fft_matches_direct_segment_sum(self, rng):
        # the FFT bin evaluation is the same per-segment exact quadrature
        from deltabox.control import _pl_fourier_coefficients
        from deltabox.kernels import odd_eigenvalues, slope_moments

        grid = TimeGrid(T8PI, 512)
        samples = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        lam = odd_eigenvalues(25)
        got = _pl_fourier_coefficients(samples, grid, lam)
        direct = np.array([
            (samples[-1] * np.exp(1j * l * T8PI) - samples[0]
             - np.sum(slope_moments(samples, grid.dt, l))) / (1j * l)
            for l in lam])
        assert np.max(np.abs(got - direct)) < 1e-10


class TestSynthesizeControl:
    def test_zero_target(self):
        u = synthesize_control(target_on(1, value=0.0), 1)
        assert np.all(u.u == 0)

    def test_mode_one_closed_form(self):
        u = synthesize_control(target_on(1), 1)
        ts = u.grid.times
        expected = 0.25 * np.sin(ts / 4.0) * np.exp(1j * ts / 4.0)
        assert np.max(np.abs(u.u - expected)) < 1e-10

    def test_modulus_matches_rho(self):
        t = target_on(3)
        rho = solve_moment(t)
        u = synthesize_control(t, 1)
        assert np.max(np.abs(np.abs(u.u) - np.sqrt(np.pi) * np.abs(rho.u))) < 1e-12

    def test_even_anchor_rejected(self):
        with pytest.raises(InputError):
            synthesize_control(target_on(1), 2)

    def test_linearized_round_trip(self):
        # the synthesized control reaches its target through the linearized map
        k_max = 101
        grid = TimeGrid(T8PI, 20000)
        t = target_on(3, k_max=k_max, value=0.5)
        u = synthesize_control(t, 1, grid=grid)
        psi0 = SpectralCoefficients.unit(1, k_max)
        out = apply_linearized(CouplingProfile.zero(T8PI), u.profile(), psi0, grid, k_max)
        assert out.sub(t.c).norm() < 1e-6


class TestGamma:
    def test_free_map(self):
        grid = TimeGrid(1.0, 200)
        psi0 = SpectralCoefficients.unit(1, 51)
        out = gamma(CouplingProfile.zero(1.0), psi0, grid, 51)
        assert np.max(np.abs(out.a - free_evolve(psi0, 1.0).a)) == 0.0

    def test_even_sector_closure(self):
        assert_check(verify.check_sector_closure)

    def test_norm_preserved(self):
        grid = TimeGrid(1.0, 1000)
        psi0 = SpectralCoefficients.unit(1, 101)
        out = gamma(CouplingProfile.sine_bump(0.5, 1.0), psi0, grid, 101)
        assert abs(out.norm() - 1.0) < 1e-6


class TestApplyLinearized:
    def test_zero_direction(self):
        grid = TimeGrid(1.0, 100)
        psi0 = SpectralCoefficients.unit(1, 51)
        out = apply_linearized(CouplingProfile.sine_bump(0.3, 1.0),
                               np.zeros(101, dtype=complex), psi0, grid, 51)
        assert np.all(out.a == 0)

    def test_eigenstate_reduction_at_zero_coupling(self):
        # at alpha = 0 with psi0 = psi_kbar the linear charge is
        # -u(t) e^{-i*lam_kbar*t}/sqrt(pi); check through the assembled state
        k_max = 51
        grid = TimeGrid(T8PI, 8000)
        psi0 = SpectralCoefficients.unit(1, k_max)
        ts = grid.times
        u = np.sin(ts / 4.0) * np.exp(1j * ts / 4.0)
        out = apply_linearized(CouplingProfile.zero(T8PI), u, psi0, grid, k_max)
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
        out = apply_linearized(CouplingProfile.zero(2.0), u, psi0, grid, k_max)
        assert np.max(np.abs(out.a - assemble_F(marched).a)) < 1e-13

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
        with pytest.raises(InputError):
            controllability_experiment(1, [1e-2], target_on(3, value=0.5), grid, 51)

    def test_small_experiment(self):
        grid = TimeGrid(T8PI, 6283)
        rep = controllability_experiment(1, [3e-2, 1e-2], target_on(3, k_max=51),
                                         grid, 51)
        assert rep.remainder_slope > 1.8
        assert all(np.isfinite(rep.remainders))
        assert "none" in rep.collision_note

    def test_zero_amplitude_limit(self):
        # with no control the final state is exactly the free phase rotation
        grid = TimeGrid(T8PI, 2000)
        psi0 = SpectralCoefficients.unit(1, 51)
        out = gamma(CouplingProfile.zero(T8PI), psi0, grid, 51)
        assert np.max(np.abs(out.a - free_evolve(psi0, T8PI).a)) == 0.0
