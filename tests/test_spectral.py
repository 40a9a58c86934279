import numpy as np
import pytest

from deltabox.errors import AliasingError, DomainError, InputError
from deltabox.greens import green_closed
from deltabox.spectral import (
    SpectralCoefficients,
    TimeGrid,
    box_trapezoid,
    eigenmode_value,
    eigenvalue,
    evaluate_state,
    eigenvalues,
    free_evolve,
    free_origin_series,
    mode_table,
    origin_trace,
    project_function,
)
from deltabox.kernels import TIME_BLOCK
from deltabox import verify

from conftest import assert_check

INV_SQRT_PI = 1.0 / np.sqrt(np.pi)


class TestEigenmodes:
    def test_cosine_mode_at_origin(self):
        assert eigenmode_value(1, 0.0) == pytest.approx(INV_SQRT_PI, abs=1e-15)

    def test_sine_mode_at_origin(self):
        assert eigenmode_value(2, 0.0) == 0.0

    def test_dirichlet_wall(self):
        # cos(3*pi/2) = 0
        assert abs(eigenmode_value(3, np.pi)) < 1e-15

    def test_eigenvalue(self):
        assert eigenvalue(3) == 2.25
        assert eigenvalue(1) == 0.25

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eigenmode_value(1, 3.5)

    def test_bad_mode_index(self):
        with pytest.raises(InputError):
            eigenvalue(0)


class TestModeTable:
    # anchor x table against one cos/sin per (k, x): within a few eps of the phase
    # argument k*|x|/2, on ranges that start on odd and on even k
    @pytest.mark.parametrize("start", [1, 2, 63, 64])
    @pytest.mark.parametrize("size", [1, 64, 100_000])
    @pytest.mark.parametrize("x", [2.1, -np.pi, np.linspace(-np.pi, np.pi, 7)],
                             ids=["scalar", "wall", "array"])
    def test_matches_direct_trig(self, start, size, x):
        ks = np.arange(start, start + size)
        arg = np.multiply.outer(ks, 0.5 * np.asarray(x))
        odd = (ks % 2 == 1).reshape((-1,) + (1,) * np.ndim(x))
        direct = np.where(odd, np.cos(arg), np.sin(arg))
        table = mode_table(range(start, start + size), x)
        assert table.shape == direct.shape
        bound = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(arg))
        assert np.all(np.abs(table - direct) <= bound)


class TestOriginTrace:
    def test_single_cosine_mode(self):
        c = SpectralCoefficients.unit(1, 11)
        assert origin_trace(c) == pytest.approx(INV_SQRT_PI, abs=1e-15)

    def test_sine_mode_is_silent(self):
        c = SpectralCoefficients.unit(2, 11)
        assert origin_trace(c) == 0.0

    def test_green_coefficient_sum(self):
        # a_k = 1/(lam_k+1) on odd k sums (over sqrt(pi)) to sqrt(pi)*G(0,0)
        k_max = 100001
        k = np.arange(1, k_max + 1)
        a = np.zeros(k_max, dtype=complex)
        odd = k % 2 == 1
        a[odd] = 1.0 / (0.25 * k[odd] ** 2 + 1.0)
        c = SpectralCoefficients(k_max, a)
        target = np.sqrt(np.pi) * np.tanh(np.pi) / 2.0
        # partial-sum oracle: the tail is below 2/k_max
        assert abs(origin_trace(c) - target) < 2.0 / k_max


class TestFreeOriginSeries:
    @pytest.mark.parametrize("n_nodes", [TIME_BLOCK // 2, TIME_BLOCK, TIME_BLOCK + 1,
                                         3 * TIME_BLOCK + 37])
    def test_grid_matches_per_time_exp(self, rng, n_nodes):
        # the uniform grid takes the anchor x table product; the same times
        # reversed are not times[1]*arange(n) and take one exp per time and mode.
        # Bound: each path's phase within 4*eps*(lam*t + 1) of exact per mode,
        # plus K*eps*sum|a_k| of summation, all over sqrt(pi)
        k_max = 401
        c = SpectralCoefficients(k_max, rng.standard_normal(k_max)
                                 + 1j * rng.standard_normal(k_max))
        times = TimeGrid(2.0, n_nodes - 1).times
        grid_path = free_origin_series(c, times)
        per_time = free_origin_series(c, times[::-1])[::-1]
        eps = np.finfo(float).eps
        lam, a_odd = eigenvalues(k_max)[0::2], np.abs(c.a[0::2])
        bound = eps * (8 * np.outer(times, lam) + 8 + lam.size) @ a_odd / np.sqrt(np.pi)
        assert np.all(np.abs(grid_path - per_time) <= bound)

    def test_grid_skips_zero_modes(self):
        times = TimeGrid(1.0, 300).times
        out = free_origin_series(SpectralCoefficients.unit(3, 51), times)
        assert np.max(np.abs(out - INV_SQRT_PI * np.exp(-2.25j * times))) < 1e-14
        assert np.all(free_origin_series(SpectralCoefficients.zeros(51), times) == 0)

    def test_scalar_time(self, rng):
        c = SpectralCoefficients(51, rng.standard_normal(51) + 1j * rng.standard_normal(51))
        out = free_origin_series(c, 0.5)
        assert out.shape == ()
        assert abs(out - origin_trace(free_evolve(c, 0.5))) < 1e-14


class TestFreeEvolve:
    def test_full_period_mode_one(self):
        c = SpectralCoefficients.unit(1, 7)
        out = free_evolve(c, 8.0 * np.pi)  # lam_1 * 8*pi = 2*pi
        assert np.max(np.abs(out.a - c.a)) < 1e-12

    def test_half_period_mode_two(self):
        c = SpectralCoefficients.unit(2, 7)
        out = free_evolve(c, np.pi)  # e^{-i*pi} = -1
        assert np.max(np.abs(out.a + c.a)) < 1e-12

    def test_unitary(self, rng):
        c = SpectralCoefficients(64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for t in rng.uniform(0, 30, size=5):
            assert free_evolve(c, t).norm() == pytest.approx(c.norm(), rel=1e-14)

    def test_group_property(self):
        assert_check(verify.check_free_evolve_group)


class TestEvaluateState:
    def test_mode_one_values(self):
        c = SpectralCoefficients.unit(1, 9)
        assert evaluate_state(c, [0.0])[0] == pytest.approx(INV_SQRT_PI, abs=1e-15)
        assert abs(evaluate_state(c, [np.pi])[0]) < 1e-12

    def test_linearity_at_origin(self):
        a = np.zeros(9, dtype=complex)
        a[0] = 1.0
        a[2] = 1.0
        c = SpectralCoefficients(9, a)
        assert evaluate_state(c, [0.0])[0] == pytest.approx(2 * INV_SQRT_PI, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            evaluate_state(SpectralCoefficients.unit(1, 5), [4.0])

    def test_boundary_vanishes_random_state(self, rng):
        c = SpectralCoefficients(64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        vals = evaluate_state(c, [-np.pi, np.pi])
        assert np.max(np.abs(vals)) < 1e-10 * c.norm()


class TestProjectFunction:
    def test_projects_eigenmode(self):
        got = project_function(lambda x: eigenmode_value(3, x), k_max=32)
        expected = np.zeros(32)
        expected[2] = 1.0
        assert np.max(np.abs(got.a - expected)) < 1e-10

    def test_zero_function(self):
        got = project_function(lambda x: np.zeros_like(x), k_max=16)
        assert np.all(got.a == 0)

    def test_green_function_coefficients(self):
        # quadrature oracle for the mode content of G^1(., 0):
        # (1/sqrt(pi))/(lam_k+1) on odd k, 0 on even k
        k_max = 64
        got = project_function(lambda x: green_closed(x, 0.0, 1.0), k_max=k_max,
                               resolution=8192)
        k = np.arange(1, k_max + 1)
        expected = np.where(k % 2 == 1, INV_SQRT_PI / (0.25 * k**2 + 1.0), 0.0)
        assert np.max(np.abs(got.a - expected)) < 1e-6

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            project_function(lambda x: np.cos(x), k_max=64, resolution=100)

    def test_box_trapezoid_rule(self):
        # panels + 1 nodes spanning the box, half weights at the two walls
        xs, w = box_trapezoid(8)
        assert xs.size == 9 and xs[0] == -np.pi and xs[-1] == np.pi
        assert w[0] == w[-1] == np.pi / 8 and np.all(w[1:-1] == np.pi / 4)


class TestInvariants:
    def test_orthonormality(self):
        assert_check(verify.check_orthonormality)

    def test_parseval(self):
        assert_check(verify.check_parseval)

    def test_origin_trace_series(self):
        assert_check(verify.check_origin_trace_series)


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(2.0, 4)
        assert g.dt == 0.5
        assert np.allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])

    def test_bad_steps(self):
        with pytest.raises(InputError):
            TimeGrid(1.0, 0)


class TestCoefficients:
    def test_norm_is_parseval_norm(self, rng):
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = SpectralCoefficients(16, a)
        assert c.norm() == pytest.approx(np.linalg.norm(a))

    def test_immutable(self):
        c = SpectralCoefficients.unit(1, 4)
        with pytest.raises(ValueError):
            c.a[0] = 2.0

    def test_even_sector_defect(self):
        a = np.zeros(6, dtype=complex)
        a[0] = 1.0
        assert SpectralCoefficients(6, a).even_sector_defect() == 0.0
        a[1] = 0.5
        assert SpectralCoefficients(6, a).even_sector_defect() == 0.5

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            SpectralCoefficients(2, np.array([np.nan, 0.0], dtype=complex))
