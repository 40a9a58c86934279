import numpy as np
import pytest

from deltabox import greens
from deltabox.errors import InputError, SingularityError
from deltabox.greens import (
    ROOT_XTOL,
    SpectralShift,
    find_root,
    green_closed,
    green_coefficients,
    green_origin,
    green_origin_real,
    green_series,
    static_eigenvalues,
)
from deltabox.oracles import FD_POINTS, fd_spectrum
from deltabox.spectral import BOX_HALF_WIDTH, origin_trace
from deltabox import verify

from conftest import assert_check

TANH_PI_OVER_2 = 0.49813603811037493  # tanh(pi)/2, cross-checked below by series


class TestGreenClosed:
    def test_dirichlet_wall(self):
        assert abs(green_closed(np.pi, 0.3, 1.0)) < 1e-12
        assert abs(green_closed(-np.pi, -0.7, 2.0)) < 1e-12

    def test_origin_value_against_series_oracle(self):
        got = green_closed(0.0, 0.0, 1.0)
        assert got == pytest.approx(TANH_PI_OVER_2, abs=1e-14)
        oracle = green_series(0.0, 0.0, 1.0, 1_000_001)
        assert abs(got - oracle) < 1e-6  # series tail is O(1/K)

    def test_symmetry(self):
        assert green_closed(0.5, 0.2, 1.0) == pytest.approx(green_closed(0.2, 0.5, 1.0))

    def test_pole_rejected(self):
        with pytest.raises(SingularityError):
            green_closed(0.1, 0.2, -0.25)

    def test_large_shift_no_overflow(self):
        val = green_closed(0.1, -0.2, 1e6)
        assert np.isfinite(val.real) and abs(val) < 1e-100

    def test_zero_shift(self):
        # (pi+x_<)(pi-x_>)/(2*pi)
        x, xp = -0.4, 0.9
        expected = (np.pi - 0.4) * (np.pi - 0.9) / (2 * np.pi)
        assert green_closed(x, xp, 0.0) == pytest.approx(expected, rel=1e-13)


class TestGreenSeries:
    def test_origin_truncation_error(self):
        got = green_series(0.0, 0.0, 1.0, 100_000)
        assert abs(got - TANH_PI_OVER_2) < 5e-5

    def test_small_shift_limit(self):
        # G(0,0;z) -> pi/2 as z -> 0+, via the odd-harmonic sum
        got = green_series(0.0, 0.0, 1e-10, 2_000_001)
        assert abs(got - np.pi / 2) < 2e-6

    def test_generic_point_against_closed(self):
        got = green_series(1.0, -1.0, 2.0, 100_000)
        assert abs(got - green_closed(1.0, -1.0, 2.0)) < 1e-4

    def test_convergence_order(self):
        assert_check(verify.check_series_closed_order)

    @pytest.mark.parametrize("k_max", [1000, 100_000])
    def test_matches_product_form(self, rng, k_max):
        # against psi_k(x)*psi_k(x')/(lam_k + z) summed with one cos/sin per mode and
        # point, to the rounding of the phases: a few eps*max(1, k*|x|/2) per term
        ks = np.arange(1, k_max + 1)
        lam = 0.25 * ks.astype(float) ** 2
        for _ in range(5):
            x, xp = rng.uniform(-np.pi, np.pi, 2)
            z = complex(rng.uniform(0.1, 5), rng.uniform(-2, 2))
            px, pxp = (np.where(ks % 2, np.cos(0.5 * ks * y), np.sin(0.5 * ks * y))
                       for y in (x, xp))
            ref = np.sum(px * pxp / (lam + z)) / np.pi
            bound = 8 * np.finfo(float).eps * np.sum(
                np.maximum(1.0, 0.5 * ks * max(abs(x), abs(xp))) / np.abs(lam + z)) / np.pi
            assert abs(green_series(x, xp, z, k_max) - ref) <= bound


class TestGreenOrigin:
    def test_unit_shift(self):
        # oracle: the eigenfunction expansion at the origin
        got = green_origin(1.0)
        assert abs(got - green_series(0.0, 0.0, 1.0, 2_000_001)) < 4e-7

    def test_zero_shift_removable(self):
        assert green_origin(0.0) == pytest.approx(np.pi / 2, abs=1e-14)
        # odd-harmonic oracle: (1/pi) sum 4/k^2 -> pi/2
        k = np.arange(1, 400002, 2)
        partial = np.sum(4.0 / k**2) / np.pi
        assert green_origin(0.0).real == pytest.approx(partial, abs=1e-5)

    def test_pole(self):
        with pytest.raises(SingularityError):
            green_origin(-0.25)

    @pytest.mark.parametrize("z", [complex("nan"), complex("-inf"), complex(float("nan"), 1.0),
                                   complex(1.0, float("inf"))], ids=str)
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(InputError, match="must be finite"):
            green_origin(z)

    def test_even_mode_shift_is_not_a_pole(self):
        # z = -1 = -lam_2 only hits the sine sector, absent at the origin
        val = green_origin(-1.0)
        assert abs(val) < 1e-12

    def test_real_form_matches_complex(self):
        for energy in (-3.0, -0.4, 0.7, 5.3):
            assert green_origin_real(energy) == pytest.approx(
                complex(green_origin(complex(-energy))).real, rel=1e-12)


class TestGreenCoefficients:
    def test_mode_one_value(self):
        c = green_coefficients(SpectralShift(1.0), 9)
        assert c.a[0] == pytest.approx((1 / np.sqrt(np.pi)) / 1.25)

    def test_even_modes_vanish(self):
        c = green_coefficients(SpectralShift(1.0), 16)
        assert np.all(c.a[1::2] == 0)

    def test_origin_trace_converges_to_green_origin(self):
        c = green_coefficients(SpectralShift(1.0), 200_001)
        assert abs(origin_trace(c) - green_origin(1.0)) < 1e-5


class TestStaticEigenvalues:
    def test_free_spectrum(self):
        eigs = static_eigenvalues(0.0, (0.0, 5.0))
        energies = [e for e, _ in eigs]
        assert np.allclose(energies, [0.25, 1.0, 2.25, 4.0])

    def test_sine_sector_untouched(self):
        for alpha in (-3.0, -0.5, 0.0, 1.0, 7.0):
            eigs = static_eigenvalues(alpha, (0.5, 5.0))
            assert any(e == pytest.approx(1.0) and s == "odd" for e, s in eigs)
            assert any(e == pytest.approx(4.0) and s == "odd" for e, s in eigs)

    def test_strong_coupling_limit(self):
        # even-sector roots approach n^2 from below at relative rate 4/(pi*alpha)
        eigs = [e for e, s in static_eigenvalues(1e4, (0.0, 10.0)) if s == "even"]
        assert len(eigs) == 3
        for energy, n in zip(eigs, (1, 2, 3)):
            assert abs(energy - n * n) / n**2 < 2e-4
            predicted = n * n * (1.0 - 4.0 / (np.pi * 1e4))
            assert energy == pytest.approx(predicted, abs=5e-7 * n * n)

    def test_fd_oracle(self):
        assert_check(verify.check_fd_oracle)

    def test_bound_state_attractive(self):
        eigs = static_eigenvalues(-2.0, (-50.0, 0.0))
        assert len(eigs) == 1
        energy = eigs[0][0]
        # jump condition oracle: tanh(pi*sqrt(-E)) = 2*sqrt(-E)/|alpha|
        r = np.sqrt(-energy)
        assert np.tanh(np.pi * r) == pytest.approx(2 * r / 2.0, abs=1e-10)

    def test_empty_window(self):
        assert static_eigenvalues(1.0, (3.0, 3.0)) == []
        assert static_eigenvalues(1.0, (5.0, 2.0)) == []

    def test_nan_alpha(self):
        with pytest.raises(InputError):
            static_eigenvalues(float("nan"), (0.0, 1.0))

    def test_pole_bracketing(self):
        assert_check(verify.check_pole_bracketing)

    def test_derivative_jump(self):
        assert_check(verify.check_derivative_jump)

    def test_fd_oracle_direct_values(self):
        # grid oracle pins the three lowest merged eigenvalues for alpha = 2
        mine = [e for e, _ in static_eigenvalues(2.0, (-10.0, 10.0))][:3]
        ref = fd_spectrum(2.0, n_eigen=3)
        assert np.max(np.abs(np.array(mine) - ref)) < 1e-3


    @pytest.mark.parametrize("alpha, window", [
        (1e4, (0.0, 10.0)), (-2.0, (-50.0, 0.0)), (2.0, (-10.0, 10.0)), (-2.0, (-10.0, 10.0)),
        (0.5, (-10.0, 10.0)), (-0.5, (-10.0, 10.0)), (0.7, (0.3, 20.0)), (-1.3, (0.3, 20.0)),
        (-3.0, (0.5, 5.0)), (7.0, (0.5, 5.0)), (1.0, (0.26, 2.25)),
    ])
    def test_roots_match_brentq(self, alpha, window, monkeypatch):
        # the bisection against scipy's Brent method on the same brackets
        from scipy.optimize import brentq

        mine = static_eigenvalues(alpha, window)
        monkeypatch.setattr(greens, "find_root",
                            lambda f, lo, hi: brentq(f, lo, hi, xtol=ROOT_XTOL))
        ref = static_eigenvalues(alpha, window)
        assert [s for _, s in mine] == [s for _, s in ref]
        assert np.max(np.abs(np.array([e for e, _ in mine]) - [e for e, _ in ref])) <= 1e-11

    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_fd_secular_roots_match_eigensolver(self, alpha):
        # the secular equations against scipy's eigensolver on the same matrix
        from scipy.linalg import eigh_tridiagonal

        n_eigen = 6
        h = 2.0 * BOX_HALF_WIDTH / FD_POINTS
        diag = np.full(FD_POINTS - 1, 2.0 / h**2)
        diag[FD_POINTS // 2 - 1] += alpha / h  # the node on x = 0
        off = np.full(FD_POINTS - 2, -1.0 / h**2)
        ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_eigen - 1),
                               eigvals_only=True)
        assert np.max(np.abs(fd_spectrum(alpha, n_eigen) - ref)) <= 1e-9

    def test_fd_rejects_more_eigenvalues_than_the_grid_has(self):
        with pytest.raises(InputError):
            fd_spectrum(1.0, n_eigen=FD_POINTS // 2)


class TestFindRoot:
    def test_bracket_ends_and_tolerance(self):
        assert find_root(lambda x: x - 0.3, 0.3, 1.0) == 0.3
        assert abs(find_root(np.cos, 0.0, 3.0) - np.pi / 2) <= ROOT_XTOL
        # near 1e8 neighbouring floats are wider than ROOT_XTOL: it stops at them
        root = find_root(lambda x: x - 1e8 * np.sqrt(2.0), 1e8, 2e8)
        assert abs(root - 1e8 * np.sqrt(2.0)) <= 1e8 * np.spacing(1.0)


class TestSpectralShift:
    def test_rejects_pole(self):
        with pytest.raises(SingularityError):
            SpectralShift(-1.0)  # -lam_2

    def test_default(self):
        assert SpectralShift().lam == 1.0


class TestErrorPaths:
    def test_green_domain_error(self):
        from deltabox.errors import DomainError

        with pytest.raises(DomainError):
            green_closed(3.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            green_series(0.0, -3.6, 1.0, 100)
