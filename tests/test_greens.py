import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltabox import greens
from deltabox.errors import InputError, SingularityError
from deltabox.greens import (
    POLE_MARGIN,
    ROOT_XTOL,
    SpectralShift,
    find_root,
    green_closed,
    green_coefficients,
    green_origin,
    green_origin_real,
    green_series,
    default_window,
    static_eigenvalues,
)
from deltabox.oracles import FD_EIGEN, FD_POINTS, fd_spectrum
from deltabox.spectral import BOX_HALF_WIDTH, origin_trace
from deltabox import verify

from conftest import assert_check, reference_poles, reference_static_eigenvalues

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

    @pytest.mark.parametrize("z", [5e-324, 1e-300, -1e-300, 1e-8, -3e-8, 9.9e-8, 3e-8 + 4e-8j,
                                   -2e-9 + 1e-10j, -5e-8j, -5e-8 - 5e-8j], ids=str)
    def test_near_zero_is_the_quotient_itself(self, z):
        # tanh(pi*w)/(2*w) keeps full precision as z -> 0: no series branch is needed
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            w = mpmath.sqrt(mpmath.mpc(z))
            exact = mpmath.tanh(mpmath.pi * w) / (2 * w)
            assert abs(mpmath.mpc(green_origin(z)) - exact) <= 2 * np.finfo(float).eps * abs(exact)

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
        mine = [e for e, _ in static_eigenvalues(2.0, (-10.0, 10.0))][:FD_EIGEN]
        ref = fd_spectrum(2.0)
        assert np.max(np.abs(np.array(mine) - ref)) < 1e-3


    @pytest.mark.parametrize("alpha, window", [
        (1e4, (0.0, 10.0)), (-2.0, (-50.0, 0.0)), (2.0, (-10.0, 10.0)), (-2.0, (-10.0, 10.0)),
        (0.5, (-10.0, 10.0)), (-0.5, (-10.0, 10.0)), (0.7, (0.3, 20.0)), (-1.3, (0.3, 20.0)),
        (-3.0, (0.5, 5.0)), (7.0, (0.5, 5.0)), (1.0, (0.26, 2.25)),
    ])
    def test_roots_match_brentq(self, alpha, window, monkeypatch):
        # the one bisection, the lowest level for alpha < 0 when lo < lam_1, against scipy's
        # Brent method on the same bracket; every other level is the same float
        from scipy.optimize import brentq

        mine = static_eigenvalues(alpha, window)
        brackets = []

        def brent(f, lo, hi):
            brackets.append((lo, hi))
            return brentq(f, lo, hi, xtol=ROOT_XTOL)

        monkeypatch.setattr(greens, "find_root", brent)
        ref = static_eigenvalues(alpha, window)
        assert brackets == ([(window[0], 0.25)] if alpha < 0 and window[0] < 0.25 else [])
        assert [s for _, s in mine] == [s for _, s in ref]
        diff = np.abs(np.array([e for e, _ in mine]) - [e for e, _ in ref])
        assert np.max(diff) <= 1e-11 and np.count_nonzero(diff) <= len(brackets)

    @pytest.mark.parametrize("alpha, calls", [(1.0, 0), (0.0, 0), (-2.0, 1)])
    def test_one_solve_for_every_gap(self, alpha, calls, monkeypatch):
        # the even levels come from one array solve, not a root search per gap: only the
        # lowest level for alpha < 0 (here the bound state) takes find_root
        seen = []

        def counted(f, lo, hi):
            seen.append((lo, hi))
            return find_root(f, lo, hi)

        monkeypatch.setattr(greens, "find_root", counted)
        even = [e for e, s in static_eigenvalues(alpha, default_window(401)) if s == "even"]
        assert len(even) == 100 and len(seen) == calls
        assert (even[0] < 0) == (alpha < 0)

    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_fd_secular_roots_match_eigensolver(self, alpha):
        # the secular equations against scipy's eigensolver on the same matrix
        from scipy.linalg import eigh_tridiagonal

        h = 2.0 * BOX_HALF_WIDTH / FD_POINTS
        diag = np.full(FD_POINTS - 1, 2.0 / h**2)
        diag[FD_POINTS // 2 - 1] += alpha / h  # the node on x = 0
        off = np.full(FD_POINTS - 2, -1.0 / h**2)
        ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, FD_EIGEN - 1),
                               eigvals_only=True)
        assert np.max(np.abs(fd_spectrum(alpha) - ref)) <= 1e-9


# a float end, or a level k^2/4 itself, so that windows start and end on levels
WINDOW_ENDS = st.one_of(st.floats(-20.0, 400.0), st.integers(0, 45).map(lambda k: 0.25 * k * k))


@st.composite
def windows(draw):
    """(lo, hi): any two ends, lo = hi, or a window shorter than the gap between levels."""
    lo = draw(WINDOW_ENDS)
    hi = draw(st.one_of(WINDOW_ENDS, st.just(lo), st.floats(0.0, 0.2).map(lambda d: lo + d)))
    return lo, hi


# couplings and windows on which the level generator must give the loops' lists exactly:
# the default windows, windows that start or end on a level, and empty ones
FIXED_ALPHAS = [0.0, 0.5, -0.5, 1.5, -1.5, 2.0, -2.0, 0.7, -1.3, 1.0, 1e4, -1e3, 1e-8]
FIXED_WINDOWS = [default_window(k) for k in (1, 3, 51, 401)] + [
    (0.0, 5.0), (0.5, 5.0), (0.0, 10.0), (-50.0, 0.0), (-10.0, 10.0), (0.3, 20.0),
    (0.26, 2.25), (0.25, 6.25), (1.0, 4.0), (2.25, 12.25), (-1.0, 0.2), (3.0, 3.0),
    (5.0, 2.0), (0.24, 0.26), (6.25, 6.26)]
# the two pairs of that set with an even root exactly on hi: r = 3/4 at alpha = 1.5, 1/4 at -0.5
ROOTS_ON_HI = {(1.5, default_window(3)), (-0.5, default_window(1))}


def exact_even_levels(alpha, window):
    """The even-sector levels in (lo, hi] at 40 digits, as mpmath numbers.

    Around each odd pole j it is the root of 2r*cos(pi*r) + alpha*sin(pi*r) with r = sqrt(E)
    in the gap ((j-1)/2, (j+1)/2).  For alpha < 0 the gap of j = 1 is replaced by the lowest
    level, bisected on 1 + alpha*G^{-E}(0,0) between -alpha^2/4 - 1 (where it is positive)
    and lam_1 (where it is -inf).
    """
    mpmath = pytest.importorskip("mpmath")
    lo, hi = window
    levels = []
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        if alpha < 0:
            def condition(E):
                w = mpmath.sqrt(-E)  # G^{-E}(0,0) = tanh(pi*w)/(2w), real for either sign of E
                return 1 + a * (mpmath.re(mpmath.tanh(mpmath.pi * w) / (2 * w)) if E
                                else mpmath.pi / 2)

            left, right = -a * a / 4 - 1, mpmath.mpf(0.25)
            for _ in range(200):
                mid = (left + right) / 2
                left, right = (mid, right) if condition(mid) > 0 else (left, mid)
            levels.append(left)
        for j in range(1 if alpha >= 0 else 3, int(2 * np.sqrt(max(hi, 0.0))) + 3, 2):
            r = mpmath.findroot(lambda r: 2 * r * mpmath.cospi(r) + a * mpmath.sinpi(r),
                                mpmath.mpf(j) / 2 + mpmath.atan(a / j) / mpmath.pi)
            assert abs(2 * r - j) < 1, j
            levels.append(r * r)
    return [e for e in levels if lo < e <= hi]


class TestLevels:
    @settings(max_examples=300, deadline=None)
    @given(window=windows())
    def test_generator_matches_the_loops(self, window):
        lo, hi = window
        modes = greens._levels(lo, hi)
        k = np.arange(modes.start, modes.stop)
        levels = np.square(0.5 * k)
        reference = reference_static_eigenvalues(0.0, window)
        assert levels[k % 2 == 0].tolist() == [e for e, s in reference if s == "odd"]
        assert np.array_equal(levels[(k % 2 == 1) & (levels < hi)], reference_poles(lo, hi))
        assert static_eigenvalues(0.0, window) == reference

    @pytest.mark.parametrize("alpha", FIXED_ALPHAS)
    def test_spectrum_matches_the_loops(self, alpha):
        # the loops' sectors and odd levels exactly, and their even levels to within the
        # loops' own error: their bisection misses the root by up to 2.8 times the bound
        # at large E, this solve by at most the bound (test_even_levels_match_mpmath)
        for window in FIXED_WINDOWS:
            mine = static_eigenvalues(alpha, window)
            ref = reference_static_eigenvalues(alpha, window)
            if (alpha, window) in ROOTS_ON_HI:  # (lo, hi] holds a root on hi; the loops did not
                assert mine[-1][1] == "even" and abs(mine[-1][0] - window[1]) <= ROOT_XTOL
                mine = mine[:-1]
            assert [s for _, s in mine] == [s for _, s in ref]
            assert [e for e, s in mine if s == "odd"] == [e for e, s in ref if s == "odd"]
            even = np.array([e for e, s in mine if s == "even"])
            ref_even = np.array([e for e, s in ref if s == "even"])
            assert np.all(np.abs(even - ref_even) <= 4 * np.maximum(ROOT_XTOL, np.spacing(even)))

    @pytest.mark.parametrize("alpha", [1e-12, -1e-12, 0.5, -0.5, 1.0, 2.0, -2.0, 1e3, -1e3, 1e4])
    @pytest.mark.parametrize("k_max", [51, 401, 1001])
    def test_even_levels_match_mpmath(self, k_max, alpha):
        window = default_window(k_max)
        even = [e for e, s in static_eigenvalues(alpha, window) if s == "even"]
        exact = exact_even_levels(alpha, window)
        assert len(even) == len(exact)
        for got, root in zip(even, exact):
            assert float(abs(got - root)) <= max(ROOT_XTOL, np.spacing(got)), got

    @pytest.mark.parametrize("alpha", [1e-12, -1e-12, 1e-14, 1e-16, 1e-9, -3e-9])
    def test_tiny_coupling_finds_every_even_level(self, alpha):
        # each root sits alpha/pi from its pole, closer than POLE_MARGIN: none may go missing
        assert abs(alpha) < 2 * np.pi * POLE_MARGIN
        even = [e for e, s in static_eigenvalues(alpha, default_window(401)) if s == "even"]
        exact = exact_even_levels(alpha, default_window(401))
        assert len(even) == len(exact) == 100  # lam_j for odd j = 1 ... 199
        for got, root in zip(even, exact):
            assert float(abs(got - root)) <= max(ROOT_XTOL, np.spacing(got)), got

    @pytest.mark.parametrize("alpha", [1e-12, -1e-12])
    def test_tiny_coupling_keeps_the_window(self, alpha):
        # (0.25, 6.25]: a root just above 0.25 is in, one just above 6.25 is out, and the
        # other way round for alpha < 0; each is lam_j + alpha/pi to O(alpha^2)
        even = [e for e, s in static_eigenvalues(alpha, (0.25, 6.25)) if s == "even"]
        near = [0.25 * j * j + alpha / np.pi for j in ((1, 3) if alpha > 0 else (3, 5))]
        assert len(even) == 2
        assert np.all(np.abs(np.subtract(even, near)) <= np.maximum(ROOT_XTOL, np.spacing(near)))


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


class TestFarNegativeZ:
    # past Re z = -2^51 the phase pi*sqrt(-Re z) is lost: -1.1e30 gave the wrong sign,
    # -3e300 a wrong magnitude, and -1e308 an int-to-float overflow
    @pytest.mark.parametrize("z", [-1e308, -3e300, -1.1e30, -1.1e30 + 1j,
                                   -greens.Z_RE_BOUND * (1 + 2**-52)], ids=str)
    @pytest.mark.parametrize("form", [
        lambda z: green_closed(0.0, 0.0, z), lambda z: green_series(0.3, -1.0, z, 11),
        green_origin, SpectralShift], ids=["closed", "series", "origin", "shift"])
    def test_refused(self, form, z):
        with pytest.raises(InputError, match="below"):
            form(z)

    def test_bound_itself_accepted(self):
        z = -greens.Z_RE_BOUND
        assert np.isfinite(green_origin(z)) and np.isfinite(green_closed(0.0, 0.0, z))


class TestErrorPaths:
    def test_green_domain_error(self):
        from deltabox.errors import DomainError

        with pytest.raises(DomainError):
            green_closed(3.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            green_series(0.0, -3.6, 1.0, 100)
