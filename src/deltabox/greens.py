"""Dirichlet Green's functions of the box and the static spectrum of H_alpha.

The kernel of (-d^2/dx^2 + z)^{-1} with Dirichlet walls at +-pi has the closed
form (w = sqrt(z), principal branch)

    G^z(x, x') = sinh(w*(pi + x_<)) * sinh(w*(pi - x_>)) / (w * sinh(2*pi*w))

and the eigenfunction expansion sum_k psi_k(x') psi_k(x) / (lam_k + z).  At the
origin it reduces to tanh(pi*w)/(2*w), which continues through z = 0 (value
pi/2) and to z = -E < 0 as tan(pi*sqrt(E))/(2*sqrt(E)).

The closed form is evaluated with exponentials of nonpositive real part only,
so it does not overflow for large Re sqrt(z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularityError
from .kernels import odd_eigenvalues
from .spectral import (
    BOX_HALF_WIDTH,
    DEFAULT_K_MAX,
    INV_SQRT_PI,
    SpectralCoefficients,
    _check_in_box,
    eigenvalues,
    mode_table,
)

POLE_MARGIN = 1e-9
ROOT_XTOL = 1e-12


@dataclass(frozen=True)
class SpectralShift:
    """Resolvent shift lambda in the decomposition psi = phi^lam + q*G^lam(.,0).

    Any shift with lam + lam_k != 0 for all k works numerically; the default
    real lam = 1 keeps the regular part of real states real.
    """

    lam: complex = 1.0

    def __post_init__(self):
        z = complex(self.lam)
        if not np.isfinite(z.real) or not np.isfinite(z.imag):
            raise InputError("shift must be finite")
        k = _pole_index(z, odd_only=False)
        if k:
            raise SingularityError(f"shift {z} is on the pole -lam_{k} = {-0.25 * k * k!r}")


def _pole_index(z: complex, odd_only: bool) -> int:
    """The k with z within POLE_MARGIN of -lam_k (odd k only if requested), else 0.

    A non-finite z has no pole distance and raises InputError.
    """
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise InputError(f"z={z} must be finite")
    if abs(z.imag) > POLE_MARGIN:
        return 0
    if z.real > -0.25 + POLE_MARGIN:
        return 0
    k_near = round(2.0 * np.sqrt(-z.real))
    if k_near < 1:
        return 0
    if odd_only and k_near % 2 == 0:
        return 0
    return k_near if abs(z.real + 0.25 * k_near**2) <= POLE_MARGIN else 0


def _cexpm1(u: np.ndarray | complex) -> np.ndarray:
    """Complex expm1 built from the real expm1 so small |u| keeps full precision."""
    u = np.asarray(u, dtype=complex)
    x, y = u.real, u.imag
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)


def _off_pole(z: complex) -> complex:
    """z as a complex; InputError if it is not finite (`_pole_index`),
    SingularityError within POLE_MARGIN of a resolvent pole."""
    z = complex(z)
    if _pole_index(z, odd_only=False):
        raise SingularityError(f"z={z} is at (or within {POLE_MARGIN} of) a resolvent pole")
    return z


def green_closed(x: float, x_prime: float, z: complex) -> complex:
    """Closed-form Dirichlet Green's function G^z(x, x')."""
    _check_in_box((x, x_prime))
    z = _off_pole(z)
    lo, hi = min(x, x_prime), max(x, x_prime)
    w = np.sqrt(z)
    if w == 0:
        return complex((BOX_HALF_WIDTH + lo) * (BOX_HALF_WIDTH - hi) / (2.0 * BOX_HALF_WIDTH))
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    a = w * (BOX_HALF_WIDTH + lo)
    b = w * (BOX_HALF_WIDTH - hi)
    c = 2.0 * BOX_HALF_WIDTH * w
    # sinh(a)sinh(b)/sinh(c) = e^{a+b-c} (1-e^{-2a})(1-e^{-2b}) / (2(1-e^{-2c}))
    # with a+b-c = -w|x-x'|; every exponent has nonpositive real part.
    num = np.exp(-w * (hi - lo)) * _cexpm1(-2.0 * a) * _cexpm1(-2.0 * b)
    den = -2.0 * w * _cexpm1(-2.0 * c)
    if den == 0:
        raise SingularityError(f"z={z} is numerically at a resolvent pole")
    return complex(num / den)


def green_series(x: float, x_prime: float, z: complex, k_max: int = DEFAULT_K_MAX) -> complex:
    """Eigenfunction expansion of G^z(x, x') truncated at k_max; O(1/k_max) error."""
    _check_in_box((x, x_prime))
    z = _off_pole(z)
    terms = mode_table(range(1, k_max + 1), x)
    terms *= mode_table(range(1, k_max + 1), x_prime)
    denom = eigenvalues(k_max) + z  # the one k_max-length complex array
    return complex(np.sum(np.divide(terms, denom, out=denom)) / np.pi)


def green_origin(z: complex) -> complex:
    """G^z(0,0) = tanh(pi*sqrt(z))/(2*sqrt(z)), with the removable value pi/2 at z=0.

    Even in sqrt(z), hence a single-valued function of z; poles only at the
    negated odd-sector eigenvalues.  A non-finite z raises InputError.
    """
    z = complex(z)
    if _pole_index(z, odd_only=True):
        raise SingularityError(f"z={z} is at (or within {POLE_MARGIN} of) an odd-sector pole")
    if abs(z) < 1e-7:
        # tanh(pi w)/(2w) = pi/2 - pi^3 z/6 + pi^5 z^2/15 + O(z^3)
        return complex(np.pi / 2 - np.pi**3 * z / 6 + np.pi**5 * z**2 / 15)
    w = np.sqrt(z)
    return complex(np.tanh(np.pi * w) / (2.0 * w))


def green_origin_real(E: float) -> float:
    """G^{-E}(0,0) as a real function of real E (the spectral-condition form):
    tan(pi*sqrt(E))/(2*sqrt(E)) for E > 0, tanh(pi*sqrt(-E))/(2*sqrt(-E)) for E < 0."""
    if E > 1e-14:
        r = np.sqrt(E)
        return float(np.tan(np.pi * r) / (2.0 * r))
    if E < -1e-14:
        r = np.sqrt(-E)
        return float(np.tanh(np.pi * r) / (2.0 * r))
    return float(np.pi / 2)


def green_coefficients(shift: SpectralShift, k_max: int = DEFAULT_K_MAX) -> SpectralCoefficients:
    """Eigenbasis coefficients of G^lam(., 0): (1/sqrt(pi))/(lam_k + lam) on odd k."""
    a = np.zeros(k_max, dtype=complex)
    a[0::2] = INV_SQRT_PI / (odd_eigenvalues(k_max) + shift.lam)
    return SpectralCoefficients(k_max, a)


def find_root(f, lo: float, hi: float) -> float:
    """The sign change of f in [lo, hi] to within ROOT_XTOL; f(lo) and f(hi) must differ in sign.

    Bisection: it keeps the half whose ends differ in sign until the bracket
    is narrower than ROOT_XTOL or its ends are neighbouring floats, so it ends
    after at most log2((hi - lo)/ROOT_XTOL) evaluations, whatever f does inside.
    """
    f_lo = f(lo)
    if f_lo == 0:
        return lo
    while hi - lo > ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _even_sector_poles(lo: float, hi: float) -> np.ndarray:
    """Odd-sector eigenvalues (poles of the even-sector condition) inside (lo, hi]."""
    if hi <= 0.25:
        return np.array([])
    j_max = int(np.floor(2.0 * np.sqrt(hi))) + 1
    poles = 0.25 * np.arange(1, j_max + 1, 2, dtype=float) ** 2
    return poles[(poles > lo) & (poles < hi)]


def static_eigenvalues(alpha: float, window: tuple[float, float]) -> list[tuple[float, str]]:
    """Eigenvalues of H_alpha inside the window, as sorted (E, sector) pairs.

    The odd sector (sine modes, zero at the origin) is untouched by the point
    interaction: E = lam_k for even k.  Even-sector eigenvalues solve
    1 + alpha*G^{-E}(0,0) = 0.  Between consecutive odd-sector poles the
    condition function is strictly monotone (Herglotz), so each bracket holds
    exactly one root, found by `find_root` to ROOT_XTOL.
    """
    if not np.isfinite(alpha):
        raise InputError(f"alpha must be finite, got {alpha!r}")
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        return []

    out: list[tuple[float, str]] = []

    # odd sector: lam_k = k^2/4 for even k -> integers^2
    m = 1
    while m * m <= hi:
        if m * m > lo:
            out.append((float(m * m), "odd"))
        m += 1

    if alpha == 0.0:
        # unperturbed even sector
        j = 1
        while 0.25 * j * j <= hi:
            if 0.25 * j * j > lo:
                out.append((0.25 * j * j, "even"))
            j += 2
        return sorted(out)

    def condition(E: float) -> float:
        return 1.0 + alpha * green_origin_real(E)

    poles = _even_sector_poles(min(lo, 0.0), hi + 3.0)
    edges = [lo] + [p for p in poles if lo < p < hi] + [hi]
    for a, b in zip(edges[:-1], edges[1:]):
        left = a + POLE_MARGIN if np.any(np.isclose(a, poles)) else a
        right = b - POLE_MARGIN if np.any(np.isclose(b, poles)) else b
        if right <= left:
            continue
        fa, fb = condition(left), condition(right)
        if np.sign(fa) == np.sign(fb):
            continue
        root = find_root(condition, left, right)
        if lo < root < hi:
            out.append((float(root), "even"))

    return sorted(out)


def default_window(k_max: int = DEFAULT_K_MAX) -> tuple[float, float]:
    """Search window covering bound states and the resolvable excited range."""
    return (-50.0, 0.25 * (k_max / 2.0) ** 2)
