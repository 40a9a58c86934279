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

import math
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
Z_RE_BOUND = 2.0**51  # Re z below -Z_RE_BOUND is refused; up to it each pole k^2/4 is exact


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

    A non-finite z raises InputError, and so does Re z < -Z_RE_BOUND: there float64
    rounding loses the phase pi*sqrt(-Re z) of every form of G^z.
    """
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise InputError(f"z={z} must be finite")
    if z.real < -Z_RE_BOUND:
        raise InputError(f"Re z={z.real!r} is below {-Z_RE_BOUND:g} (-2^51), where float64 "
                         f"cannot resolve the Green's function")
    if abs(z.imag) > POLE_MARGIN:
        return 0
    if z.real > -0.25 + POLE_MARGIN:
        return 0
    k_near = round(2.0 * np.sqrt(-z.real))  # at least 1 here: 2*sqrt(1/4 - POLE_MARGIN)
    if odd_only and k_near % 2 == 0:
        return 0
    return k_near if abs(z.real + 0.25 * k_near**2) <= POLE_MARGIN else 0


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
    # with a+b-c = -w|x-x'|; every exponent has nonpositive real part.  numpy's complex
    # expm1 forms Re as expm1(x)*cos(y) - 2*sin(y/2)^2, so small |a|, |b| keep full precision
    num = np.exp(-w * (hi - lo)) * np.expm1(-2.0 * a) * np.expm1(-2.0 * b)
    den = -2.0 * w * np.expm1(-2.0 * c)
    if den == 0:
        raise SingularityError(f"z={z} is numerically at a resolvent pole")
    return complex(num / den)


def green_series(x: float, x_prime: float, z: complex, k_max: int = DEFAULT_K_MAX) -> complex:
    """Eigenfunction expansion of G^z(x, x') truncated at k_max; O(1/k_max) error."""
    _check_in_box((x, x_prime))
    z = _off_pole(z)
    terms = mode_table(range(1, k_max + 1), x)
    terms *= mode_table(range(1, k_max + 1), x_prime)
    # 1/(lam_k + z) = (d_k - i*Im z)/(d_k^2 + Im z^2), d_k = lam_k + Re z: the sum is
    # two real reductions of the weights terms/(d_k^2 + Im z^2), 0 where that overflows
    d = eigenvalues(k_max)
    d += z.real
    with np.errstate(over="ignore"):
        denom = d * d
    denom += z.imag * z.imag
    terms /= denom
    im = -z.imag * np.sum(terms)
    terms *= d
    return complex(np.sum(terms), im) / np.pi


def green_origin(z: complex) -> complex:
    """G^z(0,0) = tanh(pi*sqrt(z))/(2*sqrt(z)), with the removable value pi/2 at z=0.

    Even in sqrt(z), hence a single-valued function of z; poles only at the
    negated odd-sector eigenvalues.  A non-finite z raises InputError.
    """
    z = complex(z)
    if _pole_index(z, odd_only=True):
        raise SingularityError(f"z={z} is at (or within {POLE_MARGIN} of) an odd-sector pole")
    if z == 0:  # near 0 the quotient keeps full precision as it is, tanh(x) ~ x
        return complex(np.pi / 2)
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


def _levels(lo: float, hi: float) -> range:
    """The modes k >= 1 with k^2/4 in (lo, hi]; k^2 > 4*lo iff k^2 > floor(4*lo), exactly."""
    first = math.isqrt(math.floor(4.0 * lo)) + 1 if lo >= 0 else 1
    last = math.isqrt(math.floor(4.0 * hi)) if hi >= 0 else 0
    return range(first, last + 1)


def static_eigenvalues(alpha: float, window: tuple[float, float]) -> list[tuple[float, str]]:
    """Eigenvalues of H_alpha in the window (lo, hi], as sorted (E, sector) pairs.

    The odd sector (sine modes, zero at the origin) is untouched by the point
    interaction: E = lam_k for even k (`_levels`).  An even-sector level solves
    1 + alpha*G^{-E}(0,0) = 0, one in each gap around a pole lam_j (j odd): with
    sqrt(E) = j/2 + delta, |delta| < 1/2, pi*delta - atan(alpha/(j + 2*delta)) = 0, which is
    increasing in delta but for j = 1 with alpha < 0.  Newton steps solve those gaps at once
    (lam_j exactly at alpha = 0), and `find_root` bisects the lowest level for alpha < 0;
    each is within max(ROOT_XTOL, spacing(E)) of the exact root.
    """
    if not np.isfinite(alpha):
        raise InputError(f"alpha must be finite, got {alpha!r}")
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        return []

    levels = _levels(lo, hi)
    k = np.arange(levels.start, levels.stop)
    out = [(e, "odd") for e in np.square(0.5 * k[k % 2 == 0]).tolist()]

    def condition(E: float) -> float:
        return 1.0 + alpha * green_origin_real(E)

    # for alpha < 0 the lowest level: the condition is 1 at E -> -inf and -inf at lam_1
    roots = [find_root(condition, lo, 0.25)] if lo < 0.25 and alpha < 0 < condition(lo) else []
    # the other gaps that meet the window (j >= 3 for alpha < 0): 6 Newton steps, 4 reach 2 ulp
    j = np.arange(max(levels.start - 1, 3 if alpha < 0 else 1) | 1, levels.stop + 1, 2)
    delta = np.arctan2(alpha, j) / np.pi
    for _ in range(6):
        u = j + 2.0 * delta
        theta = np.arctan2(alpha, u)  # d/d(delta) of atan(alpha/u) is -sin(2*theta)/u
        delta -= (np.pi * delta - theta) / (np.pi + np.sin(2.0 * theta) / u)
    roots = np.append(roots, np.square(0.5 * j) + (j + delta) * delta)
    return sorted(out + [(e, "even") for e in roots[(roots > lo) & (roots <= hi)].tolist()])


def default_window(k_max: int = DEFAULT_K_MAX) -> tuple[float, float]:
    """Search window covering bound states and the resolvable excited range."""
    return (-50.0, 0.25 * (k_max / 2.0) ** 2)
