import math

import numpy as np
import pytest

from deltabox.errors import SolverError
from deltabox.greens import POLE_MARGIN, find_root, green_origin_real
from deltabox.kernels import odd_eigenvalues, slope_moments, tail_deficit
from deltabox.oracles import GALERKIN_PHASE_STEP, PICARD_MAX_ITER, PICARD_TOL
from deltabox.spectral import DEFAULT_K_MAX, eigenvalues
from deltabox.verify import DEFAULT_SEED as SEED, call_check


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def assert_check(check_fn, k_max=DEFAULT_K_MAX, seed=SEED):
    """Run a verify-battery check, given the inputs it names as `deltabox verify` gives
    them, and assert it passed, showing its report line."""
    result = call_check(check_fn, k_max=k_max, seed=seed)
    assert result.passed, result.line()
    return result


def slope_moment_history(q, dt, lam):
    """h_k = int_0^t q(s) e^{-i*lam_k*(t-s)} ds on every node (one row per lam_k), each
    mode from its own single-mode slope moments and a per-node exp: the
    reference for the block kernels."""
    times = dt * np.arange(q.size)
    rows = []
    for lam_k in lam:
        b = np.concatenate(([0.0], np.cumsum(slope_moments(q, dt, lam_k))))
        rows.append((q - np.exp(-1j * lam_k * times) * (q[0] + b)) / (1j * lam_k))
    return np.array(rows)


def galerkin_reference(a0, alpha_value, t_end):
    """oracles.galerkin_evolution with every RK4 stage a full mode vector, the rate
    c(t) e^{i*lam*t} (e^{-i*lam*t} @ b) formed densely: the reference for the rank-one step."""
    a0 = np.asarray(a0, dtype=complex)
    k_max = a0.size
    lam = odd_eigenvalues(k_max)
    n_steps = math.ceil(t_end * lam[-1] / GALERKIN_PHASE_STEP)
    dt = t_end / n_steps
    times = 0.5 * dt * np.arange(2 * n_steps + 1)
    alphas = np.asarray(alpha_value(times), dtype=float)
    coupling = -1j * alphas / (np.pi + alphas * tail_deficit(k_max))
    phases = np.exp(1j * np.outer(times, lam))
    conj_phases = np.conj(phases)

    def rate(j, b):
        return (coupling[j] * (conj_phases[j] @ b)) * phases[j]

    b = a0[0::2].copy()
    for n in range(n_steps):
        k1 = rate(2 * n, b)
        k2 = rate(2 * n + 1, b + 0.5 * dt * k1)
        k3 = rate(2 * n + 1, b + 0.5 * dt * k2)
        k4 = rate(2 * n + 2, b + dt * k3)
        b = b + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = a0 * np.exp(-1j * eigenvalues(k_max) * t_end)
    out[0::2] = b * np.conj(phases[-1])
    return out


def phi1_reference(u):
    """(e^u - 1)/u as kernels.phi1 formed it before it took numpy's expm1: an 18-term
    Horner series below |u| = 0.25, the direct quotient above."""
    u = np.asarray(u, dtype=complex)
    small = np.abs(u) < 0.25
    safe = np.where(small, 1.0, u)
    direct = (np.exp(safe) - 1.0) / safe
    acc = np.full_like(u, 1.0 / math.factorial(19))  # sum_{m>=0} u^m/(m+1)!
    for m in range(18, 0, -1):
        acc = acc * u + 1.0 / math.factorial(m)
    return np.where(small, acc, direct)


def picard_reference(f_nodes, phi_nodes, v0, g_coeff, shift, grid, k_max, kernel_sign=-1.0):
    """oracles.picard_charge with a fresh cumulative trapezoid per mode and sweep, and g
    from its own exponentials: the reference for the in-place sweep."""
    times, dt = grid.times, grid.dt
    lam = odd_eigenvalues(k_max)
    sgn = 1j * kernel_sign
    g_nodes = sum(np.exp(sgn * lam_k * times) / (lam_k + shift.lam) for lam_k in lam) / np.pi
    phases = [np.exp(-sgn * lam_k * times) for lam_k in lam]
    v = np.array(f_nodes, dtype=complex)
    v[0] = v0
    for _ in range(PICARD_MAX_ITER):
        u_v = np.zeros(times.size, dtype=complex)
        for ph in phases:
            integrand = v * ph
            prefix = np.concatenate(
                ([0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]))))
            u_v += np.conj(ph) * prefix
        u_v += sgn * tail_deficit(k_max) * v
        u_v[0] = 0.0
        v_new = f_nodes - phi_nodes * (g_coeff * g_nodes + (-sgn / np.pi) * u_v)
        v_new[0] = v0
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < PICARD_TOL:
            return v
    raise SolverError("Picard reference did not converge")


def reference_poles(lo, hi):
    """The odd-sector eigenvalues (the even-sector poles) inside (lo, hi), as the static
    spectrum listed them before its one level generator."""
    if hi <= 0.25:
        return np.array([])
    j_max = int(np.floor(2.0 * np.sqrt(hi))) + 1
    poles = 0.25 * np.arange(1, j_max + 1, 2, dtype=float) ** 2
    return poles[(poles > lo) & (poles < hi)]


def reference_static_eigenvalues(alpha, window):
    """greens.static_eigenvalues as it was before its one level generator: a Python loop
    over the odd sector, another over the even sector at alpha = 0, and brackets whose
    ends step off any pole that np.isclose finds near them; the reference for the generator."""
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        return []
    out = []
    m = 1
    while m * m <= hi:
        if m * m > lo:
            out.append((float(m * m), "odd"))
        m += 1
    if alpha == 0.0:
        j = 1
        while 0.25 * j * j <= hi:
            if 0.25 * j * j > lo:
                out.append((0.25 * j * j, "even"))
            j += 2
        return sorted(out)

    def condition(E):
        return 1.0 + alpha * green_origin_real(E)

    poles = reference_poles(min(lo, 0.0), hi + 3.0)
    edges = [lo] + [p for p in poles if lo < p < hi] + [hi]
    for a, b in zip(edges[:-1], edges[1:]):
        left = a + POLE_MARGIN if np.any(np.isclose(a, poles)) else a
        right = b - POLE_MARGIN if np.any(np.isclose(b, poles)) else b
        if right <= left or np.sign(condition(left)) == np.sign(condition(right)):
            continue
        root = find_root(condition, left, right)
        if lo < root < hi:
            out.append((float(root), "even"))
    return sorted(out)
