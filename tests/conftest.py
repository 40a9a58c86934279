import math

import numpy as np
import pytest

from deltabox.errors import SolverError
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


def galerkin_reference(a0, alpha_value, t_end, k_max):
    """oracles.galerkin_evolution with every RK4 stage a full mode vector, the rate
    c(t) e^{i*lam*t} (e^{-i*lam*t} @ b) formed densely: the reference for the rank-one step."""
    a0 = np.asarray(a0, dtype=complex)
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
