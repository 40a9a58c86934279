"""Independent cross-check implementations.

These deliberately avoid the production code paths: the charge oracle uses
plain trapezoid quadrature plus Picard fixed-point iteration instead of the
product-integration march, and the spectrum oracle discretizes the operator
on a position grid instead of using the Green's-function condition.  They are
slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import SolverError
from .greens import SpectralShift
from .kernels import odd_eigenvalues, tail_deficit
from .spectral import BOX_HALF_WIDTH, TimeGrid


def picard_charge(f_nodes: np.ndarray, phi_nodes: np.ndarray, v0: complex, g_coeff: complex,
                  shift: SpectralShift, grid: TimeGrid, k_max: int,
                  tol: float = 1e-12, max_iter: int = 500,
                  kernel_sign: float = -1.0) -> np.ndarray:
    """Fixed-point solution of v = f - phi*(g_coeff*g(t) + (i/pi) U v).

    U is evaluated mode by mode with cumulative trapezoid quadrature of the
    raw causal integrals, plus the same analytic instantaneous-tail
    replacement the production solver uses, so both solve the identical
    equation by unrelated numerics.  kernel_sign=-1 gives the physical kernel
    e^{-i*lam*(t-s)}; +1 solves the conjugated (time-reversed) variant.
    """
    times = grid.times
    dt = grid.dt
    lam = odd_eigenvalues(k_max)
    sgn = 1j * kernel_sign

    g_nodes = np.zeros(times.size, dtype=complex)
    for lam_k in lam:
        g_nodes += np.exp(sgn * lam_k * times) / (lam_k + shift.lam)
    g_nodes /= np.pi

    deficit = tail_deficit(k_max)
    phases = [np.exp(-sgn * lam_k * times) for lam_k in lam]

    v = np.array(f_nodes, dtype=complex)
    v[0] = v0
    for _ in range(max_iter):
        u_v = np.zeros(times.size, dtype=complex)
        for lam_k, ph in zip(lam, phases):
            integrand = v * ph
            prefix = np.concatenate(
                ([0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]))))
            u_v += np.conj(ph) * prefix
        u_v += sgn * deficit * v
        u_v[0] = 0.0
        # the i/pi prefactor conjugates along with the kernel
        v_new = f_nodes - phi_nodes * (g_coeff * g_nodes + (-sgn / np.pi) * u_v)
        v_new[0] = v0
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < tol:
            return v
    raise SolverError(f"Picard iteration did not reach {tol} in {max_iter} sweeps")


def fd_spectrum(alpha: float, n_points: int = 4096, n_eigen: int = 6) -> np.ndarray:
    """Lowest eigenvalues of -d^2/dx^2 + alpha*delta on a position grid.

    Second-order central differences with Dirichlet walls; the delta is the
    standard 1/h spike at the grid node sitting exactly on the origin.
    n_points fixes the spacing h = 2*pi/n_points (interior nodes n_points-1,
    an odd count, so x = 0 is a node).
    """
    h = 2.0 * BOX_HALF_WIDTH / n_points
    m = n_points - 1
    diag = np.full(m, 2.0 / h**2)
    j0 = m // 2  # x_j = -pi + (j+1)h -> j0 maps to x = 0
    diag[j0] += alpha / h
    off = np.full(m - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_eigen - 1),
                            eigvals_only=True)
    return np.asarray(vals)


def galerkin_evolution(a0: np.ndarray, alpha_value, t_end: float, k_max: int) -> np.ndarray:
    """Final coefficients by direct ODE integration of the truncated mode system.

    The charge formulation with the tail-corrected U is equivalent (in exact
    time) to the coupled mode equations

        i a_k' = lam_k a_k + alpha(t) * psi_eff(0,t) / sqrt(pi)   (odd k),
        psi_eff(0,t) = (sum_j a_j / sqrt(pi)) / (1 + alpha(t) * tail_deficit / pi),

    the denominator dressing the origin value with the analytic mode tail.
    Integrating these with a generic adaptive ODE solver gives a reference
    trajectory that shares no numerics with the product-integration march.
    """
    from scipy.integrate import solve_ivp  # loaded on first use: it also loads scipy.optimize

    lam = 0.25 * np.arange(1, k_max + 1, dtype=float) ** 2
    odd = np.arange(k_max) % 2 == 0  # 0-based positions of odd mode indices
    deficit = tail_deficit(k_max)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)

    def rhs(t, y):
        a = y[:k_max] + 1j * y[k_max:]
        al = float(alpha_value(t))
        trace = inv_sqrt_pi * np.sum(a[odd])
        origin = trace / (1.0 + al * deficit / np.pi)
        da = -1j * (lam * a + np.where(odd, al * origin * inv_sqrt_pi, 0.0))
        return np.concatenate((da.real, da.imag))

    y0 = np.concatenate((np.asarray(a0).real, np.asarray(a0).imag))
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=1e-11, atol=1e-12, method="DOP853",
                    dense_output=False)
    if not sol.success:
        raise SolverError(f"reference ODE integration failed: {sol.message}")
    yT = sol.y[:, -1]
    return yT[:k_max] + 1j * yT[k_max:]
