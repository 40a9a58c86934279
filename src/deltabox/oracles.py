"""Independent cross-check implementations.

These avoid the production solvers: the charge oracle uses plain trapezoid
quadrature plus Picard fixed-point iteration instead of the
product-integration march, the spectrum oracle discretizes the operator on a
position grid instead of using the Green's-function condition, and the
dynamic oracle integrates the truncated mode equations with classical
Runge-Kutta.  They need nothing beyond numpy, and take from the package only
constants, eigenvalues, the analytic tail, the grid and the errors, never the
march's kernels (tests/test_imports.py holds them to that list).  One piece is
shared: the spectrum oracle's secular roots and static_eigenvalues' lowest level
for alpha < 0 both come from greens.find_root, so a find_root fault could move
that level on both sides alike.  The tests check fd_spectrum against scipy's
eigh_tridiagonal, that level against brentq, and the RK4 oracle against DOP853.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError
from .greens import SpectralShift, find_root
from .kernels import odd_eigenvalues, tail_deficit
from .spectral import BOX_HALF_WIDTH, TimeGrid, eigenvalues

# RK4 steps of the dynamic oracle: dt * (largest retained odd eigenvalue) at most this
GALERKIN_PHASE_STEP = 0.1

# the charge oracle converges when a Picard sweep moves every node by less than this
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 500

# grid points across the box of the spectrum oracle (even, so a node sits on x = 0)
FD_POINTS = 4096
# lowest eigenvalues the spectrum oracle returns
FD_EIGEN = 3


def picard_charge(f_nodes: np.ndarray, phi_nodes: np.ndarray, v0: complex, g_coeff: complex,
                  shift: SpectralShift, grid: TimeGrid, k_max: int,
                  kernel_sign: float = -1.0) -> np.ndarray:
    """Fixed-point solution of v = f - phi*(g_coeff*g(t) + (i/pi) U v).

    U is evaluated mode by mode with cumulative trapezoid quadrature of the
    raw causal integrals, plus the same analytic instantaneous-tail
    replacement the production solver uses, so both solve the identical
    equation by unrelated numerics.  kernel_sign=-1 gives the physical kernel
    e^{-i*lam*(t-s)}; +1 solves the conjugated (time-reversed) variant.  The
    trapezoid of w = v*ph_k to node n is dt*(S_n - (v_0 + w_n)/2), S the prefix sum
    of w: each mode adds dt*conj(ph_k)*S, and the end terms of all K modes are
    -dt/2*(v_0*sum_k conj(ph_k) + K*v).
    """
    times = grid.times
    dt = grid.dt
    sgn = 1j * kernel_sign

    # kernel phases; their conjugates build g and, times dt, weight every sweep
    lam = odd_eigenvalues(k_max)
    phases = np.exp(-sgn * np.outer(lam, times))
    weights = np.conj(phases)
    g_nodes = np.zeros(times.size, dtype=complex)
    for lam_k, weight in zip(lam, weights):
        g_nodes += weight / (lam_k + shift.lam)
    g_term = g_coeff * (g_nodes / np.pi)
    start_term = (-0.5 * dt * v0) * weights.sum(axis=0)
    weights *= dt
    # the instantaneous tail and the K end terms conj(ph_k)*w_n = v_n, both multiples of v
    diagonal = sgn * tail_deficit(k_max) - 0.5 * dt * lam.size

    v = np.array(f_nodes, dtype=complex)
    v[0] = v0
    work = np.empty(times.size, dtype=complex)
    u_v = np.empty(times.size, dtype=complex)
    for _ in range(PICARD_MAX_ITER):
        # sum_k conj(ph_k) * (cumulative trapezoid of v*ph_k)
        np.multiply(v, diagonal, out=u_v)
        u_v += start_term
        for ph, weight in zip(phases, weights):
            np.multiply(v, ph, out=work)
            np.cumsum(work, out=work)
            work *= weight
            u_v += work
        u_v[0] = 0.0
        # the i/pi prefactor conjugates along with the kernel
        v_new = f_nodes - phi_nodes * (g_term + (-sgn / np.pi) * u_v)
        v_new[0] = v0
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < PICARD_TOL:
            return v
    raise SolverError(f"Picard iteration did not reach {PICARD_TOL} in {PICARD_MAX_ITER} sweeps")


def fd_spectrum(alpha: float) -> np.ndarray:
    """The FD_EIGEN lowest eigenvalues of -d^2/dx^2 + alpha*delta on a position grid.

    Second-order central differences with Dirichlet walls; the delta is the
    standard 1/h spike at the grid node sitting exactly on the origin.
    FD_POINTS fixes the spacing h = 2*pi/FD_POINTS; the FD_POINTS-1 interior
    nodes put x = 0 at node M = FD_POINTS/2 from either wall.

    The eigenvalues are the roots of the matrix's secular equations, not an
    eigensolver's output.  From the left wall, u_i = sin(h*kappa*i) solves
    every row off the spike with E = 4 sin^2(h*kappa/2)/h^2 (h*M = pi):
      - odd sector (u_M = 0): kappa = 1, 2, ...;
      - even sector (u mirror-symmetric about the spike row):
        2 cos(pi*kappa) + alpha*h*sin(pi*kappa)/sin(h*kappa) = 0, which is
        monotone between consecutive integers, where it is 2(-1)^m, and
        2 + alpha*pi at kappa = 0;
      - bound state (alpha*pi < -2), u_i = sinh(h*sigma*i), E = -4 sinh^2(h*sigma/2)/h^2:
        2 sinh(h*sigma)/tanh(pi*sigma) + alpha*h = 0 for
        0 < sigma <= asinh(|alpha|*h/2)/h.
    """
    h = 2.0 * BOX_HALF_WIDTH / FD_POINTS

    def even(kappa):
        ratio = math.sin(math.pi * kappa) / math.sin(h * kappa) if kappa else math.pi / h
        return 2.0 * math.cos(math.pi * kappa) + alpha * h * ratio

    def bound(sigma):
        ratio = math.sinh(h * sigma) / math.tanh(math.pi * sigma) if sigma else h / math.pi
        return 2.0 * ratio + alpha * h

    bound_state = 2.0 + alpha * math.pi < 0.0  # else the lowest even root is in [0, 1)
    kappas = list(range(1, FD_EIGEN + 1))
    kappas += [find_root(even, m, m + 1.0) for m in range(int(bound_state), FD_EIGEN + 1)]
    energies = [4.0 * math.sin(0.5 * h * kappa) ** 2 / h**2 for kappa in kappas]
    if bound_state:
        sigma = find_root(bound, 0.0, math.asinh(-0.5 * alpha * h) / h)
        energies.append(-4.0 * math.sinh(0.5 * h * sigma) ** 2 / h**2)
    return np.sort(energies)[:FD_EIGEN]


def galerkin_evolution(a0: np.ndarray, alpha_value, t_end: float) -> np.ndarray:
    """Final coefficients by direct ODE integration of the mode system truncated at a0's
    length k_max.

    The charge formulation with the tail-corrected U is equivalent (in exact
    time) to the coupled mode equations

        i a_k' = lam_k a_k + alpha(t) * psi_eff(0,t) / sqrt(pi)   (odd k),
        psi_eff(0,t) = (sum_j a_j / sqrt(pi)) / (1 + alpha(t) * tail_deficit / pi),

    the denominator dressing the origin value with the analytic mode tail.
    Even modes rotate freely.  The odd ones are integrated in the interaction
    picture b_k = e^{i*lam_k*t} a_k, where only the coupling drives them,

        b_k' = -i c(t) e^{i*lam_k*t} sum_j e^{-i*lam_j*t} b_j,
        c(t) = alpha(t)/(pi + alpha(t)*tail_deficit),

    by classical fourth-order Runge-Kutta with fixed steps of at most
    GALERKIN_PHASE_STEP/lam_max.  That shares no numerics with the
    product-integration march.  alpha_value maps an array of times to the
    real coupling there.

    The rate at node j is rank one, c_j p_j (conj(p_j) @ b) with p_j = e^{i*lam*t_j},
    so each stage is a scalar on a phase row, and a stage's overlap with the previous
    stage's row is a constant: sum_k e^{-i*lam_k*dt/2} one half step on, K on the
    same row.  A step is one product for the overlaps conj(p) @ b at its three
    nodes, four scalar stages, and one update b += (dt/6) [k1, 2(k2+k3), k4] @ p.
    """
    a0 = np.asarray(a0, dtype=complex)
    k_max = a0.size
    lam = odd_eigenvalues(k_max)
    n_steps = math.ceil(t_end * lam[-1] / GALERKIN_PHASE_STEP)
    dt = t_end / n_steps
    times = 0.5 * dt * np.arange(2 * n_steps + 1)  # nodes and midpoints
    alphas = np.asarray(alpha_value(times), dtype=float)
    coupling = -1j * alphas / (np.pi + alphas * tail_deficit(k_max))
    phases = np.exp(1j * np.outer(times, lam))
    conj_phases = np.conj(phases)
    # the overlaps of a stage's row with the previous stage's row
    forward = complex(np.sum(np.exp(-0.5j * dt * lam)))
    half_forward, half_same, full_forward = 0.5 * dt * forward, 0.5 * dt * lam.size, dt * forward

    b = a0[0::2].copy()
    stages = np.empty(3, dtype=complex)
    sixth, third = dt / 6.0, dt / 3.0
    for j in range(0, 2 * n_steps, 2):
        o0, o1, o2 = (conj_phases[j:j + 3] @ b).tolist()
        c0, c1, c2 = coupling[j:j + 3].tolist()
        k1 = c0 * o0
        k2 = c1 * (o1 + half_forward * k1)
        k3 = c1 * (o1 + half_same * k2)
        k4 = c2 * (o2 + full_forward * k3)
        stages[0], stages[1], stages[2] = sixth * k1, third * (k2 + k3), sixth * k4
        b += stages @ phases[j:j + 3]
    if not np.all(np.isfinite(b)):
        raise SolverError("reference ODE integration diverged")
    out = a0 * np.exp(-1j * eigenvalues(k_max) * t_end)
    out[0::2] = b * np.conj(phases[-1])
    return out
