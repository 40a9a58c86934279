"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np

from deltabox.charge import CouplingProfile, solve_charge
from deltabox.control import (
    ControlTarget,
    apply_linearized,
    controllability_experiment,
    gamma,
    moment_residual,
    solve_moment,
    synthesize_control,
)
from deltabox.convergence import charge_dt_sweep, green_kmax_sweep
from deltabox.greens import green_series, static_eigenvalues
from deltabox.kernels import discrete_h1_norm, fit_loglog_slope
from deltabox.oracles import fd_spectrum, picard_charge
from deltabox.propagator import diagnostics, evolve
from deltabox.greens import SpectralShift
from deltabox.spectral import (
    SpectralCoefficients,
    TimeGrid,
    free_evolve,
    free_origin_series,
    origin_trace,
)

from conftest import SEED


def record(number: int, description: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_green_identity():
    t0 = time.perf_counter()
    err = abs(green_series(0.0, 0.0, 1.0, 100_000) - np.tanh(np.pi) / 2.0)
    rows, slope = green_kmax_sweep((1000, 10000, 100000))
    elapsed = time.perf_counter() - t0
    ok = err <= 5e-5 and slope >= 0.9 and elapsed < 5.0
    record(1, "Green identity at the origin",
           ok, f"|series-closed|={err:.3e}<=5e-5, sweep slope={slope:.4f}>=0.9, "
               f"runtime={elapsed:.2f}s<5s")


def test_criterion_2_tail_constant():
    k = np.arange(1, 100_000 + 1, 2)
    partial = float(np.sum(1.0 / (0.25 * k.astype(float) ** 2)))
    err = abs(partial - np.pi**2 / 2.0)
    record(2, "analytic tail constant pi^2/2",
           err <= 4e-5, f"|sum-pi^2/2|={err:.3e}<=4e-5")


def test_criterion_3_unitarity():
    t0 = time.perf_counter()
    grid = TimeGrid(2.0, 2000)  # dt = 1e-3
    psi0 = SpectralCoefficients.unit(1, 401)
    alpha = CouplingProfile.sine_bump(0.5, 2.0)
    res = evolve(psi0, alpha, grid)
    elapsed = time.perf_counter() - t0
    rep = diagnostics(res, alpha)
    drift, resid = rep["norm_drift"], rep["boundary_residual_max"]
    ok = drift <= 1e-6 and resid <= 1e-8 and elapsed < 60.0
    record(3, "unitarity and boundary relation at defaults",
           ok, f"norm drift={drift:.3e}<=1e-6, boundary residual={resid:.3e}<=1e-8, "
               f"runtime={elapsed:.1f}s<60s")


def test_criterion_4_decoupling():
    grid = TimeGrid(2.0, 1000)
    psi0 = SpectralCoefficients.unit(2, 401)
    worst_q, worst_state = 0.0, 0.0
    for amp in (0.2, 0.5, 1.0):
        res = evolve(psi0, CouplingProfile.sine_bump(amp, 2.0), grid)
        worst_q = max(worst_q, float(np.max(np.abs(res.charge.q))))
        free = free_evolve(psi0, 2.0)
        worst_state = max(worst_state, float(np.max(np.abs(res.final_state.a - free.a))))
    ok = worst_q == 0.0 and worst_state == 0.0
    record(4, "sine-sector state does not feel the interaction",
           ok, f"max|q|={worst_q:.1e}==0, max|final-free|={worst_state:.1e}==0")


def test_criterion_5_charge_solver_order():
    rows, slope = charge_dt_sweep((4e-3, 2e-3, 1e-3))
    # Picard fixed-point oracle on a T=2 run, oracle grid 4x finer
    k_use = 25
    grid = TimeGrid(2.0, 2000)
    psi0 = SpectralCoefficients.unit(1, k_use)
    alpha = CouplingProfile.sine_bump(0.5, 2.0)
    traj = solve_charge(alpha, psi0, grid)
    fgrid = TimeGrid(2.0, 8000)
    src = free_origin_series(psi0, fgrid.times)
    av = alpha.values_on(fgrid)
    oracle = picard_charge(-av * src, av,
                           -av[0] * origin_trace(psi0), 0.0,
                           SpectralShift(), fgrid, k_use)
    agreement = float(np.max(np.abs(traj.q - oracle[::4])))
    ok = slope >= 1.9 and agreement <= 1e-6
    record(5, "charge-solver order and fixed-point oracle",
           ok, f"dt slope={slope:.3f}>=1.9 over {[r[0] for r in rows]}, "
               f"Picard agreement={agreement:.3e}<=1e-6")


def test_criterion_6_static_spectrum():
    worst_fd = 0.0
    for alpha in (-2.0, 2.0):
        mine = [e for e, _ in static_eigenvalues(alpha, (-10.0, 10.0))][:3]
        ref = fd_spectrum(alpha, n_eigen=3)
        worst_fd = max(worst_fd, float(np.max(np.abs(np.array(mine) - ref))))
    e1_present = all(
        any(abs(e - 1.0) < 1e-12 for e, _ in static_eigenvalues(a, (0.5, 1.5)))
        for a in (-2.0, 0.0, 2.0, 1e4))
    strong = [e for e, s in static_eigenvalues(1e4, (0.0, 10.0)) if s == "even"]
    # the exact strong-coupling roots sit 4n^2/(pi*alpha) below n^2, a uniform
    # relative offset of 1.27e-4; the 1e-3 comparison is therefore relative
    worst_strong = max(abs(e - n * n) / (n * n) for e, n in zip(strong, (1, 2, 3)))
    ok = worst_fd <= 1e-3 and e1_present and len(strong) == 3 and worst_strong <= 1e-3
    record(6, "static spectrum against the grid oracle",
           ok, f"FD mismatch={worst_fd:.3e}<=1e-3, E=1 present={e1_present}, "
               f"strong-coupling relative offset={worst_strong:.3e}<=1e-3")


def test_criterion_7_moment_problem():
    k_max = 401
    t_end = 8.0 * np.pi
    a = np.zeros(k_max, dtype=complex)
    a[0] = 1.0
    target = ControlTarget(SpectralCoefficients(k_max, a), t_end)
    grid = TimeGrid(t_end, 1 << 15)
    rho = solve_moment(target, grid)
    ts = grid.times
    pointwise = float(np.max(np.abs(rho + np.sin(ts / 4.0) / (4.0 * np.sqrt(np.pi)))))
    resid_c1 = moment_residual(rho, target)
    rng = np.random.default_rng(SEED)
    fine = TimeGrid(t_end, 1 << 19)
    kk = np.arange(1, k_max + 1, 2)
    worst = 0.0
    for _ in range(10):
        c = np.zeros(k_max, dtype=complex)
        c[0::2] = kk**-3.0 * np.exp(2j * np.pi * rng.random(kk.size))
        tgt = ControlTarget(SpectralCoefficients(k_max, c), t_end)
        worst = max(worst, moment_residual(solve_moment(tgt, fine), tgt))
    ok = pointwise <= 1e-10 and resid_c1 <= 1e-8 and worst <= 1e-8
    record(7, "trigonometric moment problem",
           ok, f"pointwise={pointwise:.2e}<=1e-10, residual(c1)={resid_c1:.2e}<=1e-8, "
               f"10 random targets worst={worst:.2e}<=1e-8")


def test_criterion_8_frechet_derivative():
    k_max = 401
    grid = TimeGrid(2.0, 2000)
    psi0 = SpectralCoefficients.unit(1, k_max)
    rng = np.random.default_rng(SEED)
    t = grid.times

    def random_unit_bump():
        coeffs = rng.standard_normal(4)
        s = sum(c * np.sin((j + 1) * np.pi * t / 2.0) for j, c in enumerate(coeffs))
        s[0] = s[-1] = 0.0
        return s / discrete_h1_norm(s, grid.dt)

    worst_slope = np.inf
    for base in (CouplingProfile.zero(2.0), CouplingProfile.sine_bump(0.3, 2.0)):
        g0 = gamma(base, psi0, grid)
        base_vals = base.values_on(grid)
        for _ in range(3):
            u = random_unit_bump()
            d = apply_linearized(base, u, psi0, grid)
            eps_list, rems = [1e-1, 1e-2, 1e-3], []
            for eps in eps_list:
                pert = CouplingProfile.piecewise_linear(grid, base_vals + eps * u)
                rems.append(gamma(pert, psi0, grid).sub(g0).sub(d.scaled(eps)).norm())
            worst_slope = min(worst_slope, fit_loglog_slope(eps_list, rems))
    record(8, "Frechet remainder order of the end-time map",
           worst_slope >= 1.9, f"worst log-log slope={worst_slope:.3f}>=1.9 "
                               "(alpha=0 and bump, 3 random directions each)")


def test_criterion_9_local_steering():
    t0 = time.perf_counter()
    k_max = 401
    t_end = 8.0 * np.pi
    grid = TimeGrid(t_end, 25133)  # dt ~ 1e-3
    a = np.zeros(k_max, dtype=complex)
    a[2] = 1.0
    direction = ControlTarget(SpectralCoefficients(k_max, a), t_end)
    eps = (1e-1, 3e-2, 1e-2)
    alpha = synthesize_control(direction, 1, grid)
    reach = apply_linearized(CouplingProfile.zero(t_end), alpha.samples,
                             SpectralCoefficients.unit(1, k_max), grid)
    rep = controllability_experiment(1, eps, direction, alpha, reach)
    elapsed = time.perf_counter() - t0
    disp_ok = all(d <= 10 * e for d, e in zip(rep.displacement_errors, eps))
    ok = rep.remainder_slope >= 1.9 and disp_ok and elapsed < 600.0
    record(9, "first-order steering around the ground cosine mode",
           ok, f"remainder slope={rep.remainder_slope:.4f}>=1.9, "
               f"displacement rel errs={[f'{d:.2e}' for d in rep.displacement_errors]}"
               f"<=10*eps, runtime={elapsed:.0f}s<600s")


def test_criterion_10_lipschitz_probe():
    from deltabox.charge import lipschitz_probe

    grid = TimeGrid(2.0, 1000)
    psi0 = SpectralCoefficients.unit(1, 101)
    ratios = []
    for amp in (0.08, 0.10, 0.12, 0.14, 0.16):
        a = CouplingProfile.sine_bump(amp, 2.0)
        b = CouplingProfile.sine_bump(amp * 1.001, 2.0)
        dq, da = lipschitz_probe(a, b, psi0, grid)
        ratios.append(dq / da)
    bounded = max(ratios) <= 10.0
    stable = max(ratios) / min(ratios) <= 1.5
    record(10, "charge map is locally Lipschitz in the coupling",
           bounded and stable,
           f"ratios={[f'{r:.3f}' for r in ratios]}, max<=10, spread<=1.5x")
