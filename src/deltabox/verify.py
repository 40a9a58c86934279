"""Invariant battery: every module's structural properties as named checks.

Each check returns a CheckResult with the measured value and the threshold it
was held to, so the CLI can emit machine-readable pass/fail lines.  Checks are
deterministic given the seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace

import numpy as np

from . import charge as chg
from . import control as ctl
from . import convergence, greens, oracles, propagator, spectral
from .errors import InputError
from .kernels import discrete_h1_norm, fit_loglog_slope, odd_eigenvalues, segment_moments
from .spectral import SpectralCoefficients, TimeGrid


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    measured: float
    threshold: float
    comparator: str = "<="
    detail: str = ""
    # the check's module and report name, which run_checks copies from its @check registration
    module: str = ""
    name: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"{status} {self.module}.{self.name} measured={self.measured:.6e} "
               f"{self.comparator} {self.threshold:.6e}")
        return out + (f"  [{self.detail}]" if self.detail else "")


def _result(measured, threshold, comparator="<=", detail=""):
    ok = measured <= threshold if comparator == "<=" else measured >= threshold
    return CheckResult(bool(ok), float(measured), float(threshold), comparator, detail)


DEFAULT_SEED = 20260809
CHECKS = []  # every check, in report order


def check(module):
    """Register a check of `module`, reported (PASS or FAIL) as its function's name without
    `check_`, with dashes.  It is given the inputs its parameters name: `k_max`, `seed`."""
    def register(fn):
        fn.module = module
        fn.name = fn.__name__.removeprefix("check_").replace("_", "-")
        fn.inputs = tuple(inspect.signature(fn).parameters)
        CHECKS.append(fn)
        return fn
    return register


def call_check(fn, **inputs) -> CheckResult:
    """A registered check's result, given only the inputs that it names."""
    return fn(**{name: inputs[name] for name in fn.inputs})


@check("spectral")
def check_orthonormality():
    n_modes = 64
    xs, w = spectral.box_trapezoid(4096)
    modes = spectral.INV_SQRT_PI * spectral.mode_table(range(1, n_modes + 1), xs)  # psi_k rows
    gram = (modes * w) @ modes.T
    dev = float(np.max(np.abs(gram - np.eye(n_modes))))
    return _result(dev, 1e-10)


@check("spectral")
def check_parseval(seed):
    rng = np.random.default_rng(seed)
    k_use = 64
    c = SpectralCoefficients(k_use, rng.standard_normal(k_use) + 1j * rng.standard_normal(k_use))
    xs, w = spectral.box_trapezoid(8192)
    vals = spectral.evaluate_state(c, xs)
    quad = float(np.sum(w * np.abs(vals) ** 2))
    dev = abs(quad - c.norm() ** 2)
    return _result(dev, 1e-8)


@check("spectral")
def check_free_evolve_group(k_max, seed):
    # exact per-entry phase product; the float bound is set by the rounding of
    # the phase arguments lam_k*(t+s), a few ulps of the largest phase
    rng = np.random.default_rng(seed + 1)
    c = SpectralCoefficients(k_max, rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max))
    eps = np.finfo(float).eps
    lam_max = spectral.eigenvalue(k_max)
    worst = 0.0
    for _ in range(10):
        t, s = rng.uniform(0, 10, size=2)
        one = spectral.free_evolve(c, t + s)
        two = spectral.free_evolve(spectral.free_evolve(c, t), s)
        bound = 8.0 * eps * max(1.0, lam_max * (t + s))
        dev = float(np.max(np.abs(one.a - two.a) / np.abs(c.a)))
        worst = max(worst, dev / bound)
    return _result(worst, 1.0,
                   detail="relative error over 8*eps*lam_max*(t+s) phase-rounding bound")


@check("spectral")
def check_origin_trace_series(k_max, seed):
    rng = np.random.default_rng(seed + 2)
    c = SpectralCoefficients(k_max, rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max))
    ts = rng.uniform(0, 20, size=10)
    series = spectral.free_origin_series(c, ts)
    direct = np.array([spectral.origin_trace(spectral.free_evolve(c, t)) for t in ts])
    dev = float(np.max(np.abs(series - direct)))
    return _result(dev, 1e-12)


@check("greens")
def check_series_closed_order(seed):
    # statistics, not np.median, which imports numpy.ma; imported here, as it
    # loads fractions and decimal (about 4 ms), which no other path needs
    import statistics

    rng = np.random.default_rng(seed + 3)
    pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3),
            complex(rng.uniform(0.1, 5), rng.uniform(-2, 2))) for _ in range(20)]
    ks = (1000, 10000, 100000)
    medians = []
    for kk in ks:
        errs = [abs(greens.green_series(x, xp, z, kk) - greens.green_closed(x, xp, z))
                for x, xp, z in pts]
        medians.append(statistics.median(errs))
    slope = -fit_loglog_slope(ks, medians)
    return _result(slope, 0.9, ">=", detail=f"median errors {medians}")


@check("greens")
def check_derivative_jump(seed):
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    h = 1e-5
    for _ in range(5):
        xp = rng.uniform(-2.0, 2.0)
        z = complex(rng.uniform(0.3, 3.0), 0)
        g = lambda x: greens.green_closed(x, xp, z)
        right = (-3 * g(xp) + 4 * g(xp + h) - g(xp + 2 * h)) / (2 * h)
        left = (3 * g(xp) - 4 * g(xp - h) + g(xp - 2 * h)) / (2 * h)
        worst = max(worst, abs((right - left) + 1.0))
    return _result(worst, 1e-6)


@check("greens")
def check_pole_bracketing():
    # green_origin(-E) must flip sign across every odd-sector pole, and the
    # root finder must place exactly one even root per inter-pole gap
    measured = -1.0
    for j in (1, 3, 5, 7):
        lam = 0.25 * j * j
        lo = greens.green_origin_real(lam - 1e-3)
        hi = greens.green_origin_real(lam + 1e-3)
        measured = max(measured, float(np.sign(lo) * np.sign(hi)))
    for alpha in (0.7, -1.3):
        eigs = [e for e, s in greens.static_eigenvalues(alpha, (0.3, 20.0)) if s == "even"]
        for j in (1, 3, 5):
            a, b = 0.25 * j * j, 0.25 * (j + 2) * (j + 2)
            if len([e for e in eigs if a < e < b]) != 1:
                measured = 1.0
    return _result(measured, -1.0, detail="sign flip across poles, one root per gap")


@check("greens")
def check_fd_oracle():
    worst = 0.0
    for alpha in (-2.0, -0.5, 0.5, 2.0):
        mine = [e for e, _ in greens.static_eigenvalues(alpha, (-10.0, 10.0))][:3]
        ref = oracles.fd_spectrum(alpha, n_eigen=3)
        worst = max(worst, float(np.max(np.abs(np.array(mine) - ref))))
    return _result(worst, 1e-3)


def _bump_run(k_max_run, n_steps, t_end=2.0):
    grid = TimeGrid(t_end, n_steps)
    psi0 = SpectralCoefficients.unit(1, k_max_run)
    alpha = chg.CouplingProfile.sine_bump(0.5, t_end)
    return grid, psi0, alpha


@check("charge")
def check_dt_self_convergence():
    # k_max = 25: all retained mode periods resolved on the coarsest grid
    rows, slope = convergence.charge_dt_sweep((4e-3, 2e-3, 1e-3))
    return _result(slope, 1.9, ">=", detail=f"errors {[err for _, err in rows]}")


@check("charge")
def check_kmax_truncation_decay():
    grid = TimeGrid(2.0, 1000)
    alpha = chg.CouplingProfile.sine_bump(0.5, 2.0)
    qs = {}
    ks = [51, 101, 201, 401]
    for kk in ks:
        qs[kk] = chg.solve_charge(alpha, SpectralCoefficients.unit(1, kk), grid).q
    diffs = [float(np.max(np.abs(qs[a] - qs[b]))) for a, b in zip(ks[:-1], ks[1:])]
    slope = fit_loglog_slope(ks[:-1], diffs)
    ok_monotone = all(d2 < d1 for d1, d2 in zip(diffs[:-1], diffs[1:]))
    measured = slope if ok_monotone else 0.0
    return _result(measured, -1.0, "<=", detail=f"sup diffs on doubling {diffs}")


@check("charge")
def check_u_zero_at_start(seed):
    rng = np.random.default_rng(seed + 5)
    grid = TimeGrid(1.0, 64)
    q = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    traj = chg.ChargeTrajectory(grid, q, 51)
    val = abs(chg.apply_U(traj)[0])
    return _result(val, 0.0)


@check("charge")
def check_u_integration_by_parts():
    # integrated form (with the q(0) boundary term) against the direct
    # per-mode quadrature of the raw causal integrals, on a smooth charge
    grid = TimeGrid(1.5, 600)
    ts = grid.times
    q = np.sin(1.3 * ts) * np.exp(0.4j * ts) + 0.7 - 0.2j
    traj = chg.ChargeTrajectory(grid, q, 101)
    integrated = chg.apply_U(traj, analytic_tail=False)
    direct = np.zeros(ts.size, dtype=complex)
    for lam_k in odd_eigenvalues(101):
        c_nodes = np.concatenate(([0.0], np.cumsum(segment_moments(q, grid.dt, lam_k))))
        direct += np.exp(-1j * lam_k * ts) * c_nodes
    dev = float(np.max(np.abs(integrated - direct)))
    return _result(dev, 1e-12)


@check("charge")
def check_u_constant_analytic():
    grid = TimeGrid(1.0, 400)
    traj = chg.ChargeTrajectory(grid, np.ones(401, dtype=complex), 51)
    got = chg.apply_U(traj, analytic_tail=False)
    lam = odd_eigenvalues(51)
    t = grid.times[:, None]
    exact = np.sum((1 - np.exp(-1j * lam[None, :] * t)) / (1j * lam[None, :]), axis=1)
    exact[0] = 0.0
    dev = float(np.max(np.abs(got - exact)))
    return _result(dev, 1e-10)


@check("charge")
def check_u_linearity(seed):
    rng = np.random.default_rng(seed + 6)
    grid = TimeGrid(1.0, 128)
    q1 = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    q2 = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    u1 = chg.apply_U(chg.ChargeTrajectory(grid, q1, 101))
    u2 = chg.apply_U(chg.ChargeTrajectory(grid, q2, 101))
    u12 = chg.apply_U(chg.ChargeTrajectory(grid, q1 + q2, 101))
    dev = float(np.max(np.abs(u12 - u1 - u2)))
    return _result(dev, 1e-12)


@check("charge")
def check_conjugation_reversal(seed):
    # for real alpha and real-coefficient psi0, conj(q) solves the equation
    # with the conjugated (time-reversed) kernel; the reversed solve goes
    # through the independent Picard path
    rng = np.random.default_rng(seed + 7)
    k_use = 25
    grid = TimeGrid(1.0, 1000)
    fgrid = TimeGrid(1.0, 4000)
    alpha = chg.CouplingProfile.sine_bump(0.4, 1.0)
    av = alpha.values_on(fgrid)
    worst = 0.0
    for _ in range(5):
        a = np.zeros(k_use, dtype=complex)
        a[0::2] = rng.standard_normal((k_use + 1) // 2) / np.arange(1, k_use + 1, 2) ** 2
        psi0 = SpectralCoefficients(k_use, a)
        traj = chg.solve_charge(alpha, psi0, grid)
        src = spectral.free_origin_series(psi0, fgrid.times)
        q_rev = oracles.picard_charge(np.conj(-av * src), av,
                                      np.conj(-av[0] * spectral.origin_trace(psi0)),
                                      0.0, greens.SpectralShift(), fgrid, k_use,
                                      kernel_sign=+1.0)
        worst = max(worst, float(np.max(np.abs(np.conj(traj.q) - q_rev[::4]))))
    return _result(worst, 1e-5)


@check("charge")
def check_large_amplitude_wellposed():
    grid = TimeGrid(1.0, 1000)
    psi0 = SpectralCoefficients.unit(1, 101)
    for profile in (chg.CouplingProfile.constant(10.0, 1.0),
                    chg.CouplingProfile.sine_bump(10.0, 1.0)):
        traj = chg.solve_charge(profile, psi0, grid)
        if not np.all(np.isfinite(traj.q.real)):
            return _result(1.0, 0.0)
    return _result(0.0, 0.0, detail="no step singularity for A=10, dt=1e-3")


@check("charge")
def check_picard_oracle():
    k_use = 25
    grid, psi0, alpha = _bump_run(k_use, 2000)
    traj = chg.solve_charge(alpha, psi0, grid)
    fgrid = TimeGrid(2.0, 8000)
    src = spectral.free_origin_series(psi0, fgrid.times)
    av = alpha.values_on(fgrid)
    q_oracle = oracles.picard_charge(-av * src, av,
                                     -av[0] * spectral.origin_trace(psi0), 0.0,
                                     greens.SpectralShift(), fgrid, k_use)
    dev = float(np.max(np.abs(traj.q - q_oracle[::4])))
    return _result(dev, 1e-6)


@check("charge")
def check_general_scheme_picard():
    # generic (f, phi) pair for the charge-like scheme, against the same
    # fixed-point oracle on a 4x finer grid
    k_use = 15
    grid = TimeGrid(2.0, 2000)
    fgrid = TimeGrid(2.0, 8000)
    shift = greens.SpectralShift()
    f, f_fine = (np.exp(-0.3 * t) * (1.2 + 0.5j * np.sin(2 * t)) for t in (grid.times, fgrid.times))
    phi = chg.CouplingProfile.sine_bump(0.8, 2.0)
    traj = chg.solve_charge_general(f, phi.values_on(grid), shift, grid, k_use)
    v0 = chg.initial_charge(f_fine[0], 0.0, shift)
    q_oracle = oracles.picard_charge(f_fine, phi.values_on(fgrid), v0, v0, shift, fgrid, k_use)
    dev = float(np.max(np.abs(traj.q - q_oracle[::4])))
    return _result(dev, 1e-6)


@check("propagator")
def check_galerkin_ode_oracle():
    # the full charge+assembly pipeline against direct adaptive ODE
    # integration of the equivalent truncated mode system
    k_use = 25
    grid, psi0, alpha = _bump_run(k_use, 2000)
    res = propagator.evolve(psi0, alpha, grid)
    ref = oracles.galerkin_evolution(psi0.a, alpha.value, grid.t_end, k_use)
    dev = float(np.max(np.abs(res.final_state.a - ref)))
    return _result(dev, 1e-6)


@check("propagator")
def check_unitarity_dt_order():
    dts, drifts = [4e-3, 2e-3, 1e-3], []
    for dt in dts:
        grid, psi0, alpha = _bump_run(25, int(round(2.0 / dt)))
        res = propagator.evolve(psi0, alpha, grid)
        drifts.append(propagator.diagnostics(res, alpha)["norm_drift"])
    slope = fit_loglog_slope(dts, drifts)
    return _result(slope, 1.9, ">=", detail=f"drifts {drifts}")


@check("propagator")
def check_unitarity_kmax_bound():
    # the truncation contribution to the norm drift sits below the dt^2 floor
    # at every k_max (the tail-corrected truncated system is effectively a
    # projected self-adjoint dynamics), so the k_max branch of the tolerance
    # is asserted as a uniform bound rather than a measurable decay order
    ks, drifts = [5, 25, 101, 401], []
    for kk in ks:
        grid, psi0, alpha = _bump_run(kk, 4000, t_end=1.0)
        res = propagator.evolve(psi0, alpha, grid)
        drifts.append(propagator.diagnostics(res, alpha)["norm_drift"])
    return _result(max(drifts), 1e-8, detail=f"drifts over k_max {ks}: {drifts}")


@check("propagator")
def check_mild_odd_support():
    grid, psi0, alpha = _bump_run(101, 500, t_end=1.0)
    res = propagator.evolve(psi0, alpha, grid)
    worst = 0.0
    for n in range(0, grid.n_steps + 1, 50):
        free = spectral.free_evolve(psi0, grid.times[n])
        diff = res.state_at(n).a - free.a
        worst = max(worst, float(np.max(np.abs(diff[1::2]))))
    return _result(worst, 0.0)


@check("propagator")
def check_boundary_equivalence(k_max):
    grid = TimeGrid(1.0, 1000)
    psi0 = SpectralCoefficients.unit(1, k_max)
    alpha = chg.CouplingProfile.sine_bump(1.0, 1.0)
    res = propagator.evolve(psi0, alpha, grid)
    return _result(propagator.diagnostics(res, alpha)["boundary_residual_max"], 1e-8)


@check("propagator")
def check_phi4_identity(seed):
    # -d2/dx2[F(w,t) - w(t)G] = i F(w',t) + lam w(t) G, coefficientwise, for
    # piecewise-linear w with w(0)=0; also pins the (lam_k + lam) sign of the
    # Green-difference expansion
    rng = np.random.default_rng(seed + 8)
    k_use = 101
    shift = greens.SpectralShift()
    green = greens.green_coefficients(shift, k_use)
    lam_all = spectral.eigenvalues(k_use)
    worst = 0.0
    for _ in range(5):
        grid = TimeGrid(1.0, 200)
        w = rng.standard_normal(201) + 1j * rng.standard_normal(201)
        w[0] = 0.0
        traj = chg.ChargeTrajectory(grid, w, k_use)
        f_w = propagator.assemble_F(traj)
        # F(w', t) by parts from the end-time mode integrals: with w(0) = 0,
        # e^{-i*lam*T} int_0^T w'(s) e^{i*lam*s} ds = w(T) - i*lam*h(T)
        fprime = np.zeros(k_use, dtype=complex)
        fprime[0::2] = 1j / np.sqrt(np.pi) * (
            w[-1] - 1j * odd_eigenvalues(k_use) * traj.end_history)
        lhs = lam_all * (f_w.a - w[-1] * green.a)
        rhs = 1j * fprime + shift.lam * w[-1] * green.a
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result(worst, 1e-8)


@check("propagator")
def check_green_difference_sign():
    # Q(t) = (e^{itLap}-1)G + F(1,t) expands with denominator lam_k(lam_k + lam);
    # the (lam_k - lam) variant does not match
    k_use = 101
    shift = greens.SpectralShift()
    green = greens.green_coefficients(shift, k_use)
    grid = TimeGrid(1.3, 500)
    t_end = grid.t_end
    traj = chg.ChargeTrajectory(grid, np.ones(501, dtype=complex), k_use)
    f_one = propagator.assemble_F(traj)
    lam_odd = odd_eigenvalues(k_use)
    phase = np.exp(-1j * lam_odd * t_end)
    direct = (phase - 1.0) * green.a[0::2] + f_one.a[0::2]
    plus = (1 - phase) * shift.lam / (lam_odd * (lam_odd + shift.lam)) / np.sqrt(np.pi)
    minus = (1 - phase) * shift.lam / (lam_odd * (lam_odd - shift.lam)) / np.sqrt(np.pi)
    dev_plus = float(np.max(np.abs(direct - plus)))
    dev_minus = float(np.max(np.abs(direct - minus)))
    return _result(dev_plus, 1e-12,
                   detail=f"(lam+lam0) matches; (lam-lam0) deviates by {dev_minus:.2e}")


def _coupled_eigenstate(alpha_c, k_max):
    """(E, state, scale): the first even-sector eigenvalue E of H_alpha in (0.26, 2.25)
    and its eigenstate a_k = scale/(sqrt(pi)*(lam_k - E)) on odd k, scaled to unit norm."""
    energy = [e for e, s in greens.static_eigenvalues(alpha_c, (0.26, 2.25)) if s == "even"][0]
    a = np.zeros(k_max, dtype=complex)
    a[0::2] = 1.0 / (np.sqrt(np.pi) * (odd_eigenvalues(k_max) - energy))
    state = SpectralCoefficients(k_max, a)
    scale = 1.0 / state.norm()
    return energy, state.scaled(scale), scale


@check("propagator")
def check_eigenstate_rotation(k_max):
    alpha_c = 0.5
    energy, state, _ = _coupled_eigenstate(alpha_c, k_max)
    ds = propagator.decompose(state, -alpha_c * spectral.origin_trace(state))
    grid = TimeGrid(1.0, 1000)
    res = propagator.evolve(ds, chg.CouplingProfile.constant(alpha_c, 1.0), grid)
    final = res.final_state
    overlap = np.vdot(state.a, final.a)
    fidelity_defect = abs(1.0 - abs(overlap) / (state.norm() * final.norm()))
    vec_err = float(np.linalg.norm(final.a - np.exp(-1j * energy * grid.t_end) * state.a))
    return _result(max(fidelity_defect, vec_err), 1e-5,
                   detail=f"fidelity defect {fidelity_defect:.2e}, vector err {vec_err:.2e}")


@check("propagator")
def check_hamiltonian_eigenstate(k_max):
    energy, state, scale = _coupled_eigenstate(-1.5, k_max)
    ds = propagator.decompose(state, scale)  # q = 1 before normalization
    out = propagator.apply_hamiltonian(ds)
    dev = float(np.max(np.abs(out.a - energy * state.a)))
    return _result(dev, 1e-6)


@check("propagator")
def check_regular_part_h2_tail(k_max):
    grid, psi0, alpha = _bump_run(k_max, 2000)
    res = propagator.evolve(psi0, alpha, grid)
    q_end = res.charge.q[-1]
    ds = propagator.decompose(res.final_state, q_end)
    cuts = sorted({max(2, k_max // 8), max(3, k_max // 4), max(4, k_max // 2)})
    tails = [ds.h2_tail(c) for c in cuts]
    slope = fit_loglog_slope(cuts, tails)
    ok = all(t2 < t1 for t1, t2 in zip(tails[:-1], tails[1:]))
    return _result(slope if ok else 0.0, -1.0, "<=", detail=f"tails {tails}")


@check("propagator")
def check_energy_constant_static(k_max):
    alpha_c = 0.5
    _, state, _ = _coupled_eigenstate(alpha_c, k_max)
    ds = propagator.decompose(state, -alpha_c * spectral.origin_trace(state))
    alpha = chg.CouplingProfile.constant(alpha_c, 1.0)
    res = propagator.evolve(ds, alpha, TimeGrid(1.0, 1000))
    return _result(propagator.diagnostics(res, alpha)["energy_drift"], 1e-5)


@check("propagator")
def check_energy_balance(k_max):
    grid, psi0, alpha = _bump_run(k_max, 2000)
    res = propagator.evolve(psi0, alpha, grid)
    return _result(propagator.diagnostics(res, alpha)["energy_balance_rel"], 1e-3)


@check("control")
def check_linearized_linearity():
    grid = TimeGrid(1.0, 500)
    psi0 = SpectralCoefficients.unit(1, 101)
    alpha = chg.CouplingProfile.sine_bump(0.3, 1.0)
    t = grid.times
    u1 = np.sin(np.pi * t) * (1 + 0.5j)
    u2 = np.sin(2 * np.pi * t) * (0.3 - 0.2j) + np.sin(np.pi * t)
    d1, d2, d12 = ctl.apply_linearized(alpha, np.stack((u1, u2, u1 + u2)), psi0, grid)
    dev = d12.sub(d1.add(d2)).norm()
    return _result(dev, 1e-10)


@check("control")
def check_even_sector_closure():
    grid = TimeGrid(1.0, 500)
    k_use = 101
    a = np.zeros(k_use, dtype=complex)
    a[0] = 0.8
    a[2] = 0.6
    psi0 = SpectralCoefficients(k_use, a)
    alpha = chg.CouplingProfile.sine_bump(0.4, 1.0)
    final = ctl.gamma(alpha, psi0, grid)
    lin = ctl.apply_linearized(alpha, np.sin(np.pi * grid.times), psi0, grid)
    dev = max(final.even_sector_defect(), lin.even_sector_defect())
    return _result(dev, 0.0)


@check("control")
def check_moment_exactness(k_max, seed):
    rng = np.random.default_rng(seed + 10)
    t_end = 8.0 * np.pi
    fine = TimeGrid(t_end, 1 << 19)
    worst = 0.0
    kk = np.arange(1, k_max + 1, 2)
    for _ in range(10):
        c = np.zeros(k_max, dtype=complex)
        c[0::2] = kk ** -3.0 * np.exp(2j * np.pi * rng.random(kk.size))
        target = ctl.ControlTarget(SpectralCoefficients(k_max, c), t_end)
        # rho goes straight to the residual: no two 2^19-node rho are alive at once
        worst = max(worst, ctl.moment_residual(ctl.solve_moment(target, fine), target))
    return _result(worst, 1e-8)


@check("control")
def check_gateaux_continuity(seed):
    rng = np.random.default_rng(seed + 11)
    grid = TimeGrid(1.0, 500)
    psi0 = SpectralCoefficients.unit(1, 101)
    t = grid.times
    us = []
    for _ in range(10):
        coeffs = rng.standard_normal(3)
        u = sum(c * np.sin((j + 1) * np.pi * t) for j, c in enumerate(coeffs))
        us.append(u / discrete_h1_norm(u, grid.dt))
    us = np.array(us, dtype=complex)  # every direction in one march per coupling
    base_amp = 0.3
    gaps = [0.2, 0.1, 0.05]
    a1 = chg.CouplingProfile.sine_bump(base_amp, 1.0)
    d1s = ctl.apply_linearized(a1, us, psi0, grid)
    sups = []
    for gap in gaps:
        a2 = chg.CouplingProfile.sine_bump(base_amp + gap, 1.0)
        d2s = ctl.apply_linearized(a2, us, psi0, grid)
        sups.append(max(d1.sub(d2).norm() for d1, d2 in zip(d1s, d2s)))
    monotone = all(s2 < s1 for s1, s2 in zip(sups[:-1], sups[1:]))
    return _result(0.0 if monotone else 1.0, 0.0, detail=f"operator gaps {sups}")


@check("control")
def check_frechet_order():
    grid = TimeGrid(2.0, 1000)
    psi0 = SpectralCoefficients.unit(1, 101)
    t = grid.times
    u = np.sin(np.pi * t / 2.0) + 0.4 * np.sin(np.pi * t)
    u = u / discrete_h1_norm(u, grid.dt)
    worst_slope = np.inf
    for base in (chg.CouplingProfile.zero(2.0), chg.CouplingProfile.sine_bump(0.3, 2.0)):
        g0 = ctl.gamma(base, psi0, grid)
        d = ctl.apply_linearized(base, u, psi0, grid)
        eps_list, rems = [1e-1, 1e-2, 1e-3], []
        for eps in eps_list:
            pert = chg.CouplingProfile.piecewise_linear(grid, base.values_on(grid) + eps * u)
            rems.append(ctl.gamma(pert, psi0, grid).sub(g0).sub(d.scaled(eps)).norm())
        worst_slope = min(worst_slope, fit_loglog_slope(eps_list, rems))
    return _result(worst_slope, 1.9, ">=")


@check("control")
def check_lipschitz_ratio():
    grid = TimeGrid(2.0, 1000)
    psi0 = SpectralCoefficients.unit(1, 101)
    amps = [0.08, 0.10, 0.12, 0.14, 0.16]
    ratios = []
    for amp in amps:
        a = chg.CouplingProfile.sine_bump(amp, 2.0)
        b = chg.CouplingProfile.sine_bump(amp * 1.001, 2.0)
        dq, da = chg.lipschitz_probe(a, b, psi0, grid)
        ratios.append(dq / da)
    return _result(max(ratios), 10.0, detail=f"ratios {ratios}")


def run_checks(module_filter: str | None = None, k_max: int = spectral.DEFAULT_K_MAX,
               seed: int = DEFAULT_SEED) -> list[CheckResult]:
    modules = {fn.module for fn in CHECKS}
    if module_filter is not None and module_filter not in modules:
        raise InputError(f"unknown module filter {module_filter!r}; "
                         f"choose from {sorted(modules)}")
    if seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {seed}")
    results = []
    for fn in CHECKS:
        if module_filter and fn.module != module_filter:
            continue
        try:
            res = replace(call_check(fn, k_max=k_max, seed=seed), module=fn.module, name=fn.name)
        except Exception as exc:  # a crashed check is a failed check
            res = CheckResult(False, float("nan"), 0.0, "<=", f"error: {exc}", fn.module, fn.name)
        results.append(res)
    return results
