"""Correctness gate: decides whether one CLI invocation produced a right answer.

Each check returns a list of problems; an empty list is a pass.  An
iteration that exits non-zero or has any problem counts as failed.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0
REFERENCE_STRIDE = 25  # every 25th trajectory node, plus the last, is stored
REFERENCE_TOL = 1e-13  # the ROADMAP's bound on a hot-path refactor's deviation
NORM_TOL = 1e-6  # the CLI's default --tol-norm-drift
MOMENT_STEPS = 1 << 15  # grid of `control`'s moment solve (deltabox.control.DEFAULT_CONTROL_STEPS)
MOMENT_TOL = 1e-8

VERIFY_CHECKS = (
    "spectral.orthonormality", "spectral.parseval", "spectral.free-evolve-group",
    "spectral.origin-trace-series", "greens.series-closed-order", "greens.derivative-jump",
    "greens.pole-bracketing", "greens.fd-oracle", "charge.dt-self-convergence",
    "charge.kmax-truncation-decay", "charge.u-zero-at-start", "charge.u-integration-by-parts",
    "charge.u-constant-analytic", "charge.u-linearity", "charge.conjugation-reversal",
    "charge.large-amplitude-wellposed", "charge.picard-oracle", "charge.general-scheme-picard",
    "propagator.galerkin-ode-oracle", "propagator.unitarity-dt-order",
    "propagator.unitarity-kmax-bound", "propagator.mild-odd-support",
    "propagator.boundary-equivalence", "propagator.phi4-identity",
    "propagator.green-difference-sign", "propagator.eigenstate-rotation",
    "propagator.hamiltonian-eigenstate", "propagator.regular-part-h2-tail",
    "propagator.energy-constant-static", "propagator.energy-balance",
    "control.linearized-linearity", "control.even-sector-closure", "control.moment-exactness",
    "control.gateaux-continuity", "control.frechet-order", "control.lipschitz-ratio",
)


def _rows(path: str) -> np.ndarray:
    """Numeric CSV rows of a CLI artifact, skipping '#' comments and the column header."""
    with open(path) as fh:
        rows = [ln.split(",") for ln in fh
                if ln.strip() and not ln.startswith("#") and not ln[0].isalpha()]
    return np.array(rows, dtype=float)


def read_trajectory(workdir: str) -> tuple[np.ndarray, np.ndarray]:
    rows = _rows(os.path.join(workdir, "trajectory.csv"))
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def read_state(path: str) -> np.ndarray:
    rows = _rows(path)
    return rows[:, 1] + 1j * rows[:, 2]


def reference_nodes(n_steps: int) -> np.ndarray:
    return np.unique(np.append(np.arange(0, n_steps + 1, REFERENCE_STRIDE), n_steps))


def check_simulate(workdir: str, seed: int) -> list[str]:
    problems = []
    t, q = read_trajectory(workdir)
    n = inputs.N_STEPS
    if q.size != n + 1:
        return [f"trajectory has {q.size} nodes, expected {n + 1}"]
    grid = inputs.T_END * np.arange(n + 1) / n
    if np.max(np.abs(t - grid)) > 1e-12 * inputs.T_END:
        problems.append("trajectory t column is not the uniform grid on [0, T]")
    a0 = inputs.dense_state(seed)
    _, alpha = inputs.alpha_samples(seed)
    q0 = -alpha[0] * np.sum(a0[0::2]) / math.sqrt(math.pi)
    if abs(q[0] - q0) > 1e-14 * max(1.0, abs(q0)):
        problems.append(f"q(0) = {q[0]!r} violates q(0) = -alpha(0)*psi0(0) = {q0!r}")
    a = read_state(os.path.join(workdir, "final_state.txt"))
    if a.size != inputs.K_MAX:
        return problems + [f"final state has {a.size} modes, expected {inputs.K_MAX}"]
    if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
        problems.append(f"final norm {np.linalg.norm(a)!r} drifted more than {NORM_TOL}")
    if seed == REFERENCE_SEED:
        ref = _rows(os.path.join(REFERENCE_DIR, "trajectory.csv"))
        dev_q = float(np.max(np.abs(q[ref[:, 0].astype(int)] - (ref[:, 1] + 1j * ref[:, 2]))))
        ref_a = read_state(os.path.join(REFERENCE_DIR, "final_state.txt"))
        dev_a = float(np.max(np.abs(a - ref_a)))
        if max(dev_q, dev_a) > REFERENCE_TOL:
            problems.append(f"deviation from reference: q {dev_q:.3e}, final state "
                            f"{dev_a:.3e} (limit {REFERENCE_TOL:g})")
    return problems


def predicted_moment_residual(target: dict[int, complex]) -> float:
    """Defect of the piecewise-linear moment quadrature on the CLI's moment grid.

    Sampling sin(lam*t) on a uniform grid and integrating its linear
    interpolant scales the lam-moment by sinc^2(lam*dt/2), so mode k is missed
    by |c_k| * (1 - sinc^2(lam_k*dt/2)).  On 2^15 steps this is ~1e-6 for the
    steer targets, far above 1e-8, so the gate allows this defect plus
    MOMENT_TOL; a solver that removes the defect passes as well.
    """
    dt = inputs.T_END / MOMENT_STEPS
    worst = 0.0
    for k, c in target.items():
        x = 0.125 * k * k * dt  # lam_k*dt/2 with lam_k = k^2/4
        worst = max(worst, abs(c) * (1.0 - (math.sin(x) / x) ** 2))
    return worst


def check_steer(workdir: str, seed: int) -> list[str]:
    """Acceptance criterion 9 on the report, plus the moment residual."""
    with open(os.path.join(workdir, "control_report.txt")) as fh:
        report = fh.read()
    problems = []
    residual = re.search(r"^moment_residual (\S+)$", report, re.M)
    slope = re.search(r"^remainder slope \(log-log\): (\S+)$", report, re.M)
    errors = re.findall(r"eps=(\S+)\s+remainder=\S+ displacement_rel_err=(\S+)", report)
    if not (residual and slope and len(errors) == 3):
        return ["control report lacks the residual, the slope or the three eps lines"]
    limit = predicted_moment_residual(inputs.steer_target(seed)) + MOMENT_TOL
    if not float(residual.group(1)) <= limit:
        problems.append(f"moment_residual {residual.group(1)} > {limit:.6e}")
    if not float(slope.group(1)) >= 1.9:
        problems.append(f"remainder slope {slope.group(1)} < 1.9")
    for eps, err in errors:
        if not float(err) <= 10.0 * float(eps):
            problems.append(f"displacement error {err} > 10*eps at eps={eps}")
    return problems


def check_verify(workdir: str, seed: int) -> list[str]:
    status = {}
    with open(os.path.join(workdir, "verify_report.txt")) as fh:
        for line in fh:
            if line.startswith(("PASS ", "FAIL ")):
                verdict, name = line.split()[:2]
                status[name] = verdict
    problems = [f"check {name} missing" for name in VERIFY_CHECKS if name not in status]
    problems += [f"check {name} failed" for name, s in status.items() if s != "PASS"]
    return problems


CHECKS = {"simulate": check_simulate, "steer": check_steer, "verify": check_verify}


def check(workload: str, workdir: str, seed: int, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return CHECKS[workload](workdir, seed)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
