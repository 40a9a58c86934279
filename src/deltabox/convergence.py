"""Refinement studies backing the solver's order claims.

Each sweep returns (rows, slope): rows of (level, error) pairs plus the fitted
log-log slope, ready for CSV emission by the CLI.
"""

from __future__ import annotations

import numpy as np

from .charge import CouplingProfile, solve_charge
from .errors import InputError
from .greens import green_origin, green_series
from .kernels import fit_loglog_slope
from .spectral import SpectralCoefficients, TimeGrid

CHARGE_DT_LEVELS = (4e-3, 2e-3, 1e-3)
GREEN_KMAX_LEVELS = (1000, 10000, 100000)
# the largest green-kmax level: the Green series' mode table grows as the level, and a
# level of 10^7 sums in about half a second
GREEN_KMAX_MAX_LEVEL = 10**7
# charge-dt: a sine bump on psi_1 over [0, T], against a run REFINE times finer
DT_STUDY_T_END, DT_STUDY_AMPLITUDE, DT_STUDY_K_MAX, DT_STUDY_REFINE = 2.0, 0.5, 25, 8
GREEN_STUDY_Z = 1.0  # green-kmax: G^z(0, 0) at this z


def _check_levels(levels) -> list:
    """At least 3 distinct positive levels, or InputError: a slope needs them."""
    if any(not level > 0 for level in levels) or len(set(levels)) < 3:
        raise InputError(f"need at least 3 distinct positive refinement levels, got {levels}")
    return sorted(levels)


def charge_dt_sweep(dts=CHARGE_DT_LEVELS) -> tuple[list[tuple[float, float]], float]:
    """Self-convergence of the charge solver: sup error against a refine-times
    finer reference run, per time step size."""
    dts = _check_levels([float(d) for d in dts])[::-1]
    t_end = DT_STUDY_T_END
    steps = [int(round(t_end / d)) for d in dts]
    for d, n in zip(dts, steps):
        if abs(n * d - t_end) > 1e-12 * max(1.0, t_end):
            raise InputError(f"dt={d} does not divide the horizon {t_end}")
    n_ref = steps[-1] * DT_STUDY_REFINE
    if any(n_ref % n for n in steps):
        raise InputError("refinement levels must nest into the reference grid")
    psi0 = SpectralCoefficients.unit(1, DT_STUDY_K_MAX)
    alpha = CouplingProfile.sine_bump(DT_STUDY_AMPLITUDE, t_end)
    ref = solve_charge(alpha, psi0, TimeGrid(t_end, n_ref))
    rows = []
    for d, n in zip(dts, steps):
        traj = solve_charge(alpha, psi0, TimeGrid(t_end, n))
        err = float(np.max(np.abs(traj.q - ref.q[:: n_ref // n])))
        rows.append((d, err))
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    return rows, slope


def green_kmax_sweep(ks=GREEN_KMAX_LEVELS) -> tuple[list[tuple[int, float]], float]:
    """Truncation error of the origin Green series against the closed form."""
    ks = _check_levels(list(ks))
    exact = green_origin(GREEN_STUDY_Z)
    rows = []
    for k in ks:
        err = abs(green_series(0.0, 0.0, GREEN_STUDY_Z, k) - exact)
        rows.append((k, float(err)))
    slope = -fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    return rows, slope
