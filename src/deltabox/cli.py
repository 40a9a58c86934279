"""Command-line front end: simulate, spectrum, green, control, verify, sweep.

Exit codes: 0 success, 1 configuration/validation problem, 2 solver failure,
3 file I/O failure.  DELTABOX_OUTDIR overrides the output directory.  Every
numeric field of user input goes through iofiles.parse_number, so a malformed
value is a configuration error, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .charge import CouplingProfile, solve_charge
from .control import (
    ControlTarget,
    controllability_experiment,
    moment_residual,
    solve_moment,
    synthesize_control,
)
from .convergence import charge_dt_sweep, green_kmax_sweep
from .errors import InputError, SolverError
from .greens import (SpectralShift, default_window, green_closed, green_origin, green_series,
                     static_eigenvalues)
from .iofiles import (
    atomic_write_text,
    config_hash,
    load_state,
    load_target_csv,
    parse_config_text,
    parse_number,
    save_control_csv,
    save_spectrum_csv,
    save_state,
    save_trajectory_csv,
    write_manifest,
)
from .propagator import DomainState, diagnostics, evolve
from .spectral import DEFAULT_K_MAX, SpectralCoefficients, TimeGrid
from .verify import run_checks

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_IO = 0, 1, 2, 3

_SIMULATE_KEYS = {"psi0", "alpha", "T", "n_steps", "k_max", "outdir",
                  "store_every", "tol_norm_drift", "tol_boundary"}


def _outdir(args_outdir: str) -> str:
    return os.environ.get("DELTABOX_OUTDIR", args_outdir)


def _parse_psi0(descriptor: str, k_max: int):
    kind, _, rest = descriptor.partition(":")
    if kind == "eig":
        return SpectralCoefficients.unit(parse_number(rest, int, "psi0 eig:K"), k_max)
    if kind == "file":
        state = load_state(rest)
        if state.k_max != k_max:
            raise InputError(f"state file k_max {state.k_max} != configured {k_max}")
        return state
    if kind == "domain":
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise InputError("domain state descriptor: domain:FILE:RE_Q:IM_Q[:LAMBDA]")
        regular = load_state(parts[0])
        if regular.k_max != k_max:
            raise InputError(f"state file k_max {regular.k_max} != configured {k_max}")
        re_q, im_q, *lam = (parse_number(v, float, "psi0 domain field") for v in parts[1:])
        return DomainState(regular, complex(re_q, im_q), SpectralShift(*lam))
    raise InputError(f"unknown psi0 source {descriptor!r} (use eig:K | file:PATH | domain:...)")


def _parse_alpha(descriptor: str, t_end: float) -> CouplingProfile:
    kind, _, rest = descriptor.partition(":")
    if kind == "zero":
        return CouplingProfile.zero(t_end)
    if kind == "const":
        return CouplingProfile.constant(parse_number(rest, float, "alpha const:A"), t_end)
    if kind == "bump":
        return CouplingProfile.sine_bump(parse_number(rest, float, "alpha bump:A"), t_end)
    if kind == "pl":
        try:
            samples = np.loadtxt(rest, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise InputError(f"{rest}: {exc}") from None
        if samples.shape[1] < 2:
            raise InputError(f"{rest}: expected CSV rows t,alpha")
        grid = TimeGrid(t_end, samples.shape[0] - 1)
        if not np.max(np.abs(samples[:, 0] - grid.times)) <= 1e-9 * t_end:  # NaN fails too
            raise InputError(f"{rest}: the t column must be the uniform grid "
                             f"t_n = n*T/N on [0, T={t_end!r}]")
        return CouplingProfile.piecewise_linear(grid, samples[:, 1] + 0j)
    raise InputError(f"unknown alpha descriptor {descriptor!r} "
                     "(use zero | const:A | bump:A | pl:FILE)")


def _load_config(path: str, allowed: set[str]) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read(), allowed, source=path)


def cmd_simulate(args) -> int:
    cfg = {
        "psi0": args.psi0, "alpha": args.alpha, "T": repr(args.T),
        "n_steps": str(args.n_steps), "k_max": str(args.k_max),
        "store_every": str(args.store_every),
    }
    if args.config:
        file_cfg = _load_config(args.config, _SIMULATE_KEYS)
        cfg.update(file_cfg)
    t_end, n_steps, k_max, store_every = (
        parse_number(cfg[key], kind, key) for key, kind in
        (("T", float), ("n_steps", int), ("k_max", int), ("store_every", int)))
    tol_norm, tol_boundary = (parse_number(str(cfg.get(key, getattr(args, key))), float, key)
                              for key in ("tol_norm_drift", "tol_boundary"))
    if not (t_end > 0 and np.isfinite(t_end)):
        raise InputError("T must be positive and finite")
    grid = TimeGrid(t_end, n_steps)
    psi0 = _parse_psi0(cfg["psi0"], k_max)
    alpha = _parse_alpha(cfg["alpha"], t_end)
    outdir = _outdir(cfg.get("outdir", args.outdir))
    chash = config_hash(cfg)

    result = evolve(psi0, alpha, grid, k_max, store_every=store_every)
    report = diagnostics(result, alpha)

    os.makedirs(outdir, exist_ok=True)
    header = {"config_hash": chash, "dt": repr(grid.dt), "k_max": k_max,
              "alpha": cfg["alpha"], "tool_version": __version__}
    traj_path = os.path.join(outdir, "trajectory.csv")
    save_trajectory_csv(traj_path, grid.times, result.charge.q, header)
    state_path = os.path.join(outdir, "final_state.txt")
    save_state(state_path, result.final_state)
    manifest_path = os.path.join(outdir, "manifest.txt")
    write_manifest(manifest_path, {
        "inputs": {**cfg, "config_hash": chash},
        "outputs": {"trajectory": traj_path, "final_state": state_path},
        "diagnostics": {
            "norm_drift": repr(report.norm_drift),
            "boundary_residual_max": repr(report.max_boundary_residual),
            "energy_drift": repr(report.energy_drift),
            "energy_balance_rel": repr(report.energy_balance_relative),
        },
    })
    print(report.to_text())
    print(f"artifacts in {outdir} (config {chash})")

    code = EXIT_OK
    for name, value, tol, per_node in (
            ("norm_drift", report.norm_drift, tol_norm, np.abs(result.norm - result.norm[0])),
            ("boundary_residual_max", report.max_boundary_residual, tol_boundary,
             result.boundary_residual)):
        if value > tol:
            n = int(np.argmax(per_node))
            print(f"diagnostic tolerance exceeded: {name} {value:.6e} > tolerance {tol:.6e}, "
                  f"peak at node {n} (t={float(grid.times[n])!r})", file=sys.stderr)
            code = EXIT_SOLVER
    return code


def cmd_spectrum(args) -> int:
    window = default_window(args.k_max)
    if args.window:
        window = tuple(parse_number(v, float, "window LO:HI")
                       for v in args.window.partition(":")[::2])
    eigs = static_eigenvalues(args.alpha, window, args.k_max)
    outdir = _outdir(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "spectrum.csv")
    save_spectrum_csv(path, eigs, {"alpha": repr(args.alpha),
                                   "window": f"{window[0]}:{window[1]}",
                                   "k_max": args.k_max})
    for energy, sector in eigs:
        print(f"{energy!r},{sector}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_green(args) -> int:
    z = complex(args.z_re, args.z_im)
    closed = green_closed(args.x, args.xp, z)
    series = green_series(args.x, args.xp, z, args.k_max)
    print(f"closed  {closed.real!r} {closed.imag!r}")
    print(f"series  {series.real!r} {series.imag!r}  (k_max={args.k_max})")
    print(f"|diff|  {abs(closed - series)!r}")
    if args.x == 0 and args.xp == 0:
        print(f"origin  {green_origin(z).real!r} {green_origin(z).imag!r}")
    return EXIT_OK


def cmd_control(args) -> int:
    t_end = args.T * np.pi if args.T_in_pi else args.T
    target_c = load_target_csv(args.target, args.k_max)
    target = ControlTarget(target_c, t_end)
    rho = solve_moment(target)
    residual = moment_residual(rho, target)
    control = synthesize_control(target, args.k_bar)
    outdir = _outdir(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    upath = os.path.join(outdir, "control.csv")
    save_control_csv(upath, control.grid.times, control.u,
                     {"k_bar": args.k_bar, "T": repr(t_end),
                      "realness_defect": repr(control.realness_defect)})
    report_lines = [
        f"horizon {t_end!r}",
        f"moment_residual {residual!r}",
        f"realness_defect {control.realness_defect!r}",
    ]
    if args.experiment:
        grid = TimeGrid(t_end, args.n_steps)
        norm = target_c.norm()
        if norm == 0:
            raise InputError("experiment needs a nonzero target direction")
        direction = ControlTarget(target_c.scaled(1.0 / norm), t_end)
        rep = controllability_experiment(args.k_bar, [1e-1, 3e-2, 1e-2],
                                         direction, grid, args.k_max)
        report_lines.append(rep.to_text())
    report = "\n".join(report_lines) + "\n"
    rpath = os.path.join(outdir, "control_report.txt")
    atomic_write_text(rpath, report)
    print(report, end="")
    print(f"wrote {upath}, {rpath}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(args.filter, args.k_max, args.seed)
    lines = [r.line() for r in results]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        atomic_write_text(args.out, text)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_SOLVER


def cmd_sweep(args) -> int:
    outdir = _outdir(args.outdir)
    os.makedirs(outdir, exist_ok=True)
    if args.what == "charge-dt":
        levels = [parse_number(x, float, "levels") for x in args.levels.split(",")] \
            if args.levels else (4e-3, 2e-3, 1e-3)
        rows, slope = charge_dt_sweep(levels)
        header, min_slope = "dt,sup_error", args.min_slope if args.min_slope else 1.9
    elif args.what == "green-kmax":
        levels = [int(parse_number(x, float, "levels")) for x in args.levels.split(",")] \
            if args.levels else (1000, 10000, 100000)
        rows, slope = green_kmax_sweep(levels)
        header, min_slope = "k_max,abs_error", args.min_slope if args.min_slope else 0.9
    else:
        raise InputError(f"unknown sweep {args.what!r} (charge-dt | green-kmax)")
    path = os.path.join(outdir, f"sweep_{args.what}.csv")
    lines = [f"# slope={slope!r}", header]
    lines += [f"{level!r},{err!r}" for level, err in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")
    for level, err in rows:
        print(f"{level!r},{err!r}")
    print(f"slope {slope!r} (minimum {min_slope}); wrote {path}")
    return EXIT_OK if slope >= min_slope else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltabox",
        description="Quantum box with a time-dependent point interaction: "
                    "propagation, spectra, and control synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="propagate a state under a coupling profile")
    p.add_argument("--psi0", default="eig:1", help="eig:K | file:PATH | domain:FILE:RE:IM[:LAM]")
    p.add_argument("--alpha", default="zero", help="zero | const:A | bump:A | pl:FILE")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--n-steps", type=int, default=1000, dest="n_steps")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--outdir", default="out")
    p.add_argument("--store-every", type=int, default=10, dest="store_every")
    p.add_argument("--tol-norm-drift", type=float, default=1e-6, dest="tol_norm_drift")
    p.add_argument("--tol-boundary", type=float, default=1e-8, dest="tol_boundary")
    p.add_argument("--config", help="key=value config file (version=1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="static eigenvalues of the coupled box")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--window", help="LO:HI energy window")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("green", help="evaluate the box Green's function")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--xp", type=float, default=0.0)
    p.add_argument("--z-re", type=float, default=1.0, dest="z_re")
    p.add_argument("--z-im", type=float, default=0.0, dest="z_im")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("control", help="moment-problem control synthesis")
    p.add_argument("--target", required=True, help="CSV k,re_c,im_c")
    p.add_argument("--k-bar", type=int, default=1, dest="k_bar")
    p.add_argument("--T", type=float, default=8.0, help="horizon (in pi units by default)")
    p.add_argument("--T-in-pi", action=argparse.BooleanOptionalAction, default=True,
                   dest="T_in_pi")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--n-steps", type=int, default=25133, dest="n_steps")
    p.add_argument("--experiment", action="store_true",
                   help="run the nonlinear steering experiment")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--filter", help="restrict to one module")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="convergence-order studies")
    p.add_argument("--what", default="charge-dt", help="charge-dt | green-kmax")
    p.add_argument("--levels", help="comma-separated refinement levels (>=3)")
    p.add_argument("--min-slope", type=float, dest="min_slope")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
