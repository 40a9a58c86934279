"""Command-line front end: simulate, spectrum, green, control, verify, sweep.

Exit codes: 0 success, 1 configuration/validation problem, 2 solver failure,
3 file I/O failure.  simulate, spectrum, control and sweep compute first, then
write once through `_write_run`: their artifacts in the output directory
(DELTABOX_OUTDIR overrides it), then manifest.txt, last.  Every
numeric field of user input goes through iofiles.parse_number, so a malformed
value is a configuration error, never a traceback: numeric flags are read as
text and converted in `main` (each subcommand lists its own in `numbers`);
simulate's, which a config file may also set, in `cmd_simulate` after the merge.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import textwrap
import warnings

import numpy as np

from . import __version__
from .charge import CouplingProfile
from .control import (
    ControlTarget,
    _frequency_collisions,
    apply_linearized,
    controllability_experiment,
    real_moments,
    synthesize_control,
)
from .convergence import charge_dt_sweep, green_kmax_sweep
from .errors import InputError, SingularityError, SolverError
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
from .kernels import runtime_record
from .propagator import DomainState, diagnostics, evolve
from .spectral import DEFAULT_K_MAX, SpectralCoefficients, TimeGrid
# verify (and through it oracles) is imported eagerly although only `verify`
# runs it: perfbench/tracer.py looks both up in sys.modules right after this
# module is imported.  Both need numpy alone, so they are cheap.
from .verify import CHECKS, DEFAULT_SEED, run_checks

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_IO = 0, 1, 2, 3
# `control` fails (exit 2, after writing its artifacts) when the written control's
# first-order residual exceeds this fraction of the target's largest |c_k|
CONTROL_RESIDUAL_REL = 1e-2

_SIMULATE_KEYS = {"psi0", "alpha", "T", "n_steps", "k_max", "outdir",
                  "tol_norm_drift", "tol_boundary"}


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
        try:
            shift = SpectralShift(*lam)
        except SingularityError as exc:
            raise InputError(f"psi0 domain LAMBDA: {exc}") from None
        return DomainState(regular, complex(re_q, im_q), shift)
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
            with warnings.catch_warnings():
                # an empty file is a configuration error below, not a warning
                warnings.simplefilter("ignore", UserWarning)
                samples = np.loadtxt(rest, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise InputError(f"{rest}: {exc}") from None
        if samples.shape[1] < 2:
            raise InputError(f"{rest}: expected CSV rows t,alpha")
        grid = TimeGrid(t_end, samples.shape[0] - 1)
        if not np.max(np.abs(samples[:, 0] - grid.times)) <= 1e-9 * t_end:  # NaN fails too
            raise InputError(f"{rest}: the t column must be the uniform grid "
                             f"t_n = n*T/N on [0, T={t_end!r}]")
        return CouplingProfile.piecewise_linear(grid, samples[:, 1])
    raise InputError(f"unknown alpha descriptor {descriptor!r} "
                     "(use zero | const:A | bump:A | pl:FILE)")


def _by_contents(descriptor: str) -> str:
    """A psi0/alpha descriptor with its file path (file:, domain:, pl:) replaced by
    the sha256 of the file's bytes, so the same inputs hash alike at any path."""
    kind, _, rest = descriptor.partition(":")
    if kind not in ("file", "domain", "pl"):
        return descriptor
    path, sep, fields = rest.partition(":") if kind == "domain" else (rest, "", "")
    with open(path, "rb") as fh:
        return f"{kind}:{hashlib.sha256(fh.read()).hexdigest()}{sep}{fields}"


def _write_run(outdir: str, artifacts: dict, sections: dict) -> None:
    """Every command's one write, after its computation: each artifact, file name ->
    (writer, *args), as writer(path, *args) in outdir (or DELTABOX_OUTDIR), then
    manifest.txt last (so a manifest means the run completed) with the command's
    sections (`inputs` first, with its config_hash), `outputs` and `runtime`."""
    outdir = os.environ.get("DELTABOX_OUTDIR", outdir)
    paths = {name: os.path.join(outdir, name) for name in artifacts}
    for name, (writer, *args) in artifacts.items():
        writer(paths[name], *args)
    write_manifest(os.path.join(outdir, "manifest.txt"),
                   {**sections, "outputs": paths, "runtime": runtime_record()})
    print(f"artifacts in {outdir} (config {sections['inputs']['config_hash']})")


def cmd_simulate(args) -> int:
    cfg = {"psi0": args.psi0, "alpha": args.alpha, "T": str(args.T),
           "n_steps": str(args.n_steps), "k_max": str(args.k_max)}
    from_file = {}
    if args.config:
        with open(args.config) as fh:
            from_file = parse_config_text(fh.read(), _SIMULATE_KEYS, source=args.config)
        cfg.update(from_file)
    # each number is parsed once, and an error names the config key or flag that set it
    names = {key: f"{args.config}: {key}" if key in from_file else "--" + key.replace("_", "-")
             for key in ("T", "n_steps", "k_max", "tol_norm_drift", "tol_boundary")}
    t_end, n_steps, k_max, tol_norm, tol_boundary = (
        parse_number(str(cfg.get(key, getattr(args, key))), kind, names[key])
        for key, kind in zip(names, (float, int, int, float, float)))
    if k_max < 1:
        raise InputError(f"{names['k_max']} must be at least 1, got {k_max}")
    if not (t_end > 0 and np.isfinite(t_end)):
        raise InputError("T must be positive and finite")
    grid = TimeGrid(t_end, n_steps)
    psi0 = _parse_psi0(cfg["psi0"], k_max)
    alpha = _parse_alpha(cfg["alpha"], t_end)
    # only what decides the artifacts' numbers: not outdir, not the tolerances
    chash = config_hash({"psi0": _by_contents(cfg["psi0"]), "alpha": _by_contents(cfg["alpha"]),
                         "T": repr(t_end), "n_steps": repr(n_steps), "k_max": repr(k_max)})

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value fails its tolerance
        result = evolve(psi0, alpha, grid)
        report = diagnostics(result, alpha)

    for name, value in report.items():
        print(f"{name:<21} {value:.6e}")
    exceeded = []
    for name, tol, per_node in (("norm_drift", tol_norm, np.abs(result.norm - result.norm[0])),
                                ("boundary_residual_max", tol_boundary, result.boundary_residual)):
        if not report[name] <= tol:  # a NaN fails too, peaking at its first node
            n = int(np.argmax(per_node))
            print(f"diagnostic tolerance exceeded: {name} {report[name]:.6e} > tolerance "
                  f"{tol:.6e}, peak at node {n} (t={float(grid.times[n])!r})", file=sys.stderr)
            exceeded.append(name)
    diag = {name: repr(value) for name, value in report.items()}
    if exceeded:  # so a failed run's manifest says which; a passing run's has no such key
        diag["tolerance_exceeded"] = ",".join(exceeded)
    header = {"config_hash": chash, "dt": repr(grid.dt), "k_max": k_max,
              "alpha": cfg["alpha"], "tool_version": __version__}
    _write_run(cfg.get("outdir", args.outdir),
               {"trajectory.csv": (save_trajectory_csv, grid.times, result.charge.q, header),
                "final_state.txt": (save_state, result.final_state)},
               {"inputs": {**cfg, "config_hash": chash}, "diagnostics": diag})
    return EXIT_SOLVER if exceeded else EXIT_OK


def cmd_spectrum(args) -> int:
    window = default_window(args.k_max)
    if args.window:
        lo, hi = (parse_number(v, float, "window LO:HI") for v in args.window.partition(":")[::2])
        if not lo < hi:
            raise InputError(f"--window {args.window!r} is empty: HI must exceed LO")
        if hi > window[1]:  # the odd sector alone has a level at every m^2 <= HI
            raise InputError(f"--window HI {hi!r} exceeds {window[1]!r}, the top of the "
                             f"range that --k-max {args.k_max} resolves; raise --k-max")
        window = (lo, hi)
    eigs = static_eigenvalues(args.alpha, window)
    for energy, sector in eigs:
        print(f"{energy!r},{sector}")
    fields = {"alpha": repr(args.alpha), "window": f"{window[0]}:{window[1]}",
              "k_max": args.k_max}
    _write_run(args.outdir, {"spectrum.csv": (save_spectrum_csv, eigs, fields)},
               {"inputs": {**fields, "config_hash": config_hash(fields)}})
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
    t_end = args.T * np.pi
    target = ControlTarget(load_target_csv(args.target, args.k_max), t_end)
    grid = TimeGrid(t_end, args.n_steps)
    alpha = synthesize_control(target, args.k_bar, grid)
    unreachable = np.abs(real_moments(target, args.k_bar, grid)[1])
    reach = apply_linearized(CouplingProfile.zero(t_end), alpha.samples,
                             SpectralCoefficients.unit(args.k_bar, args.k_max), grid)
    errors = np.abs(target.c.a - reach.a)[0::2]
    residual = float(np.max(errors))
    report_lines = [f"horizon {t_end!r}", f"moment_residual {residual!r}",
                    f"unreachable {float(np.max(unreachable))!r}"]
    if args.experiment:
        rep = controllability_experiment(args.k_bar, [1e-1, 3e-2, 1e-2], target, alpha,
                                         reach)
        report_lines.append(rep.to_text())
    report = "\n".join(report_lines) + "\n"
    print(report, end="")
    inputs = {"target": args.target, "k_bar": args.k_bar, "T": repr(args.T),
              "k_max": args.k_max, "n_steps": args.n_steps, "experiment": args.experiment}
    # the target hashes by its bytes, as a simulate file: input does; outdir does not enter
    chash = config_hash({**inputs, "target": _by_contents(f"file:{args.target}")})
    _write_run(args.outdir,
               {"control.csv": (save_control_csv, alpha, {"k_bar": args.k_bar, "T": repr(t_end)}),
                "control_report.txt": (atomic_write_text, report)},
               {"inputs": {**inputs, "config_hash": chash}})

    bound = CONTROL_RESIDUAL_REL * float(np.max(np.abs(target.c.a)))
    if residual > bound:
        pairs = [(j, k) for j, k in _frequency_collisions(args.k_bar, args.k_max)
                 + [(args.k_bar, args.k_bar)] if unreachable[j // 2] or unreachable[k // 2]]
        print(f"control misses its target: moment_residual {residual:.6e} > "
              f"{CONTROL_RESIDUAL_REL:g} * max|c_k| = {bound:.6e}; worst mode "
              f"k={2 * int(np.argmax(errors)) + 1}; unreachable pairs "
              f"(j^2+k^2=2*k_bar^2): {pairs or 'none'}", file=sys.stderr)
        return EXIT_SOLVER
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
    if args.what == "charge-dt":
        sweep, header, min_slope = charge_dt_sweep, "dt,sup_error", 1.9
    elif args.what == "green-kmax":
        sweep, header, min_slope = green_kmax_sweep, "k_max,abs_error", 0.9
    else:
        raise InputError(f"unknown sweep {args.what!r} (charge-dt | green-kmax)")
    if args.min_slope is not None:
        min_slope = parse_number(args.min_slope, float, "--min-slope")
    if args.levels:
        rows, slope = sweep([parse_number(x, float, "levels") for x in args.levels.split(",")])
    else:
        rows, slope = sweep()
    lines = [f"# slope={slope!r}", header]
    lines += [f"{level!r},{err!r}" for level, err in rows]
    print(*lines[2:], sep="\n")
    print(f"slope {slope!r} (minimum {min_slope});", end=" ")  # the artifacts line follows
    # the levels as swept (sorted, defaults filled in); --min-slope decides only the exit
    inputs = {"what": args.what, "levels": ",".join(repr(level) for level, _ in rows)}
    _write_run(args.outdir,
               {f"sweep_{args.what}.csv": (atomic_write_text, "\n".join(lines) + "\n")},
               {"inputs": {**inputs, "config_hash": config_hash(inputs)}})
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
    p.add_argument("--T", default=1.0)
    p.add_argument("--n-steps", default=1000, dest="n_steps")
    p.add_argument("--k-max", default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--outdir", default="out")
    p.add_argument("--tol-norm-drift", default=1e-6, dest="tol_norm_drift")
    p.add_argument("--tol-boundary", default=1e-8, dest="tol_boundary")
    p.add_argument("--config", help="key=value config file (version=1)")
    p.set_defaults(func=cmd_simulate, numbers={})  # parsed after the config merge

    p = sub.add_parser("spectrum", help="static eigenvalues of the coupled box")
    p.add_argument("--alpha", required=True)
    p.add_argument("--window", help="LO:HI energy window")
    p.add_argument("--k-max", default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_spectrum, numbers={"alpha": float, "k_max": int})

    p = sub.add_parser("green", help="evaluate the box Green's function")
    p.add_argument("--x", default=0.0)
    p.add_argument("--xp", default=0.0)
    p.add_argument("--z-re", default=1.0, dest="z_re")
    p.add_argument("--z-im", default=0.0, dest="z_im")
    p.add_argument("--k-max", default=DEFAULT_K_MAX, dest="k_max")
    p.set_defaults(func=cmd_green, numbers={"x": float, "xp": float, "z_re": float,
                                            "z_im": float, "k_max": int})

    p = sub.add_parser("control", help="moment-problem control synthesis")
    p.add_argument("--target", required=True, help="CSV k,re_c,im_c")
    p.add_argument("--k-bar", default=1, dest="k_bar")
    p.add_argument("--T", default=8.0, help="horizon in pi units")
    p.add_argument("--k-max", default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--n-steps", default=25133, dest="n_steps")
    p.add_argument("--experiment", action="store_true",
                   help="run the nonlinear steering experiment")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_control, numbers={"k_bar": int, "T": float, "k_max": int,
                                              "n_steps": int})

    # help wrapped here, not by argparse, so that no check name breaks at a hyphen
    p = sub.add_parser("verify", help="run the invariant battery",
                       formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--filter", help="restrict to one module")
    reach = {name: textwrap.fill("read only by " + ", ".join(
        f"{fn.module}.{fn.name}" for fn in CHECKS if name in fn.inputs), 54,
        break_on_hyphens=False) for name in ("k_max", "seed")}
    p.add_argument("--k-max", default=DEFAULT_K_MAX, dest="k_max", help=reach["k_max"])
    p.add_argument("--seed", default=DEFAULT_SEED, help=reach["seed"])
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_verify, numbers={"k_max": int, "seed": int})

    p = sub.add_parser("sweep", help="convergence-order studies")
    p.add_argument("--what", default="charge-dt", help="charge-dt | green-kmax")
    p.add_argument("--levels", help="comma-separated refinement levels (>=3)")
    p.add_argument("--min-slope", dest="min_slope")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_sweep, numbers={})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        for dest, kind in args.numbers.items():
            flag = "--" + dest.replace("_", "-")
            setattr(args, dest, parse_number(getattr(args, dest), kind, flag))
        if "k_max" in args.numbers and args.k_max < 1:
            raise InputError(f"--k-max must be at least 1, got {args.k_max}")
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
