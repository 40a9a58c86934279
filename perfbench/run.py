"""deltabox benchmark: runs the CLI on seeded inputs and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload simulate|steer|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; `src/deltabox` is imported from there.  Each
iteration is one CLI invocation in a fresh interpreter (perfbench/child.py),
run one after another with one BLAS/OpenMP thread, for as many iterations
(at least three) as fit in S seconds.  Every iteration's output goes through the
correctness gate; a simulate run at another seed than the reference seed also
runs the reference seed once and checks it against the stored outputs.  Each
iteration's times are scaled to the reference machine speed by calibration
kernels run next to them (speed.py).  With --trace 0 the result holds the
end-to-end metrics, medians over iterations.  With --trace 1 it holds the
per-layer metrics of traced iterations, interleaved with untraced ones for the
tracing overhead.  The last line of standard output is the JSON result; a
record of the run (environment, raw and scaled samples, gate verdicts,
per-span summary) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import inputs
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_ITERATIONS = 3
RUN_DEADLINE_S = 170.0  # the harness must exit within 180 s

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
SCALED = ("wall_s", "cpu_s", "setup_s")  # times scaled to the reference speed (speed.py)

# Per-layer metrics.  Times are reported only for spans that every workload
# enters, so no time reads a constant zero; spans that some workloads skip
# report their call counts, and their times stay in the run record.
TIMED_FUNCTIONS = ("charge._march", "charge.solve_charge", "spectral.free_origin_series",
                   "kernels.slope_moments", "kernels.phi1", "propagator.evolve")
COUNTED_FUNCTIONS = ("charge.apply_U", "kernels.segment_moments", "propagator.assemble_F",
                     "propagator.diagnostics", "control.gamma", "control.apply_linearized",
                     "control.solve_moment", "control.moment_residual")
TIMED_LAYERS = ("spectral", "greens", "kernels", "charge", "propagator", "iofiles", "cli")
COUNTED_LAYERS = ("control", "oracles", "verify")


def cli_args(workload: str, seed: int, workdir: str, input_dir: str) -> list[str]:
    if workload == "simulate":
        state, alpha = inputs.write_simulate_inputs(seed, input_dir)
        return ["simulate", "--psi0", f"file:{state}", "--alpha", f"pl:{alpha}",
                "--T", repr(inputs.T_END), "--n-steps", str(inputs.N_STEPS),
                "--k-max", str(inputs.K_MAX), "--outdir", workdir]
    if workload == "steer":
        target = inputs.write_steer_target(seed, input_dir)
        return ["control", "--target", target, "--k-bar", "1", "--experiment",
                "--T", "8", "--n-steps", str(inputs.N_STEPS), "--k-max", str(inputs.K_MAX),
                "--outdir", workdir]
    return ["verify", "--seed", str(seed), "--out", os.path.join(workdir, "verify_report.txt")]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DELTABOX_OUTDIR", "DELTABOX_THREADS", "PYTHONPATH")}
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def run_child(run_dir: str, args: list[str], trace: bool, deadline: float) -> dict:
    """One fresh interpreter; returns its record, or {'error': ...} if it did not finish."""
    result_path = os.path.join(run_dir, "child.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, result_path,
           "1" if trace else "0", *args]
    with open(os.path.join(run_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(run_dir, "stderr.txt"), "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return {"error": "timed out"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"harness child exited {proc.returncode}"}
    with open(result_path) as fh:
        return json.load(fh)


def layer_metrics(summary: dict, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced iteration, name -> (value, unit).

    Times are multiplied by `scale`, the iteration's speed factor.
    """
    out = {}
    for name in TIMED_FUNCTIONS + COUNTED_FUNCTIONS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (entry["calls"], "count")
        if name in TIMED_FUNCTIONS:
            out[f"{name}.self_s"] = (entry["self_s"] * scale, "s")
    march = summary.get("charge._march", {})
    out["charge._march.steps"] = (march.get("steps", 0), "count")
    out["charge._march.mode_steps"] = (march.get("mode_steps", 0), "count")
    series = summary.get("spectral.free_origin_series", {})
    points = series.get("mode_points", 0)
    out["spectral.free_origin_series.mode_points"] = (points, "count")
    out["spectral.free_origin_series.useful_frac"] = (
        series.get("useful_points", 0) / points if points else 0.0, "ratio")
    for layer in TIMED_LAYERS + COUNTED_LAYERS:
        entries = [v for k, v in summary.items() if k.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(e["calls"] for e in entries), "count")
        if layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = (sum(e["self_s"] for e in entries) * scale, "s")
    out["iofiles.bytes"] = (
        sum(summary.get(name, {}).get("bytes", 0) for name in tracer.IO_LEAVES), "bytes")
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "deltabox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def median(values):
    return statistics.median(values) if values else float("nan")


def run_iteration(run_dir: str, args: list[str], workdir: str, workload: str,
                  gate_seed: int, traced: bool, deadline: float) -> dict:
    """One gated CLI invocation."""
    shutil.rmtree(workdir, ignore_errors=True)
    rec = run_child(run_dir, args, traced, deadline)
    rec["traced"] = traced
    rec["problems"] = ([rec["error"]] if "error" in rec
                       else gate.check(workload, workdir, gate_seed, rec["exit_code"]))
    if rec["problems"]:
        with open(os.path.join(run_dir, "stderr.txt")) as fh:
            rec["stderr_tail"] = fh.read()[-2000:]
    if traced and "spans" in rec:
        rec["summary"] = tracer.summarize(rec.pop("spans"))
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir = os.path.join(run_dir, "inputs")
    workdir = os.path.join(run_dir, "work")
    os.makedirs(input_dir)
    args = cli_args(workload, seed, workdir, input_dir)

    iterations = []
    # Only the reference seed has stored simulate outputs, so a run at any
    # other seed first checks the program on that seed; the iteration counts
    # as attempted but gives no samples.
    if workload == "simulate" and seed != gate.REFERENCE_SEED:
        reference_inputs = os.path.join(run_dir, "reference-inputs")
        os.makedirs(reference_inputs)
        reference_args = cli_args(workload, gate.REFERENCE_SEED, workdir, reference_inputs)
        rec = run_iteration(run_dir, reference_args, workdir, workload, gate.REFERENCE_SEED,
                            False, deadline)
        rec["reference"] = True
        iterations.append(rec)

    # Start another iteration while one more is expected to end within the
    # measuring window, judged by the median iteration so far.
    timed, durations = [], []
    while time.monotonic() < deadline and (
            len(timed) < MIN_ITERATIONS
            or time.monotonic() - start + median(durations) <= seconds):
        began = time.monotonic()
        traced = trace and len(timed) % 2 == 1
        rec = run_iteration(run_dir, args, workdir, workload, seed, traced, deadline)
        timed.append(rec)
        durations.append(time.monotonic() - began)
    iterations += timed
    setup = [(r["import_s"], r["import_scaled"]) for r in iterations if "import_s" in r]
    environments = [r.pop("environment") for r in iterations if "environment" in r]
    ok = [r for r in timed if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    metrics = {}
    if trace:
        traced_ok = [r for r in ok if r["traced"]]
        per_iter = [layer_metrics(r["summary"], r["wall_scaled"] / r["wall_s"])
                    for r in traced_ok]
        for name, (_, unit) in per_iter[0].items() if per_iter else ():
            metrics[name] = {"value": median([m[name][0] for m in per_iter]), "unit": unit}
        overhead = (median([r["wall_scaled"] for r in traced_ok])
                    / median([r["wall_scaled"] for r in plain]) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        samples = {  # (unscaled, reported) per iteration
            "wall_s": [(r["wall_s"], r["wall_scaled"]) for r in plain],
            "cpu_s": [(r["cpu_s"], r["cpu_scaled"]) for r in plain],
            "peak_rss_mb": [(r["peak_rss_mb"], r["peak_rss_mb"]) for r in plain],
            "setup_s": setup,
        }
        for name, unit in END_TO_END.items():
            pairs = samples[name]
            metrics[name] = {"value": median([v for _, v in pairs]), "unit": unit,
                             "samples": len(pairs), "raw_median": median([v for v, _ in pairs])}

    record = {
        "workload": workload, "why": WORKLOADS[workload], "seed": seed, "seconds": seconds,
        "trace": trace, "argv": args, "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)), "threads": THREADS,
        "thread_env": {var: str(THREADS) for var in THREAD_VARS},
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "environment": environments[0] if environments else None,
        "calibration_reference_s": speed.REFERENCE_S,
        "setup_samples": setup,
        "iterations": iterations, "metrics": metrics,
        "elapsed_s": time.monotonic() - start,
    }
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "deltabox", "cli.py")):
        print(f"perfbench: no deltabox sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    iterations = record["iterations"]
    failed = sum(1 for r in iterations if r["problems"])
    for r in iterations:
        for problem in r["problems"]:
            print(f"gate FAIL: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iterations, {failed} failed, "
          f"fail_frac={failed / len(iterations):.3f}, gate {'PASS' if not failed else 'FAIL'}")
    for name, m in record["metrics"].items():
        n = f" (median of {m['samples']})" if "samples" in m else ""
        if name in SCALED and "raw_median" in m:
            n += f", unscaled {m['raw_median']!r}"
        print(f"  {name:<45} {m['value']!r} {m['unit']}{n}")
    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in record["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
