"""Turn perfbench run records of a parent/change comparison into a committed BENCH file.

    python3 tools/bench_record.py --label LABEL --parent DIR [DIR ...] --change DIR [DIR ...]

Each DIR is a copy of one `.bench_out/<workload>-seed<N>-trace0/` directory that
`perfbench/run.py --trace 0` wrote: its `run.json` and the `work/` outputs of
its last iteration.  The i-th parent directory and the i-th change directory
form a pair: the same workload and seed, run back to back, alternating which
side runs first.  The script writes `BENCH_<LABEL>.json` at the root of the
checkout.  Per workload it holds each side's median and quartiles of the
per-run scaled medians (and of the unscaled ones), the pairs the change won,
the iterations attempted and failed, the git SHA and source digest of each
side, and how far the change's outputs are from the parent's.  Once per file
it holds the machine as run.json records it, the CPU and platform of the host
that ran this script, numpy's BLAS configuration, and the verdict of the
verify battery on each side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "run.json")) as fh:
        return json.load(fh)


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _numeric_rows(path: str) -> list[list[float]]:
    with open(path) as fh:
        return [[float(v) for v in ln.split(",")] for ln in fh
                if ln.strip() and not ln.startswith("#") and not ln[0].isalpha()]


def _output_deviation(parent_work: str, change_work: str) -> dict:
    """Per output file of both sides: 'bit-identical', the largest absolute
    difference of its numbers, or 'differs' for a text file."""
    out = {}
    for name in sorted(set(os.listdir(parent_work)) & set(os.listdir(change_work))):
        paths = [os.path.join(side, name) for side in (parent_work, change_work)]
        if not all(os.path.isfile(p) for p in paths):
            continue
        blobs = []
        for p in paths:
            with open(p, "rb") as fh:
                blobs.append(fh.read())
        if blobs[0] == blobs[1]:
            out[name] = "bit-identical"
            continue
        try:
            a, b = (_numeric_rows(p) for p in paths)
        except ValueError:
            out[name] = "differs"
            continue
        if not a or len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
            out[name] = "differs"
        else:
            out[name] = max(abs(u - v) for x, y in zip(a, b) for u, v in zip(x, y))
    return out


def _worst(deviations: list[dict]) -> dict:
    """Across pairs, the worst deviation per file ('differs' beats any number)."""
    worst = {}
    for name in sorted({name for dev in deviations for name in dev}):
        values = [dev[name] for dev in deviations if name in dev]
        numbers = [v for v in values if not isinstance(v, str)]
        worst[name] = ("differs" if "differs" in values
                       else max(numbers) if numbers else "bit-identical")
    return worst


def _verify_verdict(run_dir: str) -> str | None:
    report = os.path.join(run_dir, "work", "verify_report.txt")
    if not os.path.isfile(report):
        return None
    with open(report) as fh:
        lines = [ln for ln in fh if ln.strip()]
    passed = sum(ln.startswith("PASS ") for ln in lines)
    return f"{passed}/{len(lines)} checks passed"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record(parent_dirs: list[str], change_dirs: list[str]) -> dict:
    if len(parent_dirs) != len(change_dirs):
        raise SystemExit("need as many change runs as parent runs (one pair each)")
    runs = [(p, c, _load(p), _load(c)) for p, c in zip(parent_dirs, change_dirs)]
    workloads: dict = {}
    for p_dir, c_dir, p_run, c_run in runs:
        if (p_run["workload"], p_run["seed"], p_run["trace"]) != (
                c_run["workload"], c_run["seed"], c_run["trace"]) or p_run["trace"]:
            raise SystemExit(f"{p_dir} and {c_dir} are not an untraced pair of one workload/seed")
        workloads.setdefault(p_run["workload"], []).append((p_dir, c_dir, p_run, c_run))

    first = runs[0][3]
    out = {
        "benchmark": "perfbench/run.py --trace 0; every time scaled to the reference speed",
        "machine": {"nproc": first["nproc"], "affinity_cpus": first["affinity_cpus"],
                    "python": first["environment"]["python"],
                    "numpy": first["environment"]["numpy"], "threads": first["thread_env"],
                    "blas_threads_runtime": first["environment"]["blas_threads_runtime"]},
        # run.json names no CPU or kernel: these are the host that ran this script,
        # which is the benchmark machine only when the runs were recorded in place
        "recording_host": {"cpu": _cpu_model(), "platform": platform.platform()},
        # numpy's BLAS as built; its build-machine directories say nothing about this run
        "blas": {key: value for key, value in
                 first["environment"]["numpy_config"]["Build Dependencies"]["blas"].items()
                 if not key.endswith("directory")},
        "workloads": {},
    }
    for name, pairs in workloads.items():
        entry = {
            "pairs": len(pairs), "seeds": [p_run["seed"] for _, _, p_run, _ in pairs],
            "seconds": pairs[0][2]["seconds"],
            "git_sha": {"parent": sorted({r["git_sha"] for _, _, r, _ in pairs}, key=str),
                        "change": sorted({r["git_sha"] for _, _, _, r in pairs}, key=str)},
            "src_sha256": {"parent": sorted({r["src_sha256"] for _, _, r, _ in pairs}),
                           "change": sorted({r["src_sha256"] for _, _, _, r in pairs})},
            "iterations": {
                side: {"attempted": sum(len(r["iterations"]) for r in side_runs),
                       "failed": sum(1 for r in side_runs for it in r["iterations"]
                                     if it["problems"])}
                for side, side_runs in (("parent", [r for _, _, r, _ in pairs]),
                                        ("change", [r for _, _, _, r in pairs]))},
            "metrics": {},
            "output_deviation": _worst([_output_deviation(os.path.join(p, "work"),
                                                          os.path.join(c, "work"))
                                        for p, c, _, _ in pairs]),
        }
        for metric, spec in pairs[0][2]["metrics"].items():
            parent = [r["metrics"][metric]["value"] for _, _, r, _ in pairs]
            change = [r["metrics"][metric]["value"] for _, _, _, r in pairs]
            entry["metrics"][metric] = {
                "unit": spec["unit"],
                "parent": _spread(parent), "change": _spread(change),
                "parent_unscaled": _spread([r["metrics"][metric]["raw_median"]
                                            for _, _, r, _ in pairs]),
                "change_unscaled": _spread([r["metrics"][metric]["raw_median"]
                                            for _, _, _, r in pairs]),
                "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            }
        if name == "verify":
            entry["verdict"] = {"parent": _verify_verdict(pairs[-1][0]),
                                "change": _verify_verdict(pairs[-1][1])}
        out["workloads"][name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", nargs="+", required=True, help="parent run directories")
    parser.add_argument("--change", nargs="+", required=True, help="change run directories")
    args = parser.parse_args(argv)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    bench = record(args.parent, args.change)
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
