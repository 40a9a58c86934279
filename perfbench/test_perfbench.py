"""Self-tests of the benchmark: inputs, correctness gate and tracer.

    python3 -m pytest perfbench
"""

import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def _write_inputs(seed, directory):
    os.makedirs(directory)
    inputs.write_simulate_inputs(seed, directory)
    inputs.write_steer_target(seed, directory)
    return _files(directory)


def test_per_layer_names_match_benchmark_json():
    per_layer = {name: unit for name, (_, unit) in run.layer_metrics({}).items()}
    per_layer["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in run.SPEC["per_layer"]} == per_layer


def test_a_simulate_run_checks_the_reference_seed_and_scales_its_times(tmp_path, monkeypatch):
    # a machine at half the reference speed: every kernel run takes 2 * REFERENCE_S
    k = 2 * speed.REFERENCE_S
    probes = [(0.0, k, 0.0, k), (k + 0.5, 2 * k + 0.5, k + 0.5, 2 * k + 0.5),
              (2 * k + 2.5, 3 * k + 2.5, 2 * k + 2.0, 3 * k + 2.0)]
    setup, main = speed.program_time(probes[:2]), speed.program_time(probes[1:])
    assert setup[0::2] == pytest.approx((0.5, 0.25))
    assert main == pytest.approx((2.0, 1.5, 1.0, 0.75))
    checked = []
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "run_child", lambda *a: {
        "exit_code": 0, "import_s": setup[0], "import_scaled": setup[2], "wall_s": main[0],
        "cpu_s": main[1], "wall_scaled": main[2], "cpu_scaled": main[3], "peak_rss_mb": 100.0})
    monkeypatch.setattr(gate, "check", lambda w, d, seed, code: checked.append(seed) or [])
    record = run.measure("simulate", 5, 0.0, False)
    assert checked == [gate.REFERENCE_SEED] + [5] * run.MIN_ITERATIONS
    assert record["iterations"][0]["reference"]
    metrics = record["metrics"]
    assert metrics["wall_s"]["samples"] == run.MIN_ITERATIONS
    assert metrics["setup_s"]["samples"] == run.MIN_ITERATIONS + 1
    assert metrics["wall_s"]["value"] == pytest.approx(1.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(0.75)
    assert metrics["setup_s"]["value"] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"]["value"] == 100.0


def test_inputs_are_deterministic_per_seed(tmp_path):
    first = _write_inputs(7, tmp_path / "a")
    assert first == _write_inputs(7, tmp_path / "b")
    other = _write_inputs(8, tmp_path / "c")
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("seed", [0, 1, 2**31])
def test_inputs_stay_in_the_documented_domain(seed):
    a = inputs.dense_state(seed)
    assert a.shape == (inputs.K_MAX,) and abs(np.linalg.norm(a) - 1.0) < 1e-14
    t, alpha = inputs.alpha_samples(seed)
    assert t[0] == 0.0 and t[-1] == inputs.T_END
    assert np.allclose(np.diff(t), inputs.T_END / inputs.N_STEPS, rtol=0, atol=1e-14)
    assert np.max(np.abs(alpha)) <= inputs.ALPHA_MAX
    target = inputs.steer_target(seed)
    assert len(target) == 2 and set(target) <= set(inputs.STEER_MODES)
    assert abs(math.hypot(*(abs(c) for c in target.values())) - 1.0) < 1e-14


def test_predicted_moment_residual_matches_the_solver():
    sys.path.insert(0, run.SRC)
    from deltabox.control import ControlTarget, moment_residual, solve_moment
    from deltabox.spectral import SpectralCoefficients

    target = inputs.steer_target(3)
    c = np.zeros(inputs.K_MAX, dtype=complex)
    for k, v in target.items():
        c[k - 1] = v
    goal = ControlTarget(SpectralCoefficients(inputs.K_MAX, c), inputs.T_END)
    measured = moment_residual(solve_moment(goal), goal)
    assert measured == pytest.approx(gate.predicted_moment_residual(target), rel=1e-6)
    assert measured > 100 * gate.MOMENT_TOL  # the 1e-8 bound alone could not hold


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The simulate workload at the reference seed, run once through the CLI."""
    run_dir = str(tmp_path_factory.mktemp("simulate"))
    input_dir, workdir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "work")
    os.makedirs(input_dir)
    args = run.cli_args("simulate", gate.REFERENCE_SEED, workdir, input_dir)
    rec = run.run_child(run_dir, args, True, time.monotonic() + 120)
    assert rec.get("exit_code") == 0, rec
    return workdir, rec


def _edit_row(path, row, column, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = [i for i, ln in enumerate(lines) if ln and ln[0] in "-0123456789"]
    fields = lines[data[row]].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[data[row]] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("artifact,row,column", [
    ("trajectory.csv", 0, 1),            # q(0)
    ("trajectory.csv", 5000, 2),         # a stored reference node
    ("final_state.txt", 200, 1),
])
def test_gate_rejects_a_perturbed_simulate_output(reference_run, tmp_path, artifact, row, column):
    workdir, _ = reference_run
    assert gate.check("simulate", workdir, gate.REFERENCE_SEED, 0) == []
    copy = str(tmp_path / "work")
    shutil.copytree(workdir, copy)
    _edit_row(os.path.join(copy, artifact), row, column, 1e-12)
    assert gate.check("simulate", copy, gate.REFERENCE_SEED, 0)
    assert gate.check("simulate", workdir, gate.REFERENCE_SEED, 2) == ["exit code 2"]


def test_gate_rejects_a_wrong_norm_at_any_seed(reference_run, tmp_path):
    workdir, _ = reference_run
    copy = str(tmp_path / "work")
    shutil.copytree(workdir, copy)
    _edit_row(os.path.join(copy, "final_state.txt"), 0, 1, 1e-3)
    assert any("norm" in p for p in gate.check("simulate", copy, gate.REFERENCE_SEED, 0))


def _steer_report(residual, slope="2.0000", err=2.5e-2):
    return (f"horizon {inputs.T_END!r}\nmoment_residual {residual!r}\n"
            f"realness_defect 0.3\nsteering anchor k_bar=1\n"
            f"remainder slope (log-log): {slope}\n"
            f"  eps=0.1      remainder=1.26e-03 displacement_rel_err={err:.6e} im_defect=3e-02\n"
            f"  eps=0.03     remainder=1.13e-04 displacement_rel_err=7.5e-03 im_defect=1e-02\n"
            f"  eps=0.01     remainder=1.26e-05 displacement_rel_err=2.5e-03 im_defect=3e-03\n")


def test_gate_rejects_a_perturbed_steer_report(tmp_path):
    seed = 4
    floor = gate.predicted_moment_residual(inputs.steer_target(seed))
    cases = {"good": (_steer_report(floor), True),
             "residual": (_steer_report(floor + 2 * gate.MOMENT_TOL), False),
             "slope": (_steer_report(floor, slope="1.8500"), False),
             "displacement": (_steer_report(floor, err=1.5), False),
             "truncated": (_steer_report(floor).rsplit("  eps=0.01", 1)[0], False)}
    for name, (text, passes) in cases.items():
        (tmp_path / "control_report.txt").write_text(text)
        assert (gate.check("steer", str(tmp_path), seed, 0) == []) is passes, name


def test_gate_rejects_a_failed_or_missing_verify_check(tmp_path):
    lines = [f"PASS {name} measured=1.0e-12 <= 1.0e-08" for name in gate.VERIFY_CHECKS]
    report = tmp_path / "verify_report.txt"
    report.write_text("\n".join(lines) + "\n")
    assert gate.check("verify", str(tmp_path), 1, 0) == []
    report.write_text("\n".join(lines[:-1]) + "\n")
    assert gate.check("verify", str(tmp_path), 1, 0) == ["check control.lipschitz-ratio missing"]
    report.write_text("\n".join(lines + ["FAIL control.lipschitz-ratio measured=11"]) + "\n")
    assert gate.check("verify", str(tmp_path), 1, 0) != []


def test_self_times_add_up_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    traced_leaf = t.wrap("a.leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = t.wrap("a.middle", middle)
    root = t.wrap("b.root", lambda: traced_middle() + traced_leaf())
    assert root() == 3
    summary = tracer.summarize(t.spans)
    # root 0..9, middle 1..6 with leaves 2..3 and 4..5, leaf 7..8
    assert summary["b.root"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}
    assert summary["a.middle"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["a.leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert sum(e["self_s"] for e in summary.values()) == summary["b.root"]["total_s"]


def test_traced_self_times_add_up_to_traced_wall_time(reference_run):
    _, rec = reference_run
    summary = tracer.summarize(rec["spans"])
    root = summary["cli.main"]
    assert root["calls"] == 1
    total_self = sum(e["self_s"] for e in summary.values())
    assert total_self == pytest.approx(root["total_s"], rel=1e-9)
    assert 0.95 * rec["wall_s"] <= root["total_s"] <= rec["wall_s"]
    # functions imported by name into propagator were wrapped at that site
    assert summary["charge._march"]["calls"] == 1
    assert summary["spectral.free_origin_series"]["useful_points"] == \
        summary["spectral.free_origin_series"]["mode_points"]
    assert summary["charge._march"]["mode_steps"] == inputs.N_STEPS * (inputs.K_MAX + 1) // 2


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
