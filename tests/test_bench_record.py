import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def fake_run(path, workload, seed, wall, outputs, failed=0):
    """A perfbench run directory: run.json with one scaled metric and work/ outputs."""
    os.makedirs(path / "work")
    for name, text in outputs.items():
        (path / "work" / name).write_text(text)
    record = {
        "workload": workload, "seed": seed, "trace": False, "seconds": 40.0, "nproc": 2,
        "affinity_cpus": [0, 1], "thread_env": {"OPENBLAS_NUM_THREADS": "1"},
        "git_sha": "abc", "src_sha256": "def",
        "environment": {"python": "3", "numpy": "2", "blas_threads_runtime": 1,
                        "numpy_config": {"Build Dependencies": {"blas": {
                            "name": "scipy-openblas", "lib directory": "/build"}}}},
        "iterations": [{"problems": ["bad"] if i < failed else []} for i in range(3)],
        "metrics": {"wall_s": {"value": wall, "unit": "s", "raw_median": 2 * wall}},
    }
    (path / "run.json").write_text(json.dumps(record))
    return str(path)


def test_pairs_become_medians_wins_and_deviations(tmp_path):
    parents, changes = [], []
    for i, (p_wall, c_wall) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 1.0)]):
        q_change = "0.5,1.0" if i == 1 else "0.5,0.75"
        parents.append(fake_run(tmp_path / f"p{i}", "simulate", i, p_wall,
                                {"q.csv": "# a\nt,q\n0.5,0.75\n", "log.txt": "took 1 s\n"},
                                failed=int(i == 2)))
        changes.append(fake_run(tmp_path / f"c{i}", "simulate", i, c_wall,
                                {"q.csv": f"# b\nt,q\n{q_change}\n", "log.txt": "took 2 s\n"}))
    out = bench_record.record(parents, changes)
    entry = out["workloads"]["simulate"]
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.9
    assert wall["parent"]["iqr"] == pytest.approx(0.15)
    assert wall["change_unscaled"]["median"] == 1.8
    assert wall["change_lower_in_pairs"] == 2
    assert entry["iterations"] == {"parent": {"attempted": 9, "failed": 1},
                                   "change": {"attempted": 9, "failed": 0}}
    # run.json names no CPU or kernel, so those belong to the recording host only
    assert out["machine"]["nproc"] == 2 and "cpu" not in out["machine"]
    assert set(out["recording_host"]) == {"cpu", "platform"}
    assert entry["output_deviation"] == {"log.txt": "differs", "q.csv": 0.25}
    assert "lib directory" not in out["blas"]


def test_unpaired_runs_rejected(tmp_path):
    a = fake_run(tmp_path / "a", "simulate", 1, 1.0, {})
    b = fake_run(tmp_path / "b", "steer", 1, 1.0, {})
    with pytest.raises(SystemExit):
        bench_record.record([a], [b])
