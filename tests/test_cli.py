import collections
import ctypes
import functools
import inspect
import itertools
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import deltabox
from deltabox import kernels
from deltabox.charge import CouplingProfile
from deltabox.cli import EXIT_SOLVER, _SIMULATE_KEYS, _parse_alpha, _parse_psi0, main
from deltabox.control import ControlTarget, apply_linearized, synthesize_control
from deltabox.kernels import THREAD_VARIABLES, _bundled_trsv, runtime_record
from deltabox.greens import green_origin
from deltabox.iofiles import (
    _BLOCK_ROWS,
    _HIGHEST,
    _LOWEST,
    atomic_write_blocks,
    config_hash,
    load_state,
    load_target_csv,
    parse_config_text,
    save_control_csv,
    save_state,
    save_trajectory_csv,
)
from deltabox.errors import InputError
from deltabox.propagator import diagnostics, evolve
from deltabox.spectral import SpectralCoefficients, TimeGrid


def run_cli(args):
    return main(args)


RUNTIME_KEYS = ["triangular_solve", "blas", "openblas_threads", *THREAD_VARIABLES,
                "malloc_thresholds"]
# what the record reads once cli.main has set glibc's thresholds (kernels.keep_grid_arrays_on_heap)
SET_THRESHOLDS = f"mmap {kernels.MMAP_THRESHOLD} trim {kernels.TRIM_THRESHOLD}"


def manifest_section(path, name):
    """key -> value of one '[name]' block of a manifest."""
    block = path.read_text().split(f"[{name}]\n", 1)[1].split("\n\n", 1)[0]
    return dict(ln.split("=", 1) for ln in block.splitlines() if ln)


def assert_runtime_section(path):
    runtime = manifest_section(path, "runtime")
    assert list(runtime) == RUNTIME_KEYS
    assert runtime["triangular_solve"] == (
        "scipy" if _bundled_trsv() is None else "bundled-openblas")
    assert runtime["blas"].split()[0] == np.show_config(mode="dicts")[
        "Build Dependencies"]["blas"]["name"]
    threads = runtime["openblas_threads"]
    assert (threads == "unknown") if _bundled_trsv() is None else (int(threads) >= 1)
    assert runtime["malloc_thresholds"] in (SET_THRESHOLDS, "unavailable")


def run_python(args, preexec_fn=None, **variables):
    """A fresh interpreter with this deltabox on its path and the given environment variables,
    which runs preexec_fn (if given) before it starts."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(deltabox.__file__)),
               **variables)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=preexec_fn)


class TestSimulate:
    def test_free_eigenstate(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "zero",
                        "--T", "1.0", "--n-steps", "200", "--k-max", "51",
                        "--outdir", str(out)])
        assert code == 0
        state = load_state(str(out / "final_state.txt"))
        assert state.a[0] == pytest.approx(np.exp(-0.25j), abs=1e-15)
        assert (out / "trajectory.csv").exists()
        assert_runtime_section(out / "manifest.txt")

    def test_odd_state_charge_free(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--psi0", "eig:2", "--alpha", "bump:0.5",
                        "--T", "2.0", "--n-steps", "400", "--k-max", "51",
                        "--outdir", str(out)])
        assert code == 0
        rows = [ln for ln in (out / "trajectory.csv").read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("t,")]
        q = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        assert np.all(q == 0.0)

    def test_malformed_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("version=1\npsi0=eig:1\nwavelength=3\n")
        code = run_cli(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / "o")])
        assert code == 1

    def test_config_key_named_in_error(self):
        with pytest.raises(InputError, match="wavelength"):
            parse_config_text("version=1\nwavelength=3\n", {"psi0"})

    def test_determinism(self, tmp_path):
        args = ["simulate", "--psi0", "eig:1", "--alpha", "bump:0.4", "--T", "1.0",
                "--n-steps", "250", "--k-max", "51"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--outdir", str(out1)]) == 0
        assert run_cli(args + ["--outdir", str(out2)]) == 0
        for name in ("trajectory.csv", "final_state.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_memory_is_blocked_in_time(self, tmp_path):
        # at k_max = 401, n = 25133 the peak stays below the bound of
        # propagator's test of the same name
        n_steps = 25133
        tracemalloc.start()
        try:
            code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "bump:0.5",
                            "--T", repr(8.0 * np.pi), "--n-steps", str(n_steps),
                            "--k-max", "401", "--outdir", str(tmp_path / "run")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * (n_steps + 1) * 16

    def test_domain_state_input(self, tmp_path, rng):
        # regular part on odd modes with zero charge, driven by a bump
        # (alpha(0) = 0 keeps the boundary relation trivially compatible)
        a = np.zeros(21, dtype=complex)
        a[0::2] = rng.standard_normal(11) / np.arange(1, 22, 2) ** 2
        state = SpectralCoefficients(21, a / np.linalg.norm(a))
        path = tmp_path / "regular.txt"
        save_state(str(path), state)
        out = tmp_path / "dom"
        code = run_cli(["simulate", "--psi0", f"domain:{path}:0:0", "--alpha",
                        "bump:0.3", "--T", "1.0", "--n-steps", "200",
                        "--k-max", "21", "--outdir", str(out)])
        assert code == 0
        # zero charge means the domain route coincides with the plain route
        out2 = tmp_path / "plain"
        code = run_cli(["simulate", "--psi0", f"file:{path}", "--alpha",
                        "bump:0.3", "--T", "1.0", "--n-steps", "200",
                        "--k-max", "21", "--outdir", str(out2)])
        assert code == 0
        s1 = load_state(str(out / "final_state.txt"))
        s2 = load_state(str(out2 / "final_state.txt"))
        assert np.max(np.abs(s1.a - s2.a)) < 1e-12

    def test_diagnostic_tolerance_exit(self, tmp_path):
        # an absurdly tight norm tolerance must flip the exit code to 2
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "bump:0.8",
                        "--T", "1.0", "--n-steps", "100", "--k-max", "51",
                        "--tol-norm-drift", "1e-18", "--outdir", str(tmp_path / "t")])
        assert code == 2

    def test_broken_diagnostic_named(self, tmp_path, capsys):
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "bump:0.8",
                        "--T", "1.0", "--n-steps", "100", "--k-max", "51",
                        "--tol-norm-drift", "1e-300", "--outdir", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert code == 2
        assert "norm_drift" in err and "1.000000e-300" in err
        assert "boundary_residual_max" not in err
        drift = [ln for ln in (tmp_path / "t" / "manifest.txt").read_text().splitlines()
                 if ln.startswith("norm_drift=")][0].split("=")[1]
        assert f"{float(drift):.6e}" in err
        assert "peak at node" in err and "(t=" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that makes the NaN
    def test_nan_diagnostic_fails_its_tolerance(self, tmp_path, capsys):
        code = run_cli(["simulate", "--alpha", "const:1e155", "--T", "1", "--n-steps", "10",
                        "--k-max", "5", "--tol-boundary", "1e300", "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "diagnostic tolerance exceeded: norm_drift nan > tolerance 1.000000e-06" in err
        assert "peak at node" in err and "boundary_residual_max" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coupling_reports_only_its_tolerance(self, tmp_path, capsys):
        # the non-finite sums fail their tolerance; numpy's overflow warnings do not
        # reach stderr on top (a warning would raise here)
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "const:1e155", "--T", "1",
                        "--n-steps", "10", "--k-max", "5", "--tol-boundary", "1e300",
                        "--outdir", str(tmp_path)])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "diagnostic tolerance exceeded: norm_drift nan > tolerance 1.000000e-06, "
            "peak at node 0 (t=0.0)\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_tolerance_recorded_in_manifest(self, tmp_path):
        # the manifest of a run that fails a tolerance names it; a passing run's
        # [diagnostics] holds the five numbers alone
        args = ["simulate", "--psi0", "eig:1", "--T", "1", "--n-steps", "10", "--k-max", "5"]
        assert run_cli([*args, "--alpha", "const:1e155", "--tol-boundary", "1e300",
                        "--outdir", str(tmp_path / "fail")]) == EXIT_SOLVER
        failed = manifest_section(tmp_path / "fail" / "manifest.txt", "diagnostics")
        assert failed["norm_drift"] == "nan" and failed["tolerance_exceeded"] == "norm_drift"
        assert run_cli([*args, "--alpha", "const:0", "--outdir", str(tmp_path / "pass")]) == 0
        passed = manifest_section(tmp_path / "pass" / "manifest.txt", "diagnostics")
        assert list(passed) == list(failed)[:-1]

    def test_diagnostics_named_once(self, tmp_path, capsys):
        # stdout, the manifest and diagnostics() show the same names in the same order
        args = ["--psi0", "eig:1", "--alpha", "bump:0.5", "--T", "1.0", "--n-steps", "200",
                "--k-max", "21"]
        assert run_cli(["simulate", *args, "--outdir", str(tmp_path)]) == 0
        printed = [ln.split() for ln in capsys.readouterr().out.splitlines()[:5]]
        recorded = manifest_section(tmp_path / "manifest.txt", "diagnostics")
        alpha = _parse_alpha("bump:0.5", 1.0)
        names = list(diagnostics(evolve(SpectralCoefficients.unit(1, 21), alpha,
                                        TimeGrid(1.0, 200)), alpha))
        assert [name for name, _ in printed] == list(recorded) == names == [
            "norm_drift", "boundary_residual_max", "energy_drift", "energy_balance_resid",
            "energy_balance_rel"]
        assert [value for _, value in printed] == [f"{float(v):.6e}" for v in recorded.values()]


SMALL_RUN = ["--T", "0.5", "--n-steps", "10", "--k-max", "21"]
BAD_INPUTS = {
    "eig-index": ["simulate", "--psi0", "eig:abc", *SMALL_RUN],
    "bump-amplitude": ["simulate", "--alpha", "bump:x", *SMALL_RUN],
    "const-amplitude": ["simulate", "--alpha", "const:x", *SMALL_RUN],
    "domain-charge": ["simulate", "--psi0", "domain:{state}:x:0", *SMALL_RUN],
    "domain-shift": ["simulate", "--psi0", "domain:{state}:0:0:y", *SMALL_RUN],
    "spectrum-window": ["spectrum", "--alpha", "1.0", "--window", "5"],
    "spectrum-reversed-window": ["spectrum", "--alpha", "1.0", "--window=5:-5"],
    # HI past the range --k-max resolves: the odd sector alone would list every m^2 <= HI
    "spectrum-unbounded-window": ["spectrum", "--alpha", "2", "--k-max", "3",
                                  "--window=-5:1e308"],
    "config-kmax-zero": ["simulate", "--config", "{kmax_zero_config}"],
    "state-line": ["simulate", "--psi0", "file:{bad_state}", *SMALL_RUN],
    "target-line": ["control", "--target", "{bad_target}", "--k-max", "21"],
    "state-repeated-mode": ["simulate", "--psi0", "file:{repeated_state}", *SMALL_RUN],
    "target-repeated-mode": ["control", "--target", "{repeated_target}", "--k-max", "21"],
    "sweep-level": ["sweep", "--what", "green-kmax", "--levels", "nan,10,100"],
    "sweep-zero-kmax": ["sweep", "--what", "green-kmax", "--levels", "0,10,100"],
    "sweep-negative-level": ["sweep", "--what", "green-kmax", "--levels=-5,10,100"],
    "sweep-zero-dt": ["sweep", "--levels", "0,1e-3,2e-3"],
    "sweep-repeated-level": ["sweep", "--levels=1e-3,1e-3,1e-3"],
    # green-kmax levels are integers: none is truncated, so none repeats
    "sweep-fractional-kmax": ["sweep", "--what", "green-kmax", "--levels", "10.7,100.2,1000.9"],
    "sweep-truncated-repeat": ["sweep", "--what", "green-kmax", "--levels", "10,10.5,100,1000"],
    "sweep-nan-min-slope": ["sweep", "--what", "green-kmax", "--min-slope", "nan"],
    "sweep-inf-min-slope": ["sweep", "--what", "green-kmax", "--min-slope", "inf"],
    "sweep-unknown-what": ["sweep", "--what", "bogus"],
    "domain-zero-charge": ["simulate", "--psi0", "domain:{state}:0:0", "--alpha", "const:1",
                           *SMALL_RUN],
    "control-zero-kmax": ["control", "--target", "{empty_target}", "--k-max", "0"],
    "green-negative-kmax": ["green", "--k-max", "-3"],
    "green-nan-z": ["green", "--z-re", "nan"],
    "green-nan-x": ["green", "--x", "nan"],
    "green-inf-z-im": ["green", "--z-im", "inf"],
    # numeric flags go through parse_number, not argparse's type conversion
    "green-text-x": ["green", "--x", "abc"],
    "green-text-xp": ["green", "--xp", "abc"],
    "green-text-z-re": ["green", "--z-re", "abc"],
    "green-text-z-im": ["green", "--z-im", "1j"],
    "green-text-kmax": ["green", "--k-max", "2.5"],
    "spectrum-text-alpha": ["spectrum", "--alpha", "abc"],
    "spectrum-inf-alpha": ["spectrum", "--alpha", "inf"],
    "simulate-text-T": ["simulate", "--T", "abc", "--n-steps", "10", "--k-max", "21"],
    "simulate-text-n-steps": ["simulate", "--T", "0.5", "--n-steps", "abc", "--k-max", "21"],
    "simulate-text-kmax": ["simulate", "--T", "0.5", "--n-steps", "10", "--k-max", "x"],
    "simulate-text-tol": ["simulate", *SMALL_RUN, "--tol-boundary", "abc"],
    "control-text-T": ["control", "--target", "{empty_target}", "--T", "abc"],
    "control-text-n-steps": ["control", "--target", "{empty_target}", "--n-steps", "1e3"],
    "control-text-k-bar": ["control", "--target", "{empty_target}", "--k-bar", "abc"],
    # 1 step folds every bin onto 0: rho = 0 and a slope of 0.0000 before the check
    "control-aliased-experiment": ["control", "--target", "{target}", "--experiment",
                                   "--n-steps", "1"],
    "verify-text-seed": ["verify", "--seed", "abc"],
    "verify-negative-seed": ["verify", "--seed", "-1"],
    "verify-text-kmax": ["verify", "--k-max", "abc"],
}


class TestInputContracts:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_malformed_number_is_configuration_error(self, case, tmp_path, capsys):
        state = tmp_path / "state.txt"
        save_state(str(state), SpectralCoefficients.unit(1, 21))
        bad_state = tmp_path / "bad_state.txt"
        bad_state.write_text("# k_max=21\n1,abc,0\n")
        bad_target = tmp_path / "bad_target.csv"
        bad_target.write_text("k,re_c,im_c\n3,x,0\n")
        repeated_state = tmp_path / "repeated_state.txt"
        repeated_state.write_text("# k_max=21\n1,1.0,0\n1,0.5,0\n")
        repeated_target = tmp_path / "repeated_target.csv"
        repeated_target.write_text("k,re_c,im_c\n3,1.0,0.0\n3,0.0,5.0\n")
        empty_target = tmp_path / "empty_target.csv"
        empty_target.write_text("k,re_c,im_c\n")
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        kmax_zero_config = tmp_path / "kmax_zero.cfg"
        kmax_zero_config.write_text("version=1\nT=0.5\nn_steps=10\nk_max=0\n")
        args = [a.format(state=state, bad_state=bad_state, bad_target=bad_target,
                         repeated_state=repeated_state, repeated_target=repeated_target,
                         empty_target=empty_target, target=target,
                         kmax_zero_config=kmax_zero_config) for a in BAD_INPUTS[case]]
        if args[0] not in ("green", "verify"):  # these write no files and have no --outdir
            args += ["--outdir", str(tmp_path / "out")]
        code = run_cli(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # a refused command writes nothing

    @pytest.mark.parametrize("config, flags, message", [
        # one k_max rule for flags and config files, named after its source
        ("k_max=0", [], "sim.cfg: k_max must be at least 1, got 0"),
        ("k_max=-4\npsi0=file:{state}", [], "sim.cfg: k_max must be at least 1, got -4"),
        (None, ["--k-max", "0"], "--k-max must be at least 1, got 0"),
        ("T=abc", [], "sim.cfg: T: expected a finite number, got 'abc'"),
        ("tol_boundary=x", [], "sim.cfg: tol_boundary: expected a finite number, got 'x'"),
        (None, ["--tol-boundary", "x"], "--tol-boundary: expected a finite number, got 'x'"),
        # a negative tolerance no diagnostic can meet: refused before the march
        ("tol_norm_drift=-1e-3", [], "sim.cfg: tol_norm_drift must be nonnegative, got -0.001"),
        (None, ["--tol-boundary", "-1e308"], "--tol-boundary must be nonnegative, got -1e+308"),
    ])
    def test_simulate_numbers_named_after_their_source(self, config, flags, message, tmp_path,
                                                       capsys):
        state = tmp_path / "state.txt"
        save_state(str(state), SpectralCoefficients.unit(1, 3))
        args = ["simulate", *SMALL_RUN, *flags, "--outdir", str(tmp_path / "out")]
        if config is not None:
            cfg = tmp_path / "sim.cfg"
            cfg.write_text(f"version=1\n{config.format(state=state)}\n")
            args += ["--config", str(cfg)]
        code = run_cli(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", ["5:-5", "3:3"])
    def test_empty_spectrum_window_writes_nothing(self, window, tmp_path, capsys):
        code = run_cli(["spectrum", "--alpha", "1", f"--window={window}",
                        "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and repr(window) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, extra", [
        (201, ["--k-max", "401"]),  # k^2 = 40401 is past the Nyquist bin of 25133 steps
        (3, ["--experiment", "--n-steps", "1"]),  # 1 step aliases k = 3
        (127, []),  # 2*127^2 = 32258 >= 25133, the default --n-steps
    ])
    def test_aliased_control_writes_nothing(self, mode, extra, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text(f"k,re_c,im_c\n{mode},1.0,0.0\n")
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(["control", "--target", str(target), *extra, "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and f"k={mode} " in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("extra", [[], ["--experiment"]])
    def test_anchor_outside_the_truncation_writes_nothing(self, extra, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(["control", "--target", str(target), "--k-bar", "403", "--k-max", "401",
                        *extra, "--outdir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and "k_bar=403" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("times, code", [
        (np.linspace(0.0, 2.0, 5), 0),  # t_n = n*T/N: accepted
        (np.linspace(0.0, 1.0, 5), 1),  # spans [0, 1] under T = 2
        (np.array([0.0, 0.3, 2.0]), 1),  # not uniform
    ])
    def test_pl_time_column(self, times, code, tmp_path, capsys):
        path = tmp_path / "alpha.csv"
        path.write_text("# t,alpha\n" + "".join(f"{t!r},0.0\n" for t in times.tolist()))
        got = run_cli(["simulate", "--alpha", f"pl:{path}", "--T", "2.0", "--n-steps", "20",
                       "--k-max", "21", "--outdir", str(tmp_path / "out")])
        assert got == code
        if code:
            assert "t column" in capsys.readouterr().err

    def test_empty_pl_file_prints_one_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("")
        proc = run_python(["-m", "deltabox.cli", "simulate", "--alpha", f"pl:{path}", *SMALL_RUN,
                           "--outdir", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"configuration error: {path}: expected CSV rows t,alpha"]

    @pytest.mark.parametrize("args, code", [
        (["simulate", "--n-steps", str(2**62)], 1),  # (n+1)*16 bytes past what numpy indexes
        (["simulate", "--n-steps", str(10**15)], 2),
        (["control", "--target", "{target}", "--n-steps", str(10**15)], 2),
        (["simulate", "--k-max", str(10**12)], 2),
        (["green", "--k-max", str(10**12)], 2),
        # 5e11 levels: refused from their count, before the level generator runs
        (["spectrum", "--alpha", "1", "--k-max", str(10**12)], 1),
        (["spectrum", "--alpha", "0", "--k-max", str(10**12)], 1),
        # k^2*N leaves int64: it wrapped to a negative harmonic, or failed to convert
        (["control", "--target", "{target}", "--T", "1e19"], 1),
        (["control", "--target", "{target}", "--T", "1e300"], 1),
    ])
    def test_impossible_size_prints_one_line(self, args, code, tmp_path):
        # numpy refuses each of these sizes at once; the address-space cap keeps a machine
        # that overcommits memory from granting one.  Never run them without the cap
        resource = pytest.importorskip("resource")
        cap = 2 << 30

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        args = [a.format(target=target) for a in args]
        if args[0] != "green":
            args += ["--outdir", str(tmp_path / "out")]
        start = time.monotonic()
        proc = run_python(["-m", "deltabox.cli", *args], capped, OPENBLAS_NUM_THREADS="1")
        assert time.monotonic() - start < 5.0
        assert proc.returncode == code
        [line] = proc.stderr.splitlines()
        prefix = ("configuration error: ", "solver error: ")[code - 1]
        assert line.startswith(prefix) and line[len(prefix):].strip()
        assert not (tmp_path / "out").exists()

    def test_bare_exception_prints_its_class(self, monkeypatch, capsys):
        # a MemoryError() from an allocator that gives no message still says what failed
        def refuse(args):
            raise MemoryError()

        monkeypatch.setattr("deltabox.cli.cmd_green", refuse)
        assert run_cli(["green", "--z-re", "1"]) == EXIT_SOLVER
        assert capsys.readouterr().err == "solver error: MemoryError\n"

    @pytest.mark.parametrize("z", [["--z-re", "1e308"], ["--z-im", "1e200"]])
    def test_far_green_is_quiet(self, z):
        # every series weight is 1/(d_k^2 + Im z^2) with an infinite denominator: its limit 0,
        # with no overflow warning or error on the way
        proc = run_python(["-m", "deltabox.cli", "green", *z])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "series  0.0 -0.0" in proc.stdout

    def test_shift_on_pole_is_configuration_error(self, tmp_path, capsys):
        # -0.25 is -lam_1: the resolvent G^lam has a pole there
        state = tmp_path / "state.txt"
        state.write_text("# k_max=21\n")
        code = run_cli(["simulate", "--psi0", f"domain:{state}:0:0:-0.25", *SMALL_RUN,
                        "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and "pole -lam_1 = -0.25" in err


# The edge-value register: each case runs in a fresh interpreter capped at 2 GiB and must
# exit with its code, print at most one stderr line (a documented prefix for its code and
# the words given, none on exit 0, never a Traceback or a Warning) and finish within 5 s.
EDGE_VALUES = ("nan", "inf", "0", "1e308", "-1e308")
EDGE_PREFIXES = {1: ("configuration error: ",),
                 2: ("solver error: ", "diagnostic tolerance exceeded: ")}
EDGE_CODES = {  # each numeric flag of every command: its exit codes at EDGE_VALUES
    ("green", "--x"): (1, 1, 0, 1, 1),
    ("green", "--xp"): (1, 1, 0, 1, 1),
    ("green", "--z-re"): (1, 1, 0, 0, 1),
    ("green", "--z-im"): (1, 1, 0, 0, 0),
    ("green", "--k-max"): (1, 1, 1, 1, 1),
    ("spectrum", "--alpha"): (1, 1, 0, 0, 0),
    ("spectrum", "--window"): (1, 1, 1, 1, 1),
    ("spectrum", "--k-max"): (1, 1, 1, 1, 1),
    # simulate's exit-0 runs write trajectory.csv; a negative tolerance is refused up front
    ("simulate", "--T"): (1, 1, 1, 2, 1),
    ("simulate", "--n-steps"): (1, 1, 1, 1, 1),
    ("simulate", "--k-max"): (1, 1, 1, 1, 1),
    ("simulate", "--tol-norm-drift"): (1, 1, 0, 0, 1),
    ("simulate", "--tol-boundary"): (1, 1, 0, 0, 1),
    ("control", "--k-bar"): (1, 1, 1, 1, 1),
    ("control", "--T"): (1, 1, 1, 1, 1),
    ("control", "--k-max"): (1, 1, 1, 1, 1),
    ("control", "--n-steps"): (1, 1, 1, 1, 1),
    ("verify", "--k-max"): (1, 1, 1, 1, 1),
    ("verify", "--seed"): (1, 1, 0, 1, 1),
    # a slope below the minimum is exit 2, with its line on stderr
    ("sweep", "--min-slope"): (1, 1, 0, 2, 0),
    # the value as the first of three levels; green-kmax levels are integers
    ("sweep", "--levels"): (1, 1, 1, 1, 1),
    ("sweep-green-kmax", "--levels"): (1, 1, 1, 1, 1),
}
# a row's command line before its flag, where it is more than the command
EDGE_COMMANDS = {
    "spectrum": ["spectrum", "--alpha", "1"],
    "control": ["control", "--target", "{target}"],
    "verify": ["verify", "--filter", "spectral"],
    "sweep-green-kmax": ["sweep", "--what", "green-kmax"],
}
EDGE_LEVELS = {"sweep": ",2e-3,1e-3", "sweep-green-kmax": ",10,100"}  # the two levels after it
EDGE_CASES = {
    f"{name}{flag}={value}": ([*EDGE_COMMANDS.get(name, [name]), flag,
                              value + (EDGE_LEVELS[name] if flag == "--levels" else "")], code, "")
    for (name, flag), codes in EDGE_CODES.items() for value, code in zip(EDGE_VALUES, codes)
}
EDGE_CASES.update({
    # past Re z = -2^51 float64 loses the phase pi*sqrt(-Re z): refused, not a wrong number
    "green-z-re=-1e308": (["green", "--z-re", "-1e308"], 1, "below -2.2518e+15"),
    "green-z-re=-3e300": (["green", "--z-re", "-3e300"], 1, "below -2.2518e+15"),
    "green-z-re=-1.1e30": (["green", "--z-re", "-1.1e30"], 1, "below -2.2518e+15"),
    # negative values in every numeric form, with no '='
    "spectrum-alpha=-1e6": (["spectrum", "--alpha", "-1e6"], 0, ""),
    "spectrum-window=-1:30": (["spectrum", "--alpha", "1", "--window", "-1:30"], 0, ""),
    "spectrum-window=-1e308:0": (["spectrum", "--alpha", "1", "--window", "-1e308:0"], 0, ""),
    "spectrum-window=0:1e308": (["spectrum", "--alpha", "1", "--window", "0:1e308"], 1, "HI"),
    "green-x=-1e-3": (["green", "--x", "-1e-3"], 0, ""),
    "green-z-re=-1e3": (["green", "--z-re", "-1e3"], 0, ""),
    "green-z-re=-inf": (["green", "--z-re", "-inf"], 1, "--z-re"),
    # a charge that overflows, or whose phases are lost, is named by its first node
    "simulate-T=1e308": (["simulate", "--T", "1e308"], 2,
                         "first non-finite charge at node n=1, t=1e+305"),
    "simulate-alpha=const:1e308": (["simulate", "--alpha", "const:1e308", "--T", "0.5",
                                    "--n-steps", "100", "--k-max", "31"], 2,
                                   "first non-finite charge at node n=1, t=0.005"),
    # a tolerance below every value is refused before the march, named by its flag
    "simulate--tol-norm-drift=-1e308": (["simulate", "--tol-norm-drift", "-1e308"], 1,
                                        "--tol-norm-drift must be nonnegative, got -1e+308"),
    "simulate--tol-boundary=-1e308": (["simulate", "--tol-boundary", "-1e308"], 1,
                                      "--tol-boundary must be nonnegative, got -1e+308"),
    "sweep--min-slope=1e308": (["sweep", "--min-slope", "1e308"], 2,
                               "diagnostic tolerance exceeded: slope 2.00"),
    "sweep-green-kmax--levels=1e308": (["sweep", "--what", "green-kmax", "--levels",
                                        "1e308,10,100"], 1, "expected an integer, got '1e308'"),
    # past a level of 10^7 the Green series' mode table outgrows memory: refused at once
    "sweep-green-kmax--levels=1e22": (["sweep", "--what", "green-kmax", "--levels",
                                       "10000000000000000000000,10,100"], 1,
                                      "--levels 10000000000000000000000 exceeds 10000000"),
    "sweep-green-kmax--levels=1e9": (["sweep", "--what", "green-kmax", "--levels",
                                      "1000000000,10,100"], 1,
                                     "--levels 1000000000 exceeds 10000000"),
    # a window of more than 10^6 levels is refused before any root is solved
    "spectrum-k-max=1e8": (["spectrum", "--alpha", "1", "--k-max", "100000000"], 1,
                           "holds 50000000 levels, more than the 1000000 spectrum lists; "
                           "narrow --window or lower --k-max"),
    "verify-k-max=513": (["verify", "--k-max", "513"], 1, "exceeds 512"),
    "verify-k-max=512": (["verify", "--k-max", "512", "--filter", "spectral"], 0, ""),
})


@pytest.fixture(scope="module")
def edge_runs(tmp_path_factory):
    """case -> (process, seconds) for every EDGE_CASES entry, two interpreters at a time."""
    from concurrent.futures import ThreadPoolExecutor

    resource = pytest.importorskip("resource")
    cap = 2 << 30

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    target = tmp_path_factory.mktemp("edge") / "target.csv"
    target.write_text("k,re_c,im_c\n1,0.0,1e-3\n3,1e-3,0.0\n")

    def run(case):
        args = [a.format(target=target) for a in EDGE_CASES[case][0]]
        if args[0] not in ("green", "verify"):  # these write no files and have no --outdir
            args = [*args, "--outdir", str(tmp_path_factory.mktemp("edge") / "out")]
        start = time.monotonic()
        proc = run_python(["-m", "deltabox.cli", *args], capped, OPENBLAS_NUM_THREADS="1")
        return proc, time.monotonic() - start

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(EDGE_CASES, pool.map(run, EDGE_CASES)))


class TestEdgeRegister:
    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_edge_value(self, case, edge_runs):
        _, code, words = EDGE_CASES[case]
        proc, seconds = edge_runs[case]
        assert seconds < 5.0
        assert proc.returncode == code, proc.stderr
        lines = proc.stderr.splitlines()
        if code == 0:
            assert lines == []
        else:
            [line] = lines
            assert line.startswith(EDGE_PREFIXES[code]) and words in line
            assert "Traceback" not in line and "Warning" not in line

    @pytest.mark.parametrize("args", [
        ["spectrum", "--alpha", "-1e6"], ["spectrum", "--alpha", "1", "--window", "-1:30"],
        ["green", "--x", "-1e-3"], ["green", "--z-re", "-1e3"]])
    def test_negative_value_reads_as_its_equals_form(self, args, tmp_path, capsys):
        if args[0] == "spectrum":
            args = [args[0], "--outdir", str(tmp_path / "out"), *args[1:]]
        assert run_cli(args) == 0
        spaced = capsys.readouterr().out
        assert run_cli([*args[:-2], f"{args[-2]}={args[-1]}"]) == 0
        assert capsys.readouterr().out == spaced


class TestStateFiles:
    def test_round_trip(self, tmp_path, rng):
        a = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        c = SpectralCoefficients(17, a)
        path = tmp_path / "state.txt"
        save_state(str(path), c)
        back = load_state(str(path))
        assert back.k_max == 17
        assert np.array_equal(back.a, c.a)
        header = path.read_text().splitlines()[0]
        assert header == "# k_max=17"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("1,0.5,0.0\n")
        with pytest.raises(InputError):
            load_state(str(p))

    def test_target_csv(self, tmp_path):
        p = tmp_path / "target.csv"
        p.write_text("k,re_c,im_c\n1,1.0,0.0\n3,0.25,-0.5\n")
        c = load_target_csv(str(p), 9)
        assert c.a[0] == 1.0
        assert c.a[2] == 0.25 - 0.5j


def _descriptor(kinds):
    """Free text, or KIND:text for a known kind; never a kind that reads a file
    (those are fuzzed through the file contents below)."""
    rest = st.one_of(st.text(max_size=30), st.integers().map(str), st.floats().map(repr))
    return st.one_of(
        st.text(max_size=30),
        st.builds("{}:{}".format, st.sampled_from(kinds), rest),
    ).filter(lambda d: d.partition(":")[0] not in ("file", "domain", "pl"))


_config_line = st.one_of(
    st.text(max_size=30),
    st.builds("{}={}".format, st.sampled_from(sorted(_SIMULATE_KEYS) + ["version", "seed"]),
              st.sampled_from(["1", "2", "", " eig:1 ", "x=y"])),
)
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _coefficients(data, k_max):
    parts = data.draw(hnp.arrays(np.float64, (2, k_max), elements=_finite))
    a = np.empty(k_max, dtype=complex)
    a.real, a.imag = parts
    return a


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestInputProperties:
    """Any user text either parses or raises InputError; files round-trip bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(descriptor=_descriptor(["eig", "zero", "const", "bump"]))
    def test_psi0_descriptor(self, descriptor):
        try:
            state = _parse_psi0(descriptor, 21)
        except InputError:
            return
        assert descriptor.startswith("eig:") and state.k_max == 21 and state.norm() == 1.0

    @settings(max_examples=200, deadline=None)
    @given(descriptor=_descriptor(["zero", "const", "bump", "eig"]))
    def test_alpha_descriptor(self, descriptor):
        try:
            profile = _parse_alpha(descriptor, 2.0)
        except InputError:
            return
        assert profile.t_end == 2.0 and np.all(np.isfinite(profile.values_on(TimeGrid(2.0, 4))))

    @settings(max_examples=200, deadline=None)
    @given(header=st.integers(-2, 30), body=st.text(max_size=120),
           charge=st.sampled_from(["0:0", "0.1:-0.2", "x:0", "0:0:2.5", "0:0:-0.25"]))
    def test_state_file_descriptors(self, header, body, charge):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "state.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# k_max={header}\n{body}")
            for descriptor in (f"file:{path}", f"domain:{path}:{charge}"):
                try:
                    _parse_psi0(descriptor, 21)
                except InputError:
                    pass

    @settings(max_examples=200, deadline=None)
    @given(body=st.one_of(st.text(max_size=120), st.lists(
        st.builds("{!r},{!r}".format, st.floats(0.0, 2.0), st.floats()), max_size=6).map(
        "\n".join)))
    def test_pl_file_descriptor(self, body):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "alpha.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
            try:
                profile = _parse_alpha(f"pl:{path}", 2.0)
            except InputError:
                return
            assert profile.kind == "piecewise_linear"

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(_config_line, max_size=8))
    def test_config_text(self, lines):
        try:
            cfg = parse_config_text("\n".join(lines), _SIMULATE_KEYS)
        except InputError:
            return
        assert set(cfg) <= _SIMULATE_KEYS

    @pytest.mark.parametrize("loader", [load_state, lambda p: load_target_csv(p, 3)])
    def test_binary_file_is_input_error(self, tmp_path, loader):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"# k_max=3\n\xff\xfe,1,2\n")
        with pytest.raises(InputError, match="UTF-8"):
            loader(str(path))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), k_max=st.integers(1, 40))
    def test_state_round_trip(self, data, k_max):
        a = _coefficients(data, k_max)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "state.txt")
            save_state(path, SpectralCoefficients(k_max, a))
            assert _same_bits(load_state(path).a, a)
            # a state file is also a valid target file
            assert _same_bits(load_target_csv(path, k_max).a, a)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), k_max=st.integers(1, 40))
    def test_target_round_trip(self, data, k_max):
        a = _coefficients(data, k_max)
        rows = [f"{k},{v.real!r},{v.imag!r}" for k, v in enumerate(a.tolist(), start=1)]
        order = data.draw(st.permutations(range(k_max)))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "target.csv")
            with open(path, "w") as fh:
                fh.write("# target\nk,re_c,im_c\n" + "\n".join(rows[i] for i in order) + "\n")
            assert _same_bits(load_target_csv(path, k_max).a, a)


def _nudged(anchor: float, steps: int, negative: bool) -> float:
    """anchor moved `steps` floats up (down for steps < 0), then negated if asked."""
    for _ in range(abs(steps)):
        anchor = math.nextafter(anchor, math.copysign(math.inf, steps))
    return -anchor if negative else anchor


def _repr_rows(rows) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


# the series writer's fast path and each point where it hands an element to repr()
SERIES_ANCHORS = st.one_of(
    st.integers(-323, 308).map(lambda k: float(f"1e{k}")),  # powers of ten
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),  # powers of two
    st.sampled_from([1e16, 1e-4, 1e-5, _LOWEST, _HIGHEST]),  # form switches, range ends
)
SERIES_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.integers(1, 2**52 - 1).map(lambda m: m * 5e-324),  # subnormals
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(_nudged, SERIES_ANCHORS, st.integers(-2, 2), st.booleans()),
)


class TestSeriesCsv:
    @pytest.mark.parametrize("writer, columns", [(save_trajectory_csv, "t,re_q,im_q")])
    def test_bytes_match_per_row_format(self, tmp_path, writer, columns):
        times = np.array([0.0, 0.1, 5e-324, 1e300, 2.5])
        values = np.array([-0.0 + 0.0j, complex(-0.0, -0.0), 1e300 - 2.2250738585072014e-308j,
                           5e-324 + 1e-310j, -1.0 / 3.0 + 1e-300j])
        path = tmp_path / "series.csv"
        writer(str(path), times, values, {"config_hash": "abc", "k_max": 5})
        rows = [f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}"
                for t, v in zip(times, values)]
        expected = "\n".join(["# config_hash=abc", "# k_max=5", columns, *rows]) + "\n"
        assert path.read_bytes() == expected.encode()
        assert "-0.0,-0.0" in expected and "5e-324" in expected

    @pytest.mark.parametrize("n_rows", [0, 1, 1024, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                        _BLOCK_ROWS + 1, 2500])
    def test_chunked_rows_match_one_line_per_row(self, tmp_path, rng, n_rows):
        # rows are formatted and written a block of _BLOCK_ROWS at a time; the file is the
        # same as one line per row, with one final newline, at and across the block edges
        times = np.linspace(0.0, 3.0, n_rows)
        values = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
        path = tmp_path / "series.csv"
        save_trajectory_csv(str(path), times, values, {"k_max": 5})
        rows = [f"{t!r},{v.real!r},{v.imag!r}" for t, v in zip(times.tolist(), values.tolist())]
        assert path.read_text() == "\n".join(["# k_max=5", "t,re_q,im_q", *rows]) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(SERIES_FLOATS, SERIES_FLOATS, SERIES_FLOATS), max_size=40))
    def test_bytes_are_repr(self, rows):
        # every value as repr() writes it, whichever way the formatter took
        table = np.array(rows, dtype=float).reshape(-1, 3)
        q = np.empty(len(rows), dtype=complex)
        q.real, q.imag = table[:, 1], table[:, 2]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "series.csv")
            save_trajectory_csv(path, table[:, 0], q, {})
            with open(path, "rb") as fh:
                assert fh.read() == b"t,re_q,im_q\n" + _repr_rows(rows)

    def test_random_bit_patterns_are_repr(self, tmp_path, rng):
        # 30000 doubles of every exponent, sign and mantissa, across several blocks
        table = rng.integers(0, 2**64, size=(10000, 3), dtype=np.uint64).view(np.float64)
        path = tmp_path / "series.csv"
        save_trajectory_csv(str(path), table[:, 0], table[:, 1] + 0j, {})
        rows = [(t, v, 0.0) for t, v in zip(table[:, 0].tolist(), table[:, 1].tolist())]
        assert path.read_bytes() == b"t,re_q,im_q\n" + _repr_rows(rows)

    @pytest.mark.parametrize("existing", [False, True])
    def test_error_between_blocks_leaves_no_file(self, tmp_path, monkeypatch, existing):
        # the second block fails: no temp file is left, and the target is as it was
        path = tmp_path / "out" / "trajectory.csv"
        if existing:
            path.parent.mkdir()
            path.write_bytes(b"old\n")
        blocks, format_floats = [], deltabox.iofiles._format_floats

        def second_fails(*args):
            if blocks:
                raise RuntimeError("stopped")
            blocks.append(format_floats(*args))
            return blocks[-1]

        monkeypatch.setattr(deltabox.iofiles, "_format_floats", second_fails)
        n = _BLOCK_ROWS + 1
        with pytest.raises(RuntimeError, match="stopped"):
            save_trajectory_csv(str(path), np.linspace(0.0, 1.0, n), np.ones(n, complex), {})
        assert os.listdir(path.parent) == (["trajectory.csv"] if existing else [])
        assert not existing or path.read_bytes() == b"old\n"

    def test_fast_path_takes_every_in_range_value(self, tmp_path, rng, monkeypatch):
        # a bench-shaped trajectory: t on [0, 8*pi], q about 0.05*N(0, 1).  repr() gets the
        # values outside the fast path's range, powers of two and zeros, and at most a
        # handful of margin cases; a formatter that fell back everywhere would fail here
        n = 25134
        times = np.linspace(0.0, 8 * np.pi, n)
        q = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        sent = []

        def counting(value):
            sent.append(value)
            return repr(value)

        monkeypatch.setattr(deltabox.iofiles, "repr", counting, raising=False)
        path = tmp_path / "trajectory.csv"
        save_trajectory_csv(str(path), times, q, {})
        values = np.concatenate([times, q.real, q.imag])
        size = np.abs(values)
        inside = (size >= _LOWEST) & (size < _HIGHEST) & (np.abs(np.frexp(values)[0]) != 0.5)
        outside = collections.Counter(values[~inside].tolist())
        assert outside[0.0] >= 1 and sum(outside.values()) > 10  # t = 0 and the small q
        assert not outside - collections.Counter(sent)
        assert len(sent) - sum(outside.values()) <= 5
        rows = zip(times.tolist(), q.real.tolist(), q.imag.tolist())
        assert path.read_bytes() == b"t,re_q,im_q\n" + _repr_rows(rows)

    def test_control_csv_is_a_pl_file(self, tmp_path):
        # save_control_csv writes a coupling in the format that --alpha pl: reads
        grid = TimeGrid(2.5, 4)
        alpha = CouplingProfile.piecewise_linear(grid, [-0.0, 5e-324, 1e300, -1.0 / 3.0, 0.1])
        path = tmp_path / "control.csv"
        save_control_csv(str(path), alpha, {"k_bar": 1})
        rows = [f"{t!r},{a!r}" for t, a in zip(grid.times.tolist(), alpha.samples.tolist())]
        assert path.read_text() == "\n".join(["# k_bar=1", "# t,alpha", *rows]) + "\n"
        assert np.array_equal(_parse_alpha(f"pl:{path}", 2.5).samples, alpha.samples)


class TestSpectrumCommand:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli(["spectrum", "--alpha", "2.0", "--window=-5:5",
                        "--outdir", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "E,sector"
        rows = [ln.split(",") for ln in body[1:]]
        assert any(abs(float(e) - 1.0) < 1e-12 and s == "odd" for e, s in rows)
        sectors = {s for _, s in rows}
        assert sectors <= {"even", "odd"}


class TestGreenCommand:
    def test_origin_evaluated_once(self, monkeypatch, capsys):
        calls = []

        def counting(z):
            calls.append(z)
            return green_origin(z)

        monkeypatch.setattr(deltabox.cli, "green_origin", counting)
        assert run_cli(["green", "--z-re", "1.5"]) == 0
        value = green_origin(1.5 + 0j)
        assert calls == [1.5 + 0j]
        assert f"\norigin  {value.real!r} {value.imag!r}\n" in capsys.readouterr().out


class TestVerifyCommand:
    def test_filtered_run(self, capsys):
        code = run_cli(["verify", "--filter", "greens"])
        out = capsys.readouterr().out
        assert code == 0
        assert "greens." in out
        assert "charge." not in out

    def test_broken_truncation_reported(self, capsys):
        code = run_cli(["verify", "--filter", "propagator", "--k-max", "3"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out

    def test_unknown_filter(self):
        assert run_cli(["verify", "--filter", "nonsense"]) == 1

    def test_crashed_check_reports_under_its_pass_name(self, monkeypatch):
        # every check raises where it would return its result: each FAIL line
        # names the check as its PASS line does
        from deltabox import verify

        passed = [r.line().split()[:2] for r in verify.run_checks()]

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "_result", crash)
        crashed = verify.run_checks()
        assert [r.line().split()[:2] for r in crashed] == [
            ["FAIL", name] for status, name in passed if status == "PASS"]
        assert all(r.detail == "error: boom" for r in crashed)

    def test_each_check_registered_once_where_defined(self):
        from deltabox import verify

        defined = [fn for name, fn in vars(verify).items() if name.startswith("check_")]
        assert len(verify.CHECKS) == len(set(verify.CHECKS)) == len(defined) == 36
        assert set(verify.CHECKS) == set(defined)
        names = [f"{fn.module}.{fn.name}" for fn in verify.CHECKS]
        assert len(set(names)) == len(names)

    def test_registry_order_and_inputs(self):
        from deltabox import verify

        modules = [fn.module for fn in verify.CHECKS]
        order = ["spectral", "greens", "charge", "propagator", "control"]
        assert list(dict.fromkeys(modules)) == order
        assert modules == sorted(modules, key=order.index)  # each module's checks together
        for fn in verify.CHECKS:
            params = inspect.signature(fn).parameters
            assert fn.inputs == tuple(params) and set(params) <= {"k_max", "seed"}, fn.name

    @pytest.mark.parametrize("flag, dest, count", [("--k-max", "k_max", 9), ("--seed", "seed", 11)])
    def test_help_names_the_checks_an_input_reaches(self, flag, dest, count, capsys):
        from deltabox import verify

        assert run_cli(["verify", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        options = re.split(r" (?=--[a-z-]+ [A-Z_]+ )", text)
        help_text = next(o for o in options if o.startswith(f"{flag} "))
        named = re.findall(r"[a-z]+\.[a-z0-9-]*[a-z0-9]", help_text)
        reads = [f"{fn.module}.{fn.name}" for fn in verify.CHECKS if dest in fn.inputs]
        assert named == reads and len(reads) == count

    def test_help_keeps_check_names_whole(self, capsys):
        # each name can be copied from the help as one token: no line breaks at its hyphens
        from deltabox import verify

        assert run_cli(["verify", "--help"]) == 0
        tokens = {token.rstrip(",") for token in capsys.readouterr().out.split()}
        for fn in verify.CHECKS:
            if fn.inputs:
                assert f"{fn.module}.{fn.name}" in tokens

    def test_wrapped_check_gets_only_its_inputs(self, monkeypatch):
        # as perfbench's tracer does: a functools.wraps wrapper stands in the registry
        from deltabox import verify

        calls = []

        def traced(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append(kwargs)
                return fn(*args, **kwargs)
            return wrapper

        picked = [verify.check_pole_bracketing, verify.check_boundary_equivalence,
                  verify.check_derivative_jump, verify.check_free_evolve_group]
        monkeypatch.setattr(verify, "CHECKS", [traced(fn) for fn in picked])
        results = verify.run_checks(k_max=21, seed=7)
        assert calls == [{}, {"k_max": 21}, {"seed": 7}, {"k_max": 21, "seed": 7}]
        assert [r.line().split()[1] for r in results] == [
            "greens.pole-bracketing", "propagator.boundary-equivalence",
            "greens.derivative-jump", "spectral.free-evolve-group"]


class TestSweepCommand:
    def test_green_sweep(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli(["sweep", "--what", "green-kmax", "--outdir", str(out)]) == 0
        text = (out / "sweep_green-kmax.csv").read_text()
        assert text.startswith("# slope=")
        assert "k_max,abs_error" in text

    def test_zero_min_slope_is_honoured(self, tmp_path, capsys):
        code = run_cli(["sweep", "--what", "green-kmax", "--min-slope", "0",
                        "--outdir", str(tmp_path / "sw")])
        assert code == 0
        assert "(minimum 0.0);" in capsys.readouterr().out

    def test_missed_slope_is_named_on_stderr(self, tmp_path, capsys):
        # exit 2 says why on stderr; stdout and the artifacts are as for a passing sweep
        out = tmp_path / "sw"
        code = run_cli(["sweep", "--what", "green-kmax", "--min-slope", "1e308",
                        "--outdir", str(out)])
        captured = capsys.readouterr()
        slope = (out / "sweep_green-kmax.csv").read_text().splitlines()[0].split("=")[1]
        assert code == EXIT_SOLVER
        assert captured.err == f"diagnostic tolerance exceeded: slope {slope} < minimum 1e+308\n"
        assert f"slope {slope} (minimum 1e+308); artifacts in {out}" in captured.out

    def test_single_level_rejected(self, tmp_path):
        code = run_cli(["sweep", "--what", "charge-dt", "--levels", "1e-3",
                        "--outdir", str(tmp_path / "x")])
        assert code == 1

    def test_charge_sweep(self, tmp_path):
        out = tmp_path / "cs"
        assert run_cli(["sweep", "--what", "charge-dt", "--outdir", str(out)]) == 0


class TestControlCommand:
    def test_synthesis_artifacts(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n1,0.0,1.0\n")
        out = tmp_path / "ctl"
        code = run_cli(["control", "--target", str(target), "--k-bar", "1",
                        "--k-max", "101", "--outdir", str(out)])
        assert code == 0
        report = (out / "control_report.txt").read_text()
        assert "moment_residual" in report
        residual = float(report.splitlines()[1].split()[1])
        assert residual < 1e-8
        assert report.splitlines()[2] == "unreachable 0.0"
        lines = (out / "control.csv").read_text().splitlines()
        assert lines[:3] == ["# k_bar=1", f"# T={8 * math.pi!r}", "# t,alpha"]
        assert len(lines) == 3 + 25134
        # rho(0) = rho(T) = 0 exactly, written without a sign
        assert lines[3] == "0.0,0.0" and lines[-1] == f"{8 * math.pi!r},0.0"
        assert manifest_section(out / "manifest.txt", "outputs") == {
            "control.csv": str(out / "control.csv"),
            "control_report.txt": str(out / "control_report.txt")}
        assert_runtime_section(out / "manifest.txt")

    @pytest.mark.parametrize("k, code", [(7, 2), (41, 0)])
    def test_missed_target_exits_2_after_writing(self, k, code, tmp_path, capsys):
        # k_bar = 5 pairs mode 7 with mode 1 (1 + 49 = 2*25): a real control reaches
        # half of a real target on 7 and puts -1/2 on mode 1 (times s_1/s_7, the ratio
        # of their factors sinc^2(lam_k*dt/2)), which is unreachable, and the run
        # fails; mode 41 is in no pair and is reached
        target = tmp_path / "target.csv"
        target.write_text(f"k,re_c,im_c\n{k},1.0,0.0\n")
        out = tmp_path / "ctl"
        assert run_cli(["control", "--target", str(target), "--k-bar", "5",
                        "--outdir", str(out)]) == code
        for name in ("control.csv", "control_report.txt", "manifest.txt"):
            assert (out / name).is_file()
        unreachable = float((out / "control_report.txt").read_text().splitlines()[2].split()[1])
        err = capsys.readouterr().err
        if code:
            assert unreachable == pytest.approx(0.5 * (np.sinc(1 / 25133)
                                                       / np.sinc(49 / 25133)) ** 2)
            assert "worst mode k=" in err
            assert "unreachable pairs (j^2+k^2=2*k_bar^2): [(1, 7)]" in err
        else:
            assert unreachable == 0.0 and err == ""

    def test_identical_runs_give_identical_artifacts(self, tmp_path, monkeypatch):
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,0.6,0.8\n")
        args = ["control", "--target", str(target), "--experiment", "--n-steps", "2000",
                "--k-max", "21"]
        # the second run sees a clock that ticks twice as fast, as on a slower machine
        for out, seconds_per_call in (("a", 1.0), ("b", 2.0)):
            calls = itertools.count()
            monkeypatch.setattr(time, "time", lambda: seconds_per_call * next(calls))
            assert run_cli(args + ["--outdir", str(tmp_path / out)]) == 0
        for name in ("control.csv", "control_report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_even_target_rejected(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n2,1.0,0.0\n")
        code = run_cli(["control", "--target", str(target), "--outdir",
                        str(tmp_path / "o")])
        assert code == 1

    def test_written_control_replays_with_simulate(self, tmp_path):
        # control.csv is a pl: coupling file on the grid of the run that wrote it
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        out = tmp_path / "ctl"
        assert run_cli(["control", "--target", str(target), "--outdir", str(out)]) == 0
        assert run_cli(["simulate", "--psi0", "eig:1", "--alpha", f"pl:{out / 'control.csv'}",
                        "--T", "25.132741228718345", "--n-steps", "25133",
                        "--outdir", str(tmp_path / "sim")]) == 0

    def test_written_control_reaches_every_admitted_target(self, tmp_path):
        # each unit target k <= 111 (2*k^2 < 25133) at k_bar = 1, and i on the anchor
        # mode, whose real part no real control reaches, through the linearization at
        # alpha = 0, on every odd mode.  control.csv, read back, holds synthesize_control's
        # samples bit for bit (checked at both ends of the range)
        grid = TimeGrid(8 * np.pi, 25133)
        targets = [(1, 1j)] + [(k, 1.0) for k in range(3, 112, 2)]
        samples = []
        for k, value in targets:
            a = np.zeros(401, dtype=complex)
            a[k - 1] = value
            samples.append(synthesize_control(ControlTarget(SpectralCoefficients(401, a),
                                                            grid.t_end), 1, grid).samples)
        for i in (0, -1):
            k, value = targets[i]
            target = tmp_path / "target.csv"
            target.write_text(f"k,re_c,im_c\n{k},{value.real!r},{value.imag!r}\n")
            out = tmp_path / "ctl"
            assert run_cli(["control", "--target", str(target), "--outdir", str(out)]) == 0
            written = _parse_alpha(f"pl:{out / 'control.csv'}", grid.t_end).samples
            assert np.array_equal(written, samples[i]), k
        reached = apply_linearized(CouplingProfile.zero(grid.t_end), np.array(samples),
                                   SpectralCoefficients.unit(1, 401), grid)
        for (k, value), state in zip(targets, reached):
            expected = np.zeros(401, dtype=complex)
            expected[k - 1] = value
            assert np.max(np.abs(state.a - expected)) <= 1e-11, k


class TestWritePath:
    # each writing command, its flags and its artifacts
    COMMANDS = {
        "simulate": (["simulate", "--T", "0.5", "--n-steps", "50", "--k-max", "21"],
                     ["trajectory.csv", "final_state.txt"]),
        "spectrum": (["spectrum", "--alpha", "2.0", "--window=-5:5"], ["spectrum.csv"]),
        "control": (["control", "--target", "{target}", "--k-max", "21", "--n-steps", "2000"],
                    ["control.csv", "control_report.txt"]),
        "sweep": (["sweep", "--what", "green-kmax"], ["sweep_green-kmax.csv"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_write_path(self, command, tmp_path, monkeypatch):
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        args, artifacts = self.COMMANDS[command]
        args = [a.format(target=target) for a in args]
        written = []

        def recording(path, blocks):
            written.append(os.path.basename(path))
            atomic_write_blocks(path, blocks)

        # every writer, the text ones and the series one, ends in atomic_write_blocks
        monkeypatch.setattr(deltabox.iofiles, "atomic_write_blocks", recording)
        assert run_cli([*args, "--outdir", str(tmp_path / "out")]) == 0
        assert written == [*artifacts, "manifest.txt"]  # the manifest last
        monkeypatch.setenv("DELTABOX_OUTDIR", str(tmp_path / "env"))
        assert run_cli([*args, "--outdir", str(tmp_path / "ignored")]) == 0
        assert not (tmp_path / "ignored").exists()
        hashes = []
        for outdir in (tmp_path / "out", tmp_path / "env"):
            assert sorted(os.listdir(outdir)) == sorted([*artifacts, "manifest.txt"])
            manifest = outdir / "manifest.txt"
            assert manifest_section(manifest, "outputs") == {
                name: str(outdir / name) for name in artifacts}
            hashes.append(manifest_section(manifest, "inputs")["config_hash"])
            assert_runtime_section(manifest)
        assert hashes[0] == hashes[1] and len(hashes[0]) == 12
        for name in artifacts:
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "env" / name).read_bytes()


class TestConfigHash:
    SMALL = ["--T", "0.5", "--n-steps", "50", "--k-max", "21"]

    def test_stable(self):
        h1 = config_hash({"a": "1", "b": "2"})
        h2 = config_hash({"b": "2", "a": "1"})
        assert h1 == h2 and len(h1) == 12

    @staticmethod
    def write_inputs(folder):
        """A state file and a pl coupling file (alpha(0) = 0) on the SMALL grid."""
        folder.mkdir()
        save_state(str(folder / "psi0.txt"), SpectralCoefficients.unit(3, 21))
        times = 0.5 * np.arange(51) / 50
        (folder / "alpha.csv").write_text(
            "".join(f"{t!r},{0.05 * math.sin(t)!r}\n" for t in times.tolist()))
        return folder / "psi0.txt", folder / "alpha.csv"

    @staticmethod
    def simulate_hash(args, outdir):
        assert run_cli(["simulate", *args, "--outdir", str(outdir)]) == 0
        return manifest_section(outdir / "manifest.txt", "inputs")["config_hash"]

    @pytest.mark.parametrize("psi0", ["file:{}", "domain:{}:0:0"])
    def test_inputs_hash_by_contents(self, psi0, tmp_path):
        hashes = []
        for name in ("a", "b"):
            state, alpha = self.write_inputs(tmp_path / name)
            hashes.append(self.simulate_hash(
                ["--psi0", psi0.format(state), "--alpha", f"pl:{alpha}", *self.SMALL],
                tmp_path / f"out-{name}"))
        assert hashes[0] == hashes[1]
        # one byte changed at the same path: the last digit of the second row
        rows = alpha.read_text().splitlines()
        rows[1] = rows[1][:-1] + ("1" if rows[1][-1] != "1" else "2")
        alpha.write_text("\n".join(rows) + "\n")
        changed = self.simulate_hash(
            ["--psi0", psi0.format(state), "--alpha", f"pl:{alpha}", *self.SMALL],
            tmp_path / "out-changed")
        assert changed != hashes[1]

    @staticmethod
    def control_hash(target, outdir):
        assert run_cli(["control", "--target", str(target), "--k-max", "21",
                        "--n-steps", "2000", "--outdir", str(outdir)]) == 0
        return manifest_section(outdir / "manifest.txt", "inputs")["config_hash"]

    def test_control_target_hashes_by_contents(self, tmp_path):
        rows = "k,re_c,im_c\n3,1.0,0.0\n5,0.0,0.5\n"
        hashes = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            target = tmp_path / name / "target.csv"
            target.write_text(rows)
            hashes.append(self.control_hash(target, tmp_path / f"out-{name}"))
        assert hashes[0] == hashes[1]
        assert self.control_hash(target, tmp_path / "out-again") == hashes[1]
        # one coefficient changed at the same path
        target.write_text(rows.replace("0.5", "0.25"))
        assert self.control_hash(target, tmp_path / "out-changed") != hashes[1]

    def test_config_file_hashes_like_flags(self, tmp_path):
        flags = ["--psi0", "eig:1", "--alpha", "bump:0.4", *self.SMALL]
        expected = self.simulate_hash(flags, tmp_path / "flags")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("version=1\npsi0=eig:1\nalpha=bump:0.4\nT=0.50\nn_steps=50\n"
                       f"k_max=21\noutdir={tmp_path / 'cfg-out'}\n"
                       "tol_boundary=1e-8\ntol_norm_drift=1e-6\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 0
        got = manifest_section(tmp_path / "cfg-out" / "manifest.txt", "inputs")["config_hash"]
        assert got == expected


class TestIOExitCode:
    def test_unwritable_outdir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "zero",
                        "--T", "0.5", "--n-steps", "50", "--k-max", "21",
                        "--outdir", str(blocker)])
        assert code == 3


class TestImportBudget:
    @pytest.mark.parametrize("module, absent", [
        ("deltabox", ("scipy", "deltabox.verify", "deltabox.oracles")),
        # the CLI keeps verify and oracles, which need numpy alone
        ("deltabox.cli", ("scipy",)),
    ])
    def test_import_leaves_heavy_modules_unloaded(self, module, absent):
        proc = run_python(["-c", f"import sys, {module}; "
                                 f"print(*(m for m in {absent!r} if m in sys.modules))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_openblas_threads_follow_the_environment(self):
        # the thread count OpenBLAS reports at run time, not the variable it was given
        proc = run_python(["-c", "from deltabox.kernels import runtime_record; "
                                 "print(runtime_record()['openblas_threads'])"],
                          OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ("unknown" if _bundled_trsv() is None else "1")

    def test_two_mode_control_leaves_numpy_fft_unloaded(self, tmp_path):
        # the steering experiment's 2-mode target takes the direct sine sum, not the FFT
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,0.6,0.0\n7,0.0,0.8\n")
        args = ["control", "--target", str(target), "--k-max", "21", "--experiment",
                "--outdir", str(tmp_path / "out")]
        proc = run_python(["-c", "import sys, deltabox.cli as cli; "
                                 f"code = cli.main({args!r}); "
                                 "print('RESULT', code, 'numpy.fft' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "RESULT 0 False"

    def test_allocator_call_without_mallopt_is_a_noop(self, monkeypatch):
        # a C library without mallopt (or no handle to one) leaves everything as it was
        class NoMallopt:
            pass

        monkeypatch.setattr(kernels, "_malloc_thresholds", "default")
        monkeypatch.setattr(kernels.ctypes, "CDLL", lambda name: NoMallopt())
        kernels.keep_grid_arrays_on_heap()
        assert runtime_record()["malloc_thresholds"] == "unavailable"

    def test_import_leaves_the_allocator_at_its_defaults(self):
        # glibc's mallinfo2 counts the bytes in mmapped blocks: after `import deltabox` a
        # 16 MiB array is one (the default threshold is at most 32 MiB only once blocks
        # that large were freed), and after the CLI's call it is on the heap
        if not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("the C library has no mallinfo2 (glibc 2.33 or later)")
        code = textwrap.dedent("""
            import ctypes, numpy as np, deltabox
            from deltabox import kernels

            class Info(ctypes.Structure):
                _fields_ = [(name, ctypes.c_size_t) for name in (
                    "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                    "fsmblks", "uordblks", "fordblks", "keepcost")]

            mallinfo2 = ctypes.CDLL(None).mallinfo2
            mallinfo2.restype = Info

            def mmapped(n_bytes):
                before = mallinfo2().hblkhd
                block = np.empty(n_bytes // 8)
                return mallinfo2().hblkhd - before >= n_bytes

            print(kernels.runtime_record()["malloc_thresholds"], mmapped(16 << 20))
            kernels.keep_grid_arrays_on_heap()
            print(kernels.runtime_record()["malloc_thresholds"], mmapped(16 << 20))
        """)
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["default True", f"{SET_THRESHOLDS} False"]

    def test_same_artifacts_at_one_and_two_threads(self, tmp_path):
        # cli.main runs the bundled OpenBLAS on one thread: simulate on a dense state and
        # the verify report come out byte-identical at OPENBLAS_NUM_THREADS=1 and 2, and
        # the manifests differ only in the variable seen at import
        if runtime_record()["openblas_threads"] == "unknown":
            pytest.skip("numpy's BLAS is not the bundled OpenBLAS; its threads are unknown")
        k = np.arange(1, 102)
        psi0 = tmp_path / "psi0.txt"
        save_state(str(psi0), SpectralCoefficients(101, np.exp(0.7j * k**2) / k**3.0))
        out = tmp_path / "run"
        commands = [["simulate", "--psi0", f"file:{psi0}", "--alpha", "bump:0.5", "--T", "2",
                     "--n-steps", "2000", "--k-max", "101", "--outdir", str(out)],
                    ["verify", "--out", str(out / "verify.txt")]]
        runs = []
        for threads in ("1", "2"):
            for args in commands:
                proc = run_python(["-m", "deltabox.cli", *args], OPENBLAS_NUM_THREADS=threads)
                assert proc.returncode == 0, proc.stderr
            runs.append({path.name: path.read_text() for path in sorted(out.iterdir())})
            for path in out.iterdir():
                path.unlink()
        one, two = runs
        assert list(one) == list(two) == ["final_state.txt", "manifest.txt", "trajectory.csv",
                                          "verify.txt"]
        manifests = [run.pop("manifest.txt").splitlines() for run in runs]
        assert one == two
        changed = [(a, b) for a, b in zip(*manifests) if a != b]
        assert changed == [("OPENBLAS_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=2")]
        assert "openblas_threads=1" in manifests[1]

    def test_workloads_leave_numpy_ma_unloaded(self, tmp_path):
        # simulate, the steering experiment and the verify battery; np.median would load it
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        out = str(tmp_path / "out")
        commands = [
            ["simulate", "--alpha", "bump:0.5", "--T", "1.0", "--n-steps", "300",
             "--k-max", "41", "--outdir", out],
            ["control", "--target", str(target), "--k-max", "21", "--experiment",
             "--n-steps", "2000", "--outdir", out],
            ["verify"],
        ]
        proc = run_python(["-c", "import sys, deltabox.cli as cli; "
                                 f"codes = [cli.main(args) for args in {commands!r}]; "
                                 "print('RESULT', codes, 'numpy.ma' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "RESULT [0, 0, 0] False"

    @pytest.mark.skipif(_bundled_trsv() is None, reason="numpy's BLAS is not OpenBLAS")
    def test_commands_load_no_scipy(self, tmp_path):
        # every command in one interpreter, the full verify battery included
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n3,1.0,0.0\n")
        out = str(tmp_path / "out")
        commands = [
            ["simulate", "--alpha", "bump:0.5", "--T", "1.0", "--n-steps", "300",
             "--k-max", "41", "--outdir", out],
            ["control", "--target", str(target), "--k-max", "21", "--outdir", out],
            ["spectrum", "--alpha", "-2.0", "--outdir", out],
            ["green", "--x", "0.5"],
            ["sweep", "--what", "green-kmax", "--outdir", out],
            ["verify"],
        ]
        proc = run_python(["-c", "import sys, deltabox.cli as cli; "
                                 f"codes = [cli.main(args) for args in {commands!r}]; "
                                 "print('RESULT', codes, "
                                 "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"RESULT {[0] * len(commands)} []"
