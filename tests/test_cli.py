import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltabox.cli import _SIMULATE_KEYS, _parse_alpha, _parse_psi0, main
from deltabox.iofiles import (
    config_hash,
    load_state,
    load_target_csv,
    parse_config_text,
    save_control_csv,
    save_state,
    save_trajectory_csv,
)
from deltabox.errors import InputError
from deltabox.spectral import SpectralCoefficients, TimeGrid


def run_cli(args):
    return main(args)


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
        assert (out / "manifest.txt").exists()

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

    def test_env_outdir_override(self, tmp_path, monkeypatch):
        envdir = tmp_path / "envout"
        monkeypatch.setenv("DELTABOX_OUTDIR", str(envdir))
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "zero", "--T", "0.5",
                        "--n-steps", "50", "--k-max", "21", "--outdir", str(tmp_path / "ig")])
        assert code == 0
        assert (envdir / "manifest.txt").exists()

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


SMALL_RUN = ["--T", "0.5", "--n-steps", "10", "--k-max", "21"]
BAD_INPUTS = {
    "eig-index": ["simulate", "--psi0", "eig:abc", *SMALL_RUN],
    "bump-amplitude": ["simulate", "--alpha", "bump:x", *SMALL_RUN],
    "const-amplitude": ["simulate", "--alpha", "const:x", *SMALL_RUN],
    "domain-charge": ["simulate", "--psi0", "domain:{state}:x:0", *SMALL_RUN],
    "domain-shift": ["simulate", "--psi0", "domain:{state}:0:0:y", *SMALL_RUN],
    "spectrum-window": ["spectrum", "--alpha", "1.0", "--window", "5"],
    "state-line": ["simulate", "--psi0", "file:{bad_state}", *SMALL_RUN],
    "target-line": ["control", "--target", "{bad_target}", "--k-max", "21"],
    "sweep-level": ["sweep", "--what", "green-kmax", "--levels", "nan,10,100"],
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
        args = [a.format(state=state, bad_state=bad_state, bad_target=bad_target)
                for a in BAD_INPUTS[case]]
        code = run_cli(args + ["--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:")
        assert "Traceback" not in err

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

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
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


class TestSeriesCsv:
    @pytest.mark.parametrize("writer, columns", [(save_trajectory_csv, "t,re_q,im_q"),
                                                 (save_control_csv, "t,re_u,im_u")])
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


class TestSweepCommand:
    def test_green_sweep(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli(["sweep", "--what", "green-kmax", "--outdir", str(out)]) == 0
        text = (out / "sweep_green-kmax.csv").read_text()
        assert text.startswith("# slope=")
        assert "k_max,abs_error" in text

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
        target.write_text("k,re_c,im_c\n1,1.0,0.0\n")
        out = tmp_path / "ctl"
        code = run_cli(["control", "--target", str(target), "--k-bar", "1",
                        "--k-max", "101", "--outdir", str(out)])
        assert code == 0
        report = (out / "control_report.txt").read_text()
        assert "moment_residual" in report
        residual = float(report.splitlines()[1].split()[1])
        assert residual < 1e-8
        body = [ln for ln in (out / "control.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert body[0] == "t,re_u,im_u"

    def test_even_target_rejected(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("k,re_c,im_c\n2,1.0,0.0\n")
        code = run_cli(["control", "--target", str(target), "--outdir",
                        str(tmp_path / "o")])
        assert code == 1


class TestConfigHash:
    def test_stable(self):
        h1 = config_hash({"a": "1", "b": "2"})
        h2 = config_hash({"b": "2", "a": "1"})
        assert h1 == h2 and len(h1) == 12


class TestIOExitCode:
    def test_unwritable_outdir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run_cli(["simulate", "--psi0", "eig:1", "--alpha", "zero",
                        "--T", "0.5", "--n-steps", "50", "--k-max", "21",
                        "--outdir", str(blocker)])
        assert code == 3
