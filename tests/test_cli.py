"""CLI: config validation, round-trips, dispatch, artifact determinism,
exit codes, and SVG well-formedness."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import levyloewner
from levyloewner.cli import main, parse_config
from levyloewner.errors import ConfigError


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config("hitprob", {})
        assert cfg.params["n"] == 2000
        assert cfg.params["kappa"] == 0.0
        assert cfg.workers == 1
        assert cfg.out == "ll-out-hitprob"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("hitprob", {"kapppa": 2.0})

    def test_alpha_domain_message(self):
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0,2\]"):
            parse_config("hitprob", {"alpha": 2.5})

    def test_flag_style_values(self):
        cfg = parse_config("phase", {"grid": ["kappa=2,8"], "z": "1", "n": "500"})
        assert cfg.params["grid"] == {"kappa": [2.0, 8.0]}
        assert cfg.params["z"] == [1.0, 0.0]
        assert cfg.params["n"] == 500

    def test_round_trip_identity(self):
        cfg = parse_config("scalecheck", {"alpha": 0.5, "statistic": "exit_time", "seed": 7})
        again = parse_config("scalecheck", cfg.serialize())
        assert again == cfg

    @given(st.sampled_from(["hitprob", "overshoot", "area", "scalecheck"]),
           st.integers(0, 2 ** 63 - 1), st.integers(1, 8),
           st.floats(0.1, 1.9), st.floats(0.0, 10.0), st.integers(100, 5000))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_fuzzed(self, sub, seed, workers, alpha, kappa, n):
        from levyloewner.cli import SCHEMAS

        mapping = {"seed": seed, "workers": workers, "alpha": alpha, "kappa": kappa}
        if "n" in SCHEMAS[sub]:
            mapping["n"] = n
        cfg = parse_config(sub, mapping)
        assert parse_config(sub, cfg.serialize()) == cfg

    def test_env_workers_default(self, monkeypatch):
        monkeypatch.setenv("LL_WORKERS", "6")
        assert parse_config("gamma", {}).workers == 6


def run_cli(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


class TestDispatch:
    def test_gamma_csv(self, tmp_path):
        assert run_cli(tmp_path / "g", "gamma", "--alphas", "1.5", "--p-values", "1.0,1.2") == 0
        text = (tmp_path / "g" / "gamma.csv").read_text()
        header, *rows = text.strip().splitlines()
        assert header == "alpha,p,gamma,A_const,class"
        assert len(rows) == 2
        assert "superharmonic" in rows[0] + rows[1]

    def test_theta0_csv(self, tmp_path):
        assert run_cli(tmp_path / "t", "theta0", "--alphas", "1.5") == 0
        rows = (tmp_path / "t" / "theta0.csv").read_text().strip().splitlines()
        assert float(rows[1].split(",")[1]) == pytest.approx(3.1915382432, rel=1e-6)

    def test_trace_null_driver(self, tmp_path):
        out = tmp_path / "tr"
        assert run_cli(out, "trace", "--z0", "0,1", "--horizon", "0.5",
                       "--path-dt", "0.01", "--resolution", "24,20") == 0
        for name in ("trajectory.csv", "trajectory.svg", "cluster.svg",
                     "cluster.csv", "driver.csv", "outcome.json", "manifest.json"):
            assert (out / name).exists()
        ET.fromstring((out / "cluster.svg").read_text())  # well-formed XML
        ET.fromstring((out / "trajectory.svg").read_text())
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["zeta"] == pytest.approx(0.25, abs=1e-6)

    def test_phase_two_rows(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli(out, "phase", "--grid", "kappa=2,8", "--z", "1",
                       "--n", "200", "--horizon", "5") == 0
        rows = (out / "phase.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert rows[0].startswith("kappa,alpha,theta,beta,re_z,im_z,n,T,hit_frac")

    def test_exit_code_config_error(self, tmp_path):
        assert run_cli(tmp_path, "hitprob", "--alpha", "2.5") == 2

    @pytest.mark.parametrize("workers", ["0", "x"])
    def test_bad_worker_count_exit_2(self, tmp_path, workers):
        assert run_cli(tmp_path, "gamma", "--workers", workers) == 2

    def test_exit_code_statistical_error(self, tmp_path):
        # no 1/2-crossing on a grid entirely below the critical strength
        code = main(["theta0-bracket", "--grid-mults", "0.01,0.02", "--n", "200",
                     "--horizon", "5", "--out", str(tmp_path / "b")])
        assert code == 4

    def test_config_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"alphas": [1.3], "seed": 5}))
        out = tmp_path / "g2"
        assert main(["theta0", "--config", str(cfg_file), "--alphas", "1.5",
                     "--out", str(out)]) == 0
        rows = (out / "theta0.csv").read_text().strip().splitlines()
        assert rows[1].startswith("1.5,")

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"bogus_key": 1}))
        assert main(["theta0", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("sub, mapping", [
        ("hitprob", {"n": 2000.5}),
        ("hitprob", {"n": True}),
        ("theta0", {"seed": 1.5}),
        ("theta0", {"workers": 2.7}),
    ])
    def test_config_integer_not_truncated_exit_2(self, tmp_path, sub, mapping):
        # a JSON fraction or boolean for an integer key is an error, not int()
        cfg_file = tmp_path / "int.json"
        cfg_file.write_text(json.dumps(mapping))
        assert main([sub, "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("sub", ["gamma", "theta0"])
    def test_coefficients_take_no_tolerance(self, tmp_path, sub):
        # gamma and theta0 are closed forms: there is no quadrature tolerance
        cfg_file = tmp_path / "tol.json"
        cfg_file.write_text(json.dumps({"tol": 1e-10}))
        assert main([sub, "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["trace", "--window=-1,1,0"],
        ["trace", "--window=-1,1,0,1,5"],
        ["trace", "--resolution", "4"],
        ["trace", "--resolution", "5.7,4"],
        ["trace", "--resolution", "4,4,4"],
        ["disconnect", "--window=-1,1"],
        ["disconnect", "--resolution", "10"],
        ["disconnect", "--resolution", "10.5,4"],
    ])
    def test_bad_window_or_resolution_exit_2(self, tmp_path, argv):
        small = (["--horizon", "0.1", "--path-dt", "0.01"] if argv[0] == "trace"
                 else ["--t", "0.1", "--n", "1", "--path-dt", "0.01"])
        assert run_cli(tmp_path, *argv, *small) == 2


    @pytest.mark.parametrize("argv", [
        ["hitprob", "--kappa", "nan"],
        ["hitprob", "--kappa", "inf"],
        ["hitprob", "--theta", "nan"],
        ["hitprob", "--horizon=-inf"],
        ["hitprob", "--z", "nan,1"],
        ["phase", "--grid", "kappa=2,nan"],
        ["scalecheck", "--exit-radius", "nan"],
        ["area", "--r-list", "nan,1"],
        ["theta0", "--alphas", "1.5,inf"],
    ])
    def test_non_finite_value_exit_2(self, tmp_path, argv):
        assert run_cli(tmp_path, *argv) == 2

    def test_non_finite_config_value_exit_2(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"kappa": float("nan")}))
        assert main(["hitprob", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2


class TestDeterminism:
    def _collect(self, out_dir: Path) -> dict:
        blobs = {}
        for f in sorted(out_dir.iterdir()):
            if f.name == "manifest.json":
                manifest = json.loads(f.read_text())
                blobs["manifest:outputs"] = manifest["outputs"]
                blobs["manifest:config"] = manifest["config"]
            else:
                blobs[f.name] = f.read_bytes()
        return blobs

    @pytest.mark.parametrize("argv", [
        ["hitprob", "--kappa", "8", "--theta", "1", "--n", "300", "--horizon", "5", "--seed", "9"],
        ["phase", "--grid", "kappa=2,8", "--n", "200", "--horizon", "4", "--seed", "9"],
        ["area", "--r-list", "0.5", "--resolution", "32", "--horizon", "2",
         "--replicas", "2", "--seed", "9"],
        ["disconnect", "--cpp-rate", "1", "--cpp-size", "50", "--n", "10",
         "--window=-60,60,0,3", "--resolution", "240,8", "--seed", "9"],
        ["scalecheck", "--alpha", "0.5", "--statistic", "exit_time", "--n", "500",
         "--horizon", "4", "--exit-radius", "4", "--seed", "9"],
        ["trace", "--kappa", "4", "--horizon", "0.3", "--path-dt", "0.005",
         "--resolution", "16,12", "--seed", "9"],
    ])
    def test_byte_identical_across_workers(self, tmp_path, argv):
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(argv + ["--workers", "1", "--out", str(a)]) == 0
        assert main(argv + ["--workers", "4", "--out", str(b)]) == 0
        blob_a, blob_b = self._collect(a), self._collect(b)
        blob_a.pop("manifest:config")
        blob_b.pop("manifest:config")  # differ in the workers field only
        assert blob_a == blob_b

    def test_same_config_twice_identical(self, tmp_path):
        argv = ["hitprob", "--kappa", "2", "--theta", "1", "--n", "300",
                "--horizon", "5", "--seed", "77"]
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "hitprob.csv").read_bytes() == (b / "hitprob.csv").read_bytes()

    def test_manifest_lists_all_outputs_with_checksums(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli(out, "gamma", "--alphas", "1.5") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = {f.name for f in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == files
        import hashlib
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


class TestExecutable:
    def test_module_entry_point(self, tmp_path):
        # the child imports the package under test, installed or not
        src = str(Path(levyloewner.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "levyloewner.cli", "theta0", "--alphas", "1.5",
             "--out", str(tmp_path / "cli")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr


def test_version_string_once_per_process(tmp_path, monkeypatch):
    real_run = subprocess.run
    git_calls = []

    def counting_run(args, *a, **kw):
        if args and args[0] == "git":
            git_calls.append(args)
        return real_run(args, *a, **kw)

    monkeypatch.setattr(subprocess, "run", counting_run)
    for name in ("a", "b"):
        assert run_cli(tmp_path / name, "theta0", "--alphas", "1.5") == 0
    assert len(git_calls) <= 1
    versions = {json.loads((tmp_path / name / "manifest.json").read_text())["version"]
                for name in ("a", "b")}
    assert len(versions) == 1
