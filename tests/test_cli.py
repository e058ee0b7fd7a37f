"""Command-line interface: flags, exit codes, JSON schemas, file outputs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perinull
from perinull.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBfCommand:
    def test_point_variant_from_reported_t(self, capsys):
        code, out, _ = run_cli(capsys, "bf", "--t", "2.0", "--n1", "47",
                               "--n2", "43", "--design", "two-sample",
                               "--variant", "point", "--kappa1", "0.7071067811865476")
        assert code == 0
        bf_line = next(line for line in out.splitlines() if line.startswith("BF "))
        assert abs(float(bf_line.split(":")[1]) - 1.259) < 0.005

    def test_summary_path_recomputes_t(self, capsys):
        code, out, _ = run_cli(capsys, "bf", "--summary", "25.1", "7.3", "47",
                               "28.0", "6.2", "43", "--variant", "point",
                               "--kappa1", "0.7071067811865476", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["t"] - (-2.0217486513848826)) < 1e-12
        assert payload["nu"] == 88.0

    def test_peri_decomposition_echo(self, capsys):
        code, out, _ = run_cli(capsys, "bf", "--t", "0", "--n", "50",
                               "--design", "one-sample", "--variant", "peri",
                               "--kappa0", "0.05", "--kappa1", "0.7071")
        assert code == 0
        values = {}
        for line in out.splitlines():
            key, _, raw = line.partition(":")
            try:
                values[key.strip()] = float(raw)
            except ValueError:
                continue
        assert values["BF"] < 1.0
        product = values["point-null log BF"] + values["correction log BF"]
        assert abs(values["log BF"] - product) < 1e-10

    def test_posterior_probability_at_t4(self, capsys):
        code, out, _ = run_cli(capsys, "bf", "--t", "4.0", "--n1", "47",
                               "--n2", "43", "--design", "two-sample",
                               "--variant", "point",
                               "--kappa1", "0.7071067811865476",
                               "--prior-odds", "1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["posterior_prob_numerator"] - 0.994) < 0.001

    def test_json_round_trip_precision(self, capsys):
        _, out, _ = run_cli(capsys, "bf", "--t", "1.234567890123456", "--n", "37",
                            "--variant", "peri", "--json")
        payload = json.loads(out)
        assert payload["t"] == 1.234567890123456
        reparsed = json.loads(json.dumps(payload))
        assert reparsed == payload

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["bf", "--variant", "nonsense"])
        assert info.value.code == 2

    def test_missing_inputs_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["bf", "--variant", "point"])
        assert info.value.code == 2

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bf", "--t", "0", "--n", "50",
                               "--variant", "interval", "--a", "1e9")
        assert code == 3
        assert "numerical failure" in err

    def test_interval_outside_slice_beyond_exp_underflow_computes(self, capsys):
        code, out, err = run_cli(capsys, "bf", "--variant", "interval", "--t", "1",
                                 "--n", "200000", "--kappa1", "0.7071", "--a", "0.1",
                                 "--json")
        assert code == 0
        assert abs(json.loads(out)["log_bf"] - (-962.8138)) < 1e-4
        assert "Traceback" not in err


class TestAsymptoticsCommand:
    def test_single_point_values(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--mu", "0", "--sigma", "1",
                               "--kappa0", "0.05", "--kappa1", "1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["limit_log_bf"] - (-3.22)) < 0.01
        assert abs(payload["c1_peri"] - (-199.83)) < 0.01

    def test_alternative_limit(self, capsys):
        _, out, _ = run_cli(capsys, "asymptotics", "--mu", "0.167", "--sigma", "1",
                            "--kappa0", "0.05", "--kappa1", "1", "--json")
        payload = json.loads(out)
        assert abs(payload["limit_log_bf"] - math.log(10)) < 0.04

    def test_grid_validity_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--mu", "0",
                               "--kappa0", "0.05", "--kappa1", "1",
                               "--grid", "180:190:1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,limit,bias,")
        rows = [line.split(",") for line in lines[1:]]
        first_valid = next(row for row in rows if row[-1] == "true")
        assert first_valid[0] == "184"
        for row in rows:
            if row[-1] == "false":
                assert int(row[0]) < 184

    def test_grid_written_with_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "asymptotics", "--mu", "0.167",
                             "--kappa0", "0.05", "--kappa1", "1",
                             "--grid", "100:300:100", "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["command"] == "asymptotics"
        assert set(manifest) == {"command", "parameters", "seed", "version",
                                 "timestamp"}


class TestSimulateCommand:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["simulate", "--mu", "0", "--kappa0", "0.05", "--kappa1", "1",
                "--ngrid", "50:150:50", "--reps", "3", "--seed", "7"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out", str(dir_a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(dir_b))[0] == 0
        assert (dir_a / "curves.csv").read_bytes() == (dir_b / "curves.csv").read_bytes()

    def test_curves_schema_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "simulate", "--mu", "0.167",
                             "--kappa0", "0.05", "--kappa1", "1",
                             "--ngrid", "200:400:100", "--reps", "2",
                             "--seed", "5", "--out", str(out_dir),
                             "--emit-plotscript")
        assert code == 0
        lines = (out_dir / "curves.csv").read_text().splitlines()
        assert lines[0] == "variant,n,mean,q025,q975,source"
        sources = {line.split(",")[-1] for line in lines[1:]}
        assert sources == {"simulated", "asymptotic"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["parameters"]["reps"] == 2
        assert manifest["failed_cells"] == {"point": 0, "peri": 0}
        assert (out_dir / "plot_curves.py").exists()

    def test_environment_seed_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PERINULL_SEED", "31337")
        out_dir = tmp_path / "env"
        code, _, _ = run_cli(capsys, "simulate", "--mu", "0", "--kappa0", "0.05",
                             "--kappa1", "1", "--ngrid", "50:50:1", "--reps", "1",
                             "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 31337

    @pytest.mark.parametrize("value", ["abc", "-1", str(2 ** 64), "1.5"])
    def test_invalid_environment_seed_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PERINULL_SEED", value)
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--mu", "0", "--kappa0", "0.05", "--kappa1", "1",
                  "--ngrid", "50:50:1", "--reps", "1"])
        assert info.value.code == 2
        assert "PERINULL_SEED" in capsys.readouterr().err

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--mu", "0", "--kappa0", "0.05",
                               "--kappa1", "1", "--ngrid", "50:50:1",
                               "--reps", "2", "--seed", "3")
        assert code == 0
        assert out.splitlines()[0] == "variant,n,mean,q025,q975,source"

    def test_json_mode_matches_csv_records(self, capsys):
        args = ["simulate", "--mu", "0", "--kappa0", "0.05", "--kappa1", "1",
                "--ngrid", "50:100:50", "--reps", "2", "--seed", "3"]
        code, csv_out, _ = run_cli(capsys, *args)
        code_j, json_out, _ = run_cli(capsys, *args, "--json")
        assert code == 0 and code_j == 0
        rows = json.loads(json_out)
        csv_lines = csv_out.strip().splitlines()[1:]
        assert len(rows) == len(csv_lines)
        for row, line in zip(rows, csv_lines):
            variant, n, mean, *_ = line.split(",")
            assert row["variant"] == variant
            assert row["n"] == int(n)
            assert row["mean"] == float(mean)


class TestLaplaceVerifyCommand:
    def test_conjugate_gaussian_accuracy(self, capsys):
        code, out, _ = run_cli(capsys, "laplace-verify", "--model",
                               "conjugate-gaussian", "--n", "100", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["log_with_c2_abs_error"] < 1e-10

    def test_beta_bernoulli_monotone_improvement(self, capsys):
        code, out, _ = run_cli(capsys, "laplace-verify", "--model",
                               "beta-bernoulli", "--n", "50", "--json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["log_with_c2_abs_error"] < payload["log_with_c1_abs_error"]
                < payload["log_leading_abs_error"])

    def test_ttest_peri_reports_reference_constant(self, capsys):
        code, out, _ = run_cli(capsys, "laplace-verify", "--model", "ttest-peri",
                               "--theta", "0", "1", "--kappa0", "0.05",
                               "--n", "1000", "--json")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["c1"] - (-199.83)) < 0.5
        assert abs(payload["closed_form_c1"] - (-199.83)) < 0.01
        assert "oracle_log_marginal" in payload

    def test_ttest_alt_runs(self, capsys):
        code, out, _ = run_cli(capsys, "laplace-verify", "--model", "ttest-alt",
                               "--theta", "0.2", "1.1", "--kappa1", "0.707",
                               "--n", "500", "--json")
        payload = json.loads(out)
        assert code == 0
        assert math.isfinite(payload["c1"])


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("kappa0 = 0.10\nkappa1 = 1.0\nmu = 0\n")
        code, out, _ = run_cli(capsys, "asymptotics", "--config", str(config),
                               "--kappa0", "0.05", "--json")
        payload = json.loads(out)
        assert code == 0
        # --kappa0 wins over the config file; kappa1/mu come from the file
        assert abs(payload["limit_log_bf"] - (-3.22)) < 0.01

    def test_config_only_values(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\nkappa0 = 0.10\nkappa1 = 1.0\nmu = 0\n")
        code, out, _ = run_cli(capsys, "asymptotics", "--config", str(config),
                               "--json")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["limit_log_bf"] - (-2.53)) < 0.01

    def test_malformed_config_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a key value pair\n")
        with pytest.raises(SystemExit) as info:
            main(["asymptotics", "--config", str(config), "--mu", "0",
                  "--kappa0", "0.05", "--kappa1", "1"])
        assert info.value.code == 2


def test_import_loads_neither_scipy_stats_nor_integrate():
    """A cold ``perinull`` process pays only for numpy and scipy.special."""
    src = str(Path(perinull.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, perinull.cli; "
             "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
