import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phaseineq
from phaseineq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "concavity", "--cases", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "concavity"
        assert payload["summary"]["failures"] == 0

    def test_stdout_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "majorization", "--cases", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "majorization"
        assert payload["config"] == {"cases": 1, "seed": 0}

    def test_unknown_suite_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "bogus")
        assert code == 2

    def test_bad_tolerance_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "log-sobolev", "--tol", "0")
        assert code == 2
        assert "tolerance must be > 0" in err

    @pytest.mark.parametrize("cfg, suite, flags, reads", [
        (None, "cou", ("--cases", "2"), "reads no parameters"),
        (None, "majorization", ("--dim", "64"), "reads cases, seed"),
        (None, "entropy-isoperimetry", ("--tol", "1e-6"),
         "reads dim, cases, seed"),
        ({"dim": 16}, "cou", (), "reads no parameters"),
        (None, "rate-decay-identity", ("--dim", "128"),
         "reads cases, seed, tolerance"),
    ])
    def test_unread_suite_parameter_exits_two(self, capsys, tmp_path, cfg,
                                              suite, flags, reads):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg or {}))
        code, out, err = run_cli(capsys, "--config", str(path), "verify",
                                 suite, *flags)
        assert code == 2
        assert out == ""
        assert f"suite {suite!r} does not read" in err and reads in err

    def test_seed_accepted_by_seedless_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "correspondence",
                               "--seed", "3")
        assert code == 0
        assert json.loads(out)["config"] == {"dim": 128, "tolerance": 1e-3}

    @pytest.mark.parametrize("argv", [
        ("verify", "cou", "--format", "csv"),
        ("thresholds", "--which", "photon", "--format", "csv"),
        ("closed-forms", "lsi2", "--dim", "64"),
        ("minimize-rate", "--n", "1", "--cases", "3"),
        ("minimize-rate", "--n", "1", "--seed", "3"),
    ])
    def test_ignored_flag_exits_two(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


class TestTrajectoryCommand:
    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "attenuator",
                               "--n0", "1", "--tmax", "1", "--steps", "4",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["t", "entropy"]
        assert len(lines) == 6
        final = lines[-1].split(",")
        assert float(final[4]) == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_qou_reports_relative_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "qou", "--n0", "3",
                               "--tmax", "0.5", "--steps", "2")
        payload = json.loads(out)
        assert code == 0
        relent_col = payload["columns"].index("relent_to_fixed")
        relents = [row[relent_col] for row in payload["rows"]]
        assert relents[0] > relents[-1] > 0


class TestDeathProcessCommand:
    def test_mean_decay(self, capsys):
        code, out, _ = run_cli(capsys, "death-process", "--init", "geometric:1",
                               "--K", "128", "--tmax", "1", "--steps", "2")
        payload = json.loads(out)
        assert code == 0
        mean_col = payload["columns"].index("mean")
        assert payload["rows"][-1][mean_col] == pytest.approx(
            math.exp(-1.0), rel=1e-6)

    def test_bad_init_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "death-process", "--init", "uniform")
        assert code == 2
        assert "error" in err


class TestClosedFormsCommand:
    def test_fisher_tightness_limits(self, capsys):
        code, out, _ = run_cli(capsys, "closed-forms", "fisher-tightness",
                               "--grid", "0.1:1000:30")
        payload = json.loads(out)
        assert code == 0
        ratio_col = payload["columns"].index("isoperimetric_ratio")
        ratios = [row[ratio_col] for row in payload["rows"]]
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)

    def test_entropy_tightness_limit(self, capsys):
        code, out, _ = run_cli(capsys, "closed-forms", "entropy-tightness",
                               "--grid", "1:1000:30")
        payload = json.loads(out)
        prod_col = payload["columns"].index("product_over_4pie")
        prods = [row[prod_col] for row in payload["rows"]]
        assert all(p >= 1.0 - 1e-12 for p in prods)
        assert prods[-1] == pytest.approx(1.0, abs=1e-2)

    def test_lsi2_table(self, capsys):
        code, out, _ = run_cli(capsys, "closed-forms", "lsi2",
                               "--mu", "1.4142135623730951", "--lambda", "1")
        payload = json.loads(out)
        row = payload["rows"][0]
        cols = payload["columns"]
        assert row[cols.index("alpha2_lower")] < row[cols.index("alpha2_upper")]

    def test_fisher_tightness_rejects_zero_photons(self, capsys):
        # The isoperimetric ratio has no value at n = 0, where J is infinite.
        code, out, err = run_cli(capsys, "closed-forms", "fisher-tightness",
                                 "--grid", "0:1:3")
        assert code == 2
        assert out == ""
        assert "n must be > 0, got 0.0" in err

    def test_bad_grid_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "closed-forms", "fisher-tightness",
                             "--grid", "oops")
        assert code == 2


class TestThresholdsCommand:
    def test_photon(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--which", "photon")
        assert code == 0
        assert 0.66 <= json.loads(out)["root"] <= 0.68

    def test_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--which", "entropy")
        assert 2.0 <= json.loads(out)["root"] <= 2.2


class TestMinimizeRateCommand:
    def test_gap_small(self, capsys):
        code, out, _ = run_cli(capsys, "minimize-rate", "--n", "1", "--K", "64")
        payload = json.loads(out)
        assert code == 0
        assert payload["gap"] <= 1e-8
        assert payload["certified_lower_bound"] <= payload["j_geometric"]


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": 2}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "verify",
                               "majorization")
        assert code == 0
        assert json.loads(out)["config"]["cases"] == 2

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": 2}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "verify",
                               "majorization", "--cases", "3")
        assert json.loads(out)["config"]["cases"] == 3

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": 2}))
        monkeypatch.setenv("PHASEINEQ_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "verify", "majorization")
        assert json.loads(out)["config"]["cases"] == 2

    @pytest.mark.parametrize("cfg, argv, named", [
        ({"dmi": 16}, ("verify", "cou"), "'dmi' is unknown"),
        ({"format": "csv"}, ("verify", "cou"), "'format' is not read by verify"),
        ({"format": "csv"}, ("thresholds", "--which", "photon"),
         "'format' is not read by thresholds"),
        ({"seed": 1}, ("minimize-rate", "--n", "1"),
         "'seed' is not read by minimize-rate"),
    ])
    def test_unread_config_key_exits_two(self, capsys, tmp_path, cfg, argv,
                                         named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert code == 2
        assert out == ""
        assert named in err and "accepted keys:" in err

    @pytest.mark.parametrize("cfg, named", [
        ({"cases": 1.9}, "'cases' must be an integer, got 1.9"),
        ({"cases": True}, "'cases' must be an integer, got True"),
        ({"dim": 64.5}, "'dim' must be an integer, got 64.5"),
        ({"seed": "3"}, "'seed' must be an integer, got '3'"),
        ({"tol": "1e-3"}, "'tol' must be a number, got '1e-3'"),
        ({"tol": False}, "'tol' must be a number, got False"),
    ])
    def test_mistyped_config_value_exits_two(self, capsys, tmp_path, cfg,
                                             named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "--config", str(path), "verify",
                                 "majorization")
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("value", ["xml", 5])
    def test_config_format_outside_choices_exits_two(self, capsys, tmp_path,
                                                      value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": value}))
        code, out, err = run_cli(capsys, "--config", str(path), "trajectory",
                                 "heat")
        assert code == 2
        assert out == ""
        assert (f"config key 'format' must be one of json, csv, got {value!r}"
                in err)

    def test_integral_config_values_accepted(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cases": 2.0, "seed": 1}))
        code, out, _ = run_cli(capsys, "--config", str(path), "verify",
                               "majorization")
        assert code == 0
        assert json.loads(out)["config"] == {"cases": 2, "seed": 1}

    def test_missing_config_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "--config", "/nonexistent.json",
                             "verify", "cou")
        assert code == 2


class TestCrossProcessDeterminism:
    def test_report_identical_under_any_global_seed(self):
        # Fresh interpreters whose global numpy RNG and string hashing start
        # in different states must still compute the same margins to the
        # last bit.  The stam convolution is isotropic and draws nothing
        # from the global RNG; the sparse exponential, whose randomized norm
        # estimates do, has its own seed test in test_semigroups.
        src = str(Path(phaseineq.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        script = ("import json, sys, numpy; numpy.random.seed(int(sys.argv[1])); "
                  "from phaseineq.verify import run_suite; "
                  "report = run_suite('stam', cases=1); "
                  "print(json.dumps([[c.descriptor, float.hex(c.margin)] "
                  "for c in report.cases]))")
        margins = []
        for seed in ("1", "9"):
            proc = subprocess.run([sys.executable, "-c", script, seed],
                                  env=env | {"PYTHONHASHSEED": seed},
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            margins.append(json.loads(proc.stdout))
        assert margins[0] == margins[1]


class TestOutputRounding:
    def test_twelve_significant_digits(self, capsys):
        _, out1, _ = run_cli(capsys, "thresholds", "--which", "photon")
        _, out2, _ = run_cli(capsys, "thresholds", "--which", "photon")
        assert out1 == out2
        root = json.loads(out1)["root"]
        assert float(f"{root:.12g}") == root
