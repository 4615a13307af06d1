import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phaseineq
from phaseineq.cli import main
from phaseineq.verify import SUITE_NAMES


def fresh_env(**extra):
    """The environment for a fresh interpreter that imports this checkout's
    phaseineq."""
    src = str(Path(phaseineq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env | extra


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
        for tol in ("0", "nan", "inf"):
            code, out, err = run_cli(capsys, "verify", "log-sobolev",
                                     "--tol", tol)
            assert code == 2 and out == ""
            assert "tolerance must be > 0 and finite" in err

    @pytest.mark.parametrize("suite, flags, reads", [
        ("cou", ("--cases", "2"), "reads no parameters"),
        ("majorization", ("--dim", "64"), "reads cases, seed"),
        ("majorization", ("--tol", "1e-6"), "reads cases, seed"),
        ("cou", ("--dim", "16"), "reads no parameters"),
        ("rate-decay-identity", ("--dim", "128"),
         "reads cases, seed, tolerance"),
    ])
    def test_unread_suite_parameter_exits_two(self, capsys, suite, flags,
                                              reads):
        code, out, err = run_cli(capsys, "verify", suite, *flags)
        assert code == 2
        assert out == ""
        assert f"suite {suite!r} does not read" in err and reads in err

    def test_environment_does_not_change_report(self, capsys, monkeypatch):
        # Flags are the only input: no variable names a config file.
        reports = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "verify", "cou")
            assert code == 0
            reports.append({k: v for k, v in json.loads(out).items()
                            if k != "metadata"})
            monkeypatch.setenv("PHASEINEQ_CONFIG", "/nonexistent/cfg.json")
        assert reports[0] == reports[1]

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
        ("closed-forms", "lsi2", "--grid", "5:6:7"),
        ("closed-forms", "fisher-tightness", "--mu", "9", "--lambda", "3"),
        ("trajectory", "heat", "--mu", "0.5", "--lambda", "7"),
        ("trajectory", "heat", "--steps", "-1"),
        ("death-process", "--steps", "-1"),
    ])
    def test_ignored_flag_exits_two(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv, named", [
        (("verify", "stam", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("verify", "correspondence", "--dim", "0"), "dim must be >= 2, got 0"),
        (("verify", "geometric-optimality", "--dim", "-3"),
         "dim must be >= 2, got -3"),
        (("death-process", "--K", "-5"), "K must be >= 1, got -5"),
        (("trajectory", "attenuator", "--tmax", "nan"),
         "--tmax: must be finite, got nan"),
        (("trajectory", "heat", "--n0", "inf"), "--n0: must be finite, got inf"),
        (("trajectory", "qou", "--mu", "nan"), "--mu: must be finite, got nan"),
        (("closed-forms", "lsi2", "--lambda", "inf"),
         "--lambda: must be finite, got inf"),
        (("death-process", "--tmax", "nan"), "--tmax: must be finite, got nan"),
        (("death-process", "--n0", "nan"), "--n0: must be finite, got nan"),
        (("death-process", "--n0", "abc"), "--n0: not a number: 'abc'"),
        (("death-process", "--n0", "-1"), "--n0: must be >= 0, got -1"),
        (("trajectory", "heat", "--n0", "-1", "--steps", "1"),
         "--n0: must be >= 0, got -1"),
        (("minimize-rate", "--n", "inf"), "--n: must be finite, got inf"),
        (("minimize-rate", "--n", "nan"), "--n: must be finite, got nan"),
        (("minimize-rate", "--n", "one"), "--n: not a number: 'one'"),
        # A negative --tmax is refused whatever --steps, even where the
        # grid holds only t = 0.
        (("trajectory", "heat", "--tmax", "-1", "--steps", "0"),
         "--tmax: must be >= 0, got -1"),
        (("trajectory", "qou", "--tmax", "-2"), "--tmax: must be >= 0, got -2"),
        (("death-process", "--tmax", "-1", "--steps", "0"),
         "--tmax: must be >= 0, got -1"),
        (("death-process", "--tmax", "-0.5"), "--tmax: must be >= 0, got -0.5"),
        # A table holds steps + 1 rows, at most 10^6 of them, as for a
        # --grid.  Rejection only: a death-process table at the bound takes
        # minutes.
        (("trajectory", "heat", "--steps", "1000000"),
         "--steps: must be between 0 and 999999, so that the table holds at "
         "most 1000000 rows, got 1000000"),
        (("trajectory", "heat", "--steps", "100000000000"),
         "--steps: must be between 0 and 999999"),
        (("death-process", "--steps", "1000000"),
         "--steps: must be between 0 and 999999"),
        # A mean photon number or entropy power past the largest double:
        # math.exp overflows in the mean, or in the entropy power, or the
        # mean is inf.
        (("trajectory", "amplifier", "--tmax", "1000", "--steps", "1"),
         "entropy power at t = 1000 exceeds the largest double; lower --tmax "
         "or --n0"),
        (("trajectory", "amplifier", "--n0", "1e308", "--tmax", "1",
          "--steps", "1"),
         "entropy power at t = 0 exceeds the largest double; lower --tmax or "
         "--n0"),
        (("trajectory", "heat", "--tmax", "1e308", "--steps", "1"),
         "entropy power at t = 1e+308 exceeds the largest double; lower "
         "--tmax or --n0"),
        # g(1e308) is about 710.2, past the log of the largest double.
        (("closed-forms", "entropy-tightness", "--grid", "1e307:1e308:2"),
         "error: the entropy power at n = 1e+308 exceeds the largest double; "
         "lower the stop of --grid"),
        # Sizes are bounded before anything of that size is allocated.
        (("death-process", "--K", "100000000"),
         "K must be < 1000000 (10^6 levels), got 100000000"),
        (("minimize-rate", "--n", "1", "--K", "100000000"),
         "K must be < 1000000"),
        (("verify", "stam", "--dim", "100000"),
         "dim must be <= 2048, got 100000"),
    ], ids=["seed", "dim", "dim-negative", "K", "trajectory-tmax", "n0",
            "mu", "lambda", "death-tmax", "init", "init-text", "init-negative",
            "n0-negative", "n-inf", "n-nan", "n-text",
            "trajectory-tmax-negative-steps-0", "trajectory-tmax-negative",
            "death-tmax-negative-steps-0", "death-tmax-negative",
            "trajectory-steps-bound", "trajectory-steps-huge",
            "death-steps-bound", "mean-overflow", "power-overflow",
            "mean-infinite", "grid-power-overflow", "death-K-bound",
            "minimize-K-bound", "dim-bound"])
    def test_out_of_range_value_names_parameter(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("argv", [
        ("closed-forms", "gaussian-rates", "--mu", "1e200", "--lambda", "1",
         "--grid", "1:2:2"),
        ("closed-forms", "lsi2", "--mu", "1e200", "--lambda", "1"),
        ("closed-forms", "lsi2", "--mu", "1e-200", "--lambda", "1e-201"),
        ("trajectory", "qou", "--mu", "1e-200", "--lambda", "1e-201",
         "--steps", "1"),
        ("trajectory", "qou", "--mu", "1e200", "--lambda", "1", "--steps",
         "1"),
        ("closed-forms", "gaussian-rates", "--mu", "1e-200", "--lambda",
         "1e-201", "--grid", "1:2:2"),
    ], ids=["rates-overflow", "lsi2-overflow", "lsi2-underflow",
            "trajectory-underflow", "trajectory-overflow", "rates-underflow"])
    def test_qou_rates_outside_the_doubles_name_mu_and_lambda(self, capsys,
                                                               argv):
        # mu^2 overflows, or mu^2 and lam^2 underflow: the qOU is refused
        # before any row, whichever row would have failed first.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        mu, lam = (float(argv[argv.index(flag) + 1])
                   for flag in ("--mu", "--lambda"))
        assert f"got mu = {mu!r}, lambda = {lam!r}" in err
        assert "--tmax" not in err and "--n0" not in err


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

    def test_attenuator_long_time_mean_does_not_cancel(self, capsys):
        # e^{-40}, below the rounding of 2n + 1: the mean must not be read
        # back from a covariance.
        code, out, _ = run_cli(capsys, "trajectory", "attenuator",
                               "--tmax", "40", "--steps", "1")
        payload = json.loads(out)
        assert code == 0
        mean_col = payload["columns"].index("mean_photon")
        assert payload["rows"][-1][mean_col] == 4.24835425529e-18

    def test_qou_reports_relative_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "qou", "--n0", "3",
                               "--tmax", "0.5", "--steps", "2")
        payload = json.loads(out)
        assert code == 0
        relent_col = payload["columns"].index("relent_to_fixed")
        relents = [row[relent_col] for row in payload["rows"]]
        assert relents[0] > relents[-1] > 0

    def test_qou_relative_entropy_far_from_fixed_point(self, capsys):
        # D = n log 2 (1 + O(log(n)/n)) at m = 1: finite, though the psi
        # terms of the near form overflow.
        code, out, _ = run_cli(capsys, "trajectory", "qou", "--n0", "1e306",
                               "--steps", "1")
        assert code == 0
        payload = json.loads(out)
        relent_col = payload["columns"].index("relent_to_fixed")
        assert payload["rows"][0][relent_col] == 6.9314718056e305

    def test_qou_relative_entropy_at_a_large_fixed_point(self, capsys):
        # m = 2^51 at mu = 1 + 2^-52, lambda = 1: 80-digit values rounded
        # to the 12 printed digits.
        code, out, _ = run_cli(capsys, "trajectory", "qou", "--mu",
                               "1.0000000000000002", "--lambda", "1",
                               "--tmax", "1", "--steps", "1")
        assert code == 0
        payload = json.loads(out)
        relent_col = payload["columns"].index("relent_to_fixed")
        assert [row[relent_col] for row in payload["rows"]] == [
            33.9642118474, 33.4409637037]

    def test_heat_from_below_where_one_over_n_overflows(self, capsys):
        # At n0 = 1e-310 the entropy is about 7e-308 and its power about 1.
        code, out, _ = run_cli(capsys, "trajectory", "heat", "--n0", "1e-310",
                               "--steps", "1")
        assert code == 0
        first = json.loads(out)["rows"][0]
        assert first[:5] == [0.0, 7.14801378828e-308, 1.0, 8969.8926714,
                             1e-310]

    def test_qou_relative_entropy_keeps_precision_near_fixed_point(self,
                                                                   capsys):
        # 50-digit values of D(omega_{n_t} || omega_m) at the double rates
        # mu^2 = fl(sqrt 2)^2, lam^2 = 1, rounded to the 12 printed digits;
        # n_t - m keeps only the digits of n_t past m = 1.
        code, out, _ = run_cli(capsys, "trajectory", "qou", "--n0", "3",
                               "--tmax", "40", "--steps", "4")
        assert code == 0
        payload = json.loads(out)
        relent_col = payload["columns"].index("relent_to_fixed")
        assert [row[relent_col] for row in payload["rows"][1:]] == [
            2.06106005116e-09, 4.24835424654e-18, 8.7565107627e-27,
            1.80485138785e-35]


class TestDeathProcessCommand:
    def test_mean_decay(self, capsys):
        code, out, _ = run_cli(capsys, "death-process", "--n0", "1",
                               "--K", "128", "--tmax", "1", "--steps", "2")
        payload = json.loads(out)
        assert code == 0
        mean_col = payload["columns"].index("mean")
        assert payload["rows"][-1][mean_col] == pytest.approx(
            math.exp(-1.0), rel=1e-6)

    def test_bad_init_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "death-process", "--n0", "uniform")
        assert code == 2
        assert out == ""
        assert "--n0: not a number: 'uniform'" in err


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

    @pytest.mark.parametrize("n, row", [
        (1e-6, [1e-06, -2.76310231159e-05, 27.631050747, 12.4292181968]),
        (1e8, [100000000.0, -1.99999999, 2.00000001, 17.0343864028])])
    def test_gaussian_rates_correctly_rounded(self, capsys, n, row):
        # 50-digit values of (n, J_-, J_+, h) rounded to the 12 printed
        # digits; kappa = 2n + 1 and log((kappa+1)/(kappa-1)) lost up to
        # 8 of them at these ends of the grid.
        code, out, _ = run_cli(capsys, "closed-forms", "gaussian-rates",
                               "--grid", f"{n}:{n}:1")
        assert code == 0
        assert json.loads(out)["rows"] == [row]

    def test_gaussian_rates_h_next_to_the_fixed_point(self, capsys):
        # The default grid's n = 1 lies 4.4e-16 above the fixed point
        # n* = 0.9999999999999996 of the default rates, where h is second
        # order in n - n*; the 80-digit value, rounded to 12 digits.
        code, out, _ = run_cli(capsys, "closed-forms", "gaussian-rates")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[3] for row in rows if row[0] == 1.0] == [4.93038065763e-32]

    def test_lsi2_table(self, capsys):
        code, out, _ = run_cli(capsys, "closed-forms", "lsi2",
                               "--mu", "1.4142135623730951", "--lambda", "1")
        payload = json.loads(out)
        row = payload["rows"][0]
        cols = payload["columns"]
        assert row[cols.index("alpha2_lower")] < row[cols.index("alpha2_upper")]

    def test_lsi2_lower_bounds_at_the_smallest_rates(self, capsys):
        # Subnormal bounds, from mu^2 over the inverse constants formed
        # without their 1/mu^2, which would overflow.
        code, out, _ = run_cli(capsys, "closed-forms", "lsi2", "--mu",
                               "3e-154", "--lambda", "2.1e-154")
        assert code == 0
        payload = json.loads(out)
        row, cols = payload["rows"][0], payload["columns"]
        assert row[cols.index("alpha2_lower")] == 3.54035056511e-311
        assert row[cols.index("alphaC_lower")] == 1.18762984512e-310

    @pytest.mark.parametrize("table, grid, nulls", [
        ("fisher-tightness", "1e-320:1e-300:3", 1),
        ("fisher-tightness", "1e150:1e200:3", 0),
        ("gaussian-rates", "1e-320:1e-310:2", 0)])
    def test_cells_are_finite_over_the_double_range(self, capsys, table,
                                                    grid, nulls):
        # Below n of about 5.6e-309 1/n overflows; past about 6.7e153
        # log^2(1 + 1/n) is subnormal and n(n+1) then overflows.  Only the
        # isoperimetric ratio at 1e-320, about 1.8e314, lies past the
        # largest double.
        code, out, _ = run_cli(capsys, "closed-forms", table, "--grid", grid)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [v for row in rows for v in row].count(None) == nulls
        if table == "fisher-tightness" and nulls == 0:
            assert [row[2] for row in rows] == [1.0, 1.0, 1.0]

    def test_fisher_tightness_rejects_zero_photons(self, capsys):
        # The isoperimetric ratio has no value at n = 0, where J is infinite.
        code, out, err = run_cli(capsys, "closed-forms", "fisher-tightness",
                                 "--grid", "0:1:3")
        assert code == 2
        assert out == ""
        assert "n must be > 0, got 0.0" in err

    @pytest.mark.parametrize("spec", ["oops", "nan:1:3", "1:inf:3", "1:2:0",
                                      "1:2:100000000000"])
    def test_bad_grid_exits_two(self, capsys, spec):
        code, out, err = run_cli(capsys, "closed-forms", "fisher-tightness",
                                 "--grid", spec)
        assert code == 2
        assert out == ""
        assert repr(spec) in err

    @pytest.mark.parametrize("spec", ["1:2:x", "a:2:3", "1:b:3", "1:2:2.5",
                                      "1:2", "1:2:3:4"])
    def test_malformed_grid_names_its_form(self, capsys, spec):
        code, out, err = run_cli(capsys, "closed-forms", "fisher-tightness",
                                 "--grid", spec)
        assert code == 2
        assert out == ""
        assert err == (f"error: grid spec must be start:stop:count with an "
                       f"integer count, got {spec!r}\n")

    def test_zero_tmax_is_accepted(self, capsys):
        for argv in (("trajectory", "heat"), ("death-process",)):
            code, out, _ = run_cli(capsys, *argv, "--tmax", "0", "--steps", "2")
            assert code == 0
            assert [row[0] for row in json.loads(out)["rows"]] == [0.0] * 3


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

    @pytest.mark.filterwarnings("error")
    def test_underflowing_law_is_refused(self, capsys):
        # The geometric law of mean 0.01 is 0 from level 162 on.
        code, out, err = run_cli(capsys, "minimize-rate", "--n", "0.01",
                                 "--K", "256")
        assert code == 2
        assert out == ""
        assert "use K <= 161" in err


class TestCrossProcessDeterminism:
    def test_report_identical_under_any_global_seed(self):
        # Fresh interpreters whose global numpy RNG and string hashing start
        # in different states must still compute the same margins to the
        # last bit.  stam's isotropic and data-processing's anisotropic
        # convolutions both take the Chebyshev series and the other flows
        # uniformization, neither of which draws anything; test_semigroups
        # holds the flows to that with the global random state disabled.
        script = ("import json, sys, numpy; numpy.random.seed(int(sys.argv[1])); "
                  "from phaseineq.verify import run_suite; "
                  "print(json.dumps([[c.descriptor, float.hex(c.margin)] "
                  "for suite in ('stam', 'data-processing') "
                  "for c in run_suite(suite, cases=1).cases]))")
        margins = []
        for seed in ("1", "9"):
            proc = subprocess.run([sys.executable, "-c", script, seed],
                                  env=fresh_env(PYTHONHASHSEED=seed),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            margins.append(json.loads(proc.stdout))
        assert margins[0] == margins[1]


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency.
        script = ("import sys, phaseineq.cli; print(sorted(m for m in "
                  "sys.modules if m.partition('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [("verify", "log-sobolev"),
                                      ("thresholds", "--which", "entropy")])
    def test_root_finds_run_in_fresh_process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "phaseineq.cli", *argv],
                              env=fresh_env(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_every_command_runs_with_scipy_blocked(self):
        # A None entry in sys.modules makes every import of scipy raise.
        commands = (
            [["verify", suite] for suite in SUITE_NAMES]
            + [["thresholds", "--which", w] for w in ("entropy", "photon")]
            + [["closed-forms", table] for table in (
                "fisher-tightness", "entropy-tightness", "gaussian-rates",
                "lsi2")]
            + [["trajectory", kind] for kind in ("heat", "attenuator",
                                                 "amplifier")]
            + [["trajectory", "qou", "--mu", "1.5", "--lambda", "1"],
               ["death-process"], ["minimize-rate", "--n", "1"]])
        script = ("import contextlib, io, json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from phaseineq.cli import main\n"
                  "codes = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        codes.append(main(argv))\n"
                  "print(json.dumps(codes))\n")
        proc = subprocess.run([sys.executable, "-c", script,
                               json.dumps(commands)], env=fresh_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes = dict(zip(map(" ".join, commands), json.loads(proc.stdout)))
        assert codes == {" ".join(argv): 0 for argv in commands}


class TestStrictJson:
    @staticmethod
    def strict(text):
        def reject(token):
            raise ValueError(f"non-JSON token {token}")
        return json.loads(text, parse_constant=reject)

    def test_infinite_fisher_information_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "closed-forms", "entropy-tightness",
                               "--grid", "0:1:2")
        assert code == 0
        rows = self.strict(out)["rows"]
        # The vacuum's J and J N are infinite; the next row is finite.
        assert rows[0][1] is None and rows[0][3] is None
        assert all(v is not None for v in rows[1])

    def test_csv_writes_non_finite_as_empty_field(self, capsys):
        code, out, _ = run_cli(capsys, "closed-forms", "entropy-tightness",
                               "--grid", "0:1:2", "--format", "csv")
        assert code == 0
        # The vacuum's J and J N are infinite, as in the JSON table.
        assert out.splitlines()[1] == "0,,1,"

    def test_error_case_margin_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "stam", "--dim", "16",
                               "--cases", "1")
        assert code == 1
        errors = [c for c in self.strict(out)["cases"]
                  if c["error"] is not None]
        assert errors and all(c["margin"] is None for c in errors)


class TestOutputRounding:
    def test_twelve_significant_digits(self, capsys):
        _, out1, _ = run_cli(capsys, "thresholds", "--which", "photon")
        _, out2, _ = run_cli(capsys, "thresholds", "--which", "photon")
        assert out1 == out2
        root = json.loads(out1)["root"]
        assert float(f"{root:.12g}") == root
