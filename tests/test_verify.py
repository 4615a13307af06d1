import dataclasses
import json
import math

import pytest

import phaseineq.classical as cl
import phaseineq.verify as verify
from phaseineq.verify import (
    SUITE_NAMES,
    SuiteConfig,
    default_config,
    run_suite,
    threshold_solve,
)

FAST_SUITES = (
    "data-processing",
    "fisher-isoperimetry",
    "concavity",
    "entropy-isoperimetry",
    "majorization",
    "correspondence",
    "geometric-optimality",
    "log-sobolev",
    "cou",
)


def _fast_config(name: str) -> SuiteConfig:
    return dataclasses.replace(default_config(name), cases=2)


class TestSuiteRegistry:
    def test_all_names_registered(self):
        assert len(SUITE_NAMES) == 13
        assert "stam" in SUITE_NAMES and "cou" in SUITE_NAMES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite_name="nope"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(suite_name="stam", tolerance=0.0)
        with pytest.raises(ValueError):
            SuiteConfig(suite_name="stam", cases=0)


class TestReports:
    @pytest.mark.parametrize("name", FAST_SUITES)
    def test_fast_suites_pass(self, name):
        report = run_suite(_fast_config(name))
        assert report.passed, [c.descriptor for c in report.cases if not c.passed]

    def test_report_structure(self):
        report = run_suite(_fast_config("concavity"))
        d = dataclasses.asdict(report)
        assert d["suite"] == "concavity"
        assert d["summary"]["failures"] == 0
        assert d["summary"]["cases"] == len(d["cases"])
        assert all({"descriptor", "margin", "passed", "asserted"} <= set(c)
                   for c in d["cases"])
        json.dumps(d)  # serializable end to end

    def test_report_deterministic_outside_metadata(self):
        cfg = _fast_config("concavity")
        d1 = dataclasses.asdict(run_suite(cfg))
        d2 = dataclasses.asdict(run_suite(cfg))
        d1.pop("metadata")
        d2.pop("metadata")
        assert d1 == d2

    def test_seed_changes_random_cases(self):
        base = run_suite(_fast_config("concavity"))
        other = run_suite(dataclasses.replace(_fast_config("concavity"), seed=7))
        m1 = [c.margin for c in base.cases if "random" in c.descriptor]
        m2 = [c.margin for c in other.cases if "random" in c.descriptor]
        assert m1 and m1 != m2

    def test_wall_time_recorded(self):
        report = run_suite(_fast_config("cou"))
        assert report.metadata["wall_time_s"] > 0


class TestErrorPolicy:
    def test_numerical_failure_becomes_error_case(self):
        # At dim 16 the heat flow pushes the random state into the edge band.
        report = run_suite(default_config("stam", dim=16, cases=1))
        errors = [c for c in report.cases if c.error is not None]
        assert len(errors) == 3
        for c in errors:
            assert c.error.startswith(
                "TruncationError: convolution pushed edge mass")
            assert c.margin == -math.inf and not c.passed
        assert not report.passed

    def test_programming_error_propagates(self, monkeypatch):
        def broken(f, rho, t):
            raise TypeError("broken margin")

        monkeypatch.setattr(verify, "stam_margin", broken)
        with pytest.raises(TypeError, match="broken margin"):
            run_suite(default_config("stam", dim=32, cases=1))

    def test_certificate_runs_once_per_n(self, monkeypatch):
        calls = []

        def geometric_bound(n, K):
            calls.append(n)
            return -2.0 * n * math.log(1.0 + 1.0 / n)

        monkeypatch.setattr(cl, "certified_rate_bound", geometric_bound)
        report = run_suite(_fast_config("geometric-optimality"))
        assert calls == [0.5, 1.0, 2.0]
        assert [c.descriptor for c in report.cases] == [
            "constrained-minimum-value", "no-feasible-beats-closed",
            "fock-attenuator-rate"] * 3

    def test_certificate_failure_becomes_error_cases(self, monkeypatch):
        def failing(n, K):
            raise RuntimeError("certificate failed")

        monkeypatch.setattr(cl, "certified_rate_bound", failing)
        report = run_suite(_fast_config("geometric-optimality"))
        assert [c.descriptor for c in report.cases] == [
            "constrained-minimum-value", "no-feasible-beats-closed",
            "fock-attenuator-rate"] * 3
        errors = [c for c in report.cases if c.error is not None]
        assert [c.error for c in errors] == [
            "RuntimeError: certificate failed"] * 6
        assert [c.params for c in errors] == [
            {"n": n, "K": 64} for n in (0.5, 1.0, 2.0) for _ in range(2)]
        fock = [c for c in report.cases
                if c.descriptor == "fock-attenuator-rate"]
        assert all(c.passed and c.error is None for c in fock)
        assert not report.passed


class TestSlowSuites:
    def test_stam_suite(self):
        assert run_suite(dataclasses.replace(default_config("stam"), cases=1)).passed

    def test_de_bruijn_suite(self):
        assert run_suite(dataclasses.replace(default_config("de-bruijn"), cases=1)).passed

    def test_epi_heat_suite(self):
        assert run_suite(dataclasses.replace(default_config("epi-heat"), cases=1)).passed

    def test_rate_decay_suite(self):
        assert run_suite(dataclasses.replace(
            default_config("rate-decay-identity"), cases=1)).passed


class TestThresholds:
    def test_photon_threshold(self):
        val = threshold_solve("Photon067")
        assert 0.66 <= val <= 0.68
        # Root property: the defining function changes sign across it.
        f = lambda n: -n * math.log(1 + 1 / n) + 2 - 2 * math.log(2)
        assert f(val - 1e-3) * f(val + 1e-3) < 0

    def test_entropy_threshold(self):
        assert 2.0 <= threshold_solve("Entropy206") <= 2.2

    def test_unknown_threshold(self):
        with pytest.raises(ValueError):
            threshold_solve("nope")
