import dataclasses
import json
import math

import pytest

import phaseineq.classical as cl
import phaseineq.gaussian as ga
import phaseineq.verify as verify
from phaseineq.verify import SUITE_NAMES, run_suite, threshold_solve

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

# The parameters each suite reads, in the order its report records them.
READS = {
    "data-processing": ["dim", "cases", "seed", "tolerance"],
    "stam": ["dim", "cases", "seed", "tolerance"],
    "de-bruijn": ["dim", "cases", "seed", "tolerance"],
    "fisher-isoperimetry": ["dim", "cases", "seed", "tolerance"],
    "concavity": ["dim", "cases", "seed", "tolerance"],
    "epi-heat": ["dim", "cases", "seed", "tolerance"],
    "rate-decay-identity": ["cases", "seed", "tolerance"],
    "entropy-isoperimetry": ["dim", "cases", "seed"],
    "majorization": ["cases", "seed"],
    "correspondence": ["dim", "tolerance"],
    "geometric-optimality": ["dim", "tolerance"],
    "log-sobolev": ["tolerance"],
    "cou": [],
}


def _fast_run(name: str, **params):
    """Run a suite at two random cases where it reads cases."""
    if "cases" in READS[name]:
        params.setdefault("cases", 2)
    return run_suite(name, **params)


class TestSuiteRegistry:
    def test_all_names_registered(self):
        assert len(SUITE_NAMES) == 13
        assert "stam" in SUITE_NAMES and "cou" in SUITE_NAMES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            run_suite("stam", tolerance=0.0)
        with pytest.raises(ValueError, match="cases must be >= 1"):
            run_suite("stam", cases=0)

    # The CLI tests cover one unread flag per suite; here several at once,
    # and a name no suite reads.
    @pytest.mark.parametrize("name, params, reads", [
        ("log-sobolev", {"dim": 16, "cases": 1}, "reads tolerance"),
        ("stam", {"tol": 1e-3}, "reads dim, cases, seed, tolerance"),
    ])
    def test_unread_parameter_rejected(self, name, params, reads):
        with pytest.raises(ValueError, match=f"suite {name!r} does not read "
                           f"{', '.join(params)}; it {reads}"):
            run_suite(name, **params)


class TestReports:
    @pytest.mark.parametrize("name", FAST_SUITES)
    def test_fast_suites_pass(self, name):
        report = _fast_run(name)
        assert report.passed, [c.descriptor for c in report.cases if not c.passed]

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_config_records_what_the_suite_reads(self, name, monkeypatch):
        # The config is fixed before any case runs; skip the cases.  Every
        # suite accepts seed, and records it only where it reads it.
        monkeypatch.setattr(verify, "_run_checks", lambda checks: [])
        params = {"dim": 32, "cases": 1, "seed": 4, "tolerance": 0.5}
        report = run_suite(name, **{k: v for k, v in params.items()
                                    if k in READS[name] or k == "seed"})
        assert list(report.config) == READS[name]
        assert report.config == {k: params[k] for k in READS[name]}

    def test_defaults_fill_what_a_suite_reads(self, monkeypatch):
        monkeypatch.setattr(verify, "_run_checks", lambda checks: [])
        assert run_suite("fisher-isoperimetry").config == {
            "dim": 128, "cases": 5, "seed": 0, "tolerance": 1e-3}
        assert run_suite("correspondence", seed=3).config == {
            "dim": 128, "tolerance": 1e-3}

    def test_report_structure(self):
        report = _fast_run("concavity")
        d = dataclasses.asdict(report)
        assert d["suite"] == "concavity"
        assert d["summary"]["failures"] == 0
        assert d["summary"]["cases"] == len(d["cases"])
        assert all({"descriptor", "margin", "passed", "asserted"} <= set(c)
                   for c in d["cases"])
        json.dumps(d)  # serializable end to end

    def test_report_deterministic_outside_metadata(self):
        d1 = dataclasses.asdict(_fast_run("concavity"))
        d2 = dataclasses.asdict(_fast_run("concavity"))
        d1.pop("metadata")
        d2.pop("metadata")
        assert d1 == d2

    def test_seed_changes_random_cases(self):
        base = _fast_run("concavity")
        other = _fast_run("concavity", seed=7)
        m1 = [c.margin for c in base.cases if "random" in c.descriptor]
        m2 = [c.margin for c in other.cases if "random" in c.descriptor]
        assert m1 and m1 != m2

    def test_wall_time_recorded(self):
        report = run_suite("cou")
        assert report.metadata["wall_time_s"] > 0


def _thermal_margins(name: str) -> dict:
    """Margins of a suite's closed-form thermal cases, keyed by n; the
    random cases are built at a small dim and never evaluated."""
    checks = verify._SUITES[name](dim=32, cases=1, seed=0, tolerance=1e-3)
    return {c.params["n"]: c.margin for c in checks
            if c.descriptor == f"{name}-thermal"}


class TestThermalCurvature:
    def test_concavity_is_scaled_isoperimetry(self):
        # -N'' = (N J^2/4)(d/dt (2/J) - 1) at omega_n: one pointwise
        # statement behind both suites' thermal cases.
        concave = _thermal_margins("concavity")
        iso = _thermal_margins("fisher-isoperimetry")
        assert list(concave) == list(iso) == [0.5, 1.0, 2.0]
        for n, margin in concave.items():
            j = ga.thermal_fisher_closed(n)
            expected = math.exp(ga.g_entropy(n)) * j**2 / 4.0 * iso[n]
            assert margin == pytest.approx(expected, rel=1e-12)
            assert margin > 0


class TestErrorPolicy:
    def test_numerical_failure_becomes_error_case(self):
        # At dim 16 the heat flow pushes the random state into the edge band.
        report = run_suite("stam", dim=16, cases=1)
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
            run_suite("stam", dim=32, cases=1)

    def test_certificate_runs_once_per_n(self, monkeypatch):
        calls = []

        def geometric_bound(n, K):
            calls.append(n)
            return -2.0 * n * math.log(1.0 + 1.0 / n)

        monkeypatch.setattr(cl, "certified_rate_bound", geometric_bound)
        report = run_suite("geometric-optimality")
        assert calls == [0.5, 1.0, 2.0]
        assert [c.descriptor for c in report.cases] == [
            "constrained-minimum-value", "no-feasible-beats-closed",
            "fock-attenuator-rate"] * 3

    def test_certificate_failure_becomes_error_cases(self, monkeypatch):
        def failing(n, K):
            raise RuntimeError("certificate failed")

        monkeypatch.setattr(cl, "certified_rate_bound", failing)
        report = run_suite("geometric-optimality")
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
        assert run_suite("stam", cases=1).passed

    def test_de_bruijn_suite(self):
        assert run_suite("de-bruijn", cases=1).passed

    def test_epi_heat_suite(self):
        assert run_suite("epi-heat", cases=1).passed

    def test_rate_decay_suite(self):
        assert run_suite("rate-decay-identity", cases=1).passed


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
