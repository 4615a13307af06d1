import dataclasses
import json
import math

import pytest

import phaseineq.classical as cl
import phaseineq.gaussian as ga
import phaseineq.semigroups as semigroups
import phaseineq.verify as verify
from phaseineq.cli import main
from phaseineq.fock_core import (
    StateFamily, TruncationError, random_state, thermal_state)
from phaseineq.verify import (
    SUITE_NAMES, entropy_threshold, photon_threshold, run_suite)

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
    "data-processing": ["dim", "cases", "seed"],
    "stam": ["dim", "cases", "seed"],
    "de-bruijn": ["dim", "cases", "seed"],
    "fisher-isoperimetry": ["dim", "cases", "seed"],
    "concavity": ["dim", "cases", "seed"],
    "epi-heat": ["dim", "cases", "seed"],
    "rate-decay-identity": ["cases", "seed"],
    "entropy-isoperimetry": ["dim", "cases", "seed"],
    "majorization": ["cases", "seed"],
    "correspondence": ["dim"],
    "geometric-optimality": [],
    "log-sobolev": [],
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
        with pytest.raises(ValueError, match="cases must be >= 1"):
            run_suite("stam", cases=0)

    @pytest.mark.parametrize("name, dim", [("correspondence", 0),
                                           ("correspondence", -3)])
    def test_dim_below_two_rejected(self, name, dim):
        with pytest.raises(ValueError, match=f"dim must be >= 2, got {dim}$"):
            run_suite(name, dim=dim)

    @pytest.mark.parametrize("dim", [2049, 100000])
    def test_dim_above_2048_rejected(self, dim):
        # Rejection only: no state of that dim is built.
        with pytest.raises(ValueError,
                           match=f"dim must be <= 2048, got {dim}$"):
            run_suite("stam", dim=dim)

    # The CLI tests cover one unread flag per suite; here several at once,
    # a name no suite reads, and tolerance, which each suite fixes for
    # itself.
    @pytest.mark.parametrize("name, params, reads", [
        ("log-sobolev", {"dim": 16, "cases": 1}, "reads no parameters"),
        ("stam", {"tol": 1e-3}, "reads dim, cases, seed"),
        ("stam", {"tolerance": 1e-3}, "reads dim, cases, seed"),
    ])
    def test_unread_parameter_rejected(self, name, params, reads):
        with pytest.raises(ValueError, match=f"suite {name!r} does not read "
                           f"{', '.join(params)}; it {reads}"):
            run_suite(name, **params)


def _unevaluated_case(descriptor, params, margin, tol, **kwargs):
    """A passing case whose margin is never computed."""
    return verify.CaseRecord(descriptor, params, 0.0, tol, True)


class TestReports:
    @pytest.mark.parametrize("name", FAST_SUITES)
    def test_fast_suites_pass(self, name):
        report = _fast_run(name)
        assert report.passed, [c.descriptor for c in report.cases if not c.passed]

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_config_records_what_the_suite_reads(self, name, monkeypatch):
        # The config is fixed before any case runs; skip the margins.  Every
        # suite accepts seed, and records it only where it reads it.
        monkeypatch.setattr(verify, "_case", _unevaluated_case)
        params = {"dim": 32, "cases": 1, "seed": 4}
        report = run_suite(name, **{k: v for k, v in params.items()
                                    if k in READS[name] or k == "seed"})
        assert list(report.config) == READS[name]
        assert report.config == {k: params[k] for k in READS[name]}

    def test_defaults_fill_what_a_suite_reads(self, monkeypatch):
        monkeypatch.setattr(verify, "_case", _unevaluated_case)
        assert run_suite("fisher-isoperimetry").config == {
            "dim": 128, "cases": 5, "seed": 0}
        assert run_suite("correspondence", seed=3).config == {"dim": 128}

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


FULL, DIAG = StateFamily.FULL_RANK, StateFamily.DIAGONAL


class TestDrawRule:
    @pytest.mark.parametrize("name, draws", [
        (name, [(128, 3, FULL), (128, 4, FULL)])
        for name in ("stam", "de-bruijn", "fisher-isoperimetry", "concavity",
                     "epi-heat", "entropy-isoperimetry")
    ] + [
        ("majorization", [(12, 3, FULL), (12, 4, FULL)]),
        ("rate-decay-identity", [(64, 3, DIAG), (64, 4, DIAG)]),
        ("data-processing", [(128, 104, FULL), (128, 504, FULL),
                             (128, 105, FULL), (128, 505, FULL)]),
    ])
    def test_suites_draw_the_documented_states(self, name, draws,
                                               monkeypatch):
        # Case i's state is drawn at seed + i; data-processing draws its
        # two states at seed + 101 + i and seed + 501 + i.
        recorded = []

        def recording(dim, seed, family):
            recorded.append((dim, seed, family))
            return random_state(dim, seed, family)

        monkeypatch.setattr(verify, "random_state", recording)
        monkeypatch.setattr(verify, "_case", _unevaluated_case)
        run_suite(name, seed=3, cases=2)
        assert recorded == draws


def _thermal_margins(name: str) -> dict:
    """Margins of a suite's closed-form thermal cases, keyed by n; the
    random cases run at a small dim and are dropped."""
    checks = verify._SUITES[name](dim=32, cases=1, seed=0)
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


class TestAsymptoticSlope:
    def test_exact_slope_exceeds_its_limit(self):
        # d/dt N(omega_{1 + 2 pi t}) = N J/2 at t = 2, so the margin is
        # J N/(4 pi e) - 1 at n = 1 + 4 pi, positive by the entropy
        # isoperimetric inequality.
        checks = verify._suite_epi_heat(dim=32, cases=1, seed=0)
        margin = next(c.margin for c in checks
                      if c.descriptor == "epi-heat-asymptotic-slope")
        n = 1.0 + 4.0 * math.pi
        expected = (ga.thermal_fisher_closed(n) * math.exp(ga.g_entropy(n))
                    / (4.0 * math.pi * math.e) - 1.0)
        assert margin > 0
        assert margin == pytest.approx(expected, rel=1e-12)


class TestEpiHeatGate:
    def test_random_cases_read_the_suite_tolerance(self):
        # N(e^{tL} rho) >= N(rho) + 2 pi e t is proved, so the random cases
        # are gated at the suite tolerance, 1e-3, like its closed-form cases.
        checks = verify._suite_epi_heat(dim=32, cases=1, seed=0)
        tols = {c.descriptor: c.tol for c in checks}
        assert tols == {"epi-heat-thermal-closed": 1e-3,
                        "epi-heat-asymptotic-slope": 1e-3,
                        "epi-heat-random": 1e-3}


class TestEntropyIsoperimetryGate:
    def test_thermal_and_random_cases_read_the_suite_tolerance(self):
        # J N >= 4 pi e is proved, so its cases take the suite tolerance,
        # 1e-3; the n = 100 sentinel keeps its stated 1% closeness gate.
        checks = verify._suite_entropy_isoperimetry(dim=32, cases=1, seed=0)
        tols = {c.descriptor: c.tol for c in checks}
        assert tols == {"entropy-isoperimetry-thermal-100": 1e-2,
                        "entropy-isoperimetry-thermal": 1e-3,
                        "entropy-isoperimetry-random": 1e-3}


class TestRateDecayGate:
    @staticmethod
    def _truncation_term(rho, kind):
        # lam^2 dim rho_{dim-1,dim-1} log nu: a a_dag cannot raise the top
        # level of the truncated space.
        return (kind.lam**2 * rho.dim * rho.mat[-1, -1].real
                * math.log(kind.nu))

    def test_every_case_passes_at_its_derived_gate(self):
        # The gate is the round-off of the seven summed terms alone, 1.4e-14
        # to 1.6e-13 on these states; the truncation term is reported.
        report = run_suite("rate-decay-identity", cases=60)
        assert report.summary["cases"] == 61
        assert report.passed
        assert all(c.tol < 1e-12 for c in report.cases)
        rhos = [thermal_state(2.0, 64)] + [
            random_state(64, i, StateFamily.DIAGONAL) for i in range(60)]
        assert [c.params["truncation_term"] for c in report.cases] == [
            pytest.approx(self._truncation_term(rho, verify._QOU), rel=1e-14)
            for rho in rhos]

    def test_a_relative_error_of_1e_6_fails_every_case(self, monkeypatch):
        def skewed(rho, kind):
            rate, *rhs, relent = semigroups._decay_terms(rho, kind)
            return rate, *(x * (1.0 + 1e-6) for x in rhs), relent

        monkeypatch.setattr(verify, "_decay_terms", skewed)
        report = run_suite("rate-decay-identity")
        assert [c.passed for c in report.cases] == [False] * 6

    @pytest.mark.parametrize("factor", [1.8, -1.8, 0.01, -0.01])
    def test_a_shift_of_the_truncation_term_fails_every_case(self, monkeypatch,
                                                             factor):
        # The identity's right-hand side -zeta D - (t_1 + ... + t_5) moved by
        # factor times the truncation term.  The gate holds only round-off,
        # so a defect of either sign shows, even a hundredth of that term.
        def shifted(rho, kind):
            t = list(semigroups._decay_terms(rho, kind))
            t[5] -= factor * self._truncation_term(rho, kind)
            return tuple(t)

        monkeypatch.setattr(verify, "_decay_terms", shifted)
        report = run_suite("rate-decay-identity")
        assert [c.passed for c in report.cases] == [False] * 6

    def test_the_suite_takes_no_entropy_rate(self, monkeypatch):
        calls, entropy_rate = [], semigroups.entropy_rate

        def counted(rho, kind):
            calls.append(kind)
            return entropy_rate(rho, kind)

        monkeypatch.setattr(verify, "entropy_rate", counted)
        monkeypatch.setattr(semigroups, "entropy_rate", counted)
        assert run_suite("rate-decay-identity").passed
        assert calls == []


class TestMajorizationMargins:
    def test_margins_show_slack_and_trace_is_its_own_case(self):
        report = run_suite("majorization")
        assert report.summary["cases"] == 35
        slack = {}
        for c in report.cases:
            if c.descriptor == "attenuator-majorization":
                slack.setdefault(c.params["t"], []).append(c.margin)
            elif c.descriptor == "attenuator-trace":
                # Round-off of two 12-term sums of numbers in [0, 1].
                assert -2 * 12 * 2.0**-53 <= c.margin <= 0.0
        # The partial sums below the trace keep slack that shrinks with t.
        assert min(slack[0.1]) >= 1e-3
        assert min(slack[0.1]) > max(slack[0.5]) > max(slack[1.0]) > 0.0


class TestErrorPolicy:
    def test_numerical_failure_becomes_error_case(self):
        # At dim 16 the heat flow pushes the random state into the edge band.
        report = run_suite("stam", dim=16, cases=1)
        errors = [c for c in report.cases if c.error is not None]
        assert len(errors) == 3
        for c in errors:
            assert c.error.startswith(
                "TruncationError: edge mass")
            assert c.margin == -math.inf and not c.passed
        assert not report.passed

    @pytest.mark.parametrize("suite, grid", [("stam", (0.02, 0.05, 0.1)),
                                             ("epi-heat", (0.05, 0.1))])
    def test_truncation_at_the_largest_time_fails_only_its_case(self, suite,
                                                                 grid):
        # One flow serves a state's whole grid.  At dim 56 (seed 0) the
        # random state's flow reaches the edge band at t = 0.1 only; dims
        # 50-60 behave alike.
        report = run_suite(suite, dim=56, cases=1)
        cases = [c for c in report.cases if c.descriptor.endswith("-random")]
        assert [c.params["t"] for c in cases] == list(grid)
        *rest, last = cases
        assert last.error is not None and "edge mass" in last.error
        assert all(c.error is None and c.passed for c in rest)

    @pytest.mark.parametrize("suite, dim, descriptor, n", [
        ("de-bruijn", 64, "de-bruijn-thermal", 4.0),
        ("correspondence", 48, "fock-vs-classical-rate", 2.0)])
    def test_thermal_truncation_fails_only_its_case(self, suite, dim,
                                                     descriptor, n):
        # thermal_state(n, dim) raises inside the case's margin, not while
        # the suite yields its checks, so the rest of the suite still runs.
        report = run_suite(suite, dim=dim)
        errors = [c for c in report.cases if c.error is not None]
        assert [(c.descriptor, c.params["n"]) for c in errors] == [
            (descriptor, n)]
        assert "need support size >=" in errors[0].error
        assert not report.passed

    def test_thermal_truncation_exits_1(self, capsys):
        assert main(["verify", "de-bruijn", "--dim", "64"]) == 1
        assert json.loads(capsys.readouterr().out)["summary"]["failures"] == 1

    def test_programming_error_propagates(self, monkeypatch):
        def broken(rho):
            raise TypeError("broken margin")

        # At dim 32 every convolution of the random state truncates before
        # J is taken; at dim 64 none does.
        monkeypatch.setattr(verify, "quantum_fisher", broken)
        with pytest.raises(TypeError, match="broken margin"):
            run_suite("stam", dim=64, cases=1)

    @pytest.mark.parametrize("exc", [NotImplementedError, RecursionError,
                                     RuntimeError])
    def test_runtime_error_that_is_not_numerical_propagates(self, monkeypatch,
                                                            exc):
        def unfinished(rho):
            raise exc("todo")

        monkeypatch.setattr(verify, "quantum_fisher", unfinished)
        with pytest.raises(exc, match="todo"):
            run_suite("stam", dim=64, cases=1)

    def test_trace_drift_propagates(self, monkeypatch):
        # Every flowed state trips the guard once its bound is below 0.
        monkeypatch.setattr(semigroups, "_TRACE_TOL", -1.0)
        with pytest.raises(RuntimeError, match="trace drift"):
            run_suite("stam", dim=64, cases=1)

    def test_key_error_out_of_a_suite_propagates_through_main(self,
                                                              monkeypatch):
        def broken():
            raise KeyError("bug")

        monkeypatch.setitem(verify._SUITES, "cou", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["verify", "cou"])

    def test_certificate_runs_once_per_n(self, monkeypatch):
        calls = []

        def geometric_bound(n, K):
            calls.append(n)
            return -2.0 * n * math.log(1.0 + 1.0 / n)

        monkeypatch.setattr(cl, "certified_rate_bound", geometric_bound)
        report = run_suite("geometric-optimality")
        assert calls == [0.5, 1.0, 2.0]
        assert [c.descriptor for c in report.cases] == [
            "no-feasible-beats-closed"] * 3

    def test_certificate_above_closed_form_fails(self, monkeypatch):
        # For n <= K - 1 the bound is the closed form up to rounding, so
        # a bound above it fails as surely as one below.
        monkeypatch.setattr(cl, "certified_rate_bound",
                            lambda n, K: ga.thermal_j_pm(n)[0] + 1e-9)
        report = run_suite("geometric-optimality")
        assert [c.passed for c in report.cases] == [False] * 3

    def test_certificate_gate_is_its_rounding(self):
        # K u max|g| at K = 64, below the 1e-12 it replaces.
        report = run_suite("geometric-optimality")
        gates = [c.tol for c in report.cases
                 if c.descriptor == "no-feasible-beats-closed"]
        g_max = [abs(cl._geometric_gradient(n, 64)[1]).max()
                 for n in (0.5, 1.0, 2.0)]
        assert gates == [64 * 2.0**-53 * float(g) for g in g_max]
        assert all(tol <= 1e-12 for tol in gates)


class TestSlowSuites:
    def test_stam_suite(self):
        assert run_suite("stam", cases=1).passed

    def test_de_bruijn_suite(self):
        assert run_suite("de-bruijn", cases=1).passed

    def test_epi_heat_suite(self):
        assert run_suite("epi-heat", cases=1).passed

    def test_rate_decay_suite(self):
        assert run_suite("rate-decay-identity", cases=1).passed


class TestEigenWork:
    @pytest.mark.parametrize("suite", ["epi-heat", "concavity",
                                       "majorization"])
    def test_spectrum_only_suites_run_no_eigh(self, suite, eigh_shapes):
        # Entropy power and majorization read only the spectrum, which the
        # constructor takes with eigvalsh; no eigenvector is ever formed.
        assert run_suite(suite).passed
        assert eigh_shapes == []


class TestThresholds:
    def test_photon_threshold(self):
        val = photon_threshold()
        assert 0.66 <= val <= 0.68
        # Root property: the defining function changes sign across it.
        f = lambda n: -n * math.log(1 + 1 / n) + 2 - 2 * math.log(2)
        assert f(val - 1e-3) * f(val + 1e-3) < 0

    def test_entropy_threshold(self):
        assert 2.0 <= entropy_threshold() <= 2.2

    @pytest.mark.parametrize("solve, root", [
        (photon_threshold, 0.67573161225162728592),
        (entropy_threshold, 2.0574675765149403866),
    ])
    def test_double_precision_root(self, solve, root):
        # The references are 50-digit roots, rounded to 20 digits.
        assert abs(solve() / root - 1.0) <= 1e-14

    def test_photon_bisection_ends_on_adjacent_doubles(self):
        # The first double at which n log1p(1/n) reaches c; the double
        # below it still lies under c.
        c = 2.0 - 2.0 * math.log(2.0)

        def below(n):
            return n * math.log1p(1.0 / n) < c

        root = ga._bisect(below, 0.1, 10.0)
        assert root == photon_threshold()
        assert root == float.fromhex("0x1.59f97e6efcf99p-1")
        assert not below(root) and below(math.nextafter(root, 0.0))
