"""Tiny-size smoke test of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Two closed-form suites stand in for a workload and the probes run at one
small dim, so the whole file takes about ten seconds.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

TINY = (("cou", ()), ("log-sobolev", ()))
TINY_DIMS = (32,)


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_tiny(monkeypatch, capsys, tmp_path, trace: int) -> dict:
    monkeypatch.setattr(bench, "WORKLOADS", {"tiny": TINY})
    monkeypatch.setattr(bench, "PROBE_DIMS", TINY_DIMS)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    assert bench.main(["--workload", "tiny", "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, capsys,
                                                      tmp_path):
    result = _run_tiny(monkeypatch, capsys, tmp_path, 0)
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert _units(result) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys,
                                                  tmp_path):
    result = _run_tiny(monkeypatch, capsys, tmp_path, 1)
    expected = {}
    for m in _spec()["per_layer"]:
        name = m["name"]
        if name.startswith("probe."):
            if int(name.split(".")[2][1:]) not in TINY_DIMS:
                continue
        expected[name] = m["unit"]
    assert _units(result) == expected
    assert result["metrics"]["gaussian.busy_s"]["value"] > 0
    assert result["metrics"]["verify.run_suite.busy_s"]["value"] > 0


def test_a_dropped_workload_says_so_and_fails(capsys):
    assert bench.main(["--workload", "classical-closed-form"]) != 0
    out = capsys.readouterr()
    assert out.out == "" and "dropped as unsteady" in out.err


@pytest.fixture(scope="module")
def cou_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("reports")
    rec = bench.run_suite_process("cou", (), 0, False, out, bench._now() + 60)
    assert rec["failed"] == 0 and not rec["problems"]
    return json.loads((out / "cou.json").read_text())


def test_check_accepts_the_real_report(cou_report):
    attempted, failed, problems, digest = bench.check_report(cou_report, 0)
    assert attempted == len(cou_report["cases"]) and failed == 0
    assert not problems and digest
    timed = json.loads(json.dumps(cou_report))
    timed["metadata"]["wall_time_s"] += 1.0
    assert bench.check_report(timed, 0)[3] == digest


def test_check_rejects_a_doctored_error_case(cou_report):
    doctored = json.loads(json.dumps(cou_report))
    doctored["cases"][0].update(error="TruncationError: doctored",
                                margin=float("-inf"), passed=False)
    attempted, failed, problems, _ = bench.check_report(doctored, 0)
    assert failed == 1 and problems


def test_check_rejects_a_failed_asserted_case_and_a_bad_exit(cou_report):
    doctored = json.loads(json.dumps(cou_report))
    doctored["cases"][1]["passed"] = False
    assert bench.check_report(doctored, 0)[1] == 1
    attempted, failed, _, _ = bench.check_report(cou_report, 1)
    assert failed == attempted


def test_check_rejects_a_report_that_changed_outside_metadata(cou_report,
                                                              tmp_path):
    _, _, _, digest = bench.check_report(cou_report, 0)
    changed = json.loads(json.dumps(cou_report))
    changed["cases"][0]["margin"] += 1e-9
    _, _, _, other = bench.check_report(changed, 0)
    recs = [{"key": "cou seed=0", "digest": d, "attempted": 5, "failed": 0}
            for d in (digest, other)]
    problems = bench.check_digests([recs], bench.ledger_path(tmp_path))
    assert problems and recs[1]["failed"] == 5 and recs[0]["failed"] == 0


def test_check_rejects_traced_call_counts_that_do_not_repeat(tmp_path):
    def rec(eigh_calls):
        trace = {"calls": {"linalg.eigh": eigh_calls}, "group_calls": {},
                 "eigh_in_weyl": 0}
        return {"key": "stam seed=0", "digest": None, "trace": trace,
                "attempted": 6, "failed": 0}

    recs = [rec(2030), rec(2030), rec(2031)]
    problems = bench.check_digests([recs], bench.ledger_path(tmp_path))
    assert len(problems) == 1 and [r["failed"] for r in recs] == [0, 0, 6]


def test_a_source_change_is_not_a_failure(monkeypatch, tmp_path):
    src = tmp_path / "src" / "phaseineq"
    src.mkdir(parents=True)
    (src / "fock_core.py").write_text("CACHE_SIZE = 600\n")
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    out = tmp_path / "out"

    def rec(digest):
        return {"key": "stam --cases 1 seed=0", "digest": digest,
                "attempted": 6, "failed": 0}

    before = rec("margins of the parent")
    assert bench.check_digests([[before]], bench.ledger_path(out)) == []
    (src / "fock_core.py").write_text("CACHE_SIZE = 0\n")
    after, again = rec("margins of the change"), rec("margins changed again")
    assert bench.check_digests([[after]], bench.ledger_path(out)) == []
    assert after["failed"] == 0
    # Within one source code a changed report still fails.
    assert bench.check_digests([[again]], bench.ledger_path(out))
    assert again["failed"] == 6
