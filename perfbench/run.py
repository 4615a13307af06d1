"""phaseineq benchmark: `phaseineq verify` suites as fresh CLI processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each suite of a workload runs as its own `phaseineq.cli.main(["verify",
suite, "--seed", n, ...])` in a fresh interpreter (`suite_proc.py`), so the
Weyl and generator caches start cold, as they do for a user.  One pass runs
every suite of the workload once and is one sample; another pass starts only
if it is expected to end within `--seconds`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates two
untraced and two traced passes (`tracer.py`), runs the kernel probes
(`probes.py`) and prints the per-layer metrics; its length is fixed by that
work, not by `--seconds`.

Every report is checked: exit code 0, no error case, every asserted case
passed, and the report bytes outside `metadata` (and, when traced, the call
counts) identical across passes and across runs with the same seed and the
same source code in this checkout (digests kept in
`.perfbench_out/<workload>/digests/<source digest>.json`).  A breach marks
the run incorrect and counts the suite's cases as failed.  The
last line of standard output is the JSON result.  See NOTES.md for the
workloads and the predicted interactions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import KERNEL_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread: on the 2-CPU reference machine a second OpenBLAS thread
# made a d=128 eigh 35-60x slower and far less steady (see NOTES.md).
BLAS_THREADS = 1
# A run must end within 180 s; it stops starting work well before that.
RUN_LIMIT_S = 165.0
PROBE_DIMS = (32, 64, 128, 256)

# Suites per workload with the CLI arguments beyond --seed; sizes were cut
# with --cases so that a pass takes 8-15 s at dim 128.  correspondence and
# rate-decay-identity (0.08 s) put the death process and the exact entropy
# rates on a workload, since classical-closed-form was dropped.
WORKLOADS = {
    "quadrature-convolution": (
        ("stam", ("--cases", "1")),
        ("data-processing", ("--cases", "1")),
    ),
    "heat-rk4": (
        ("epi-heat", ("--cases", "2")),
        ("concavity", ("--cases", "2")),
        ("fisher-isoperimetry", ("--cases", "2")),
        ("correspondence", ()),
        ("rate-decay-identity", ()),
    ),
}

# Workloads that were measured and left out; a run of one says why and
# fails.  NOTES.md has the figures.
DROPPED = {
    "classical-closed-form": "dropped as unsteady: the interpreter-bound "
                             "minimizer in geometric-optimality gave quartile "
                             "spreads of 0.22-0.28 against the 0.25 bound",
}

LAYER_SELF = ("verify", "semigroups", "fisher", "fock_core", "gaussian",
              "classical")


def source_digest() -> str:
    """SHA-256 over the package source and the benchmark files that shape
    reports and traced call counts."""
    files = sorted((ROOT / "src" / "phaseineq").rglob("*.py"))
    h = hashlib.sha256()
    for path in [*files, HERE / "suite_proc.py", HERE / "tracer.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ledger_path(out_dir: Path) -> Path:
    """Digest ledger of one workload for the current source code, so runs
    are only compared with earlier runs of the same code."""
    return out_dir / "digests" / f"{source_digest()[:16]}.json"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PHASEINEQ_CONFIG", None)  # CLI built-in defaults only
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args: list[str], deadline: float):
    """Run `python3 <args>` and return (last stdout line as JSON or None,
    stderr tail, spawn time).  A child past the deadline is killed and
    waited for."""
    spawn = _now()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        return None, "killed at the run deadline", spawn
    lines = proc.stdout.strip().splitlines()
    info = None
    if proc.returncode == 0 and lines:
        try:
            info = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return info, proc.stderr.strip()[-400:], spawn


def check_report(report: dict | None, rc: int | None):
    """(attempted, failed, problems, digest) for one suite report.

    A case fails if it is an error case or an asserted case that did not
    pass; every case fails if the suite exited non-zero.  The digest covers
    the report outside `metadata`.
    """
    if not isinstance(report, dict) or not report.get("cases"):
        return 1, 1, ["no report with cases"], None
    cases = report["cases"]
    bad = [c for c in cases
           if c.get("error") is not None
           or (c.get("asserted") and not c.get("passed"))]
    problems = []
    if bad:
        first = bad[0]
        problems.append(f"{len(bad)} failed or error cases, first "
                        f"{first.get('descriptor')} {first.get('params')}: "
                        f"{first.get('error') or first.get('margin')}")
    failed = len(bad)
    if rc != 0:
        problems.append(f"exit code {rc}")
        failed = len(cases)
    body = {k: v for k, v in report.items() if k != "metadata"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    return len(cases), failed, problems, digest


def run_suite_process(suite: str, cli_args, seed: int, trace: bool,
                      out_dir: Path, deadline: float) -> dict:
    """Run one suite in a fresh process and check its report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{suite}.json"
    path.unlink(missing_ok=True)
    argv = ["verify", suite, "--seed", str(seed), *cli_args, "--out", str(path)]
    info, stderr, spawn = _run_child(
        [str(HERE / "suite_proc.py"), "1" if trace else "0", *argv], deadline)
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        report = None
    rc = info["rc"] if info else None
    attempted, failed, problems, digest = check_report(report, rc)
    rec = {"suite": suite, "key": f"{suite} {' '.join(cli_args)} seed={seed}",
           "attempted": attempted, "failed": failed, "problems": problems,
           "digest": digest}
    if info is None:
        rec.update(setup_s=None, report_s=_now() - spawn, rss_mb=None,
                   blas_threads=None, trace=None)
        rec["problems"].append(f"suite process failed: {stderr}")
        rec["failed"] = rec["attempted"]
    else:
        rec.update(setup_s=info["ready"] - spawn,
                   report_s=info["done"] - info["ready"],
                   rss_mb=info["maxrss_kb"] / 1024.0,
                   blas_threads=info["blas_threads"], trace=info["trace"])
    return rec


def run_pass(suites, seed, trace, out_dir, deadline) -> list[dict]:
    return [run_suite_process(s, a, seed, trace, out_dir, deadline)
            for s, a in suites]


def _fingerprints(rec: dict):
    """(ledger key, digest, what differs) pairs of one suite run."""
    if rec["digest"] is not None:
        yield rec["key"], rec["digest"], "report outside metadata"
    if rec.get("trace"):
        calls = {k: rec["trace"][k]
                 for k in ("calls", "group_calls", "eigh_in_weyl")}
        yield (rec["key"] + " trace-calls",
               hashlib.sha256(json.dumps(calls, sort_keys=True).encode())
               .hexdigest(), "traced call counts")


def check_digests(passes: list[list[dict]], ledger_path: Path) -> list[str]:
    """Require each suite's report digest, and its traced call counts, to
    repeat exactly across the passes of this run and the earlier runs in the
    ledger (same source code), for the same suite, arguments and seed; mark
    breaches failed."""
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, json.JSONDecodeError):
        ledger = {}
    problems = []
    for rec in (r for p in passes for r in p):
        for key, digest, what in _fingerprints(rec):
            if ledger.setdefault(key, digest) != digest:
                rec["failed"] = rec["attempted"]
                problems.append(f"{rec['key']}: {what} differ from an "
                                f"earlier run with the same seed")
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return problems


def end_to_end(passes: list[list[dict]], attempted: int, failed: int) -> dict:
    walls = [sum(r["report_s"] for r in p) for p in passes]
    slowest = [max(r["report_s"] for r in p) for p in passes]
    setups = [r["setup_s"] for p in passes for r in p if r["setup_s"] is not None]
    rss = [max((r["rss_mb"] for r in p if r["rss_mb"] is not None), default=0.0)
           for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "slowest_report_s": (statistics.median(slowest), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "passed_case_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _sum_traces(traces: list[dict]) -> dict:
    total = {}
    for tr in traces:
        for key, val in tr.items():
            if isinstance(val, dict):
                acc = total.setdefault(key, {})
                for name, x in val.items():
                    acc[name] = acc.get(name, 0) + x
            else:
                total[key] = total.get(key, 0) + val
    return total


def layer_metrics(tr: dict) -> dict:
    """Per-layer metrics from one traced pass (span aggregates summed over
    the pass's suites)."""
    calls, busy = tr.get("calls", {}), tr.get("busy", {})
    gcalls, gbusy = tr.get("group_calls", {}), tr.get("group_busy", {})
    self_s = tr.get("self_s", {})
    m = {"cli.self_s": (self_s.get("cli", 0.0), "s"),
         "verify.run_suite.busy_s": (busy.get("verify.run_suite", 0.0), "s")}
    for fn in ("semigroups.convolve", "semigroups.evolve"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.busy_s"] = (busy.get(fn, 0.0), "s")
    m["semigroups.entropy_rate.calls"] = (
        gcalls.get("semigroups.entropy_rate", 0), "count")
    m["semigroups.entropy_rate.busy_s"] = (
        gbusy.get("semigroups.entropy_rate", 0.0), "s")
    for fn in ("fisher.quantum_fisher", "fock_core.weyl_operator",
               "fock_core.DensityMatrix"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.busy_s"] = (busy.get(fn, 0.0), "s")
    weyl = calls.get("fock_core.weyl_operator", 0)
    m["fock_core.weyl_operator.eigh_per_call"] = (
        tr.get("eigh_in_weyl", 0) / weyl if weyl else 0.0, "ratio")
    m["fock_core.spectral.busy_s"] = (gbusy.get("fock_core.spectral", 0.0), "s")
    m["classical.min_entropy_rate_constrained.busy_s"] = (
        busy.get("classical.min_entropy_rate_constrained", 0.0), "s")
    m["classical.death.busy_s"] = (gbusy.get("classical.death", 0.0), "s")
    m["gaussian.busy_s"] = (gbusy.get("gaussian", 0.0), "s")
    for fn in ("linalg.eigh", "linalg.eigvalsh"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.busy_s"] = (busy.get(fn, 0.0), "s")
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m


def measure(suites, seed: int, seconds: float, trace: bool, probe_dims,
            out_dir: Path, deadline: float) -> dict:
    """Run a workload and return its checked, aggregated result."""
    reports = out_dir / "reports"
    problems = []
    if not trace:
        # Another pass starts only if it is expected to end within
        # `seconds`, so a run lasts at most `seconds` (or one pass).
        passes, start = [], _now()
        while True:
            passes.append(run_pass(suites, seed, False, reports, deadline))
            elapsed = _now() - start
            per_pass = elapsed / len(passes)
            if (elapsed + per_pass > seconds
                    or _now() + per_pass > deadline):
                break
        traced = []
    else:
        # Untraced and traced passes alternate, so machine drift falls on
        # both sides of trace_overhead_ratio alike.
        passes, traced = [], []
        for _ in range(2):
            passes.append(run_pass(suites, seed, False, reports, deadline))
            traced.append(run_pass(suites, seed, True, reports, deadline))
    runs = passes + traced
    problems += check_digests(runs, ledger_path(out_dir))
    problems += [f"{r['suite']}: {p}" for pas in runs for r in pas
                 for p in r["problems"]]
    attempted = sum(r["attempted"] for pas in runs for r in pas)
    failed = sum(r["failed"] for pas in runs for r in pas)

    if not trace:
        metrics = end_to_end(passes, attempted, failed)
    else:
        sums = [_sum_traces([r["trace"] for r in pas if r["trace"]])
                for pas in traced]
        per_pass = [layer_metrics(s) for s in sums]
        metrics = {name: (statistics.median(p[name][0] for p in per_pass)
                          if unit != "count" else per_pass[0][name][0], unit)
                   for name, (_, unit) in per_pass[0].items()}
        base_wall, traced_wall = (
            statistics.median(sum(r["report_s"] for r in pas) for pas in side)
            for side in (passes, traced))
        metrics["trace_overhead_ratio"] = (traced_wall / base_wall, "ratio")
        info, stderr, _ = _run_child(
            [str(HERE / "probes.py"), str(seed), *map(str, probe_dims)],
            deadline)
        expected = [f"probe.{k}.d{d}.s" for k in KERNEL_NAMES
                    for d in probe_dims]
        attempted += len(expected)
        if info is None:
            failed += len(expected)
            problems.append(f"probe process failed: {stderr}")
        else:
            for name in expected:
                if name in info["timings"]:
                    metrics[name] = (info["timings"][name], "s")
                else:
                    failed += 1
                    problems.append(f"{name}: "
                                    f"{info['errors'].get(name, 'missing')}")

    digest = hashlib.sha256(" ".join(
        f"{r['key']}={r['digest']}" for r in passes[0]).encode()).hexdigest()
    blas = {r["blas_threads"] for pas in runs for r in pas} - {None}
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems,
            "digest": digest, "blas_threads": sorted(blas),
            "pass_wall_s": [round(sum(r["report_s"] for r in p), 3)
                            for p in runs]}


def environment(blas_threads) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "driving_processes": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted([*WORKLOADS, *DROPPED]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload in DROPPED:
        print(f"error: workload {args.workload} "
              f"{DROPPED[args.workload]} (see perfbench/NOTES.md)",
              file=sys.stderr)
        return 2
    deadline = _now() + RUN_LIMIT_S
    if not (ROOT / "src" / "phaseineq" / "cli.py").is_file():
        print(f"error: no phaseineq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    res = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), PROBE_DIMS, OUT / args.workload, deadline)
    print("# env " + json.dumps(environment(res["blas_threads"])))
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"report_digest={res['digest']}")
    print(f"# pass_wall_s={res['pass_wall_s']}")
    for p in res["problems"]:
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
