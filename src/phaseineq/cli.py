"""Command-line surface: run verification suites, emit closed-form tables
and trajectories, solve thresholds, and serialize reports.

Exit codes: 0 = all asserted checks pass, 1 = at least one asserted margin
violation, 2 = usage or numerical-backend error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import classical as cl
from . import gaussian as ga
from .fock_core import TruncationError
from .semigroups import Amplifier, Attenuator, Heat, QOU
from .verify import SUITE_NAMES, entropy_threshold, photon_threshold, run_suite

# verify's built-in values live in phaseineq.verify, which knows what each
# suite reads; each case's gate is fixed by its suite, so no flag sets one.
_FLAGS = {"--dim": {"type": int}, "--seed": {"type": int},
          "--cases": {"type": int}, "--out": {},
          "--format": {"choices": ["json", "csv"], "default": "json"}}

# What each closed-forms table and trajectory kind reads of --grid, --mu
# and --lambda, with the values used when the flag is unset.
_GRID = {"grid": "0.1:100:25"}
_RATES = {"mu": math.sqrt(2.0), "lam": 1.0}
_TABLE_READS = {"fisher-tightness": _GRID, "entropy-tightness": _GRID,
                "gaussian-rates": _GRID | _RATES, "lsi2": _RATES}
_KINDS = {"heat": (Heat, {}), "attenuator": (Attenuator, {}),
          "amplifier": (Amplifier, {}), "qou": (QOU, _RATES)}
# A closed-forms, trajectory or death-process table holds at most this
# many rows.
_MAX_GRID_ROWS = 10**6


def _sig12(x):
    """Round floats to 12 significant digits for deterministic output; a
    non-finite float, which JSON cannot represent, becomes None (null)."""
    if isinstance(x, float):
        return float(f"{x:.12g}") if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    return x


def _emit(payload: dict, out_path: str | None, fmt: str = "json"):
    """Write payload as JSON, or its "columns" and "rows" as CSV, where a
    missing or non-finite value is the empty field."""
    if fmt == "csv":
        lines = [",".join(payload["columns"])]
        for row in _sig12(payload["rows"]):
            lines.append(",".join(
                "" if v is None else (f"{v:.12g}" if isinstance(v, float) else str(v))
                for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_sig12(payload), indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_only(args, name: str, reads: dict, always: tuple = ()) -> None:
    """Set the flags the table or kind `name` reads, unset ones to their
    defaults; one of --grid, --mu and --lambda that it ignores is an error."""
    flags = {"grid": "--grid", "mu": "--mu", "lam": "--lambda"}
    ignored = [flag for key, flag in flags.items()
               if key not in reads and getattr(args, key, None) is not None]
    if ignored:
        raise ValueError(
            f"{args.command} {name} does not read {', '.join(ignored)}; it "
            f"reads {', '.join([*always, *(flags[k] for k in reads)])}")
    for key, val in reads.items():
        if getattr(args, key) is None:
            setattr(args, key, val)


def _steps(text: str) -> int:
    # A trajectory or death-process table holds steps + 1 rows.
    if not 0 <= int(text) < _MAX_GRID_ROWS:
        raise argparse.ArgumentTypeError(
            f"must be between 0 and {_MAX_GRID_ROWS - 1}, so that the table "
            f"holds at most {_MAX_GRID_ROWS} rows, got {text}")
    return int(text)


def _finite_float(text: str) -> float:
    # argparse prefixes the message with the flag's name.
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return val


def _nonnegative_float(text: str) -> float:
    val = _finite_float(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return val


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec "start:stop:count" (geometric spacing for positive start)."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(f"grid spec must be start:stop:count with an "
                         f"integer count, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {spec!r}")
    if not 1 <= count <= _MAX_GRID_ROWS:
        raise ValueError(f"grid count must be between 1 and {_MAX_GRID_ROWS}, "
                         f"got {count} in {spec!r}")
    if start > 0 and stop > start:
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _cmd_verify(args) -> int:
    # Pass only the flags that were set.
    params = {key: getattr(args, key)
              for key in ("dim", "cases", "seed")
              if getattr(args, key) is not None}
    report = run_suite(args.suite, **params)
    _emit(dataclasses.asdict(report), args.out, "json")
    return 0 if report.passed else 1


def _cmd_trajectory(args) -> int:
    cls, reads = _KINDS[args.kind]
    _read_only(args, args.kind, reads, ("--n0", "--tmax", "--steps"))
    kind = cls(*(getattr(args, key) for key in reads))
    rows = []
    for t in np.linspace(0.0, args.tmax, args.steps + 1):
        t = float(t)
        # Past the largest double, math.exp raises, or n_t is inf and its
        # entropy nan.
        try:
            n_t = ga.thermal_mean(args.n0, kind, t)
            entropy = ga.g_entropy(n_t)
            power = math.exp(entropy)
        except OverflowError:
            power = math.inf
        if not power < math.inf:
            raise ValueError(
                f"the mean photon number or entropy power at t = {t:.12g} "
                f"exceeds the largest double; lower --tmax or --n0")
        # The excess over the fixed point, which n_t - m would round away.
        relent = (ga.relent_to_qou_fixed(
            math.exp(-kind.zeta * t) * (args.n0 - kind.n_fixed), kind)
            if args.kind == "qou" else None)
        rows.append([t, entropy, power, ga.thermal_fisher_closed(n_t), n_t,
                     relent])
    header = ["t", "entropy", "entropy_power", "fisher", "mean_photon",
              "relent_to_fixed"]
    _emit({"kind": args.kind, "columns": header, "rows": rows}, args.out,
          args.format)
    return 0


def _cmd_death_process(args) -> int:
    p = cl.geometric_pmf(args.n0, args.K)
    rows = []
    for i in range(args.steps + 1):
        t = args.tmax * i / max(args.steps, 1)
        pt = cl.death_evolve(p, t)
        rows.append([t, pt.entropy(), pt.mean(), cl.death_entropy_rate(pt)])
    header = ["t", "entropy", "mean", "entropy_rate"]
    _emit({"n0": args.n0, "columns": header, "rows": rows}, args.out,
          args.format)
    return 0


def _cmd_closed_forms(args) -> int:
    table = args.table
    _read_only(args, table, _TABLE_READS[table])
    grid = None if args.grid is None else _parse_grid(args.grid)
    kind = None if args.mu is None else QOU(args.mu, args.lam)
    rows = []
    if table == "fisher-tightness":
        header = ["n", "fisher", "isoperimetric_ratio"]
        for n in grid:
            rows.append([float(n), ga.thermal_fisher_closed(float(n)),
                         ga.thermal_isoperimetric_ratio(float(n))])
    elif table == "entropy-tightness":
        header = ["n", "fisher", "entropy_power", "product_over_4pie"]
        for n in grid:
            j = ga.thermal_fisher_closed(float(n))
            try:
                npow = math.exp(ga.g_entropy(float(n)))
            except OverflowError:
                raise ValueError(
                    f"the entropy power at n = {n:.12g} exceeds the largest "
                    f"double; lower the stop of --grid") from None
            rows.append([float(n), j, npow, j * npow / (4.0 * math.pi * math.e)])
    elif table == "gaussian-rates":
        header = ["n", "j_minus", "j_plus", "h"]
        for n in grid:
            jm, jp = ga.thermal_j_pm(float(n))
            rows.append([float(n), jm, jp, ga.h_function(float(n), kind)])
    elif table == "lsi2":
        header = ["mu", "lam", "alpha2_lower", "alpha2_upper",
                  "alphaC_lower", "alphaC_upper"]
        lo, hi, (clo, chi) = ga.carbone_lsi2_bounds(kind)
        rows.append([args.mu, args.lam, lo, hi, clo, chi])
    _emit({"table": table, "columns": header, "rows": rows}, args.out,
          args.format)
    return 0


def _cmd_thresholds(args) -> int:
    solve = {"photon": photon_threshold, "entropy": entropy_threshold}
    root = solve[args.which]()
    _emit({"which": args.which, "root": root}, args.out, "json")
    return 0


def _cmd_minimize_rate(args) -> int:
    bound = cl.certified_rate_bound(args.n, args.K)
    closed = ga.thermal_j_pm(args.n)[0]
    _emit({"n": args.n, "K": args.K, "certified_lower_bound": bound,
           "closed_form": closed, "gap": abs(bound - closed)},
          args.out, "json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseineq",
        description="Verify bosonic phase-space geometric inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand registers only the flags it reads, so a flag it would
    # ignore is a usage error.
    def flags(p, *names):
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(SUITE_NAMES))
    flags(pv, "--dim", "--seed", "--cases", "--out")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("trajectory", help="closed-form thermal trajectory")
    pt.add_argument("kind", choices=["heat", "attenuator", "amplifier", "qou"])
    pt.add_argument("--n0", type=_nonnegative_float, default=1.0)
    pt.add_argument("--mu", type=_finite_float)
    pt.add_argument("--lambda", dest="lam", type=_finite_float)
    pt.add_argument("--tmax", type=_nonnegative_float, default=2.0)
    pt.add_argument("--steps", type=_steps, default=40)
    flags(pt, "--out", "--format")
    pt.set_defaults(fn=_cmd_trajectory)

    pd = sub.add_parser("death-process", help="pure-death process trajectory")
    pd.add_argument("--n0", type=_nonnegative_float, default=1.0)
    pd.add_argument("--K", type=int, default=256)
    pd.add_argument("--tmax", type=_nonnegative_float, default=2.0)
    pd.add_argument("--steps", type=_steps, default=20)
    flags(pd, "--out", "--format")
    pd.set_defaults(fn=_cmd_death_process)

    pc = sub.add_parser("closed-forms", help="closed-form tables")
    pc.add_argument("table", choices=["fisher-tightness", "entropy-tightness",
                                      "gaussian-rates", "lsi2"])
    pc.add_argument("--grid", help="start:stop:count grid spec")
    pc.add_argument("--mu", type=_finite_float)
    pc.add_argument("--lambda", dest="lam", type=_finite_float)
    flags(pc, "--out", "--format")
    pc.set_defaults(fn=_cmd_closed_forms)

    pth = sub.add_parser("thresholds", help="fast-convergence thresholds")
    pth.add_argument("--which", choices=["entropy", "photon"], required=True)
    flags(pth, "--out")
    pth.set_defaults(fn=_cmd_thresholds)

    pm = sub.add_parser("minimize-rate", help="constrained entropy-rate minimum")
    pm.add_argument("--n", type=_finite_float, required=True)
    pm.add_argument("--K", type=int, default=64)
    flags(pm, "--out")
    pm.set_defaults(fn=_cmd_minimize_rate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
