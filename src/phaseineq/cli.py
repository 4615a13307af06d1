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
import os
import sys

import numpy as np

from . import classical as cl
from . import gaussian as ga
from .fock_core import TruncationError
from .semigroups import Amplifier, Attenuator, Heat, QOU, SemigroupKind
from .verify import SUITE_NAMES, run_suite, threshold_solve

ENV_CONFIG = "PHASEINEQ_CONFIG"
# verify's built-in values live in phaseineq.verify, which knows what each
# suite reads.
_DEFAULTS = {"dim": None, "seed": None, "cases": None, "tol": None,
             "format": "json"}
_FLAGS = {"--dim": {"type": int}, "--seed": {"type": int},
          "--cases": {"type": int}, "--tol": {"type": float}, "--out": {},
          "--format": {"choices": ["json", "csv"]}}


def _sig12(x):
    """Round floats to 12 significant digits for deterministic output."""
    if isinstance(x, float):
        if math.isfinite(x):
            return float(f"{x:.12g}")
        return x
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    return x


class _JsonEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        return super().default(o)


def _emit(payload, out_path: str | None, fmt: str = "json",
          csv_rows: list[list] | None = None, csv_header: list[str] | None = None):
    if fmt == "csv":
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(
                "" if v is None else (f"{v:.12g}" if isinstance(v, float) else str(v))
                for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_sig12(payload), indent=2, cls=_JsonEncoder) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_file_config(path: str | None, args) -> dict:
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # Like a flag, a key the subcommand would ignore is a usage error: the
    # subcommand reads exactly the keys it registered as flags.
    accepted = [k for k in _DEFAULTS if hasattr(args, k)]
    for key, val in data.items():
        if key not in accepted:
            why = ("is unknown" if key not in _DEFAULTS
                   else f"is not read by {args.command}")
            raise ValueError(f"config key {key!r} {why}; accepted keys: "
                             f"{', '.join(accepted) or 'none'}")
        choices = _FLAGS[f"--{key}"].get("choices")
        if choices and val not in choices:
            raise ValueError(f"config key {key!r} must be one of "
                             f"{', '.join(choices)}, got {val!r}")
    return data


def _resolve(args, file_cfg: dict, key: str):
    # Precedence: flag > config file > built-in default.
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in file_cfg:
        return file_cfg[key]
    return _DEFAULTS.get(key)


def _kind_from_name(name: str, mu: float, lam: float) -> SemigroupKind:
    if name == "qou":
        return QOU(mu, lam)
    return {"heat": Heat(), "attenuator": Attenuator(),
            "amplifier": Amplifier()}[name]


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec "start:stop:count" (geometric spacing for positive start)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:count, got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if start > 0 and stop > start:
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _typed(key: str, val, cast):
    # A config-file value arrives as any JSON type; argparse already typed
    # the flags.  A bool is an int to Python but never a count or a seed.
    ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    if ok and cast is int:
        ok = isinstance(val, int) or val.is_integer()
    if not ok:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"config key {key!r} must be {kind}, got {val!r}")
    return cast(val)


def _cmd_verify(args, file_cfg) -> int:
    # Pass only what a flag or the config file set.
    params = {}
    for key, name, cast in (("dim", "dim", int), ("cases", "cases", int),
                            ("seed", "seed", int), ("tol", "tolerance", float)):
        val = _resolve(args, file_cfg, key)
        if val is not None:
            params[name] = _typed(key, val, cast)
    report = run_suite(args.suite, **params)
    _emit(dataclasses.asdict(report), args.out, "json")
    return 0 if report.passed else 1


def _cmd_trajectory(args, file_cfg) -> int:
    kind = _kind_from_name(args.kind, args.mu, getattr(args, "lam"))
    spec = ga.GaussianStateSpec(mean=np.zeros(2), kappa=2.0 * args.n0 + 1.0)
    rows = []
    for t in np.linspace(0.0, args.tmax, args.steps + 1):
        evolved = ga.gaussian_evolve(spec, kind, float(t))
        n_t = evolved.nbar
        entropy = ga.g_entropy(n_t)
        fisher = ga.thermal_fisher_closed(n_t)
        relent = (ga.relent_to_qou_fixed(entropy, n_t, args.mu, args.lam)
                  if args.kind == "qou" else None)
        rows.append([float(t), entropy, math.exp(entropy), fisher, n_t, relent])
    header = ["t", "entropy", "entropy_power", "fisher", "mean_photon",
              "relent_to_fixed"]
    fmt = _resolve(args, file_cfg, "format")
    payload = {"kind": args.kind, "columns": header, "rows": rows}
    _emit(payload, args.out, fmt, csv_rows=rows, csv_header=header)
    return 0


def _cmd_death_process(args, file_cfg) -> int:
    if not args.init.startswith("geometric:"):
        raise ValueError(f"unsupported init {args.init!r}; use geometric:<n>")
    n0 = float(args.init.split(":", 1)[1])
    p = cl.geometric_pmf(n0, args.K)
    rows = []
    for i in range(args.steps + 1):
        t = args.tmax * i / max(args.steps, 1)
        pt = cl.death_evolve(p, t)
        rows.append([t, pt.entropy(), pt.mean(), cl.death_entropy_rate(pt)])
    header = ["t", "entropy", "mean", "entropy_rate"]
    fmt = _resolve(args, file_cfg, "format")
    payload = {"init": args.init, "columns": header, "rows": rows}
    _emit(payload, args.out, fmt, csv_rows=rows, csv_header=header)
    return 0


def _cmd_closed_forms(args, file_cfg) -> int:
    grid = _parse_grid(args.grid)
    table = args.table
    rows, header = [], []
    if table == "fisher-tightness":
        header = ["n", "fisher", "isoperimetric_ratio"]
        for n in grid:
            rows.append([float(n), ga.thermal_fisher_closed(float(n)),
                         ga.thermal_isoperimetric_ratio(float(n))])
    elif table == "entropy-tightness":
        header = ["n", "fisher", "entropy_power", "product_over_4pie"]
        for n in grid:
            j = ga.thermal_fisher_closed(float(n))
            npow = math.exp(ga.g_entropy(float(n)))
            rows.append([float(n), j, npow, j * npow / (4.0 * math.pi * math.e)])
    elif table == "gaussian-rates":
        header = ["n", "j_minus", "j_plus", "h"]
        for n in grid:
            jm, jp = ga.j_pm_gaussian(2.0 * float(n) + 1.0, 1.0)
            rows.append([float(n), jm, jp,
                         ga.h_function(float(n), args.mu, args.lam)])
    elif table == "lsi2":
        header = ["mu", "lam", "alpha2_lower", "alpha2_upper",
                  "alphaC_lower", "alphaC_upper"]
        lo, hi, (clo, chi) = ga.carbone_lsi2_bounds(args.mu, args.lam)
        rows.append([args.mu, args.lam, lo, hi, clo, chi])
    else:
        raise ValueError(f"unknown table {table!r}")
    fmt = _resolve(args, file_cfg, "format")
    payload = {"table": table, "columns": header, "rows": rows}
    _emit(payload, args.out, fmt, csv_rows=rows, csv_header=header)
    return 0


def _cmd_thresholds(args, file_cfg) -> int:
    which = {"photon": "Photon067", "entropy": "Entropy206"}[args.which]
    root = threshold_solve(which)
    _emit({"which": args.which, "root": root}, args.out, "json")
    return 0


def _cmd_minimize_rate(args, file_cfg) -> int:
    bound = cl.certified_rate_bound(args.n, args.K)
    j_geo = cl.death_entropy_rate(cl.geometric_pmf(args.n, args.K))
    closed = ga.j_pm_gaussian(2.0 * args.n + 1.0)[0]
    _emit({"n": args.n, "K": args.K, "j_geometric": j_geo,
           "certified_lower_bound": bound, "closed_form": closed,
           "gap": max(abs(j_geo - closed), abs(bound - closed))},
          args.out, "json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseineq",
        description="Verify bosonic phase-space geometric inequalities.",
    )
    parser.add_argument("--config", help="JSON config file (or set "
                        f"${ENV_CONFIG})")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand registers only the flags it reads, so a flag it would
    # ignore is a usage error.
    def flags(p, *names):
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(SUITE_NAMES))
    flags(pv, "--dim", "--seed", "--cases", "--tol", "--out")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("trajectory", help="closed-form thermal trajectory")
    pt.add_argument("kind", choices=["heat", "attenuator", "amplifier", "qou"])
    pt.add_argument("--n0", type=float, default=1.0)
    pt.add_argument("--mu", type=float, default=math.sqrt(2.0))
    pt.add_argument("--lambda", dest="lam", type=float, default=1.0)
    pt.add_argument("--tmax", type=float, default=2.0)
    pt.add_argument("--steps", type=int, default=40)
    flags(pt, "--out", "--format")
    pt.set_defaults(fn=_cmd_trajectory)

    pd = sub.add_parser("death-process", help="pure-death process trajectory")
    pd.add_argument("--init", default="geometric:1")
    pd.add_argument("--K", type=int, default=256)
    pd.add_argument("--tmax", type=float, default=2.0)
    pd.add_argument("--steps", type=int, default=20)
    flags(pd, "--out", "--format")
    pd.set_defaults(fn=_cmd_death_process)

    pc = sub.add_parser("closed-forms", help="closed-form tables")
    pc.add_argument("table", choices=["fisher-tightness", "entropy-tightness",
                                      "gaussian-rates", "lsi2"])
    pc.add_argument("--grid", default="0.1:100:25",
                    help="start:stop:count grid spec")
    pc.add_argument("--mu", type=float, default=math.sqrt(2.0))
    pc.add_argument("--lambda", dest="lam", type=float, default=1.0)
    flags(pc, "--out", "--format")
    pc.set_defaults(fn=_cmd_closed_forms)

    pth = sub.add_parser("thresholds", help="fast-convergence thresholds")
    pth.add_argument("--which", choices=["entropy", "photon"], required=True)
    flags(pth, "--out")
    pth.set_defaults(fn=_cmd_thresholds)

    pm = sub.add_parser("minimize-rate", help="constrained entropy-rate minimum")
    pm.add_argument("--n", type=float, required=True)
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
        file_cfg = _load_file_config(args.config, args)
        return args.fn(args, file_cfg)
    except (ValueError, KeyError, OSError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
