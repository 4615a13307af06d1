"""Named verification suites: each binds one inequality or identity to a
family of structured and randomized test states, computes signed margins
(slack in the direction that must be nonnegative; two-sided identity checks
use minus the relative deviation), and aggregates a machine-readable report.

Cases are "asserted" when the underlying statement is proved (a violation is
a build failure) and "reported" when it probes a conjecture or an
indeterminate regime.

Each suite takes, as keyword-only parameters, exactly those of dim, cases,
seed and tolerance that it reads; run_suite fills them from one table of
defaults, rejects a parameter the suite does not read (seed excepted: every
suite accepts it, and the suites without random states ignore it), and
records in the report's config only the values the suite read.

Each suite yields one check per case and a single runner evaluates them.
Only numerical failures while a check's margin is computed become error
cases (margin -inf, counted as failures): RuntimeError, which covers
TruncationError, the propagators' trace-drift check and the death
process's negativity and normalization checks, and IllConditionedError.
Any other exception propagates out of run_suite.
"""

from __future__ import annotations

import inspect
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.optimize import brentq

from . import classical as cl
from . import gaussian as ga
from .fisher import classical_fisher_gaussian, quantum_fisher, stam_margin
from .fock_core import (
    DensityMatrix, IllConditionedError, StateFamily,
    entropy_power, fock_rearrangement, majorizes, mean_photon, random_state,
    relative_entropy, thermal_state, truncation_health)
from .semigroups import (
    Attenuator, GaussianDensity, Heat, QOU, convolve, entropy_rate, evolve,
    relent_decay_rate, standard_gaussian)

TWO_PI_E = 2.0 * math.pi * math.e
FOUR_PI_E = 4.0 * math.pi * math.e


# The parameters a suite may read, in report order, with the values used
# when the caller sets none.
_DEFAULTS = {"dim": 128, "cases": 5, "seed": 0, "tolerance": 1e-3}


@dataclass
class CaseRecord:
    descriptor: str
    params: dict
    margin: float
    passed: bool
    asserted: bool = True
    health: dict | None = None
    error: str | None = None


@dataclass
class VerificationReport:
    suite: str
    config: dict
    cases: list[CaseRecord]
    summary: dict
    metadata: dict

    @property
    def passed(self) -> bool:
        return self.summary["failures"] == 0


@dataclass(frozen=True)
class _Check:
    """One case of a suite.

    `margin` is a closed-form number, or a thunk evaluated by the runner
    that returns the margin or (margin, values to merge into params).  The
    truncation health of `state`, when given, goes into the record.
    """

    descriptor: str
    params: dict
    margin: float | Callable[[], float | tuple[float, dict]]
    tol: float
    asserted: bool = True
    state: DensityMatrix | None = None


def _run_checks(checks: Iterator[_Check]) -> list[CaseRecord]:
    """Evaluate each check the moment the suite yields it."""
    cases = []
    for c in checks:
        try:
            margin = c.margin() if callable(c.margin) else c.margin
        except (RuntimeError, IllConditionedError) as exc:
            cases.append(CaseRecord(c.descriptor, c.params, -math.inf, False,
                                    error=f"{type(exc).__name__}: {exc}"))
            continue
        params = c.params
        if isinstance(margin, tuple):
            margin, extra = margin
            params = params | extra
        health = None
        if c.state is not None:
            h = truncation_health(c.state)
            health = {"edge_mass": h.edge_mass, "trace_drift": h.trace_drift}
        cases.append(CaseRecord(c.descriptor, params, float(margin),
                                bool(margin >= -c.tol), c.asserted, health))
    return cases


def _gaussian_kl(f: GaussianDensity, g: GaussianDensity) -> float:
    """Closed-form KL divergence D(f || g) between 2D Gaussians."""
    s0, s1 = f.cov, g.cov
    inv1 = np.linalg.inv(s1)
    dm = g.mean - f.mean
    return 0.5 * (float(np.trace(inv1 @ s0)) + float(dm @ inv1 @ dm) - 2.0
                  + math.log(np.linalg.det(s1) / np.linalg.det(s0)))


# --------------------------------------------------------------------------
# suites


def _suite_data_processing(*, dim, cases, seed, tolerance) -> Iterator[_Check]:
    rng = np.random.default_rng(seed)
    t = 0.1
    for i in range(cases):
        rho = random_state(dim, seed + 101 + i, StateFamily.FULL_RANK)
        sigma = random_state(dim, seed + 501 + i, StateFamily.FULL_RANK)
        f = GaussianDensity(mean=0.15 * rng.standard_normal(2),
                            cov=np.diag(1.0 + 0.3 * rng.random(2)))
        g = standard_gaussian()
        def margin():
            lhs = relative_entropy(convolve(f, rho, t), convolve(g, sigma, t))
            return _gaussian_kl(f, g) + relative_entropy(rho, sigma) - lhs
        yield _Check("data-processing", {"case": i, "t": t}, margin,
                     tolerance, state=rho)


def _suite_stam(*, dim, cases, seed, tolerance) -> Iterator[_Check]:
    grid = (0.02, 0.05, 0.1)
    f = standard_gaussian()
    # Closed-form sentinel: thermal input, where J before/after the heat
    # flow is known exactly.
    n = 1.0
    for t in grid:
        j0 = ga.thermal_fisher_closed(n)
        jt = ga.thermal_fisher_closed(n + 2.0 * math.pi * t)
        margin = 1.0 / jt - 1.0 / j0 - t / classical_fisher_gaussian(f.cov)
        yield _Check("stam-thermal-closed", {"n": n, "t": t}, margin,
                     tolerance)
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        for t in grid:
            yield _Check("stam-random", {"case": i, "t": t},
                         lambda: stam_margin(f, rho, t), tolerance,
                         state=rho)


def _suite_de_bruijn(*, dim, cases, seed, tolerance) -> Iterator[_Check]:
    for n in (0.5, 1.0, 2.0, 4.0):
        rate = entropy_rate(thermal_state(n, dim), Heat())
        closed = ga.thermal_fisher_closed(n)
        yield _Check("de-bruijn-thermal", {"n": n},
                     -abs(rate - closed) / closed, tolerance)
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        def margin():
            rate = entropy_rate(rho, Heat())
            j = quantum_fisher(rho).value
            return -abs(rate - j) / j
        yield _Check("de-bruijn-random", {"case": i}, margin, tolerance,
                     state=rho)


def _suite_fisher_isoperimetry(*, dim, cases, seed, tolerance) -> Iterator[_Check]:
    # Margins are d/dt (2/J) - 1 along the heat flow at omega_n, exactly, and
    # secants of 2/J over [0, h] minus 1 at random states, with no O(h) error:
    # a slope >= 1 integrates to a secant >= 1.
    h = 5e-3
    for n in (0.5, 1.0, 2.0):
        yield _Check("fisher-isoperimetry-thermal", {"n": n},
                     ga.thermal_isoperimetric_ratio(n) - 1.0, tolerance)
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        def margin():
            j0 = quantum_fisher(rho).value
            jh = quantum_fisher(evolve(rho, Heat(), h)).value
            return (2.0 / jh - 2.0 / j0) / h - 1.0
        yield _Check("fisher-isoperimetry-random", {"case": i}, margin,
                     tolerance, state=rho)


def _suite_concavity(*, dim, cases, seed, tolerance) -> Iterator[_Check]:
    # Thermal cases: -N'' exactly, as S' = J/2 gives N'' = N (J^2/4 + J'/2)
    # = (N J^2/4)(1 - d/dt (2/J)).  Random cases: minus second differences
    # of N over [0, 2h], nonpositive for a concave N: no O(h) error enters.
    h = 5e-3
    for n in (0.5, 1.0, 2.0):
        j = ga.thermal_fisher_closed(n)
        margin = math.exp(ga.g_entropy(n)) * j * j / 4.0 * (
            ga.thermal_isoperimetric_ratio(n) - 1.0)
        yield _Check("concavity-thermal", {"n": n}, margin, tolerance)
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        def margin():
            n0 = entropy_power(rho)
            n1 = entropy_power(evolve(rho, Heat(), h))
            n2 = entropy_power(evolve(rho, Heat(), 2.0 * h))
            second = (n2 - 2.0 * n1 + n0) / h**2
            return -second, {"second_difference": second}
        yield _Check("concavity-random", {"case": i}, margin, tolerance,
                     state=rho)


def _suite_epi_heat(*, dim, cases, seed, tolerance) -> Iterator[_Check]:
    for n in (0.5, 1.0, 2.0):
        for t in (0.05, 0.1, 0.5):
            n0 = math.exp(ga.g_entropy(n))
            nt = math.exp(ga.g_entropy(n + 2.0 * math.pi * t))
            yield _Check("epi-heat-thermal-closed", {"n": n, "t": t},
                         nt - n0 - TWO_PI_E * t, tolerance)
    # Asymptotic slope of N(omega_{n + 2 pi t}) over t in [2, 4].
    n = 1.0
    slope = (math.exp(ga.g_entropy(n + 8.0 * math.pi))
             - math.exp(ga.g_entropy(n + 4.0 * math.pi))) / 2.0
    yield _Check("epi-heat-asymptotic-slope",
                 {"n": n, "slope": slope, "target": TWO_PI_E},
                 -abs(slope / TWO_PI_E - 1.0), 1e-2)
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        for t in (0.05, 0.1):
            yield _Check("epi-heat-random", {"case": i, "t": t},
                         lambda: (entropy_power(evolve(rho, Heat(), t))
                                  - entropy_power(rho) - TWO_PI_E * t),
                         1e-2, state=rho)


def _suite_entropy_isoperimetry(*, dim, cases, seed) -> Iterator[_Check]:
    tol = 0.1
    # Tightness sentinel at n = 100 via closed forms (within 1% of 4 pi e).
    n = 100.0
    prod = ga.thermal_fisher_closed(n) * math.exp(ga.g_entropy(n))
    yield _Check("entropy-isoperimetry-thermal-100", {"n": n, "product": prod},
                 -abs(prod / FOUR_PI_E - 1.0), 1e-2)
    for nth in (0.5, 1.0, 2.0):
        prod = ga.thermal_fisher_closed(nth) * math.exp(ga.g_entropy(nth))
        yield _Check("entropy-isoperimetry-thermal", {"n": nth},
                     prod - FOUR_PI_E, tol)
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        yield _Check("entropy-isoperimetry-random", {"case": i},
                     lambda: quantum_fisher(rho).value * entropy_power(rho)
                     - FOUR_PI_E, tol, state=rho)


def _suite_majorization(*, cases, seed) -> Iterator[_Check]:
    dim, tol = 12, 1e-10
    # Photon loss maps the truncated space into itself, so random states
    # may occupy the whole small basis: evolve checks no edge mass for it.
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.FULL_RANK)
        arranged = fock_rearrangement(rho)
        yield _Check("rearrangement-photon-number", {"case": i},
                     mean_photon(rho) - mean_photon(arranged), tol)
        for t in (0.1, 0.5, 1.0):
            def margin():
                evolved = evolve(rho, Attenuator(), t)
                evolved_arr = evolve(arranged, Attenuator(), t)
                _, margins = majorizes(evolved_arr, evolved, tol=tol)
                return float(margins.min())
            yield _Check("attenuator-majorization", {"case": i, "t": t},
                         margin, tol)


def _suite_correspondence(*, dim, tolerance) -> Iterator[_Check]:
    for n in (0.5, 1.0, 2.0):
        closed = ga.j_pm_gaussian(2.0 * n + 1.0)[0]
        j_class = cl.death_entropy_rate(cl.geometric_pmf(n, 256))
        yield _Check("death-process-vs-closed", {"n": n},
                     -abs(j_class - closed) / abs(closed), 1e-6)
        j_fock = entropy_rate(thermal_state(n, dim), Attenuator())
        yield _Check("fock-vs-classical-rate", {"n": n},
                     -abs(j_fock - j_class) / abs(j_class), tolerance)


def _suite_geometric_optimality(*, dim, tolerance) -> Iterator[_Check]:
    # J_-(geometric) and the certified bound bracket the constrained minimum.
    K = 64
    for n in (0.5, 1.0, 2.0):
        closed = ga.j_pm_gaussian(2.0 * n + 1.0)[0]
        params = {"n": n, "K": K}
        bound = cache(partial(cl.certified_rate_bound, n, K))
        def bracket():
            j_geo = cl.death_entropy_rate(cl.geometric_pmf(n, K))
            return (-max(abs(j_geo - closed), abs(bound() - closed)),
                    {"j_geometric": j_geo, "bound": bound()})
        yield _Check("constrained-minimum-value", params, bracket, tolerance)
        yield _Check("no-feasible-beats-closed", params,
                     lambda: bound() - closed, 1e-12)
        rate = entropy_rate(thermal_state(n, dim), Attenuator())
        yield _Check("fock-attenuator-rate", {"n": n},
                     -abs(0.5 * rate - 0.5 * closed), tolerance)


def _suite_rate_decay_identity(*, cases, seed, tolerance) -> Iterator[_Check]:
    kind = QOU(math.sqrt(2.0), 1.0)
    # Fixed: on one BLAS thread, in-process, the suite takes 0.02 s at dim 64
    # and about 0.1 s at 128, and perfbench's heat-rk4 workload runs it.
    dim = 64
    sigma = thermal_state(kind.n_fixed, dim)

    def check(rho: DensityMatrix, descriptor: str, params: dict) -> _Check:
        def margin():
            lhs, rhs = relent_decay_rate(rho, kind.mu, kind.lam)
            # The identity reads dD/dt = -zeta D - rhs-assembly; compare
            # -lhs against rhs + zeta D.
            target = -(kind.zeta * relative_entropy(rho, sigma) + rhs)
            scale = max(abs(lhs), abs(target), 1e-12)
            return -abs(lhs - target) / scale

        return _Check(descriptor, params, margin, tolerance, state=rho)

    yield check(thermal_state(2.0, dim), "rate-decay-thermal", {"n": 2.0})
    for i in range(cases):
        rho = random_state(dim, seed + i, StateFamily.DIAGONAL)
        yield check(rho, "rate-decay-diagonal", {"case": i})


def _suite_log_sobolev(*, tolerance) -> Iterator[_Check]:
    mu, lam = math.sqrt(2.0), 1.0
    # h >= 0 across a thermal grid: -zeta D - dD/dt = h(n) for omega_n.
    for n in np.geomspace(0.1, 10.0, 12):
        yield _Check("h-nonnegative", {"n": float(n)},
                     ga.h_function(float(n), mu, lam), 1e-9)
    n_star, h_star = ga.h_minimize(mu, lam)
    yield _Check("h-minimum-zero", {"n_star": n_star}, -abs(h_star), 1e-12)
    # The rate zeta + epsilon fails at the witness, where epsilon D - h > 0;
    # with no witness the case fails at -inf.
    epsilon = 0.5
    witness = ga.zeta_optimality_witness(mu, lam, epsilon)
    excess = -math.inf
    if witness is not None:
        d = ga.relent_to_qou_fixed(ga.g_entropy(witness), witness, mu, lam)
        excess = epsilon * d - ga.h_function(witness, mu, lam)
    yield _Check("zeta-optimality-witness",
                 {"epsilon": epsilon, "witness_n": witness}, excess, 0.0)
    photon = threshold_solve("Photon067")
    entropy = threshold_solve("Entropy206")
    yield _Check("photon-threshold", {"root": photon}, -abs(photon - 0.67), 0.01)
    yield _Check("entropy-threshold", {"root": entropy}, -abs(entropy - 2.06),
                 0.1)
    # Conjectured exponential rate zeta on states beyond the proved regimes:
    # reported, never asserted.
    for n in (0.8, 1.5):
        d = ga.relent_to_qou_fixed(ga.g_entropy(n), n, mu, lam)
        yield _Check("conjectured-rate-beyond-thresholds", {"n": n, "relent": d},
                     ga.h_function(n, mu, lam), tolerance, asserted=False)


def _suite_cou() -> Iterator[_Check]:
    tol = 1e-12
    for theta in (0.5, 1.0, 2.0):
        for sigma2 in (0.5, 1.0, 2.0):
            for var0 in (0.1, 1.0, 10.0, 100.0):
                params = ga.ClassicalOUParams(theta=theta, sigma2=sigma2)
                for t in (0.0, 0.3, 1.0):
                    var_t, relent, margin = ga.cou_step(params, var0, t)
                    yield _Check("cou-rate-margin",
                                 {"theta": theta, "sigma2": sigma2,
                                  "var0": var0, "t": t}, margin, tol)
    # margin / D -> 0 as the initial variance grows.
    params = ga.ClassicalOUParams(theta=1.0, sigma2=1.0)
    ratios = []
    for var0 in (1e2, 1e4, 1e6):
        _, relent, margin = ga.cou_step(params, var0, 0.0)
        ratios.append(margin / relent)
    yield _Check("cou-ratio-vanishes", {"ratios": ratios}, 1e-3 - ratios[-1],
                 0.0)
    decrease = min(a - b for a, b in zip(ratios, ratios[1:]))
    yield _Check("cou-ratio-monotone", {"ratios": ratios}, decrease, 0.0)


_SUITES = {
    "data-processing": _suite_data_processing,
    "stam": _suite_stam,
    "de-bruijn": _suite_de_bruijn,
    "fisher-isoperimetry": _suite_fisher_isoperimetry,
    "concavity": _suite_concavity,
    "epi-heat": _suite_epi_heat,
    "entropy-isoperimetry": _suite_entropy_isoperimetry,
    "majorization": _suite_majorization,
    "correspondence": _suite_correspondence,
    "geometric-optimality": _suite_geometric_optimality,
    "rate-decay-identity": _suite_rate_decay_identity,
    "log-sobolev": _suite_log_sobolev,
    "cou": _suite_cou,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(suite: str, **params) -> VerificationReport:
    """Run a registered suite on the parameters it reads (unset ones from
    _DEFAULTS; an unread one other than seed is an error) and aggregate its
    report, whose config holds exactly those parameters."""
    fn = _SUITES.get(suite)
    if fn is None:
        raise ValueError(
            f"unknown suite {suite!r}; known: {', '.join(_SUITES)}")
    reads = [k for k in _DEFAULTS if k in inspect.signature(fn).parameters]
    unread = [k for k in params if k not in reads and k != "seed"]
    if unread:
        raise ValueError(
            f"suite {suite!r} does not read {', '.join(unread)}; it reads "
            f"{', '.join(reads) or 'no parameters'}")
    config = {k: params.get(k, _DEFAULTS[k]) for k in reads}
    if config.get("tolerance", 1.0) <= 0:
        raise ValueError(f"tolerance must be > 0, got {config['tolerance']}")
    if config.get("cases", 1) < 1:
        raise ValueError(f"cases must be >= 1, got {config['cases']}")
    start = time.perf_counter()
    cases = _run_checks(fn(**config))
    wall = time.perf_counter() - start
    margins = [c.margin for c in cases if math.isfinite(c.margin)]
    failures = sum(1 for c in cases if c.asserted and not c.passed)
    reported_failures = sum(1 for c in cases if not c.asserted and not c.passed)
    summary = {
        "cases": len(cases),
        "min_margin": min(margins) if margins else float("nan"),
        "failures": failures,
        "reported_failures": reported_failures,
    }
    return VerificationReport(
        suite=suite,
        config=config,
        cases=cases,
        summary=summary,
        metadata={"wall_time_s": wall},
    )


def threshold_solve(which: str) -> float:
    """Bisection roots of the fast-convergence threshold equations.

    "Photon067": root of -n log(1 + 1/n) + 2 - 2 log 2 = 0 (= the mean
    photon number up to which the qOU rate zeta is certified).
    "Entropy206": root of F(S0) + 1 - 2 log 2 = 0 with
    F(S0) = inf_{n >= g^{-1}(S0)} [2 (-n log(1 + 1/n)) + g(n)]
    (= the entropy beyond which the rate is certified).
    """
    if which == "Photon067":
        def fn(n):
            return ga.thermal_half_j_minus(n) + 2.0 - 2.0 * math.log(2.0)
        return float(brentq(fn, 1e-3, 10.0, xtol=1e-8))
    if which == "Entropy206":
        def fn(s0):
            return cl.F_of_S0(s0, mu2=2.0, zeta=1.0) + 1.0 - 2.0 * math.log(2.0)
        return float(brentq(fn, 0.7, 10.0, xtol=1e-8))
    raise ValueError(f"unknown threshold {which!r}")
