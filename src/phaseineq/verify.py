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

Random states follow one draw rule, `_random_states`: random case i holds
random_state(dim, seed + i, FULL_RANK), but `data-processing` draws rho at
seed + 101 + i and sigma at seed + 501 + i, `majorization` draws at dim 12
and `rate-decay-identity` draws the DIAGONAL family at dim 64.

Each suite yields one CaseRecord per case, built by `_case` where the suite
states the case, with the case's gate in its `tol`.  Only numerical failures
while `_case` computes a margin become error cases (margin -inf, counted as
failures): TruncationError and IllConditionedError, both raised in
`fock_core`.  A suite computes everything that can truncate, thermal states
included, inside a case's margin thunk, so a truncation never ends a
suite.  Any other exception propagates out of run_suite, the flows'
trace-drift RuntimeError included: the generators conserve trace exactly
and both series of `semigroups._series` carry a-priori error bounds, so a
drift is a bug, not a numerical limit.
"""

from __future__ import annotations

import inspect
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import classical as cl
from . import gaussian as ga
from .fisher import classical_fisher_gaussian, quantum_fisher
from .fock_core import (
    DensityMatrix, IllConditionedError, StateFamily, TruncationError,
    entropy_power, fock_rearrangement, majorizes, mean_photon, random_state,
    relative_entropy, state_edge_mass, thermal_state)
from .semigroups import (
    Attenuator, GaussianDensity, Heat, QOU, convolve, entropy_rate, evolve,
    flow, relent_decay_rate, standard_gaussian)

TWO_PI_E = 2.0 * math.pi * math.e
FOUR_PI_E = 4.0 * math.pi * math.e


# The parameters a suite may read, in report order, with the values used
# when the caller sets none.
_DEFAULTS = {"dim": 128, "cases": 5, "seed": 0, "tolerance": 1e-3}
# Mean photon numbers of the thermal cases that several suites share.
_THERMAL_N = (0.5, 1.0, 2.0)
# The qOU of log-sobolev, rate-decay-identity and the entropy threshold.
_QOU = QOU(math.sqrt(2.0), 1.0)


@dataclass
class CaseRecord:
    descriptor: str
    params: dict
    margin: float
    tol: float
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


def _case(descriptor: str, params: dict,
          margin: float | Callable[[], float | tuple[float, dict]],
          tol: float, asserted: bool = True,
          state: DensityMatrix | None = None) -> CaseRecord:
    """One case of a suite, evaluated at once.

    `margin` is a closed-form number, or a thunk that returns the margin or
    (margin, values to merge into params); a TruncationError or
    IllConditionedError it raises becomes an error case.  The truncation
    health of `state`, when given, goes into the record.
    """
    try:
        margin = margin() if callable(margin) else margin
    except (TruncationError, IllConditionedError) as exc:
        return CaseRecord(descriptor, params, -math.inf, tol, False,
                          error=f"{type(exc).__name__}: {exc}")
    if isinstance(margin, tuple):
        margin, extra = margin
        params = params | extra
    health = None
    if state is not None:
        health = {"edge_mass": state_edge_mass(state.mat),
                  "trace_drift": abs(np.trace(state.mat).real - 1.0)}
    return CaseRecord(descriptor, params, float(margin), tol,
                      bool(margin >= -tol), asserted, health)


def _random_states(dim, cases, seed, family=StateFamily.FULL_RANK
                   ) -> Iterator[tuple[int, DensityMatrix]]:
    """(i, case i's state drawn at seed + i) for i < cases: the draw rule."""
    for i in range(cases):
        yield i, random_state(dim, seed + i, family)


def _gaussian_kl(f: GaussianDensity, g: GaussianDensity) -> float:
    """Closed-form KL divergence D(f || g) between 2D Gaussians."""
    s0, s1 = f.cov, g.cov
    inv1 = np.linalg.inv(s1)
    dm = g.mean - f.mean
    return 0.5 * (float(np.trace(inv1 @ s0)) + float(dm @ inv1 @ dm) - 2.0
                  + math.log(np.linalg.det(s1) / np.linalg.det(s0)))


# --------------------------------------------------------------------------
# suites


def _suite_data_processing(*, dim, cases, seed, tolerance
                          ) -> Iterator[CaseRecord]:
    rng = np.random.default_rng(seed)
    t = 0.1
    for (i, rho), (_, sigma) in zip(_random_states(dim, cases, seed + 101),
                                    _random_states(dim, cases, seed + 501)):
        f = GaussianDensity(mean=0.15 * rng.standard_normal(2),
                            cov=np.diag(1.0 + 0.3 * rng.random(2)))
        g = standard_gaussian()
        def margin():
            lhs = relative_entropy(convolve(f, rho, t), convolve(g, sigma, t))
            return _gaussian_kl(f, g) + relative_entropy(rho, sigma) - lhs
        yield _case("data-processing", {"case": i, "t": t}, margin,
                    tolerance, state=rho)


def _suite_stam(*, dim, cases, seed, tolerance) -> Iterator[CaseRecord]:
    grid = (0.02, 0.05, 0.1)
    f = standard_gaussian()
    j_f = classical_fisher_gaussian(f)
    # Closed-form sentinel: thermal input, where J before/after the heat
    # flow is known exactly.
    n = 1.0
    for t in grid:
        j0 = ga.thermal_fisher_closed(n)
        jt = ga.thermal_fisher_closed(ga.thermal_mean(n, Heat(), t))
        yield _case("stam-thermal-closed", {"n": n, "t": t},
                    1.0 / jt - 1.0 / j0 - t / j_f, tolerance)
    for i, rho in _random_states(dim, cases, seed):
        j_rho = cache(lambda: quantum_fisher(rho).value)
        for t, conv in zip(grid, flow(f, rho, grid)):
            yield _case("stam-random", {"case": i, "t": t},
                        lambda: (1.0 / quantum_fisher(conv()).value
                                 - 1.0 / j_rho() - t / j_f),
                        tolerance, state=rho)


def _suite_de_bruijn(*, dim, cases, seed, tolerance) -> Iterator[CaseRecord]:
    for n in (0.5, 1.0, 2.0, 4.0):
        closed = ga.thermal_fisher_closed(n)
        def margin():
            rate = entropy_rate(thermal_state(n, dim), Heat())
            return -abs(rate - closed) / closed
        yield _case("de-bruijn-thermal", {"n": n}, margin, tolerance)
    for i, rho in _random_states(dim, cases, seed):
        def margin():
            rate = entropy_rate(rho, Heat())
            j = quantum_fisher(rho).value
            return -abs(rate - j) / j
        yield _case("de-bruijn-random", {"case": i}, margin, tolerance,
                    state=rho)


def _suite_fisher_isoperimetry(*, dim, cases, seed, tolerance
                              ) -> Iterator[CaseRecord]:
    # Margins are d/dt (2/J) - 1 along the heat flow at omega_n, exactly, and
    # secants of 2/J over [0, h] minus 1 at random states, with no O(h) error:
    # a slope >= 1 integrates to a secant >= 1.
    h = 5e-3
    for n in _THERMAL_N:
        yield _case("fisher-isoperimetry-thermal", {"n": n},
                    ga.thermal_isoperimetric_ratio(n) - 1.0, tolerance)
    for i, rho in _random_states(dim, cases, seed):
        def margin():
            j0 = quantum_fisher(rho).value
            jh = quantum_fisher(evolve(rho, Heat(), h)).value
            return (2.0 / jh - 2.0 / j0) / h - 1.0
        yield _case("fisher-isoperimetry-random", {"case": i}, margin,
                    tolerance, state=rho)


def _suite_concavity(*, dim, cases, seed, tolerance) -> Iterator[CaseRecord]:
    # Thermal cases: -N'' exactly, as S' = J/2 gives N'' = N (J^2/4 + J'/2)
    # = (N J^2/4)(1 - d/dt (2/J)).  Random cases: minus second differences
    # of N over [0, 2h], nonpositive for a concave N: no O(h) error enters.
    h = 5e-3
    for n in _THERMAL_N:
        j = ga.thermal_fisher_closed(n)
        margin = math.exp(ga.g_entropy(n)) * j * j / 4.0 * (
            ga.thermal_isoperimetric_ratio(n) - 1.0)
        yield _case("concavity-thermal", {"n": n}, margin, tolerance)
    for i, rho in _random_states(dim, cases, seed):
        at_h, at_2h = flow(Heat(), rho, (h, 2.0 * h))
        def margin():
            n0 = entropy_power(rho)
            n1 = entropy_power(at_h())
            n2 = entropy_power(at_2h())
            second = (n2 - 2.0 * n1 + n0) / h**2
            return -second, {"second_difference": second}
        yield _case("concavity-random", {"case": i}, margin, tolerance,
                    state=rho)


def _suite_epi_heat(*, dim, cases, seed, tolerance) -> Iterator[CaseRecord]:
    for n in _THERMAL_N:
        for t in (0.05, 0.1, 0.5):
            n0 = math.exp(ga.g_entropy(n))
            nt = math.exp(ga.g_entropy(ga.thermal_mean(n, Heat(), t)))
            yield _case("epi-heat-thermal-closed", {"n": n, "t": t},
                        nt - n0 - TWO_PI_E * t, tolerance)
    # Slope N J/2 of N(omega_{n + 2 pi t}) at t = 2, exactly (S' = J/2),
    # which tends to 2 pi e from above: J N >= 4 pi e.
    n, t = 1.0, 2.0
    n_t = ga.thermal_mean(n, Heat(), t)
    slope = math.exp(ga.g_entropy(n_t)) * ga.thermal_fisher_closed(n_t) / 2.0
    yield _case("epi-heat-asymptotic-slope",
                {"n": n, "t": t, "slope": slope, "target": TWO_PI_E},
                slope / TWO_PI_E - 1.0, tolerance)
    grid = (0.05, 0.1)
    for i, rho in _random_states(dim, cases, seed):
        for t, evolved in zip(grid, flow(Heat(), rho, grid)):
            yield _case("epi-heat-random", {"case": i, "t": t},
                        lambda: (entropy_power(evolved())
                                 - entropy_power(rho) - TWO_PI_E * t),
                        tolerance, state=rho)


def _suite_entropy_isoperimetry(*, dim, cases, seed, tolerance
                                ) -> Iterator[CaseRecord]:
    # Tightness sentinel at n = 100 via closed forms (within 1% of 4 pi e).
    n = 100.0
    prod = ga.thermal_fisher_closed(n) * math.exp(ga.g_entropy(n))
    yield _case("entropy-isoperimetry-thermal-100", {"n": n, "product": prod},
                -abs(prod / FOUR_PI_E - 1.0), 1e-2)
    for nth in _THERMAL_N:
        prod = ga.thermal_fisher_closed(nth) * math.exp(ga.g_entropy(nth))
        yield _case("entropy-isoperimetry-thermal", {"n": nth},
                    prod - FOUR_PI_E, tolerance)
    for i, rho in _random_states(dim, cases, seed):
        yield _case("entropy-isoperimetry-random", {"case": i},
                    lambda: quantum_fisher(rho).value * entropy_power(rho)
                    - FOUR_PI_E, tolerance, state=rho)


def _suite_majorization(*, cases, seed) -> Iterator[CaseRecord]:
    # Under photon loss the output of the passive rearrangement majorizes
    # the output of the state itself (De Palma, Trevisan and Giovannetti,
    # IEEE Trans. Inf. Theory 62, 2016).  The margin is the least partial-sum
    # slack over n < d - 1; the last partial sum is the trace equality,
    # round-off only, and is checked as its own identity case.
    dim, tol = 12, 1e-10
    grid = (0.1, 0.5, 1.0)
    # Photon loss maps the truncated space into itself, so random states
    # may occupy the whole small basis: the flow checks no edge mass for it.
    for i, rho in _random_states(dim, cases, seed):
        arranged = fock_rearrangement(rho)
        yield _case("rearrangement-photon-number", {"case": i},
                    mean_photon(rho) - mean_photon(arranged), tol)
        for t, out, out_arr in zip(grid, flow(Attenuator(), rho, grid),
                                   flow(Attenuator(), arranged, grid)):
            margins = cache(lambda: majorizes(out_arr(), out()))
            yield _case("attenuator-majorization", {"case": i, "t": t},
                        lambda: float(margins()[:-1].min()), tol)
            yield _case("attenuator-trace", {"case": i, "t": t},
                        lambda: -abs(float(margins()[-1])), tol)


def _suite_correspondence(*, dim, tolerance) -> Iterator[CaseRecord]:
    for n in _THERMAL_N:
        closed = ga.thermal_j_pm(n)[0]
        j_class = cl.death_entropy_rate(cl.geometric_pmf(n, 256))
        yield _case("death-process-vs-closed", {"n": n},
                    -abs(j_class - closed) / abs(closed), 1e-6)
        def margin():
            j_fock = entropy_rate(thermal_state(n, dim), Attenuator())
            return -abs(j_fock - j_class) / abs(j_class)
        yield _case("fock-vs-classical-rate", {"n": n}, margin, tolerance)


def _suite_geometric_optimality(*, dim, tolerance) -> Iterator[CaseRecord]:
    # J_-(geometric) and the certified bound bracket the constrained minimum.
    K = 64
    for n in _THERMAL_N:
        closed = ga.thermal_j_pm(n)[0]
        params = {"n": n, "K": K}
        bound = cache(partial(cl.certified_rate_bound, n, K))
        def bracket():
            j_geo = cl.death_entropy_rate(cl.geometric_pmf(n, K))
            return (-max(abs(j_geo - closed), abs(bound() - closed)),
                    {"j_geometric": j_geo, "bound": bound()})
        yield _case("constrained-minimum-value", params, bracket, tolerance)
        yield _case("no-feasible-beats-closed", params,
                    lambda: bound() - closed, 1e-12)
        def margin():
            rate = entropy_rate(thermal_state(n, dim), Attenuator())
            return -abs(0.5 * rate - 0.5 * closed)
        yield _case("fock-attenuator-rate", {"n": n}, margin, tolerance)


def _suite_rate_decay_identity(*, cases, seed, tolerance
                              ) -> Iterator[CaseRecord]:
    # Fixed: on one BLAS thread, in-process, the suite takes 2.1 ms at dim 64
    # and 7.9 ms at 128, and perfbench's heat-rk4 workload runs it.
    dim = 64
    sigma = thermal_state(_QOU.n_fixed, dim)
    states = [("rate-decay-thermal", {"n": 2.0}, thermal_state(2.0, dim))]
    states += [("rate-decay-diagonal", {"case": i}, rho) for i, rho
               in _random_states(dim, cases, seed, StateFamily.DIAGONAL)]
    for descriptor, params, rho in states:
        def margin():
            lhs, rhs = relent_decay_rate(rho, _QOU)
            # The identity reads dD/dt = -zeta D - rhs-assembly; compare
            # -lhs against rhs + zeta D.  The residual is the truncation's:
            # a a_dag cannot raise level dim - 1, so lhs - target is
            # lam^2 dim rho_{dim-1,dim-1} log nu, plus round-off.
            target = -(_QOU.zeta * relative_entropy(rho, sigma) + rhs)
            scale = max(abs(lhs), abs(target), 1e-12)
            return -abs(lhs - target) / scale
        yield _case(descriptor, params, margin, tolerance, state=rho)


def _suite_log_sobolev(*, tolerance) -> Iterator[CaseRecord]:
    # h >= 0 across a thermal grid: -zeta D - dD/dt = h(n) for omega_n.
    for n in np.geomspace(0.1, 10.0, 12):
        yield _case("h-nonnegative", {"n": float(n)},
                    ga.h_function(float(n), _QOU), 1e-9)
    n_star = _QOU.n_fixed
    yield _case("h-minimum-zero", {"n_star": n_star},
                -abs(ga.h_function(n_star, _QOU)), 1e-12)
    # The rate zeta + epsilon fails at the witness, where epsilon D - h > 0;
    # with no witness the case fails at -inf.
    epsilon = 0.5
    witness = ga.zeta_optimality_witness(_QOU, epsilon)
    excess = -math.inf
    if witness is not None:
        d = ga.relent_to_qou_fixed(witness - n_star, _QOU)
        excess = epsilon * d - ga.h_function(witness, _QOU)
    yield _case("zeta-optimality-witness",
                {"epsilon": epsilon, "witness_n": witness}, excess, 0.0)
    photon = photon_threshold()
    entropy = entropy_threshold()
    yield _case("photon-threshold", {"root": photon}, -abs(photon - 0.67), 0.01)
    yield _case("entropy-threshold", {"root": entropy}, -abs(entropy - 2.06),
                0.1)
    # Conjectured exponential rate zeta on states beyond the proved regimes:
    # reported, never asserted.
    for n in (0.8, 1.5):
        d = ga.relent_to_qou_fixed(n - n_star, _QOU)
        yield _case("conjectured-rate-beyond-thresholds", {"n": n, "relent": d},
                    ga.h_function(n, _QOU), tolerance, asserted=False)


def _suite_cou() -> Iterator[CaseRecord]:
    tol = 1e-12
    for theta in (0.5, 1.0, 2.0):
        for sigma2 in (0.5, 1.0, 2.0):
            for var0 in (0.1, 1.0, 10.0, 100.0):
                params = ga.ClassicalOUParams(theta=theta, sigma2=sigma2)
                for t in (0.0, 0.3, 1.0):
                    var_t, relent, margin = ga.cou_step(params, var0, t)
                    yield _case("cou-rate-margin",
                                {"theta": theta, "sigma2": sigma2,
                                 "var0": var0, "t": t}, margin, tol)
    # margin / D -> 0 as the initial variance grows.
    params = ga.ClassicalOUParams(theta=1.0, sigma2=1.0)
    ratios = []
    for var0 in (1e2, 1e4, 1e6):
        _, relent, margin = ga.cou_step(params, var0, 0.0)
        ratios.append(margin / relent)
    yield _case("cou-ratio-vanishes", {"ratios": ratios}, 1e-3 - ratios[-1],
                0.0)
    decrease = min(a - b for a, b in zip(ratios, ratios[1:]))
    yield _case("cou-ratio-monotone", {"ratios": ratios}, decrease, 0.0)


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
    if config.get("dim", 2) < 2:
        raise ValueError(f"dim must be >= 2, got {config['dim']}")
    if config.get("dim", 2) > 2048:
        raise ValueError(f"dim must be <= 2048, got {config['dim']}")
    if not 0 < config.get("tolerance", 1.0) < math.inf:
        raise ValueError(f"tolerance must be > 0 and finite, got "
                         f"{config['tolerance']}")
    if config.get("cases", 1) < 1:
        raise ValueError(f"cases must be >= 1, got {config['cases']}")
    if params.get("seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {params['seed']}")
    start = time.perf_counter()
    cases = list(fn(**config))
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
    return VerificationReport(suite=suite, config=config, cases=cases,
                              summary=summary, metadata={"wall_time_s": wall})


def photon_threshold() -> float:
    """Mean photon number up to which the qOU rate zeta is certified: the
    root of n log(1 + 1/n) = 2 - 2 log 2, bisected to adjacent doubles."""
    c = 2.0 - 2.0 * math.log(2.0)
    return ga._bisect(lambda n: n * ga._beta(n) < c, 0.1, 10.0)


def entropy_threshold() -> float:
    """Entropy beyond which the rate zeta of QOU(sqrt 2, 1) is certified: the
    one root of `classical.F_of_S0` = 2 log 2 - 1, F(S0) = inf over n >=
    g^{-1}(S0) of 2 (-n log(1 + 1/n)) + g(n), bisected to adjacent doubles."""
    c = 2.0 * math.log(2.0) - 1.0
    return ga._bisect(lambda s: cl.F_of_S0(s, _QOU) < c, 0.7, 10.0)
