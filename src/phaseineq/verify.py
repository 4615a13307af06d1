"""Named verification suites: each binds one inequality or identity to a
family of structured and randomized test states, computes signed margins
(slack in the direction that must be nonnegative; two-sided identity checks
use minus the relative deviation), and aggregates a machine-readable report.

Cases are "asserted" when the underlying statement is proved (a violation is
a build failure) and "reported" when it probes a conjecture or an
indeterminate regime.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import classical as cl
from . import gaussian as ga
from .fisher import (
    classical_fisher_gaussian,
    quantum_fisher,
    stam_margin,
)
from .fock_core import (
    DensityMatrix,
    MajorizationMode,
    StateFamily,
    entropy_power,
    fock_rearrangement,
    majorizes,
    mean_photon,
    random_state,
    relative_entropy,
    thermal_state,
    truncation_health,
)
from .semigroups import (
    Attenuator,
    GaussianDensity,
    Heat,
    convolve,
    entropy_rate,
    evolve,
    relent_decay_rate,
    standard_gaussian,
)

TWO_PI_E = 2.0 * math.pi * math.e
FOUR_PI_E = 4.0 * math.pi * math.e


@dataclass(frozen=True)
class SuiteConfig:
    suite_name: str
    dim: int = 128
    cases: int = 5
    seed: int = 0
    tolerance: float = 1e-3
    time_grid: tuple[float, ...] = ()
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.cases < 1:
            raise ValueError(f"cases must be >= 1, got {self.cases}")


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
    suite_name: str
    config: dict
    cases: list[CaseRecord]
    summary: dict
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "suite": self.suite_name,
            "config": self.config,
            "cases": [
                {
                    "descriptor": c.descriptor,
                    "params": c.params,
                    "margin": c.margin,
                    "passed": c.passed,
                    "asserted": c.asserted,
                    "health": c.health,
                    "error": c.error,
                }
                for c in self.cases
            ],
            "summary": self.summary,
            "metadata": self.metadata,
        }

    @property
    def passed(self) -> bool:
        return self.summary["failures"] == 0


def _case(descriptor: str, margin: float, tol: float, *, params: dict | None = None,
          asserted: bool = True, health: dict | None = None) -> CaseRecord:
    return CaseRecord(
        descriptor=descriptor,
        params=params or {},
        margin=float(margin),
        passed=bool(margin >= -tol),
        asserted=asserted,
        health=health,
    )


def _error_case(descriptor: str, exc: Exception, params: dict | None = None) -> CaseRecord:
    return CaseRecord(
        descriptor=descriptor,
        params=params or {},
        margin=float("-inf"),
        passed=False,
        asserted=True,
        error=f"{type(exc).__name__}: {exc}",
    )


def _state_health(rho: DensityMatrix) -> dict:
    h = truncation_health(rho)
    return {"edge_mass": h.edge_mass, "trace_drift": h.trace_drift}


def _gaussian_kl(f: GaussianDensity, g: GaussianDensity) -> float:
    """Closed-form KL divergence D(f || g) between 2D Gaussians."""
    s0, s1 = f.cov, g.cov
    inv1 = np.linalg.inv(s1)
    dm = g.mean - f.mean
    return 0.5 * (float(np.trace(inv1 @ s0)) + float(dm @ inv1 @ dm) - 2.0
                  + math.log(np.linalg.det(s1) / np.linalg.det(s0)))


# --------------------------------------------------------------------------
# suites


def _suite_data_processing(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    grid = cfg.time_grid or (0.1,)
    out = []
    rng = np.random.default_rng(cfg.seed)
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + 101 + i, StateFamily.FULL_RANK)
        sigma = random_state(cfg.dim, cfg.seed + 501 + i, StateFamily.FULL_RANK)
        f = GaussianDensity(mean=0.15 * rng.standard_normal(2),
                            cov=np.diag(1.0 + 0.3 * rng.random(2)))
        g = standard_gaussian()
        for t in grid:
            params = {"case": i, "t": t}
            try:
                lhs = relative_entropy(convolve(f, rho, t), convolve(g, sigma, t))
                rhs = _gaussian_kl(f, g) + relative_entropy(rho, sigma)
                out.append(_case("data-processing", rhs - lhs, tol, params=params,
                                 health=_state_health(rho)))
            except Exception as exc:
                out.append(_error_case("data-processing", exc, params))
    return out


def _suite_stam(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    grid = cfg.time_grid or (0.02, 0.05, 0.1)
    f = standard_gaussian()
    out = []
    # Closed-form sentinel: thermal input, where J before/after the heat
    # flow is known exactly.
    n = 1.0
    for t in grid:
        j0 = ga.thermal_fisher_closed(n)
        jt = ga.thermal_fisher_closed(n + 2.0 * math.pi * t)
        margin = 1.0 / jt - 1.0 / j0 - t / classical_fisher_gaussian(f.cov)
        out.append(_case("stam-thermal-closed", margin, tol,
                         params={"n": n, "t": t}))
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + i, StateFamily.FULL_RANK)
        for t in grid:
            params = {"case": i, "t": t}
            try:
                m = stam_margin(f, rho, t)
                out.append(_case("stam-random", m, tol, params=params,
                                 health=_state_health(rho)))
            except Exception as exc:
                out.append(_error_case("stam-random", exc, params))
    return out


def _suite_de_bruijn(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    out = []
    for n in (0.5, 1.0, 2.0, 4.0):
        rho = thermal_state(n, cfg.dim)
        rate = entropy_rate(rho, Heat())
        rel = abs(rate - ga.thermal_fisher_closed(n)) / ga.thermal_fisher_closed(n)
        out.append(_case("de-bruijn-thermal", -rel, tol, params={"n": n}))
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + i, StateFamily.FULL_RANK)
        params = {"case": i}
        try:
            rate = entropy_rate(rho, Heat())
            j = quantum_fisher(rho).value
            out.append(_case("de-bruijn-random", -abs(rate - j) / j, tol,
                             params=params, health=_state_health(rho)))
        except Exception as exc:
            out.append(_error_case("de-bruijn-random", exc, params))
    return out


def _inverse_half_fisher_slope(rho: DensityMatrix, h: float = 5e-3) -> float:
    """Forward-difference d/dt of 2/J(e^{t L_heat} rho) at t = 0."""
    j0 = quantum_fisher(rho).value
    jh = quantum_fisher(evolve(rho, Heat(), h)).value
    return (2.0 / jh - 2.0 / j0) / h


def _suite_fisher_isoperimetry(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    out = []
    for n in (0.5, 1.0, 2.0):
        # Closed-form slope of 2/J(omega_{n + 2 pi t}) at t = 0.
        expected = 1.0 / (n * (n + 1.0) * math.log(1.0 + 1.0 / n) ** 2)
        h = 5e-3
        j0 = ga.thermal_fisher_closed(n)
        jh = ga.thermal_fisher_closed(n + 2.0 * math.pi * h)
        slope = (2.0 / jh - 2.0 / j0) / h
        out.append(_case("fisher-isoperimetry-thermal", slope - 1.0, tol,
                         params={"n": n, "closed_form_slope": expected}))
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + i, StateFamily.FULL_RANK)
        params = {"case": i}
        try:
            slope = _inverse_half_fisher_slope(rho)
            out.append(_case("fisher-isoperimetry-random", slope - 1.0, tol,
                             params=params, health=_state_health(rho)))
        except Exception as exc:
            out.append(_error_case("fisher-isoperimetry-random", exc, params))
    return out


def _suite_concavity(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    h = cfg.extra.get("h", 5e-3)
    out = []
    for n in (0.5, 1.0, 2.0):
        ns = [n, n + 2.0 * math.pi * h, n + 4.0 * math.pi * h]
        n0, n1, n2 = (math.exp(ga.g_entropy(x)) for x in ns)
        second = (n2 - 2.0 * n1 + n0) / h**2
        out.append(_case("concavity-thermal", -second, tol,
                         params={"n": n, "second_difference": second}))
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + i, StateFamily.FULL_RANK)
        params = {"case": i}
        try:
            n0 = entropy_power(rho)
            n1 = entropy_power(evolve(rho, Heat(), h))
            n2 = entropy_power(evolve(rho, Heat(), 2.0 * h))
            second = (n2 - 2.0 * n1 + n0) / h**2
            out.append(_case("concavity-random", -second, tol,
                             params=params | {"second_difference": second},
                             health=_state_health(rho)))
        except Exception as exc:
            out.append(_error_case("concavity-random", exc, params))
    return out


def _suite_epi_heat(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    grid = cfg.time_grid or (0.05, 0.1, 0.5)
    out = []
    for n in (0.5, 1.0, 2.0):
        for t in grid:
            n0 = math.exp(ga.g_entropy(n))
            nt = math.exp(ga.g_entropy(n + 2.0 * math.pi * t))
            out.append(_case("epi-heat-thermal-closed", nt - n0 - TWO_PI_E * t,
                             tol, params={"n": n, "t": t}))
    # Asymptotic slope of N(omega_{n + 2 pi t}) over t in [2, 4].
    n = 1.0
    slope = (math.exp(ga.g_entropy(n + 8.0 * math.pi))
             - math.exp(ga.g_entropy(n + 4.0 * math.pi))) / 2.0
    out.append(_case("epi-heat-asymptotic-slope",
                     -abs(slope / TWO_PI_E - 1.0), 1e-2,
                     params={"n": n, "slope": slope, "target": TWO_PI_E}))
    rand_tol = cfg.extra.get("random_tolerance", 1e-2)
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + i, StateFamily.FULL_RANK)
        for t in (0.05, 0.1):
            params = {"case": i, "t": t}
            try:
                margin = (entropy_power(evolve(rho, Heat(), t))
                          - entropy_power(rho) - TWO_PI_E * t)
                out.append(_case("epi-heat-random", margin, rand_tol,
                                 params=params, health=_state_health(rho)))
            except Exception as exc:
                out.append(_error_case("epi-heat-random", exc, params))
    return out


def _suite_entropy_isoperimetry(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.extra.get("random_tolerance", 0.1)
    out = []
    # Tightness sentinel at n = 100 via closed forms (within 1% of 4 pi e).
    n = 100.0
    prod = ga.thermal_fisher_closed(n) * math.exp(ga.g_entropy(n))
    out.append(_case("entropy-isoperimetry-thermal-100",
                     -abs(prod / FOUR_PI_E - 1.0), 1e-2,
                     params={"n": n, "product": prod}))
    for nth in (0.5, 1.0, 2.0):
        prod = ga.thermal_fisher_closed(nth) * math.exp(ga.g_entropy(nth))
        out.append(_case("entropy-isoperimetry-thermal", prod - FOUR_PI_E, tol,
                         params={"n": nth}))
    for i in range(cfg.cases):
        rho = random_state(cfg.dim, cfg.seed + i, StateFamily.FULL_RANK)
        params = {"case": i}
        try:
            prod = quantum_fisher(rho).value * entropy_power(rho)
            out.append(_case("entropy-isoperimetry-random", prod - FOUR_PI_E,
                             tol, params=params, health=_state_health(rho)))
        except Exception as exc:
            out.append(_error_case("entropy-isoperimetry-random", exc, params))
    return out


def _suite_majorization(cfg: SuiteConfig) -> list[CaseRecord]:
    dim = cfg.extra.get("dim", 12)
    tol = cfg.extra.get("majorization_tolerance", 1e-10)
    grid = cfg.time_grid or (0.1, 0.5, 1.0)
    # Photon loss maps the truncated space into itself, so random states
    # occupying the whole small basis are legitimate: disable the edge guard.
    out = []
    for i in range(cfg.cases):
        rho = random_state(dim, cfg.seed + i, StateFamily.FULL_RANK)
        arranged = fock_rearrangement(rho)
        out.append(_case("rearrangement-photon-number",
                         mean_photon(rho) - mean_photon(arranged), tol,
                         params={"case": i}))
        for t in grid:
            params = {"case": i, "t": t}
            try:
                evolved = evolve(rho, Attenuator(), t, edge_tol=math.inf)
                evolved_arr = evolve(arranged, Attenuator(), t,
                                     edge_tol=math.inf)
                ok, margins = majorizes(evolved_arr, evolved,
                                        MajorizationMode.FULL, tol=tol)
                out.append(_case("attenuator-majorization",
                                 float(margins.min()), tol, params=params))
            except Exception as exc:
                out.append(_error_case("attenuator-majorization", exc, params))
    return out


def _suite_correspondence(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    K = cfg.extra.get("K", 256)
    out = []
    for n in (0.5, 1.0, 2.0):
        closed = -2.0 * n * math.log(1.0 + 1.0 / n)
        j_class = cl.death_entropy_rate(cl.geometric_pmf(n, K))
        out.append(_case("death-process-vs-closed",
                         -abs(j_class - closed) / abs(closed), 1e-6,
                         params={"n": n}))
        rho = thermal_state(n, cfg.dim)
        j_fock = entropy_rate(rho, Attenuator())
        out.append(_case("fock-vs-classical-rate",
                         -abs(j_fock - j_class) / abs(j_class), tol,
                         params={"n": n}))
    return out


def _suite_geometric_optimality(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    K = cfg.extra.get("K", 64)
    starts = cfg.extra.get("starts", 8)
    out = []
    for n in (0.5, 1.0, 2.0):
        closed = -2.0 * n * math.log(1.0 + 1.0 / n)
        params = {"n": n, "K": K}
        try:
            p_star, j_star = cl.min_entropy_rate_constrained(
                n, K, starts=starts, seed=cfg.seed)
            out.append(_case("constrained-minimum-value",
                             -abs(j_star - closed), tol,
                             params=params | {"j_star": j_star}))
            # The minimizer must never beat the geometric value.
            out.append(_case("no-start-beats-geometric", j_star - closed,
                             1e-6, params=params))
        except Exception as exc:
            out.append(_error_case("constrained-minimum-value", exc, params))
        rate = entropy_rate(thermal_state(n, cfg.dim), Attenuator())
        out.append(_case("fock-attenuator-rate", -abs(0.5 * rate
                         - (-n * math.log(1.0 + 1.0 / n))), tol,
                         params={"n": n}))
    return out


def _suite_rate_decay_identity(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    mu = cfg.extra.get("mu", math.sqrt(2.0))
    lam = cfg.extra.get("lam", 1.0)
    dim = min(cfg.dim, 64)
    out = []

    def check(rho: DensityMatrix, descriptor: str, params: dict):
        try:
            lhs, rhs = relent_decay_rate(rho, mu, lam)
            # The identity reads dD/dt = -zeta D - rhs-assembly; compare
            # -lhs against rhs + zeta D.
            zeta = mu**2 - lam**2
            sigma = thermal_state(lam**2 / zeta, dim)
            target = -(zeta * relative_entropy(rho, sigma) + rhs)
            scale = max(abs(lhs), abs(target), 1e-12)
            out.append(_case(descriptor, -abs(lhs - target) / scale, tol,
                             params=params, health=_state_health(rho)))
        except Exception as exc:
            out.append(_error_case(descriptor, exc, params))

    check(thermal_state(2.0, dim), "rate-decay-thermal", {"n": 2.0})
    for i in range(cfg.cases):
        rho = random_state(dim, cfg.seed + i, StateFamily.DIAGONAL)
        check(rho, "rate-decay-diagonal", {"case": i})
    return out


def _suite_log_sobolev(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.tolerance
    mu = cfg.extra.get("mu", math.sqrt(2.0))
    lam = cfg.extra.get("lam", 1.0)
    zeta = mu**2 - lam**2
    out = []
    # h >= 0 across a thermal grid: -zeta D - dD/dt = h(n) for omega_n.
    for n in np.geomspace(0.1, 10.0, 12):
        out.append(_case("h-nonnegative", ga.h_function(float(n), mu, lam),
                         1e-9, params={"n": float(n)}))
    n_star, h_star = ga.h_minimize(mu, lam)
    out.append(_case("h-minimum-zero", -abs(h_star), 1e-12,
                     params={"n_star": n_star}))
    witness = ga.zeta_optimality_witness(mu, lam, epsilon=0.5)
    out.append(_case("zeta-optimality-witness",
                     1.0 if witness is not None else -1.0, tol,
                     params={"epsilon": 0.5, "witness_n": witness}))
    photon = threshold_solve("Photon067")
    entropy = threshold_solve("Entropy206")
    out.append(_case("photon-threshold", -abs(photon - 0.67), 0.01,
                     params={"root": photon}))
    out.append(_case("entropy-threshold", -abs(entropy - 2.06), 0.1,
                     params={"root": entropy}))
    # Conjectured exponential rate zeta on states beyond the proved regimes:
    # reported, never asserted.
    for n in (0.8, 1.5):
        d = ga.relent_to_qou_fixed(ga.g_entropy(n), n, mu, lam)
        margin = ga.h_function(n, mu, lam)
        rec = _case("conjectured-rate-beyond-thresholds", margin, tol,
                    params={"n": n, "relent": d}, asserted=False)
        out.append(rec)
    return out


def _suite_cou(cfg: SuiteConfig) -> list[CaseRecord]:
    tol = cfg.extra.get("margin_tolerance", 1e-12)
    out = []
    for theta in (0.5, 1.0, 2.0):
        for sigma2 in (0.5, 1.0, 2.0):
            for var0 in (0.1, 1.0, 10.0, 100.0):
                params = ga.ClassicalOUParams(theta=theta, sigma2=sigma2)
                for t in cfg.time_grid or (0.0, 0.3, 1.0):
                    var_t, relent, margin = ga.cou_step(params, var0, t)
                    out.append(_case("cou-rate-margin", margin, tol,
                                     params={"theta": theta, "sigma2": sigma2,
                                             "var0": var0, "t": t}))
    # margin / D -> 0 as the initial variance grows.
    params = ga.ClassicalOUParams(theta=1.0, sigma2=1.0)
    ratios = []
    for var0 in (1e2, 1e4, 1e6):
        _, relent, margin = ga.cou_step(params, var0, 0.0)
        ratios.append(margin / relent)
    out.append(_case("cou-ratio-vanishes", 1e-3 - ratios[-1], 0.0,
                     params={"ratios": ratios}))
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    out.append(_case("cou-ratio-monotone", 1.0 if monotone else -1.0, 0.5,
                     params={"ratios": ratios}))
    return out


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

# Per-suite default tolerances; a suite not listed uses 1e-3.  The
# fisher-isoperimetry margins are forward-difference slopes of 2/J along
# the heat flow (error O(h) at h = 5e-3), hence 1e-2.
_SUITE_DEFAULT_TOL = {
    "fisher-isoperimetry": 1e-2,
    "concavity": 1e-3,
    "cou": 1e-3,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute a registered suite and aggregate its report."""
    fn = _SUITES.get(config.suite_name)
    if fn is None:
        raise ValueError(
            f"unknown suite {config.suite_name!r}; known: {', '.join(_SUITES)}"
        )
    start = time.perf_counter()
    cases = fn(config)
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
        suite_name=config.suite_name,
        config={
            "dim": config.dim,
            "cases": config.cases,
            "seed": config.seed,
            "tolerance": config.tolerance,
            "time_grid": list(config.time_grid),
            "extra": config.extra,
        },
        cases=cases,
        summary=summary,
        metadata={"wall_time_s": wall},
    )


def default_config(suite_name: str, **overrides) -> SuiteConfig:
    """SuiteConfig with per-suite default tolerance applied."""
    tol = _SUITE_DEFAULT_TOL.get(suite_name, 1e-3)
    kwargs = {"suite_name": suite_name, "tolerance": tol}
    kwargs.update(overrides)
    return SuiteConfig(**kwargs)


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
            return -n * math.log(1.0 + 1.0 / n) + 2.0 - 2.0 * math.log(2.0)
        return float(brentq(fn, 1e-3, 10.0, xtol=1e-8))
    if which == "Entropy206":
        def fn(s0):
            return cl.F_of_S0(s0, mu2=2.0, zeta=1.0) + 1.0 - 2.0 * math.log(2.0)
        return float(brentq(fn, 0.7, 10.0, xtol=1e-8))
    raise ValueError(f"unknown threshold {which!r}")
