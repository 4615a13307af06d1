"""Classical pure-death process on {0, ..., K} and entropy-rate extremizers.

The process p_dot_n = -n p_n + (n+1) p_{n+1} is the number-basis diagonal
restriction of the photon-loss semigroup, evolved in closed form by
binomial thinning.  Includes the entropy rate
J_-(p) = -2 sum_n (C p)_n log p_n, the geometric family, the threshold
function F, a convex-duality certificate for the energy-constrained minimum
of J_-, and the projected-gradient minimizer kept as its reference oracle.
F's stationary point and the minimizer's energy multiplier are both roots
of monotone functions, found by `gaussian._bisect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import IllConditionedError, geometric_law
from .gaussian import _beta, _bisect, g_entropy, g_inverse, thermal_j_pm
from .semigroups import QOU

_INTERIOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassicalPMF:
    """Probability vector on {0, ..., K}."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("probs must be a vector of length >= 2")
        if np.any(p < -1e-12):
            raise ValueError(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = np.maximum(p, 0.0)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def entropy(self) -> float:
        p = self.probs[self.probs > 0]
        return float(p @ -np.log(p))


def _death_flux(v: np.ndarray) -> np.ndarray:
    """(C v)_n = -n v_n + (n+1) v_{n+1}; mass only moves down one level,
    so the entries sum to zero."""
    n = np.arange(v.size, dtype=float)
    flux = -n * v
    flux[:-1] += n[1:] * v[1:]
    return flux


def death_evolve(p: ClassicalPMF, t: float) -> ClassicalPMF:
    """e^{tC} p in closed form: binomial thinning, at a cost that does not
    grow with t.

    Each photon survives to time t independently with probability e^{-t},
    so the photons of level m land on n <= m with the binomial law
    C(m, n) e^{-n t} (1 - e^{-t})^{m-n}, and
    p_n(t) = sum_k C(n+k, k) e^{-n t} (1 - e^{-t})^k p_{n+k}.  One vector
    operation per level m builds its law from log-factorials and
    log(-expm1(-t)), then divides it by its sum, which is exactly 1: that
    removes the rounding of log m! which the whole law shares (about
    m 1e-16 relative, enough at m = 5000 to break the unit mass).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return p
    probs = p.probs
    n = np.arange(probs.size)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    # log of e^{-n t} / n! for the kept photons, (1 - e^{-t})^k / k! for
    # the lost ones.
    kept = -t * n - log_fact
    lost = math.log(-math.expm1(-t)) * n - log_fact
    out = np.zeros(probs.size)
    for m in np.flatnonzero(probs):
        law = np.exp(log_fact[m] + kept[:m + 1] + lost[m::-1])
        out[:m + 1] += (probs[m] / law.sum()) * law
    return ClassicalPMF(out)


def _entropy_rate(v: np.ndarray, flux: np.ndarray) -> float:
    """-2 sum_n flux_n log v_n over the levels that carry flux."""
    moving = flux != 0.0
    empty = moving & (v <= 0.0)
    if empty.any():
        return math.copysign(math.inf, flux[empty][0])
    return 2.0 * float(flux[moving] @ -np.log(v[moving]))


def death_entropy_rate(p: ClassicalPMF) -> float:
    """J_-(p) = 2 dH/dt = -2 sum_n (C p)_n log p_n.

    Returns +inf when mass flows into an empty level (the entropy
    derivative genuinely diverges there).
    """
    return _entropy_rate(p.probs, _death_flux(p.probs))


def geometric_pmf(n: float, K: int) -> ClassicalPMF:
    """geometric_law with mean n on {0, ..., K}, for 1 <= K < 10^6."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K >= 10**6:
        raise ValueError(f"K must be < 1000000 (10^6 levels), got {K}")
    return ClassicalPMF(geometric_law(n, K + 1))


def F_of_S0(s0: float, kind: QOU) -> float:
    """inf over n >= g_inverse(S0) of phi(n) = -mu2 n log(1 + 1/n) + zeta g(n).

    With (mu2, lam2) = kind.rates, phi'(n) = mu2/(n+1) - lam2 log(1 + 1/n),
    and (n+1) log(1 + 1/n) falls from infinity to 1 < mu2/lam2, so phi falls
    to its one stationary point n* and then rises:
    F = phi(max(g_inverse(S0), n*)), with n* < lam2/zeta, where phi' > 0.
    """
    if not 0 < s0 < math.inf:
        raise ValueError(f"S0 must be > 0 and finite, got {s0}")
    (mu2, lam2), zeta = kind.rates, kind.zeta

    def slope(n: float) -> float:
        return mu2 / (n + 1.0) - lam2 * _beta(n)

    n = g_inverse(s0)
    if slope(n) < 0:
        n = _bisect(lambda m: slope(m) < 0, n, lam2 / zeta)
    return mu2 * (0.5 * thermal_j_pm(n)[0]) + zeta * g_entropy(n)


def _project_capped_simplex(y: np.ndarray, floor: float) -> np.ndarray:
    """Euclidean projection onto {p : p >= floor, sum p = 1} (sort-based)."""
    z = y - floor
    budget = 1.0 - floor * y.size
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, u.size + 1)
    cond = u - (css - budget) / idx > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    tau = (css[k - 1] - budget) / k
    return np.maximum(z - tau, 0.0) + floor


def _project_constraints(y: np.ndarray, n_cap: float, floor: float) -> np.ndarray:
    """Projection onto {p >= floor, sum p = 1, E[N] <= n_cap}.

    If the plain floored-simplex projection violates the energy cap, the
    cap is active; E[N] of the projection of y - beta*levels decreases in
    the Lagrange multiplier beta, so `_bisect` finds the smallest beta that
    meets the cap.
    """
    levels = np.arange(y.size, dtype=float)
    x = _project_capped_simplex(y, floor)
    if float(levels @ x) <= n_cap + 1e-12:
        return x

    def energy(beta: float) -> float:
        return float(levels @ _project_capped_simplex(y - beta * levels, floor))

    hi = 1.0
    while energy(hi) > n_cap and hi < 1e12:
        hi *= 2.0
    beta = _bisect(lambda b: energy(b) > n_cap, 0.0, hi)
    return _project_capped_simplex(y - beta * levels, floor)


def _rate_and_grad(v: np.ndarray) -> tuple[float, np.ndarray]:
    flux = _death_flux(v)
    # d/dp_n of -2 sum_m (Cp)_m log p_m:
    #   flux enters through C^T log p, plus the diagonal term (Cp)_n / p_n,
    #   with (C^T x)_n = -n x_n + n x_{n-1}.
    n = np.arange(v.size, dtype=float)
    log_v = np.log(v)
    c_t_log = -n * log_v
    c_t_log[1:] += n[1:] * log_v[:-1]
    grad = -2.0 * (c_t_log + flux / v)
    return _entropy_rate(v, flux), grad


def certified_rate_bound(n: float, K: int) -> float:
    """Certified lower bound on min J_-(p) over p on {0,...,K} with E[N] <= n.

    J_-(p) = 2 sum_{m>=1} m p_m log(p_m / p_{m-1}) is a sum of perspectives
    (log-sum inequality), so it is convex and positively 1-homogeneous: with
    q = geometric(n) and g = grad J_-(q), g.q = J_-(q) and J_-(p) >= g.p.
    The minimum of g.p over the feasible polytope sits at a vertex: a point
    mass at m <= n, or the mix of m1 <= n < m2 with mean n.  The mixes are
    taken one m1 at a time, so memory grows as K, not as n K.  g reads
    log q, so a q that underflows to 0 inside {0, ..., K} is refused.
    """
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    q = geometric_pmf(n, K).probs
    if q[-1] == 0.0:
        zero = int(np.argmin(q))  # q falls with m: its first zero
        raise IllConditionedError(
            f"the geometric law of mean {n} underflows to 0 at level {zero} "
            f"<= K = {K}, where log q diverges; use K <= {zero - 1}")
    g = _rate_and_grad(q)[1]
    m = np.arange(K + 1, dtype=float)
    lo, hi = m <= n, m > n
    m2, g2 = m[hi], g[hi]
    bound = g[lo].min()
    for m1, g1 in zip(m[lo], g[lo]):
        w = (m2 - n) / (m2 - m1)
        bound = min(bound, (w * g1 + (1.0 - w) * g2).min(initial=math.inf))
    return float(bound)


def min_entropy_rate_constrained(n: float, K: int, starts: int = 8,
                                 seed: int = 0) -> tuple[ClassicalPMF, float]:
    """Minimize J_-(p) over strictly positive p on {0,...,K} with E[N] <= n.

    Projected gradient with backtracking line search and multi-start
    (geometric(n) plus random interior points); returns the best iterate
    and its rate.  The tests' reference oracle for certified_rate_bound; it
    stays in the package because the benchmark probes time it.
    """
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    rng = np.random.default_rng(seed)
    floor = _INTERIOR_FLOOR
    inits = [geometric_pmf(n, K).probs]
    for _ in range(starts - 1):
        w = rng.dirichlet(np.ones(K + 1) * 0.8)
        inits.append(_project_constraints(w, n, floor))

    best_v, best_rate = None, math.inf
    for v0 in inits:
        v = _project_constraints(np.maximum(v0, floor), n, floor)
        rate, grad = _rate_and_grad(v)
        step = 0.1
        for _ in range(600):
            trial = _project_constraints(v - step * grad, n, floor)
            new_rate, new_grad = _rate_and_grad(trial)
            if new_rate < rate - 1e-14:
                v, rate, grad = trial, new_rate, new_grad
                step = min(step * 1.5, 10.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        if rate < best_rate:
            best_rate, best_v = rate, v
    return ClassicalPMF(best_v / best_v.sum()), best_rate
