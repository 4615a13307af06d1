"""Classical pure-death process on {0, ..., K} and entropy-rate extremizers.

The process p_dot_n = -n p_n + (n+1) p_{n+1} is the number-basis diagonal
restriction of the photon-loss semigroup.  Includes the entropy rate
J_-(p) = -2 sum_n (C p)_n log p_n, the geometric family, the f/F threshold
machinery, a convex-duality certificate for the energy-constrained minimum
of J_-, and the projected-gradient minimizer kept as its reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from .fock_core import geometric_law
from .gaussian import g_entropy, g_inverse, thermal_half_j_minus
from .semigroups import _propagate

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

    @property
    def K(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def entropy(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-(p @ np.log(p)))


def _death_matrix(size: int) -> sp.csr_matrix:
    """C with (C p)_n = -n p_n + (n+1) p_{n+1} on {0, ..., size-1}."""
    n = np.arange(size, dtype=float)
    return sp.diags([-n, n[1:]], [0, 1], format="csr")


def death_generator(p: ClassicalPMF) -> np.ndarray:
    """(C p)_n = -n p_n + (n+1) p_{n+1}; mass only moves down one level,
    so the entries sum to zero."""
    return _death_matrix(p.probs.size) @ p.probs


def death_evolve(p: ClassicalPMF, t: float) -> ClassicalPMF:
    """e^{tC} p by the exact action of the sparse generator's exponential."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return p
    v = _propagate(_death_matrix(p.probs.size), p.probs, t)
    if v.min() < -1e-10:
        raise RuntimeError(f"negativity {v.min():.3e} during death evolution")
    drift = abs(v.sum() - 1.0)
    if drift > 1e-10:
        raise RuntimeError(f"normalization drift {drift:.3e} during death "
                           f"evolution")
    return ClassicalPMF(np.maximum(v, 0.0) / v.sum())


def _entropy_rate(v: np.ndarray, flux: np.ndarray) -> float:
    """-2 sum_n flux_n log v_n over the levels that carry flux."""
    moving = flux != 0.0
    empty = moving & (v <= 0.0)
    if empty.any():
        return math.copysign(math.inf, flux[empty][0])
    return -2.0 * float(flux[moving] @ np.log(v[moving]))


def death_entropy_rate(p: ClassicalPMF) -> float:
    """J_-(p) = 2 dH/dt = -2 sum_n (C p)_n log p_n.

    Returns +inf when mass flows into an empty level (the entropy
    derivative genuinely diverges there).
    """
    return _entropy_rate(p.probs, death_generator(p))


def geometric_pmf(n: float, K: int) -> ClassicalPMF:
    """Geometric law with mean n on {0, ..., K}: geometric_law, size K + 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return ClassicalPMF(geometric_law(n, K + 1))


def f_of_H(s: float) -> float:
    """Minimal half-entropy-rate at fixed entropy: f(S) = -n log(1 + 1/n)
    with n = g_inverse(S)."""
    if s <= 0:
        raise ValueError(f"S must be > 0, got {s}")
    return thermal_half_j_minus(g_inverse(s))


def F_of_S0(s0: float, mu2: float, zeta: float) -> float:
    """inf over n >= g_inverse(S0) of mu2 * (-n log(1 + 1/n)) + zeta * g(n)."""
    if s0 <= 0:
        raise ValueError(f"S0 must be > 0, got {s0}")
    if mu2 <= 0 or zeta <= 0:
        raise ValueError("mu2 and zeta must be positive")
    n_lo = g_inverse(s0)

    def phi(n: float) -> float:
        return mu2 * thermal_half_j_minus(n) + zeta * g_entropy(n)

    # phi is eventually increasing; bracket the interior minimum against
    # the left endpoint.
    res = minimize_scalar(phi, bounds=(n_lo, max(10.0 * n_lo, n_lo + 50.0)),
                          method="bounded",
                          options={"xatol": 1e-10, "maxiter": 500})
    return min(phi(n_lo), float(res.fun))


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
    cap is active; a Lagrange multiplier beta on E[N] is then found by
    bisection (E[N] of the projection of y - beta*levels is decreasing
    in beta).
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
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy(mid) > n_cap:
            lo = mid
        else:
            hi = mid
    return _project_capped_simplex(y - hi * levels, floor)


def _rate_and_grad(v: np.ndarray,
                   c: sp.csr_matrix) -> tuple[float, np.ndarray]:
    flux = c @ v
    # d/dp_n of -2 sum_m (Cp)_m log p_m:
    #   flux enters through C^T log p, plus the diagonal term (Cp)_n / p_n.
    grad = -2.0 * (c.T @ np.log(v) + flux / v)
    return _entropy_rate(v, flux), grad


def certified_rate_bound(n: float, K: int) -> float:
    """Certified lower bound on min J_-(p) over p on {0,...,K} with E[N] <= n.

    J_-(p) = 2 sum_{m>=1} m p_m log(p_m / p_{m-1}) is a sum of perspectives
    (log-sum inequality), so it is convex and positively 1-homogeneous: with
    q = geometric(n) and g = grad J_-(q), g.q = J_-(q) and J_-(p) >= g.p.
    The minimum of g.p over the feasible polytope sits at a vertex: a point
    mass at m <= n, or the mix of m1 <= n < m2 with mean n.
    """
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    g = _rate_and_grad(geometric_pmf(n, K).probs, _death_matrix(K + 1))[1]
    m = np.arange(K + 1, dtype=float)
    lo, hi = m <= n, m > n
    w = (m[hi] - n) / (m[hi] - m[lo][:, None])
    mixes = w * g[lo][:, None] + (1.0 - w) * g[hi]
    return float(min(g[lo].min(), mixes.min(initial=math.inf)))


def min_entropy_rate_constrained(n: float, K: int, starts: int = 8,
                                 iters: int = 600, seed: int = 0,
                                 ) -> tuple[ClassicalPMF, float]:
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

    c = _death_matrix(K + 1)
    best_v, best_rate = None, math.inf
    for v0 in inits:
        v = _project_constraints(np.maximum(v0, floor), n, floor)
        rate, grad = _rate_and_grad(v, c)
        step = 0.1
        for _ in range(iters):
            trial = _project_constraints(v - step * grad, n, floor)
            new_rate, new_grad = _rate_and_grad(trial, c)
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
