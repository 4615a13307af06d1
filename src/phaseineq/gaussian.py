"""Closed-form Gaussian calculus for single-mode states.

Covers the thermal entropy function g and its inverse, thermal Fisher
information, the attenuator/amplifier entropy rates of the thermal state
with mean photon number n, the mean photon number of a thermal state under
the four semigroups (which keep it thermal), the h-function controlling
the Log-Sobolev rate of the quantum Ornstein-Uhlenbeck (qOU) semigroup,
the classical Ornstein-Uhlenbeck channel, and the Carbone et al.
Log-Sobolev-2 bracketing bounds.

One thermal relative entropy D(omega_n || omega_m) serves both qOU closed
forms: with the fixed point sigma = omega_{n*}, n* = lam^2/zeta, and
zeta (n* + 1) = mu^2, zeta n* = lam^2, h(n) = mu^2 log((n + 1)/(n* + 1))
- lam^2 log(n/n*) = zeta D(sigma || omega_n), so h = -zeta D - dD/dt makes
a thermal state decay as dD/dt = -zeta [D(omega_n || sigma) + D(sigma ||
omega_n)].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .semigroups import QOU, SemigroupKind


@dataclass(frozen=True)
class ClassicalOUParams:
    """Classical Ornstein-Uhlenbeck process: drift theta, diffusion sigma2."""

    theta: float
    sigma2: float

    def __post_init__(self):
        # cou_step divides by the fixed variance, as QOU's formulas by its
        # rates.
        if not (0 < self.theta < math.inf and 0 < self.sigma2 < math.inf
                and sys.float_info.min <= self.fixed_variance < math.inf):
            raise ValueError(
                f"theta and sigma2 must be positive and finite, with "
                f"sigma2/(2 theta) finite and >= 2.23e-308; got theta = "
                f"{self.theta!r}, sigma2 = {self.sigma2!r}")

    @property
    def fixed_variance(self) -> float:
        return self.sigma2 / (2.0 * self.theta)


def _bisect(below, lo: float, hi: float) -> float:
    """The first double in (lo, hi] at which the monotone predicate `below`
    is false, given below(lo) and not below(hi): the bracket halves until
    its midpoint equals an endpoint, so it ends on two adjacent doubles.
    The midpoint is 0.5 lo + 0.5 hi, which is 0.5 (lo + hi) wherever both
    ends are normal and lo + hi is finite, and stays finite beyond that."""
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _bisect_doubling(below, lo: float, hi: float) -> float | None:
    """`_bisect` on (lo, hi'], with hi' the first of hi, 2 hi, 4 hi, ...,
    the last doubling capped at the largest double, at which `below` is
    false; None when it still holds at the largest double."""
    while below(hi):
        if hi == sys.float_info.max:
            return None
        hi = min(2.0 * hi, sys.float_info.max)
    return _bisect(below, lo, hi)


def _beta(n: float) -> float:
    """log(1 + 1/n) for n > 0, as log1p(1/n) where 1/n is a finite double.
    Below n of about 5.6e-309 it is log1p(n) - log n, whose log1p(n) lies
    below the rounding of -log n."""
    inv = 1.0 / n
    return math.log1p(inv) if inv < math.inf else -math.log(n)


def g_entropy(n: float) -> float:
    """Entropy of the thermal state with mean photon number n (nats), as
    log1p(n) + n log1p(1/n), which does not cancel at large n."""
    if not n >= 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return math.log1p(n) + n * _beta(n)


def g_inverse(s: float) -> float:
    """Mean photon number of the thermal state with entropy s: the upper of
    the two adjacent doubles around the root of the increasing g(n) - s.
    Raises ValueError when the root lies beyond the largest double, for s
    above g(largest double) = 710.78 (g(n) = log n + 1 + O(1/n))."""
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be >= 0 and finite, got {s}")
    if s == 0.0:
        return 0.0
    n = _bisect_doubling(lambda n: g_entropy(n) < s, 0.0, 1.0)
    if n is None:
        raise ValueError(f"g_inverse({s}) exceeds the largest double")
    return n


def thermal_fisher_closed(n: float) -> float:
    """Fisher information of the thermal state: 4 pi log(1 + 1/n)."""
    if not n >= 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return math.inf
    return 4.0 * math.pi * _beta(n)


def thermal_isoperimetric_ratio(n: float) -> float:
    """d/dt (2/J) along the heat flow through the thermal state omega_n:
    1/(n(n+1) log^2(1 + 1/n)), which is >= 1 and tends to 1 as n grows.
    Past n of about 6.7e153, where log^2(1 + 1/n) is subnormal and then
    n(n+1) overflows, it is read as 1/(n log(1 + 1/n) (n+1) log(1 + 1/n)),
    whose two factors tend to 1."""
    if not n > 0:
        raise ValueError(f"n must be > 0, got {n}")
    beta = _beta(n)
    square = n * (n + 1.0)
    if square < math.inf and beta**2 >= sys.float_info.min:
        return 1.0 / (square * beta**2)
    return 1.0 / ((n * beta) * ((n + 1.0) * beta))


def thermal_j_pm(n: float) -> tuple[float, float]:
    """Attenuator/amplifier entropy rates (J_-, J_+) of omega_n: with
    beta = log(1 + 1/n), J_- = -2 n beta and J_+ = 2 (n + 1) beta.  This is
    (1 -+ kappa) log((kappa + 1)/(kappa - 1)) with kappa = 2n + 1, read in
    n, which kappa - 1 would round.  The factor 2 comes last, so that 2n
    cannot overflow: both stay finite, near -+2, up to the largest double.
    At n = 0 it is (0, inf)."""
    if not n >= 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0, math.inf
    beta = _beta(n)
    return -2.0 * (n * beta), 2.0 * ((n + 1.0) * beta)


def thermal_mean(n: float, kind: SemigroupKind, t: float) -> float:
    """Mean photon number of e^{tL}(omega_n), itself a thermal state: with
    (mu^2, lam^2) the kind's rates and zeta = mu^2 - lam^2 it is
    e^{-zeta t} n - expm1(-zeta t) lam^2/zeta, and n + (mu^2 + lam^2) t/2
    at zeta = 0.  Both terms are >= 0 for either sign of zeta, so nothing
    cancels."""
    if not n >= 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    mu2, lam2 = kind.rates
    zeta = mu2 - lam2
    if zeta == 0:
        return n + 0.5 * (mu2 + lam2) * t
    return math.exp(-zeta * t) * n - math.expm1(-zeta * t) * lam2 / zeta


def _phi(u: float, one_plus_u: float | None = None) -> float:
    """u - log1p(u) for u > -1, to full relative precision: the series
    sum_{k >= 2} (-u)^k/k, whose first term dominates, for |u| < 1/2, and
    the direct form, which cancels at most a factor about 5, otherwise,
    reading the log for u <= -1/2 from one_plus_u when given: 1 + u formed
    from u keeps only the digits of u."""
    if abs(u) >= 0.5:
        if u < 0 and one_plus_u is not None:
            return u - math.log(one_plus_u)
        return u - math.log1p(u)
    total, power, k = 0.0, u * u, 2
    while True:
        term = power / k
        total += term
        if not abs(term) > 1e-17 * total:
            return total
        power *= -u
        k += 1


def _thermal_relent(n: float, m: float, d: float) -> float:
    """D(omega_n || omega_m) = (n + 1) log((m + 1)/(n + 1)) - n log(m/n),
    read from the excess d = n - m, which the caller passes at full
    precision, so it keeps full precision as d -> 0.

    For m >= 1 it is read as
      D = (d/m)(d/(n + 1))/(m + 1) - n phi(x) + phi(y),
    with x = d/(m (n + 1)), y = d/(m + 1) and phi(u) = u - log1p(u) >= 0,
    since n log1p(x) - log1p(y) = D and n x - y is the first term.  There
    n phi(x) is at most 0.62 times the first term, so the one subtraction
    loses at most a factor about 3, and phi(y) >= 0 is added.  Where
    x <= -1/2 or y <= -1/2, phi reads its log from 1 + x = (n/(n + 1))
    ((m + 1)/m) or 1 + y = (n + 1)/(m + 1): with n passed apart from d,
    x formed from d can round to -1.
    For m < 1 and d <= m + 1 it is n phi(-d/n) - (n + 1) phi(-d/(n + 1)),
    whose logs are read from m/n and (m + 1)/(n + 1), and whose first term
    is -d at the vacuum n = 0: both terms are second order in d, about
    d^2/(2n) and d^2/(2(n + 1)), so the subtraction loses at most a factor
    about n + 1 < 4.
    Past d = m + 1 those terms, each about d log(d/m), cancel more as d
    grows.  There D = n (beta(m) - beta(n)) - log1p(d/(m + 1)), with
    beta(x) = log(1 + 1/x): the first term is the larger, and beta(n) is at
    most about half of beta(m).
    """
    if m >= 1.0:
        x, y = d / (n + 1.0) / m, d / (m + 1.0)
        n_phi_x = n * _phi(x, n / (n + 1.0) * ((m + 1.0) / m)) if n else 0.0
        return (d / m * (d / (n + 1.0)) / (m + 1.0) - n_phi_x
                + _phi(y, (n + 1.0) / (m + 1.0)))
    if d <= m + 1.0:
        first = n * _phi(-d / n, m / n) if n else -d
        return first - (n + 1.0) * _phi(-d / (n + 1.0), (m + 1.0) / (n + 1.0))
    return n * (_beta(m) - _beta(n)) - math.log1p(d / (m + 1.0))


def relent_to_qou_fixed(d: float, kind: QOU) -> float:
    """D(omega_{m + d} || omega_m): the relative entropy of the thermal state
    with mean photon number m + d to the qOU fixed point sigma = omega_m,
    m = lam^2/zeta, read from d itself, not m + d rounded.  Along the qOU,
    dD/dt = -zeta [D(omega_n || sigma) + D(sigma || omega_n)], the second
    term being h(n)/zeta (module docstring)."""
    m = kind.n_fixed
    if not d >= -m:
        raise ValueError(f"d must be >= -n_fixed = {-m!r}, got {d}")
    return _thermal_relent(m + d, m, d)


def h_function(n: float, kind: QOU) -> float:
    """h(n) = -zeta D(omega_n || sigma) - dD/dt on omega_n, which is
    zeta D(sigma || omega_n) >= 0 (module docstring), the relative entropy
    from the fixed point sigma = omega_{n*}: zero only at n = n*, near which
    n* - n is exact (Sterbenz) and h second order in it."""
    if not n > 0:
        raise ValueError(f"n must be > 0, got {n}")
    m = kind.n_fixed
    return kind.zeta * _thermal_relent(m, n, m - n)


def zeta_optimality_witness(kind: QOU, epsilon: float) -> float | None:
    """The first double above n* = lam^2/zeta at which the rate constant
    zeta + epsilon fails on a thermal state, i.e. h(n) - epsilon D(omega_n
    || sigma) < -1e-9: where zeta D(sigma || omega_n) = h(n) falls below
    epsilon D(omega_n || sigma).  None for epsilon = 0, where h >= 0 makes
    the zeta-rate hold everywhere, or when the rate holds up to the largest
    double.

    The failures above n* form one interval (n_eps, inf), so `_bisect`
    finds n_eps, bracketed by doubling from n*.  With F = epsilon D(omega_n
    || sigma) - zeta D(sigma || omega_n), D(omega_n || omega_m) = n log(n/m)
    - (n + 1) log((n + 1)/(m + 1)) gives F(n*) = F'(n*) = 0 and
      F''(n) = Q(n)/(n (n + 1))^2,
      Q(n) = (epsilon + zeta) n^2 + (epsilon - 2 zeta n*) n - zeta n*.
    Q(0) < 0 < epsilon + zeta, so Q has one positive root r, and F is
    concave on (0, r) and convex past r; Q(n*) = (epsilon - zeta) n* (n* + 1).
    F grows without bound, since D(omega_n || sigma) grows as
    n log(1 + 1/n*) and D(sigma || omega_n) as log n.
    For epsilon < zeta, r > n*: F <= 0 on (0, r), below its tangent at n*,
    and convex past r, so {F > 1e-9} is (n_eps, inf), and n_eps is also the
    smallest failing n.  For epsilon >= zeta, r <= n*: F is convex and >= 0
    on (n*, inf), so the failures above n* are again (n_eps, inf), but
    failures can also lie below n*; the witness is the first above n*.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")
    if epsilon == 0:
        return None
    m = kind.n_fixed

    def holds(n):
        d = relent_to_qou_fixed(n - m, kind)
        return h_function(n, kind) - epsilon * d >= -1e-9

    return _bisect_doubling(holds, m, 2.0 * m)


def cou_step(params: ClassicalOUParams, var0: float,
             t: float) -> tuple[float, float, float]:
    """(variance, relative entropy to the fixed point, rate margin) of a
    centered Gaussian evolving under the classical OU channel.

    With r = sigma_t^2 / fixed variance, D = phi(r - 1)/2 and the margin
    -2 theta D - dD/dt, evaluated analytically at time t, is
    theta phi(1/r - 1) >= 0, phi(u) = u - log1p(u).  r - 1 is formed as
    decay (var0 - v_inf)/v_inf and 1/r - 1 as -(r - 1)/r, not from the
    rounded r, which would lose both as r -> 1.
    """
    theta = params.theta
    v_inf = params.fixed_variance
    # r = decay r_0 + (1 - decay) lies between r_0 and 1, so a finite r_0
    # and 1/r_0 keep r and 1/r finite at every t.
    ratio = var0 / v_inf
    if not (0 < ratio < math.inf and 1.0 / ratio < math.inf):
        raise ValueError(f"var0 must be > 0, with var0/{v_inf!r} and its "
                         f"inverse finite, got {var0}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    decay = math.exp(-2.0 * theta * t)
    var_t = decay * var0 - math.expm1(-2.0 * theta * t) * v_inf
    r = var_t / v_inf
    x = decay * (var0 - v_inf) / v_inf
    return var_t, 0.5 * _phi(x, r), theta * _phi(-x / r, 1.0 / r)


def carbone_lsi2_bounds(kind: QOU) -> tuple[float, float, tuple[float, float]]:
    """(alpha2_lower, alpha2_upper, (alphaC_lower, alphaC_upper)).

    Evaluates the published formulas (nu = lam^2/mu^2) for mu^2 times each
    inverse constant, since the inverse itself overflows at the smallest
    rates, and divides mu^2 by it; no claim is made about alpha_C itself.
    """
    mu2, nu = kind.rates[0], kind.nu
    inv_c_lower = math.log(1.0 / nu) / (5.0 * math.sqrt(5.0) * (1.0 - nu) ** 1.5)
    inv_c_upper = (255.0 / 4.0) * ((1.0 + math.log(2.0)) * (1.0 - nu)
                                   + math.log(1.0 / nu)) / (1.0 - nu) ** 3
    inv_a2_lower = inv_c_lower
    inv_a2_upper = (4.0 * (5.0 - math.log(1.0 - nu)) / (1.0 - nu)
                    + 3.0 * math.log(3.0) * inv_c_upper)
    # Inverting swaps the interval endpoints.
    return (mu2 / inv_a2_upper, mu2 / inv_a2_lower,
            (mu2 / inv_c_upper, mu2 / inv_c_lower))
