"""Closed-form Gaussian calculus for single-mode states.

Covers the thermal entropy function g and its inverse, thermal Fisher
information, the attenuator/amplifier entropy rates of a centered Gaussian
state parameterized by its symplectic eigenvalue kappa and squeezing z,
covariance evolution under the four semigroups, the h-function controlling
the Log-Sobolev rate of the quantum Ornstein-Uhlenbeck (qOU) semigroup, the
classical Ornstein-Uhlenbeck channel, and the Carbone et al. Log-Sobolev-2
bracketing bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .semigroups import QOU, SemigroupKind


@dataclass(frozen=True)
class GaussianStateSpec:
    """Centered-convention Gaussian state: mean, symplectic eigenvalue kappa
    (vacuum kappa = 1, thermal kappa = 2n + 1), squeezing parameter z >= 1.

    The covariance in the convention M_jk = tr(rho {R_j, R_k}) is
    reconstructed as kappa * diag(z^2, 1/z^2); entropies and entropy rates
    depend only on (kappa, z), so the orthogonal frame is not stored.
    """

    mean: np.ndarray
    kappa: float
    z: float = 1.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,):
            raise ValueError("mean must be a 2-vector")
        if self.kappa < 1.0 - 1e-12:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.z < 1.0 - 1e-12:
            raise ValueError(f"z must be >= 1, got {self.z}")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def nbar(self) -> float:
        return 0.5 * (self.kappa - 1.0)

    @property
    def cov(self) -> np.ndarray:
        return self.kappa * np.diag([self.z**2, self.z**-2])


@dataclass(frozen=True)
class ClassicalOUParams:
    """Classical Ornstein-Uhlenbeck process: drift theta, diffusion sigma2."""

    theta: float
    sigma2: float

    def __post_init__(self):
        if self.theta <= 0 or self.sigma2 <= 0:
            raise ValueError("theta and sigma2 must be positive")

    @property
    def fixed_variance(self) -> float:
        return self.sigma2 / (2.0 * self.theta)


def g_entropy(n: float) -> float:
    """Entropy of the thermal state with mean photon number n (nats)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)

def g_inverse(s: float) -> float:
    """Mean photon number of the thermal state with entropy s."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0.0:
        return 0.0
    hi = 1.0
    while g_entropy(hi) < s:
        hi *= 2.0
    return float(brentq(lambda n: g_entropy(n) - s, 0.0, hi, xtol=1e-14,
                        rtol=1e-15, maxiter=200))


def thermal_fisher_closed(n: float) -> float:
    """Fisher information of the thermal state: 4 pi log((n+1)/n)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return math.inf
    return 4.0 * math.pi * math.log((n + 1.0) / n)


def thermal_isoperimetric_ratio(n: float) -> float:
    """d/dt (2/J) along the heat flow through the thermal state omega_n:
    1/(n(n+1) log^2(1 + 1/n)), which is >= 1 and tends to 1 as n grows."""
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    return 1.0 / (n * (n + 1.0) * math.log(1.0 + 1.0 / n) ** 2)


def thermal_half_j_minus(n: float) -> float:
    """J_-/2 of the thermal state omega_n: -n log(1 + 1/n)."""
    return -n * math.log(1.0 + 1.0 / n)


def j_pm_gaussian(kappa: float, z: float = 1.0) -> tuple[float, float]:
    """Attenuator/amplifier entropy rates (J_-, J_+) of a centered Gaussian
    state: J_-/+ = ((z^2 + 1/z^2)/2 -/+ ... ) -- explicitly,
    J_- = ((z^2 + 1/z^2)/2 - kappa) log((kappa+1)/(kappa-1)) and
    J_+ = ((z^2 + 1/z^2)/2 + kappa) log((kappa+1)/(kappa-1))."""
    if z < 1.0 - 1e-12:
        raise ValueError(f"z must be >= 1, got {z}")
    half = 0.5 * (z**2 + z**-2)
    if kappa <= 1.0:
        # Pure squeezed state: the log factor diverges.
        coef_minus = half - kappa
        j_minus = math.copysign(math.inf, coef_minus) if coef_minus != 0 else 0.0
        return j_minus, math.inf
    log_term = math.log((kappa + 1.0) / (kappa - 1.0))
    return (half - kappa) * log_term, (half + kappa) * log_term


def _affine_cov_map(kind: SemigroupKind, t: float) -> tuple[float, float]:
    """(alpha, beta) so that M(t) = alpha*M + beta*I and mean scales sqrt(alpha):
    alpha = e^{-zeta t}, beta = (1 - alpha)(mu^2 + lam^2)/zeta, zeta = mu^2 - lam^2."""
    mu2, lam2 = kind.rates
    zeta = mu2 - lam2
    if zeta == 0:
        return 1.0, (mu2 + lam2) * t
    a = math.exp(-zeta * t)
    return a, (1.0 - a) * (mu2 + lam2) / zeta


def gaussian_evolve(spec: GaussianStateSpec, kind: SemigroupKind,
                    t: float) -> GaussianStateSpec:
    """Evolve the covariance closed-form; kappa(t) = sqrt(det M(t))."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    alpha, beta = _affine_cov_map(kind, t)
    m1 = alpha * spec.kappa * spec.z**2 + beta
    m2 = alpha * spec.kappa * spec.z**-2 + beta
    kappa_t = math.sqrt(m1 * m2)
    z_t = (m1 / m2) ** 0.25
    if z_t < 1.0:
        z_t = 1.0 / z_t
    mean_t = math.sqrt(alpha) * spec.mean
    return GaussianStateSpec(mean=mean_t, kappa=kappa_t, z=z_t)


def relent_to_qou_fixed(s: float, n: float, mu: float, lam: float) -> float:
    """D(rho || thermal fixed point of qOU) given S(rho) = s, tr(rho n_hat) = n:
    -s - log(nu) n - log(1 - nu) with nu = lam^2/mu^2."""
    kind = QOU(mu, lam)
    nu = kind.nu
    return -s - math.log(nu) * n - math.log(1.0 - nu)


def h_function(n: float, mu: float, lam: float) -> float:
    """h(n) = mu^2 log(n+1) - lam^2 log n + lam^2 log lam^2 - mu^2 log mu^2
    + zeta log zeta; nonnegative, vanishing at n = lam^2/zeta."""
    kind = QOU(mu, lam)
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    mu2, lam2, zeta = mu**2, lam**2, kind.zeta
    return (mu2 * math.log(n + 1.0) - lam2 * math.log(n)
            + lam2 * math.log(lam2) - mu2 * math.log(mu2)
            + zeta * math.log(zeta))


def h_minimize(mu: float, lam: float) -> tuple[float, float]:
    """(n*, h(n*)) at the unique stationary point n* = lam^2/(mu^2 - lam^2)."""
    kind = QOU(mu, lam)
    n_star = kind.n_fixed
    return n_star, h_function(n_star, mu, lam)


def zeta_optimality_witness(mu: float, lam: float, epsilon: float,
                            n_max: float = 1e4) -> float | None:
    """Smallest grid n where the rate constant zeta + epsilon fails on a
    thermal state, i.e. h(n) - epsilon * D(omega_n || sigma) < -1e-9.

    Returns None when no witness exists below n_max (in particular for
    epsilon = 0, where h >= 0 makes the zeta-rate hold everywhere).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    kind = QOU(mu, lam)
    grid = np.geomspace(max(1e-3, 0.01 * kind.n_fixed), n_max, 4000)
    for n in grid:
        d = relent_to_qou_fixed(g_entropy(float(n)), float(n), mu, lam)
        if h_function(float(n), mu, lam) - epsilon * d < -1e-9:
            return float(n)
    return None


def cou_step(params: ClassicalOUParams, var0: float,
             t: float) -> tuple[float, float, float]:
    """(variance, relative entropy to the fixed point, rate margin) of a
    centered Gaussian evolving under the classical OU channel.

    The margin is -2 theta D - dD/dt, evaluated analytically at time t;
    it equals theta (log r + 1/r - 1) >= 0 with r = sigma_t^2 / fixed var.
    """
    if var0 <= 0:
        raise ValueError(f"var0 must be > 0, got {var0}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    theta = params.theta
    v_inf = params.fixed_variance
    decay = math.exp(-2.0 * theta * t)
    var_t = decay * var0 + (1.0 - decay) * v_inf
    r = var_t / v_inf
    relent = 0.5 * (r - 1.0 - math.log(r))
    margin = theta * (math.log(r) + 1.0 / r - 1.0)
    return var_t, relent, margin


def carbone_lsi2_bounds(mu: float, lam: float) -> tuple[float, float, tuple[float, float]]:
    """(alpha2_lower, alpha2_upper, (alphaC_lower, alphaC_upper)).

    Evaluates the published bracketing formulas (with nu = lam^2/mu^2)
    for the inverse constants and inverts; no claim is made about the
    unknown true classical constant alpha_C.
    """
    kind = QOU(mu, lam)
    nu = kind.nu
    mu2 = mu**2
    inv_c_lower = math.log(1.0 / nu) / (5.0 * math.sqrt(5.0) * mu2 * (1.0 - nu) ** 1.5)
    inv_c_upper = (255.0 / 4.0) * ((1.0 + math.log(2.0)) * (1.0 - nu)
                                   + math.log(1.0 / nu)) / (mu2 * (1.0 - nu) ** 3)
    inv_a2_lower = inv_c_lower
    inv_a2_upper = (4.0 * (5.0 - math.log(1.0 - nu)) / (mu2 * (1.0 - nu))
                    + 3.0 * math.log(3.0) * inv_c_upper)
    # Inverting swaps the interval endpoints.
    return (1.0 / inv_a2_upper, 1.0 / inv_a2_lower,
            (1.0 / inv_c_upper, 1.0 / inv_c_lower))
