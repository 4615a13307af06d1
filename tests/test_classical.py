import functools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from phaseineq.classical import (
    ClassicalPMF,
    F_of_S0,
    death_entropy_rate,
    death_evolve,
    _death_flux,
    _geometric_gradient,
    _rate_and_grad,
    certified_rate_bound,
    geometric_pmf,
    min_entropy_rate_constrained,
)
from phaseineq.fock_core import DensityMatrix, TruncationError
from phaseineq.gaussian import g_entropy, thermal_j_pm
from phaseineq.semigroups import QOU, Attenuator, evolve

U = 2.0**-53


def _rounding(n, K):
    """K u max|g|: the certificate's rounding bound (certified_rate_bound)."""
    return K * U * float(np.abs(_geometric_gradient(n, K)[1]).max())


# The minimizer is deterministic and slow (about 1 s per call at K = 64), so
# the tests that read its default 8-start result share one run per n.
_oracle = functools.cache(min_entropy_rate_constrained)


class TestClassicalPMF:
    def test_mean_and_entropy(self):
        p = ClassicalPMF(np.array([0.5, 0.5]))
        assert p.mean() == pytest.approx(0.5)
        assert p.entropy() == pytest.approx(math.log(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalPMF(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            ClassicalPMF(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="length >= 2"):
            ClassicalPMF(np.array([1.0]))

    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, math.inf]])
    def test_rejects_non_finite_entries(self, probs):
        with pytest.raises(ValueError, match="non-finite entry"):
            ClassicalPMF(np.array(probs))


class TestDeathGenerator:
    def test_absorbing_ground_state(self):
        p = ClassicalPMF(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(_death_flux(p.probs), 0.0)

    def test_single_level_flux(self):
        p = ClassicalPMF(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(_death_flux(p.probs), [0.0, 2.0, -2.0])

    def test_mass_conserved_off_edge(self):
        p = geometric_pmf(1.0, 64)
        flux = _death_flux(p.probs)
        assert abs(flux.sum()) <= 1e-12


class TestDeathEvolve:
    def test_zero_time(self):
        p = geometric_pmf(1.0, 64)
        assert death_evolve(p, 0.0) is p

    def test_geometric_stays_geometric(self):
        # The death process maps geometric(n) to geometric(e^{-t} n).
        p = geometric_pmf(1.0, 64)
        out = death_evolve(p, 0.5)
        target = geometric_pmf(math.exp(-0.5), 64)
        assert np.max(np.abs(out.probs - target.probs)) <= 1e-8

    def test_mean_decays_exponentially(self):
        p = geometric_pmf(2.0, 128)
        out = death_evolve(p, 0.3)
        assert out.mean() == pytest.approx(2.0 * math.exp(-0.3), rel=1e-8)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            death_evolve(geometric_pmf(1.0, 64), math.nan)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            death_evolve(geometric_pmf(1.0, 32), -0.1)

    @pytest.mark.parametrize("t", [0.7, 3.0, 8.0])
    def test_matches_binomial_thinning(self, t):
        # Each particle survives to time t independently with probability
        # e^{-t}: p_m(t) = sum_n p_n C(n, m) e^{-mt} (1 - e^{-t})^{n-m}.
        # The entropy rate reads log p_m, so the tail is held to a relative
        # gate as well.
        K = 40
        p = np.random.default_rng(5).random(K + 1)
        p /= p.sum()
        keep = math.exp(-t)
        target = np.array([
            sum(p[n] * math.comb(n, m) * keep**m * (1.0 - keep) ** (n - m)
                for n in range(m, K + 1))
            for m in range(K + 1)])
        out = death_evolve(ClassicalPMF(p), t)
        assert np.max(np.abs(out.probs - target)) <= 1e-13
        big = target > 1e-250
        assert np.max(np.abs(out.probs[big] / target[big] - 1.0)) <= 1e-11

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_matches_fock_attenuator_diagonal(self, t):
        # The death process is the number-basis diagonal of photon loss; the
        # Fock side evolves diag(p) by uniformization of the attenuator.
        K = 39
        p = np.random.default_rng(3).random(K + 1)
        p /= p.sum()
        fock = evolve(DensityMatrix(np.diag(p)), Attenuator(), t)
        out = death_evolve(ClassicalPMF(p), t)
        assert np.max(np.abs(out.probs - np.diag(fock.mat).real)) <= 1e-14

    @pytest.mark.parametrize("t", [0.01, 0.7, 5.0])
    def test_high_level_keeps_unit_mass(self, t):
        # Unnormalized, the law of level 5000 would share the rounding of
        # log 5000!, about 2e-12 relative: past ClassicalPMF's unit-mass
        # check.
        K = 5000
        p = np.zeros(K + 1)
        p[K] = 1.0
        out = death_evolve(ClassicalPMF(p), t)
        assert abs(out.probs.sum() - 1.0) <= 1e-15
        assert out.mean() == pytest.approx(math.exp(-t) * K, rel=1e-13)

    @pytest.mark.parametrize("t", [1e3, 1e6])
    def test_long_times_cost_no_more(self, t):
        # The closed form takes no steps, so any t costs one pass; the mean
        # decays as e^{-t} n and the law keeps its unit mass.
        p = geometric_pmf(2.0, 128)
        out = death_evolve(p, t)
        assert abs(out.mean() - math.exp(-t) * p.mean()) <= 1e-15
        assert abs(out.probs.sum() - 1.0) <= 1e-15


class TestDeathEntropyRate:
    def test_geometric_closed_form(self):
        for n in (0.5, 1.0, 2.0):
            p = geometric_pmf(n, 256)
            assert death_entropy_rate(p) == pytest.approx(
                -2 * n * math.log(1 + 1 / n), abs=1e-8)

    def test_matches_entropy_derivative(self):
        p = geometric_pmf(1.0, 128)
        h = 1e-5
        fd = (death_evolve(p, h).entropy() - p.entropy()) / h
        assert death_entropy_rate(p) == pytest.approx(2 * fd, rel=1e-4)

    def test_infinite_when_filling_empty_level(self):
        p = ClassicalPMF(np.array([0.0, 0.0, 1.0]))
        assert death_entropy_rate(p) == math.inf


class TestGeometricPMF:
    def test_mean(self):
        assert geometric_pmf(1.5, 128).mean() == pytest.approx(1.5, abs=1e-6)

    def test_degenerate(self):
        p = geometric_pmf(0.0, 8)
        assert p.probs[0] == 1.0

    def test_truncation_guard(self):
        with pytest.raises(TruncationError) as exc:
            geometric_pmf(10.0, 32)
        d = exc.value.min_adequate_dim
        assert "support size 33; need support size >= 218" in str(exc.value)
        # d is the minimal support size, so K = d - 1 is the smallest K.
        geometric_pmf(10.0, d - 1)
        with pytest.raises(TruncationError):
            geometric_pmf(10.0, d - 2)

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError, match="nbar must be >= 0"):
            geometric_pmf(-0.5, 8)

    def test_rejects_nan_mean(self):
        # Both checks of geometric_law's input would pass NaN in their
        # negative form, giving an all-NaN law.
        with pytest.raises(ValueError, match="nbar must be >= 0"):
            geometric_pmf(math.nan, 8)

    def test_truncation_guard_where_ratio_rounds_to_one(self):
        # n/(n+1) rounds to 1 above 2^53, so log r would be 0; the support
        # needed is log(1e9) / log(1 + 1/n), about 20.7 n.
        with pytest.raises(TruncationError, match="at support size 65; "
                           "need support size >= ") as exc:
            geometric_pmf(1e17, 64)
        assert exc.value.min_adequate_dim == pytest.approx(
            math.log(1e9) * 1e17, rel=1e-12)

    @pytest.mark.parametrize("n", [1e307, 1e308, 1.7976931348623157e308])
    def test_truncation_guard_past_the_largest_double(self, n):
        # Above a mean of about 8.7e306 the support needed, about 20.7 n,
        # is no double, so no minimal adequate dim is named.
        with pytest.raises(TruncationError, match="at support size 65; the "
                           "support size needed would exceed the largest "
                           "double") as exc:
            geometric_pmf(n, 64)
        assert exc.value.min_adequate_dim is None

    @pytest.mark.parametrize("K", [10**6, 10**8])
    def test_support_is_bounded(self, K):
        # Rejection only: nothing of size K is allocated.
        with pytest.raises(ValueError, match=re.escape(
                f"K must be < 1000000 (10^6 levels), got {K}")):
            geometric_pmf(1.0, K)

    def test_entropy_matches_g(self):
        assert geometric_pmf(2.0, 256).entropy() == pytest.approx(
            g_entropy(2.0), abs=1e-8)


class TestThresholdFunctions:
    KIND = QOU(math.sqrt(2.0), 1.0)

    def test_F_never_exceeds_feasible_points(self):
        # F is an infimum over n >= g_inverse(S0); n = 1 is feasible for
        # S0 = 0.5 < g(1), so F(0.5) is bounded by the objective there.
        val = F_of_S0(0.5, self.KIND)
        at_one = 2.0 * (-math.log(2.0)) + 1.0 * g_entropy(1.0)
        assert val <= at_one + 1e-9

    def test_F_increasing_for_large_S0(self):
        # Beyond the unconstrained minimizer the constraint binds and F
        # increases with the entropy floor.
        assert F_of_S0(4.0, self.KIND) > F_of_S0(3.0, self.KIND)

    @pytest.mark.parametrize("s0, mu2, zeta", [(0.1, 1.002, 0.002),
                                                (0.3, 1.001, 0.001)])
    def test_F_is_phi_at_its_stationary_point(self, s0, mu2, zeta):
        # Near mu2 = lam2 the minimizer of phi lies hundreds of photons
        # beyond g_inverse(S0); phi'(n) = 0 reads
        # (n+1) log(1 + 1/n) = mu2/lam2.
        kind = QOU(math.sqrt(mu2), math.sqrt(mu2 - zeta))
        (mu2, lam2), zeta = kind.rates, kind.zeta
        n = brentq(lambda n: (n + 1.0) * math.log1p(1.0 / n) - mu2 / lam2,
                   1.0, 1e6)
        phi = -mu2 * n * math.log1p(1.0 / n) + zeta * g_entropy(n)
        assert abs(F_of_S0(s0, kind) - phi) <= 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entropy_is_rejected(self, value):
        with pytest.raises(ValueError, match=r"^S0 must be > 0 and finite"):
            F_of_S0(value, self.KIND)


class TestCertifiedRateBound:
    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_gradient_pairs_to_rate(self, n):
        # Euler's identity for the 1-homogeneous J_-: g.q = J_-(q).
        q = geometric_pmf(n, 64).probs
        rate, grad = _rate_and_grad(q)
        assert abs(grad @ q - rate) <= 1e-14

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_oracle_sits_just_above_bound(self, n):
        bound = certified_rate_bound(n, 64)
        _, j_star = _oracle(n, 64)
        assert bound <= j_star <= bound + 1e-8

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_random_feasible_laws_stay_above_bound(self, n):
        # Dirichlet draws mixed with a point mass at 0 to meet the cap.
        K = 64
        bound = certified_rate_bound(n, K)
        rng = np.random.default_rng(11)
        levels = np.arange(K + 1)
        for _ in range(2000):
            p = rng.dirichlet(np.full(K + 1, rng.uniform(0.05, 2.0)))
            p *= min(1.0, n / (levels @ p))
            p[0] += 1.0 - p.sum()
            assert death_entropy_rate(ClassicalPMF(p)) >= bound - 1e-12

    @pytest.mark.parametrize("n", [0.0, -1.0])
    def test_rejects_nonpositive_mean(self, n):
        with pytest.raises(ValueError):
            certified_rate_bound(n, 32)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_rejects_non_finite_mean(self, n):
        # r = n/(n+1) is nan at both, and so would be the bound.
        with pytest.raises(ValueError, match="n must be > 0 and finite"):
            certified_rate_bound(n, 32)

    @pytest.mark.parametrize("n, K", [(0.5, 64), (1.0, 64), (2.0, 64),
                                      (0.01, 64), (10.0, 256)])
    def test_closed_form_gradient_matches_log_space(self, n, K):
        # On a law that neither underflows nor truncates, _rate_and_grad
        # reads g_m = -2(m (log q_{m-1} - log q_m) + (Cq)_m / q_m).  Each
        # log q_m is within u L + 5u, L = max |log q_m| = |log q_K| (the
        # log's rounding, then r's, the power's and the normalisation's), so
        # the first term, two products of size m L, is within m u (4L + 10);
        # (Cq)_m / q_m = -m + (m+1) q_{m+1} / q_m is within u (12m + 10).
        # Doubled: |delta g_m| <= 8 K u (L + 6).
        q = geometric_pmf(n, K).probs
        g = _geometric_gradient(n, K)[1]
        log_space = _rate_and_grad(q)[1]
        L = abs(math.log(q[-1]))
        assert np.abs(g - log_space).max() <= 8 * K * U * (L + 6)
        # Euler's identity for the 1-homogeneous J_-: g.q = J_-(q).
        assert abs(g @ q - death_entropy_rate(ClassicalPMF(q))) <= 1e-14

    @pytest.mark.parametrize("n, K", [(0.01, 161), (0.01, 256), (1e-6, 64),
                                      (10.0, 64), (20000.0, 40000),
                                      (5e5, 999999)])
    def test_underflowing_or_leaking_law_gets_a_bound(self, n, K):
        # The geometric law of mean 0.01 is subnormal from level 154 and 0
        # from 162, that of mean 1e-6 is 0 from 54, and that of mean 10
        # leaks 2e-3 past level 64; the closed-form gradient reads none of
        # them, so the bound is the closed form up to its rounding.  The
        # last two rows take three vector minima over 4e4 and 1e6 levels.
        bound = certified_rate_bound(n, K)
        closed = thermal_j_pm(n)[0]
        assert abs(bound - closed) <= _rounding(n, K)

    def test_bound_never_exceeds_closed_minimum(self):
        # The closed form is the minimum over laws on all levels, so a lower
        # bound on the minimum over {0, ..., K} can sit above it only by the
        # truncation, which is nil for n <= K - 1; below it, only by the
        # certificate's rounding.
        for K in (64, 256, 2000):
            for n in np.geomspace(1e-5, 10.0, 60):
                bound = certified_rate_bound(float(n), K)
                closed = thermal_j_pm(float(n))[0]
                assert bound <= closed + 1e-12 * abs(closed), (n, K)
                assert closed - bound <= _rounding(float(n), K), (n, K)

    @pytest.mark.parametrize("K", [1, 2, 3, 16, 64])
    def test_matches_exact_vertex_minimum(self, K):
        # min g.p over the feasible polytope sits at a vertex: a point mass
        # at m <= n or the mix of m1 <= n < m2 with mean n.  Enumerated in
        # 50 digits with g at the exact beta and r, for n tiny, in
        # (0, K - 1], (K - 1, K) (n = 0.3 at K = 1 takes the falling top
        # segment) and >= K, it is the bound up to the rounding gate.
        ns = [1e-300, 1e-6, 0.3, 0.5 * K, K - 1.0, K - 0.7, K - 1e-9, K,
              K + 0.5, 3.0 * K, 1e300]
        for n in (n for n in ns if n > 0):
            with mpmath.workdps(50):
                x = mpmath.mpf(n)
                beta, r = mpmath.log1p(1 / x), x / (x + 1)
                g = [-2 * (r + m * (beta - 1 + r)) for m in range(K + 1)]
                g[K] = -2 * K * (beta - 1)
                lo = [m for m in range(K + 1) if m <= n]
                exact = min(g[m] for m in lo)
                for m1 in lo:
                    for m2 in range(lo[-1] + 1, K + 1):
                        w = (m2 - x) / (m2 - m1)
                        exact = min(exact, w * g[m1] + (1 - w) * g[m2])
                err = abs(certified_rate_bound(n, K) - exact)
            assert err <= max(K, 32) / K * _rounding(n, K), (n, K)

    def test_memory_grows_with_k_alone(self):
        # The bound takes three vector minima of g + lam (m - n), a few
        # vectors of K + 1 doubles at a time, at (n, K) = (200, 5000); the
        # gate allows fifty of them, 2 MB, at once.
        n, K = 200.0, 5000
        tracemalloc.start()
        try:
            certified_rate_bound(n, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * (K + 1) * 8


class TestConstrainedMinimizer:
    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_geometric_attains_minimum(self, n):
        pmf, rate = _oracle(n, 64)
        target = -2.0 * n * math.log(1.0 + 1.0 / n)
        assert rate == pytest.approx(target, abs=1e-3)
        assert pmf.mean() <= n + 1e-6

    def test_minimizer_is_geometric(self):
        pmf, _ = _oracle(1.0, 64)
        target = geometric_pmf(1.0, 64)
        tv = 0.5 * np.abs(pmf.probs - target.probs).sum()
        assert tv <= 1e-3

    def test_energy_constraint_active(self):
        # Without the cap, spreading mass upward lowers the rate without
        # bound, so the optimum must sit on the energy boundary.
        pmf, _ = _oracle(1.0, 64)
        assert pmf.mean() == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            min_entropy_rate_constrained(0.0, 32)

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError, match="n must be > 0"):
            min_entropy_rate_constrained(math.nan, 32)

    def test_repeats_bit_for_bit(self):
        pmf1, rate1 = min_entropy_rate_constrained(0.5, 24, starts=2, seed=3)
        pmf2, rate2 = min_entropy_rate_constrained(0.5, 24, starts=2, seed=3)
        assert np.array_equal(pmf1.probs, pmf2.probs)
        assert rate1 == rate2
