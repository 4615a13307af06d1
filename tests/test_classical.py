import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from phaseineq.classical import (
    ClassicalPMF,
    F_of_S0,
    death_entropy_rate,
    death_evolve,
    _death_flux,
    _rate_and_grad,
    certified_rate_bound,
    geometric_pmf,
    min_entropy_rate_constrained,
)
from phaseineq.fock_core import (
    DensityMatrix, IllConditionedError, TruncationError)
from phaseineq.gaussian import g_entropy, thermal_j_pm
from phaseineq.semigroups import QOU, Attenuator, evolve

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

    @pytest.mark.parametrize("n, K, zero", [(0.01, 256, 162), (1e-6, 64, 54)])
    def test_underflowing_law_is_refused(self, n, K, zero):
        # log q_m is -inf where the geometric law underflows to 0, and a nan
        # gradient entry would drop out of the vertex minimum.
        with pytest.raises(IllConditionedError, match=re.escape(
                f"underflows to 0 at level {zero} <= K = {K}, where log q "
                f"diverges; use K <= {zero - 1}")):
            certified_rate_bound(n, K)
        closed = thermal_j_pm(n)[0]
        assert certified_rate_bound(n, zero - 1) <= closed

    def test_bound_never_exceeds_closed_minimum(self):
        # The closed form is the minimum over laws on all levels, so a lower
        # bound on the minimum over {0, ..., K} can sit above it only by the
        # truncation, which is below round-off wherever the law fits.
        returned = 0
        for K in (64, 256):
            for n in np.geomspace(1e-5, 10.0, 60):
                try:
                    bound = certified_rate_bound(float(n), K)
                except (IllConditionedError, TruncationError):
                    continue
                closed = thermal_j_pm(float(n))[0]
                assert bound <= closed + 1e-12 * abs(closed), (n, K)
                returned += 1
        assert returned > 60

    def test_memory_grows_with_k_alone(self):
        # One (#lo x #hi) matrix of two-point mixes is 201 x 4800 doubles,
        # 7.7 MB, at (n, K) = (200, 5000); the gate allows fifty vectors
        # of K + 1 doubles, 2 MB, at once.
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

    def test_repeats_bit_for_bit(self):
        pmf1, rate1 = min_entropy_rate_constrained(0.5, 24, starts=2, seed=3)
        pmf2, rate2 = min_entropy_rate_constrained(0.5, 24, starts=2, seed=3)
        assert np.array_equal(pmf1.probs, pmf2.probs)
        assert rate1 == rate2
