import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseineq.classical import (
    ClassicalPMF,
    F_of_S0,
    death_entropy_rate,
    death_evolve,
    death_generator,
    _death_matrix,
    _rate_and_grad,
    certified_rate_bound,
    f_of_H,
    geometric_pmf,
    min_entropy_rate_constrained,
)
from phaseineq.fock_core import TruncationError
from phaseineq.gaussian import g_entropy

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


class TestDeathGenerator:
    def test_absorbing_ground_state(self):
        p = ClassicalPMF(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(death_generator(p), 0.0)

    def test_single_level_flux(self):
        p = ClassicalPMF(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(death_generator(p), [0.0, 2.0, -2.0])

    def test_mass_conserved_off_edge(self):
        p = geometric_pmf(1.0, 64)
        flux = death_generator(p)
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

    def test_matches_binomial_thinning(self):
        # Each particle survives to time t independently with probability
        # e^{-t}: p_m(t) = sum_n p_n C(n, m) e^{-mt} (1 - e^{-t})^{n-m}.
        K, t = 40, 0.7
        p = np.random.default_rng(5).random(K + 1)
        p /= p.sum()
        keep = math.exp(-t)
        target = np.array([
            sum(p[n] * math.comb(n, m) * keep**m * (1.0 - keep) ** (n - m)
                for n in range(m, K + 1))
            for m in range(K + 1)])
        out = death_evolve(ClassicalPMF(p), t)
        assert np.max(np.abs(out.probs - target)) <= 1e-13


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

    def test_entropy_matches_g(self):
        assert geometric_pmf(2.0, 256).entropy() == pytest.approx(
            g_entropy(2.0), abs=1e-8)


class TestThresholdFunctions:
    def test_f_of_H_at_geometric_entropy(self):
        s = g_entropy(1.0)
        assert f_of_H(s) == pytest.approx(-math.log(2))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=8.0))
    def test_f_is_decreasing(self, s):
        assert f_of_H(s + 0.1) < f_of_H(s)

    def test_F_never_exceeds_feasible_points(self):
        # F is an infimum over n >= g_inverse(S0); n = 1 is feasible for
        # S0 = 0.5 < g(1), so F(0.5) is bounded by the objective there.
        val = F_of_S0(0.5, 2.0, 1.0)
        at_one = 2.0 * (-math.log(2.0)) + 1.0 * g_entropy(1.0)
        assert val <= at_one + 1e-9

    def test_F_increasing_for_large_S0(self):
        # Beyond the unconstrained minimizer the constraint binds and F
        # increases with the entropy floor.
        assert F_of_S0(4.0, 2.0, 1.0) > F_of_S0(3.0, 2.0, 1.0)


class TestCertifiedRateBound:
    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_gradient_pairs_to_rate(self, n):
        # Euler's identity for the 1-homogeneous J_-: g.q = J_-(q).
        q = geometric_pmf(n, 64).probs
        rate, grad = _rate_and_grad(q, _death_matrix(65))
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
