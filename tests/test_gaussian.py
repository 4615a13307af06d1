import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseineq.fock_core import (
    StateFamily,
    mean_photon,
    random_state,
    relative_entropy,
    thermal_state,
    von_neumann_entropy,
)
from phaseineq.gaussian import (
    ClassicalOUParams,
    GaussianStateSpec,
    carbone_lsi2_bounds,
    cou_step,
    g_entropy,
    g_inverse,
    gaussian_evolve,
    h_function,
    h_minimize,
    j_pm_gaussian,
    relent_to_qou_fixed,
    thermal_fisher_closed,
    thermal_half_j_minus,
    thermal_isoperimetric_ratio,
    zeta_optimality_witness,
)
from phaseineq.semigroups import Amplifier, Attenuator, Heat, QOU, evolve


class TestEntropyFunction:
    def test_values(self):
        assert g_entropy(0.0) == 0.0
        assert g_entropy(1.0) == pytest.approx(2 * math.log(2))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_inverse_roundtrip(self, n):
        assert g_inverse(g_entropy(n)) == pytest.approx(n, rel=1e-9)

    def test_inverse_at_zero(self):
        assert g_inverse(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            g_entropy(-0.1)
        with pytest.raises(ValueError):
            g_inverse(-0.1)


class TestGaussianSpec:
    def test_nbar_and_cov(self):
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=3.0, z=2.0)
        assert spec.nbar == 1.0
        assert np.allclose(spec.cov, np.diag([12.0, 0.75]))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianStateSpec(mean=np.zeros(2), kappa=0.5)
        with pytest.raises(ValueError):
            GaussianStateSpec(mean=np.zeros(2), kappa=2.0, z=0.5)


class TestClosedForms:
    def test_thermal_fisher(self):
        assert thermal_fisher_closed(1.0) == pytest.approx(4 * math.pi * math.log(2))
        assert thermal_fisher_closed(0.0) == math.inf

    def test_j_pm_thermal(self):
        n = 1.0
        j_minus, j_plus = j_pm_gaussian(2 * n + 1)
        assert j_minus == pytest.approx(-2 * n * math.log(1 + 1 / n))
        assert j_plus == pytest.approx(2 * (n + 1) * math.log(1 + 1 / n))

    def test_j_pm_vacuum(self):
        # The vacuum is the attenuator fixed point (rate 0); the amplifier
        # rate diverges, as does the attenuator rate once squeezing is added.
        j_minus, j_plus = j_pm_gaussian(1.0)
        assert j_plus == math.inf
        assert j_minus == 0.0
        assert j_pm_gaussian(1.0, z=1.5)[0] == math.inf

    def test_j_pm_squeezing_raises_both(self):
        base = j_pm_gaussian(3.0)
        squeezed = j_pm_gaussian(3.0, z=1.5)
        assert squeezed[0] > base[0]
        assert squeezed[1] > base[1]

    def test_half_j_minus_is_half_the_thermal_rate(self):
        for n in (0.5, 1.0, 2.0):
            assert thermal_half_j_minus(n) == pytest.approx(
                0.5 * j_pm_gaussian(2 * n + 1)[0], rel=1e-14)

    def test_isoperimetric_ratio_rejects_nonpositive(self):
        for n in (0.0, -1.0):
            with pytest.raises(ValueError, match="n must be > 0"):
                thermal_isoperimetric_ratio(n)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_exact_heat_curvature_is_the_stencils_limit(self, n):
        # Along the heat flow omega_n moves to omega_{n + 2 pi t}.  The
        # secant of 2/J and the second difference of N = e^S converge at
        # first order to the ratio and to N'' = (N J^2/4)(1 - ratio): the
        # error shrinks tenfold with h.
        ratio = thermal_isoperimetric_ratio(n)
        j = thermal_fisher_closed(n)
        curvature = math.exp(g_entropy(n)) * j**2 / 4.0 * (1.0 - ratio)
        errors = []
        for h in (1e-2, 1e-3, 1e-4):
            js = [thermal_fisher_closed(n + 2 * math.pi * k * h)
                  for k in range(2)]
            ns = [math.exp(g_entropy(n + 2 * math.pi * k * h))
                  for k in range(3)]
            secant = (2.0 / js[1] - 2.0 / js[0]) / h
            second = (ns[2] - 2.0 * ns[1] + ns[0]) / h**2
            errors.append((abs(secant - ratio), abs(second - curvature)))
        for coarse, fine in zip(errors, errors[1:]):
            for c, f in zip(coarse, fine):
                assert 8.0 <= c / f <= 11.0


def _ladder_evolve(spec, kind, t):
    """gaussian_evolve as a per-kind (alpha, beta) table, kept as the
    oracle for the single formula of the kind's rates."""
    if isinstance(kind, Heat):
        alpha, beta = 1.0, 4.0 * math.pi * t
    elif isinstance(kind, Attenuator):
        alpha = math.exp(-t)
        beta = 1.0 - alpha
    elif isinstance(kind, Amplifier):
        alpha = math.exp(t)
        beta = alpha - 1.0
    else:
        alpha = math.exp(-kind.zeta * t)
        beta = (1.0 - alpha) * (kind.mu**2 + kind.lam**2) / kind.zeta
    m1 = alpha * spec.kappa * spec.z**2 + beta
    m2 = alpha * spec.kappa * spec.z**-2 + beta
    z_t = (m1 / m2) ** 0.25
    if z_t < 1.0:
        z_t = 1.0 / z_t
    mean_t = spec.mean if isinstance(kind, Heat) else (
        math.sqrt(alpha) * spec.mean)
    return mean_t, math.sqrt(m1 * m2), z_t


class TestGaussianEvolve:
    @pytest.mark.parametrize("kind", [Heat(), Attenuator(), Amplifier(),
                                      QOU(math.sqrt(2.0), 1.0),
                                      QOU(1.3, 0.4)],
                             ids=["heat", "attenuator", "amplifier", "qou",
                                  "qou-2"])
    def test_matches_per_kind_ladder_bit_for_bit(self, kind):
        spec = GaussianStateSpec(mean=np.array([0.7, -1.1]), kappa=2.5, z=1.8)
        for t in (0.0, 0.05, 0.3, 1.7):
            out = gaussian_evolve(spec, kind, t)
            mean_t, kappa_t, z_t = _ladder_evolve(spec, kind, t)
            assert np.array_equal(out.mean, mean_t)
            assert out.kappa == kappa_t and out.z == z_t

    def test_heat_on_thermal(self):
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=3.0)
        out = gaussian_evolve(spec, Heat(), 0.25)
        assert out.nbar == pytest.approx(1.0 + 2 * math.pi * 0.25)

    def test_attenuator_decay(self):
        spec = GaussianStateSpec(mean=np.array([1.0, 0.0]), kappa=5.0)
        out = gaussian_evolve(spec, Attenuator(), 0.5)
        assert out.nbar == pytest.approx(2.0 * math.exp(-0.5))
        assert out.mean[0] == pytest.approx(math.exp(-0.25))

    def test_amplifier_growth(self):
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=3.0)
        out = gaussian_evolve(spec, Amplifier(), 0.3)
        assert out.nbar == pytest.approx(math.exp(0.3) * 2.0 - 1.0)

    def test_qou_fixed_point(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=2 * kind.n_fixed + 1)
        out = gaussian_evolve(spec, kind, 1.7)
        assert out.nbar == pytest.approx(kind.n_fixed)

    def test_qou_initial_value(self):
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=2 * 3.0 + 1)
        assert gaussian_evolve(spec, QOU(math.sqrt(2.0), 1.0), 0.0).nbar == 3.0

    def test_qou_nbar_matches_fock_evolution(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        rho = random_state(48, 3, StateFamily.DIAGONAL)
        n0 = mean_photon(rho)
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=2 * n0 + 1)
        assert gaussian_evolve(spec, kind, 0.3).nbar == pytest.approx(
            mean_photon(evolve(rho, kind, 0.3)), abs=1e-6)

    def test_squeezing_relaxes_under_heat(self):
        spec = GaussianStateSpec(mean=np.zeros(2), kappa=1.0, z=2.0)
        out = gaussian_evolve(spec, Heat(), 1.0)
        assert 1.0 <= out.z < spec.z
        assert out.kappa > spec.kappa


class TestQOURate:
    def test_relent_matches_fock_oracle(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = thermal_state(2.0, 64)
        d_closed = relent_to_qou_fixed(von_neumann_entropy(rho), 2.0, mu, lam)
        d_fock = relative_entropy(rho, thermal_state(1.0, 64))
        assert d_closed == pytest.approx(d_fock, rel=1e-6)

    def test_h_vanishes_at_fixed_point(self):
        n_star, h_min = h_minimize(math.sqrt(2.0), 1.0)
        assert n_star == pytest.approx(1.0)
        assert abs(h_min) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1.05, max_value=4.0),
           st.floats(min_value=1e-2, max_value=1e3))
    def test_h_nonnegative(self, mu, n):
        lam = 1.0
        assert h_function(n, mu, lam) >= -1e-12

    def test_no_witness_for_zeta_itself(self):
        assert zeta_optimality_witness(math.sqrt(2.0), 1.0, 0.0) is None

    def test_witness_exists_above_zeta(self):
        n = zeta_optimality_witness(math.sqrt(2.0), 1.0, 0.5)
        assert n is not None
        d = relent_to_qou_fixed(g_entropy(n), n, math.sqrt(2.0), 1.0)
        assert h_function(n, math.sqrt(2.0), 1.0) - 0.5 * d < 0


class TestClassicalOU:
    def test_fixed_variance(self):
        assert ClassicalOUParams(2.0, 4.0).fixed_variance == pytest.approx(1.0)

    def test_stationary_start(self):
        p = ClassicalOUParams(1.0, 2.0)
        var_t, relent, margin = cou_step(p, p.fixed_variance, 0.7)
        assert var_t == pytest.approx(p.fixed_variance)
        assert relent == pytest.approx(0.0, abs=1e-14)
        assert margin == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=5.0))
    def test_margin_nonnegative(self, theta, var0, t):
        p = ClassicalOUParams(theta, 2.0 * theta)
        _, _, margin = cou_step(p, var0, t)
        assert margin >= -1e-12

    def test_relent_decays(self):
        p = ClassicalOUParams(1.0, 2.0)
        _, d1, _ = cou_step(p, 5.0, 0.1)
        _, d2, _ = cou_step(p, 5.0, 1.0)
        assert d2 < d1


class TestCarboneBounds:
    def test_ordering(self):
        lo, hi, (c_lo, c_hi) = carbone_lsi2_bounds(math.sqrt(2.0), 1.0)
        assert 0 < lo < hi
        assert 0 < c_lo < c_hi

    def test_lsi2_within_classical_bracket_upper(self):
        # alpha2 <= alphaC upper endpoint by construction of the formulas.
        lo, hi, (c_lo, c_hi) = carbone_lsi2_bounds(2.0, 1.0)
        assert hi <= c_hi + 1e-12
