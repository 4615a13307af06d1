import math
import re
import sys
from types import SimpleNamespace

import mpmath
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
)
from phaseineq.gaussian import (
    ClassicalOUParams,
    _phi,
    carbone_lsi2_bounds,
    cou_step,
    g_entropy,
    g_inverse,
    h_function,
    relent_to_qou_fixed,
    thermal_fisher_closed,
    thermal_isoperimetric_ratio,
    thermal_j_pm,
    thermal_mean,
    zeta_optimality_witness,
)
from phaseineq import gaussian
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

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_inverse_rejects_non_finite(self, s):
        with pytest.raises(ValueError, match=r"^s must be >= 0 and finite"):
            g_inverse(s)


def _rel_err(value, exact):
    return float(abs(mpmath.mpf(value) / exact - 1))


def _relent_exact(d, m, digits=80):
    """D(omega_{m + d} || omega_m) = n log1p(d/m) - (n + 1) log1p(d/(m + 1)),
    n = m + d, for the doubles d and m, at 80 digits by default: the two
    terms cancel at most about 13 of them for the d and m tested with it."""
    with mpmath.workdps(digits):
        m, d = mpmath.mpf(m), mpmath.mpf(d)
        n = m + d
        first = n * mpmath.log1p(d / m) if n else 0  # 0 log 0 at the vacuum
        return first - (n + 1) * mpmath.log1p(d / (m + 1))


class TestStableClosedForms:
    """g, its inverse, the thermal Fisher information and the entropy
    rates J+- against 50-digit values, at photon numbers where
    (n+1) log(n+1) - n log n and log((n+1)/n) cancel away up to 8 digits."""

    NS = [1e-3, 0.5, 100.0, 1e4, 1e6, 1.8e8]

    @staticmethod
    def g_exact(n):
        n = mpmath.mpf(n)
        return (n + 1) * mpmath.log(n + 1) - n * mpmath.log(n)

    @pytest.mark.parametrize("n", NS)
    def test_g_entropy(self, n):
        with mpmath.workdps(50):
            assert _rel_err(g_entropy(n), self.g_exact(n)) <= 1e-14

    @pytest.mark.parametrize("n", NS)
    def test_thermal_fisher(self, n):
        with mpmath.workdps(50):
            exact = 4 * mpmath.pi * mpmath.log1p(1 / mpmath.mpf(n))
            assert _rel_err(thermal_fisher_closed(n), exact) <= 1e-14

    # log^2(1 + 1/n) is subnormal from n of about 6.7e153 on, and n(n+1)
    # overflows from about 1.3e154 on; the ratio tends to 1.
    @pytest.mark.parametrize("n", NS + [1e150, 6e153, 7e153, 1.4e154, 1e155,
                                        1e175, 1e200, 1e300, 1.7e308])
    def test_isoperimetric_ratio(self, n):
        with mpmath.workdps(50):
            m = mpmath.mpf(n)
            exact = 1 / (m * (m + 1) * mpmath.log1p(1 / m) ** 2)
            assert _rel_err(thermal_isoperimetric_ratio(n), exact) <= 1e-14

    @pytest.mark.parametrize("n", [1e-320, 1e-315, 1e-310, 5e-309, 6e-309,
                                   1e-300])
    def test_below_where_one_over_n_overflows(self, n):
        # 1/n overflows below n of about 5.6e-309.  g and J_- are n times
        # log(1 + 1/n), a subnormal double below n of about 3e-311, so they
        # are read from 1e-310 on, as is the ratio, which overflows below
        # about 1e-314.
        with mpmath.workdps(50):
            m = mpmath.mpf(n)
            log_term = mpmath.log1p(1 / m)
            cases = [(thermal_fisher_closed(n), 4 * mpmath.pi * log_term),
                     (thermal_j_pm(n)[1], 2 * (m + 1) * log_term)]
            if n >= 1e-310:
                cases += [(g_entropy(n), mpmath.log1p(m) + m * log_term),
                          (thermal_j_pm(n)[0], -2 * m * log_term),
                          (thermal_isoperimetric_ratio(n),
                           1 / (m * (m + 1) * log_term**2))]
            for value, exact in cases:
                assert _rel_err(value, exact) <= 1e-14

    @pytest.mark.parametrize("n", [1e-8, 1e-6, 1e-3, 0.5, 1e4, 1e6, 1e8])
    def test_thermal_j_pm(self, n):
        # Read in n: kappa = 2n + 1 would round n away at small n.
        with mpmath.workdps(50):
            m = mpmath.mpf(n)
            log_term = mpmath.log1p(1 / m)
            exact = (-2 * m * log_term, 2 * (m + 1) * log_term)
            for value, target in zip(thermal_j_pm(n), exact):
                assert _rel_err(value, target) <= 1e-14

    @pytest.mark.parametrize("kappa", [2e4 + 1, 2e8 + 1])
    def test_j_pm_gaussian(self, kappa):
        # The Gaussian form in the symplectic eigenvalue kappa, at
        # n = (kappa - 1)/2: log((kappa+1)/(kappa-1)) cancels at large
        # kappa, and log(1 + 1/n) read in n does not.
        n = (kappa - 1.0) / 2.0
        with mpmath.workdps(50):
            k = 2 * mpmath.mpf(n) + 1
            log_term = mpmath.log((k + 1) / (k - 1))
            exact = ((1 - k) * log_term, (1 + k) * log_term)
            for value, target in zip(thermal_j_pm(n), exact):
                assert _rel_err(value, target) <= 1e-14

    def test_j_pm_finite_up_to_the_largest_double(self):
        # 2n overflows above about 9e307, so the rates double last.  beta
        # is subnormal there, a few ulps off.
        for value, target in zip(thermal_j_pm(1.7e308), (-2.0, 2.0)):
            assert _rel_err(value, target) <= 1e-15

    @pytest.mark.parametrize("s", [700.0, 709.0, 710.09, 710.5, 710.7,
                                   g_entropy(sys.float_info.max)])
    def test_g_inverse_near_the_largest_double(self, s):
        # Above g(2^1023) = 710.0896 the doubling bracket is capped at the
        # largest double, and its midpoints stay finite.
        n = g_inverse(s)
        assert g_entropy(n) >= s > g_entropy(math.nextafter(n, 0.0))

    @pytest.mark.parametrize("s", [710.79, 711.0, 800.0])
    def test_g_inverse_beyond_the_largest_double_raises(self, s):
        # g(n) = log n + 1 + O(1/n) passes g(largest double) = 710.7827
        # only beyond it.
        with pytest.raises(ValueError, match=f"g_inverse\\({s}\\)"):
            g_inverse(s)

    @pytest.mark.parametrize("s", [0.01, 0.5, 1.0, 5.0, 20.0])
    def test_g_inverse(self, s):
        n = g_inverse(s)
        with mpmath.workdps(50):
            exact = mpmath.findroot(lambda x: self.g_exact(x) - s, n)
            assert _rel_err(n, exact) <= 1e-14


class TestClosedForms:
    def test_thermal_fisher(self):
        assert thermal_fisher_closed(1.0) == pytest.approx(4 * math.pi * math.log(2))
        assert thermal_fisher_closed(0.0) == math.inf

    def test_j_pm_thermal(self):
        n = 1.0
        j_minus, j_plus = thermal_j_pm(n)
        assert j_minus == pytest.approx(-2 * n * math.log(1 + 1 / n))
        assert j_plus == pytest.approx(2 * (n + 1) * math.log(1 + 1 / n))

    def test_j_pm_vacuum(self):
        # The vacuum is the attenuator fixed point (rate 0); the amplifier
        # rate diverges.
        j_minus, j_plus = thermal_j_pm(0.0)
        assert j_plus == math.inf
        assert j_minus == 0.0

    def test_half_j_minus_is_half_the_thermal_rate(self):
        # The attenuator keeps omega_n thermal with mean n e^{-t}, so
        # J_-/2 = d/dt g(n e^{-t}) at t = 0.
        g_exact = TestStableClosedForms.g_exact
        for n in (0.5, 1.0, 2.0):
            with mpmath.workdps(50):
                rate = mpmath.diff(lambda t: g_exact(n * mpmath.exp(-t)), 0)
                assert _rel_err(0.5 * thermal_j_pm(n)[0], rate) <= 1e-14

    def test_vacuum_rates(self):
        assert thermal_j_pm(0.0) == (0.0, math.inf)

    # 0 and 2000 photon numbers spread over the double range.
    SWEEP = [0.0] + [float(n) for n in np.geomspace(1e-300, 1e300, 2000)]

    def test_unsqueezed_rates_are_the_thermal_form_bit_for_bit(self):
        # Doubling is exact, so doubling after the product rounds as
        # doubling before it wherever 2n is finite and n beta is normal.
        for n in self.SWEEP:
            expected = (0.0, math.inf)
            if n:
                beta = math.log1p(1.0 / n)
                expected = (-2.0 * n * beta, 2.0 * (n + 1.0) * beta)
            assert thermal_j_pm(n) == expected, n

    @pytest.mark.parametrize("call, message", [
        (lambda: thermal_fisher_closed(-1.0), "n must be >= 0"),
        (lambda: thermal_j_pm(-1.0), "n must be >= 0"),
        (lambda: h_function(0.0, QOU(math.sqrt(2.0), 1.0)), "n must be > 0"),
        (lambda: zeta_optimality_witness(QOU(math.sqrt(2.0), 1.0), -0.5),
         "epsilon must be >= 0"),
        # Each check is written in its positive form, which NaN fails.
        (lambda: g_entropy(math.nan), "n must be >= 0"),
        (lambda: thermal_fisher_closed(math.nan), "n must be >= 0"),
        (lambda: thermal_j_pm(math.nan), "n must be >= 0"),
        (lambda: thermal_isoperimetric_ratio(math.nan), "n must be > 0"),
        (lambda: thermal_mean(math.nan, Heat(), 1.0), "n must be >= 0"),
        (lambda: thermal_mean(1.0, Heat(), math.nan), "t must be >= 0"),
        (lambda: h_function(math.nan, QOU(math.sqrt(2.0), 1.0)),
         "n must be > 0"),
        (lambda: zeta_optimality_witness(QOU(math.sqrt(2.0), 1.0), math.nan),
         "epsilon must be >= 0"),
        (lambda: zeta_optimality_witness(QOU(math.sqrt(2.0), 1.0), math.inf),
         "epsilon must be >= 0 and finite"),
    ], ids=["fisher", "j-pm", "h", "witness", "g-nan", "fisher-nan",
            "j-pm-nan", "isoperimetric-nan", "mean-n-nan", "mean-t-nan",
            "h-nan", "witness-nan", "witness-inf"])
    def test_rejects_arguments_outside_the_domain(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

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


def _ladder_mean(n, kind, t):
    """thermal_mean as a per-kind table, kept as the oracle for the single
    formula of the kind's rates."""
    if isinstance(kind, Heat):
        return n + 2.0 * math.pi * t
    if isinstance(kind, Attenuator):
        return math.exp(-t) * n
    if isinstance(kind, Amplifier):
        return math.exp(t) * (n + 1.0) - 1.0
    alpha = math.exp(-kind.zeta * t)
    return alpha * n + (1.0 - alpha) * kind.n_fixed


_KINDS = [Heat(), Attenuator(), Amplifier(), QOU(math.sqrt(2.0), 1.0),
          QOU(1.3, 0.4)]
_KIND_IDS = ["heat", "attenuator", "amplifier", "qou", "qou-2"]


class TestGaussianEvolve:
    """The mean photon number of a thermal state along each flow."""

    @pytest.mark.parametrize("kind", _KINDS, ids=_KIND_IDS)
    def test_matches_per_kind_ladder_bit_for_bit(self, kind):
        for t in (0.0, 0.05, 0.3, 1.7):
            assert _rel_err(thermal_mean(0.75, kind, t),
                            _ladder_mean(0.75, kind, t)) <= 1e-15

    @pytest.mark.parametrize("kind", _KINDS, ids=_KIND_IDS)
    def test_matches_mpmath(self, kind):
        # The exact mean for the kind's double rates, at 50 digits; at
        # t = 1e-10 the reference's 1 - e^{-zeta t} keeps 40 of them.
        with mpmath.workdps(50):
            mu2, lam2 = (mpmath.mpf(r) for r in kind.rates)
            zeta = mu2 - lam2
            for n in (0.0, 1e-6, 0.37, 1.0, 3.0, 50.0):
                for t in (1e-10, 1e-6, 1e-3, 0.05, 0.3, 1.0, 1.7, 5.0,
                          10.0, 40.0, 100.0):
                    if zeta == 0:
                        exact = n + (mu2 + lam2) * t / 2
                    else:
                        decay = mpmath.exp(-zeta * t)
                        exact = decay * n + (1 - decay) * lam2 / zeta
                    value = thermal_mean(n, kind, t)
                    if exact == 0:
                        assert value == 0.0
                    else:
                        assert _rel_err(value, exact) <= 1e-15, (n, t)

    @pytest.mark.parametrize("n, t", [(1.0, 0.02), (1.0, 0.05), (1.0, 0.1),
                                      (1.0, 2.0)]
                             + [(n, t) for n in (0.5, 1.0, 2.0)
                                for t in (0.05, 0.1, 0.5)])
    def test_heat_is_the_inline_form_bit_for_bit(self, n, t):
        # The stam and epi-heat suites' thermal cases read the heat flow's
        # mean as n + 2 pi t; 0.5 (2 pi + 2 pi) is exactly 2 pi.
        assert thermal_mean(n, Heat(), t) == n + 2.0 * math.pi * t

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            thermal_mean(-1.0, Heat(), 0.1)
        with pytest.raises(ValueError, match="t must be >= 0"):
            thermal_mean(1.0, Heat(), -0.1)

    def test_heat_on_thermal(self):
        assert thermal_mean(1.0, Heat(), 0.25) == pytest.approx(
            1.0 + 2 * math.pi * 0.25)

    def test_attenuator_decay(self):
        assert thermal_mean(2.0, Attenuator(), 0.5) == pytest.approx(
            2.0 * math.exp(-0.5))

    def test_amplifier_growth(self):
        assert thermal_mean(1.0, Amplifier(), 0.3) == pytest.approx(
            math.exp(0.3) * 2.0 - 1.0)

    def test_qou_fixed_point(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        assert thermal_mean(kind.n_fixed, kind, 1.7) == pytest.approx(
            kind.n_fixed)

    def test_qou_initial_value(self):
        assert thermal_mean(3.0, QOU(math.sqrt(2.0), 1.0), 0.0) == 3.0

    def test_qou_nbar_matches_fock_evolution(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        rho = random_state(48, 3, StateFamily.DIAGONAL)
        n0 = mean_photon(rho)
        assert thermal_mean(n0, kind, 0.3) == pytest.approx(
            mean_photon(evolve(rho, kind, 0.3)), abs=1e-6)


class TestQOURate:
    def test_relent_matches_fock_oracle(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = thermal_state(2.0, 64)
        kind = QOU(mu, lam)
        d_closed = relent_to_qou_fixed(2.0 - kind.n_fixed, kind)
        d_fock = relative_entropy(rho, thermal_state(1.0, 64))
        assert d_closed == pytest.approx(d_fock, rel=1e-6)

    @pytest.mark.parametrize("mu, lam", [(1.5, 1.0), (math.sqrt(2.0), 1.0),
                                         (1.25, 0.75)])
    @pytest.mark.parametrize("offset", [1e-12, -1e-8, 1e-6, -1e-4, 3e-3,
                                        -0.02, 0.1])
    def test_relent_near_fixed_point(self, mu, lam, offset):
        # D(omega_n || omega_m) is second order in n - m, so terms of size
        # one must not be subtracted.  The reference takes the double
        # m = lam^2/zeta that the function uses.
        kind = QOU(mu, lam)
        m = kind.n_fixed
        n = m * (1.0 + offset)
        d = relent_to_qou_fixed(n - m, kind)
        with mpmath.workdps(50):
            mm, nn = mpmath.mpf(m), mpmath.mpf(n)
            exact = ((nn + 1) * mpmath.log((mm + 1) / (nn + 1))
                     - nn * mpmath.log(mm / nn))
            assert _rel_err(d, exact) <= 1e-15

    @pytest.mark.parametrize("mu, lam", [(1.5, 1.0), (math.sqrt(2.0), 1.0),
                                         (1.25, 0.75)])
    def test_relent_far_from_fixed_point(self, mu, lam):
        # Past d = m + 1 the two psi terms, each about d log d, cancel more
        # as d grows, and overflow past d = 1e305.
        kind = QOU(mu, lam)
        m = kind.n_fixed
        for d in (1e-12, 0.5, 10.0, 1e6, 1e100, 1e300, 1e306, 1.5e308,
                  -0.5 * m):
            value = relent_to_qou_fixed(d, kind)
            with mpmath.workdps(80):
                assert _rel_err(value, _relent_exact(d, m)) <= 2e-15, d

    @pytest.mark.parametrize("d", [-5e-307, 1e-10, 0.5, 1.0, 10.0, 1e100])
    def test_relent_at_a_tiny_fixed_point(self, d):
        # m = 1e-306: for d <= m + 1, d/m passes 1e305, where m psi(d/m)
        # overflows.
        kind = QOU(1e153, 1.0)
        value = relent_to_qou_fixed(d, kind)
        with mpmath.workdps(80):
            assert _rel_err(value, _relent_exact(d, kind.n_fixed)) <= 2e-15

    # m spans the doubles; for m >= 1 the psi form lost a factor about
    # m + 1 (every digit at m = 2^51, the fixed point of mu = 1 + 2^-52,
    # lam = 1).  The formula reads only n_fixed, so a stand-in holds it.
    @pytest.mark.parametrize("m", [1e-300, 1e-100, 1e-10, 0.5,
                                   0.9999999999999996, 1.0, 1.5, 1e3, 1e8,
                                   2.0**51, 1e100, 1e200, 1e300])
    def test_relent_over_the_double_range(self, m):
        ds = [-m, -m * (1.0 - 1e-10), -0.75 * m, -0.5 * m, 1.0, m + 1.0,
              1e-300, 1e-100, 1e100, 1e300]
        ds += [s * m * 10.0**k for s in (1.0, -1.0)
               for k in (-100, -50, -20, -8, -3, -1)]
        for d in ds:
            if d < -m:
                continue
            value = relent_to_qou_fixed(d, SimpleNamespace(n_fixed=m))
            # Up to about 600 digits cancel between the two terms.
            exact = _relent_exact(d, m, digits=700)
            if exact < 1e-300:
                continue  # below the normal doubles
            assert _rel_err(value, exact) <= 2e-15, d

    @pytest.mark.parametrize("d", [-1.5, -math.inf, math.nan])
    def test_relent_rejects_excess_below_the_vacuum(self, d):
        with pytest.raises(ValueError, match="d must be >= -n_fixed"):
            relent_to_qou_fixed(d, QOU(math.sqrt(2.0), 1.0))

    def test_relent_at_vacuum(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        d = relent_to_qou_fixed(-kind.n_fixed, kind)
        assert d == pytest.approx(math.log1p(kind.n_fixed), rel=1e-15)

    def test_h_vanishes_at_fixed_point(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        n_star = kind.n_fixed
        h_min = h_function(n_star, kind)
        assert n_star == pytest.approx(1.0)
        assert abs(h_min) <= 1e-12

    @pytest.mark.parametrize("mu, lam", [
        (math.sqrt(2.0), 1.0), (1.5, 1.0), (10.0, 1.0), (1.0000001, 1.0),
        (3.0, 0.1), (1e100, 1.0), (1e-100, 9e-101)])
    def test_h_matches_the_five_log_form(self, mu, lam):
        # h = mu^2 log(n + 1) - lam^2 log n + lam^2 log lam^2 - mu^2 log mu^2
        # + zeta log zeta, at 400 digits: its terms cancel up to about 236
        # of them (at mu = 1e100).  h_function computes zeta D(omega_{n*} ||
        # omega_n) at the doubles zeta and n* = lam^2/zeta, whose rounding
        # moves h by `inputs`, evaluated exactly; near n* that is about
        # 2 |fl(n*) - n*|/|n - n*|.  On top of it the gate allows the
        # relative entropy's own 2e-15 (the relent tests above) and the
        # rounding of the product by zeta.
        kind = QOU(mu, lam)
        m = kind.n_fixed
        assert h_function(m, kind) == 0.0
        ns = [float(n) for n in np.geomspace(1e-300, 1e300, 61)]
        ns += [m * (1.0 + s * 10.0**-k) for s in (1, -1) for k in range(1, 15)]
        with mpmath.workdps(400):
            mu2, lam2 = (mpmath.mpf(r) for r in kind.rates)
            zeta = mu2 - lam2
            for n in ns:
                nn = mpmath.mpf(n)
                exact = (mu2 * mpmath.log(nn + 1) - lam2 * mpmath.log(nn)
                         + lam2 * mpmath.log(lam2) - mu2 * mpmath.log(mu2)
                         + zeta * mpmath.log(zeta))
                # zeta D(omega_{n*} || omega_n) at the doubles zeta and n*.
                mm = mpmath.mpf(m)
                rounded = kind.zeta * (
                    (mm + 1) * mpmath.log((nn + 1) / (mm + 1))
                    - mm * mpmath.log(nn / mm))
                inputs = abs(rounded / exact - 1)
                value = h_function(n, kind)
                assert _rel_err(value, exact) <= inputs + 2e-15 + 2.0**-53, n

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1.05, max_value=4.0),
           st.floats(min_value=1e-2, max_value=1e3))
    def test_h_nonnegative(self, mu, n):
        lam = 1.0
        assert h_function(n, QOU(mu, lam)) >= -1e-12

    def test_no_witness_for_zeta_itself(self):
        kind = QOU(math.sqrt(2.0), 1.0)
        assert zeta_optimality_witness(kind, 0.0) is None
        # At the smallest epsilon the rate holds up to the largest double.
        assert zeta_optimality_witness(kind, 5e-324) is None

    def test_witness_exists_above_zeta(self):
        # The witness is the first failing double above n*, so the double
        # below it holds; at epsilon = 1e-3 it lies near 11504, at
        # mu = 1 + 2^-52 above n* ~ 2.25e15, and at epsilon = 1e-305 near
        # 1e308, where the sum of the bisection's ends overflows.
        root2 = QOU(math.sqrt(2.0), 1.0)
        cases = [(root2, eps) for eps in (1e-3, 0.5, 0.99, 2.0, 1e-305)]
        cases += [(QOU(mu, lam), 0.5) for mu, lam in
                  ((3.0, 0.1), (1e100, 1.0), (1.0 + 2**-52, 1.0))]
        for kind, eps in cases:
            n_star = kind.n_fixed

            def slack(n):
                return (h_function(n, kind)
                        - eps * relent_to_qou_fixed(n - n_star, kind))

            w = zeta_optimality_witness(kind, eps)
            assert w is not None and w > n_star, (kind, eps)
            assert slack(w) < -1e-9 <= slack(np.nextafter(w, n_star))
            if eps < kind.zeta:
                # Then the rate holds on all of (0, n*], so w is also the
                # smallest failing n.
                scan = np.geomspace(n_star / 100, w, 20000, endpoint=False)
                assert all(slack(float(n)) >= -1e-9 for n in scan), (kind, eps)

    def test_witness_bisects(self, monkeypatch):
        calls = []

        def counted(n, kind):
            calls.append(n)
            return h_function(n, kind)

        monkeypatch.setattr(gaussian, "h_function", counted)
        zeta_optimality_witness(QOU(math.sqrt(2.0), 1.0), 0.5)
        assert len(calls) <= 70


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

    @staticmethod
    def phi_exact(u, one_plus_u):
        """u - log1p(u) at the working precision: its series, free of
        cancellation, for |u| < 1/2, where r - 1 falls to about 1e-86."""
        if abs(u) >= 0.5:
            return u - mpmath.log(one_plus_u)
        total, power, k = 0, u * u, 2
        while True:
            term = power / k
            total += term
            if abs(term) <= mpmath.mpf(10) ** -55 * abs(total):
                return total
            power *= -u
            k += 1

    # The `cou` suite's grid, and the ratio grid, plus long times, and
    # variances far from the fixed one, where 1 + (r - 1) or 1/r is tiny.
    GRID = [(theta, sigma2, var0, t) for theta in (0.5, 1.0, 2.0)
            for sigma2 in (0.5, 1.0, 2.0) for var0 in (0.1, 1.0, 10.0, 100.0)
            for t in (0.0, 0.3, 1.0, 5.0, 20.0, 50.0)]
    GRID += [(1.0, 1.0, var0, 0.0) for var0 in (1e2, 1e4, 1e6)]
    GRID += [(1.0, 2.0, var0, t) for var0 in (1e-300, 1e-20, 1e20, 1e300)
             for t in (0.0, 1e-3)]

    def test_step_matches_mpmath(self):
        # At theta = 2, sigma2 = 1, var0 = 10 and t = 50, r - 1 is about
        # 5e-86 and D about 7e-172: a D read from the rounded r is 0.
        with mpmath.workdps(50):
            for theta, sigma2, var0, t in self.GRID:
                _, relent, margin = cou_step(
                    ClassicalOUParams(theta, sigma2), var0, t)
                th, v_inf = mpmath.mpf(theta), mpmath.mpf(sigma2) / (2 * theta)
                decay = mpmath.exp(-2 * th * t)
                x = decay * (var0 - v_inf) / v_inf
                r = decay * var0 / v_inf + (1 - decay)
                exact = (self.phi_exact(x, r) / 2,
                         th * self.phi_exact(-x / r, 1 / r))
                for value, target in zip((relent, margin), exact):
                    if target == 0:
                        assert value == 0.0
                    else:
                        assert _rel_err(value, target) <= 2e-15, (
                            theta, sigma2, var0, t, value, target)

    def test_relent_decays(self):
        p = ClassicalOUParams(1.0, 2.0)
        _, d1, _ = cou_step(p, 5.0, 0.1)
        _, d2, _ = cou_step(p, 5.0, 1.0)
        assert d2 < d1

    @pytest.mark.parametrize("theta, sigma2", [(0.0, 1.0), (1.0, 0.0),
                                               (-1.0, 1.0), (math.nan, 1.0),
                                               (1.0, math.nan)])
    def test_rejects_nonpositive_parameters(self, theta, sigma2):
        with pytest.raises(ValueError, match="must be positive"):
            ClassicalOUParams(theta, sigma2)

    # Unchecked, each gives NaN, or ZeroDivisionError at theta = inf: the
    # fixed variance overflows or is subnormal, or var0 over it, or the
    # inverse, overflows.
    @pytest.mark.parametrize("theta, sigma2, var0, named", [
        (1.0, math.inf, 1.0, "inf"), (1e-308, 1e308, 1.0, "1e+308"),
        (1.0, 1e-320, 1.0, "1e-320"), (math.inf, 1.0, 1.0, "inf"),
        (1.0, 1.0, math.inf, "inf"), (1.0, 1.0, 1e308, "1e+308"),
        (1.0, 1.0, 5e-324, "5e-324")])
    def test_refuses_what_would_give_nan(self, theta, sigma2, var0, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            cou_step(ClassicalOUParams(theta, sigma2), var0, 0.0)

    def test_phi_series_ends_on_nan(self):
        # NaN fails the series' stop test in its negative form, so the loop
        # would never end.
        assert math.isnan(_phi(math.nan))

    @pytest.mark.parametrize("var0, t, message", [
        (0.0, 0.1, "var0 must be > 0"), (-1.0, 0.1, "var0 must be > 0"),
        (1.0, -0.1, "t must be >= 0"), (math.nan, 0.1, "var0 must be > 0"),
        (1.0, math.nan, "t must be >= 0")])
    def test_step_rejects_arguments_outside_the_domain(self, var0, t,
                                                       message):
        with pytest.raises(ValueError, match=message):
            cou_step(ClassicalOUParams(1.0, 2.0), var0, t)


class TestCarboneBounds:
    def test_ordering(self):
        lo, hi, (c_lo, c_hi) = carbone_lsi2_bounds(QOU(math.sqrt(2.0), 1.0))
        assert 0 < lo < hi
        assert 0 < c_lo < c_hi

    def test_lsi2_within_classical_bracket_upper(self):
        # alpha2 <= alphaC upper endpoint by construction of the formulas.
        lo, hi, (c_lo, c_hi) = carbone_lsi2_bounds(QOU(2.0, 1.0))
        assert hi <= c_hi + 1e-12

    @pytest.mark.parametrize("mu, lam", [
        (math.sqrt(2.0), 1.0), (2.0, 1.0), (1.0000000000000002, 1.0),
        (1e3, 1.0), (1.0, 1e-150), (1e150, 1e149), (3e-154, 2.1e-154)])
    def test_matches_mpmath(self, mu, lam):
        # At the smallest rates the inverse constants, about 1/mu^2,
        # overflow, while the lower bounds are subnormal doubles.
        kind = QOU(mu, lam)
        with mpmath.workdps(50):
            mu2, nu = mpmath.mpf(kind.rates[0]), mpmath.mpf(kind.nu)
            log_inv = mpmath.log(1 / nu)
            c_lo = mu2 * 5 * mpmath.sqrt(5) * (1 - nu) ** 1.5 / log_inv
            inv_c_hi = (mpmath.mpf(255) / 4 * ((1 + mpmath.log(2)) * (1 - nu)
                                               + log_inv) / (1 - nu) ** 3)
            inv_a2_hi = (4 * (5 - mpmath.log(1 - nu)) / (1 - nu)
                         + 3 * mpmath.log(3) * inv_c_hi)
            exact = [mu2 / inv_a2_hi, c_lo, mu2 / inv_c_hi, c_lo]
            lo, hi, (c_lo_v, c_hi_v) = carbone_lsi2_bounds(kind)
            for value, ref in zip((lo, hi, c_lo_v, c_hi_v), exact):
                # A few ulps, or one step of the subnormal doubles.
                assert abs(mpmath.mpf(value) - ref) <= (
                    2e-15 * ref + mpmath.mpf(2.0**-1074))
