import math

import numpy as np
import pytest
from scipy.linalg import expm

from phaseineq.fock_core import (
    StateFamily,
    TruncationError,
    displace,
    ladder_operators,
    mean_photon,
    number_state,
    random_state,
    relative_entropy,
    thermal_state,
    von_neumann_entropy,
)
from phaseineq.gaussian import GaussianStateSpec, gaussian_evolve
from phaseineq import semigroups
from phaseineq.semigroups import (
    Amplifier,
    AtomMixture,
    Attenuator,
    GaussianDensity,
    Heat,
    QOU,
    convolve,
    entropy_rate,
    evolve,
    liouvillian_apply,
    relent_decay_rate,
    standard_gaussian,
)


def forward_difference_rate(rho, kind, h=1e-4):
    """Reference 2 dS/dt at t = 0 from the integrated flow: Richardson-
    extrapolated forward differences of step h (it cannot resolve the
    derivative when the spectrum reaches far below h's resolution scale)."""
    s0 = von_neumann_entropy(rho)
    rho_half = evolve(rho, kind, 0.5 * h)
    rho_full = evolve(rho_half, kind, 0.5 * h)
    d_half = (von_neumann_entropy(rho_half) - s0) / (0.5 * h)
    d_full = (von_neumann_entropy(rho_full) - s0) / h
    return 2.0 * (2.0 * d_half - d_full)


class TestLiouvillian:
    def test_attenuator_kills_vacuum(self):
        out = liouvillian_apply(Attenuator(), number_state(0, 8))
        assert np.allclose(out, 0.0)

    def test_attenuator_on_two_photon_state(self):
        out = liouvillian_apply(Attenuator(), number_state(2, 8))
        expected = 2.0 * (number_state(1, 8).mat - number_state(2, 8).mat)
        assert np.allclose(out, expected)

    def test_heat_traceless_on_interior_state(self):
        rho = random_state(64, 4, StateFamily.FULL_RANK)
        assert abs(np.trace(liouvillian_apply(Heat(), rho)).real) <= 1e-10

    def test_qou_is_weighted_combination(self):
        rho = random_state(16, 9, StateFamily.FULL_RANK)
        combo = (2.0 * liouvillian_apply(Attenuator(), rho)
                 + 1.0 * liouvillian_apply(Amplifier(), rho))
        assert np.allclose(liouvillian_apply(QOU(math.sqrt(2), 1.0), rho), combo)

    def test_qou_parameter_validation(self):
        with pytest.raises(ValueError):
            QOU(1.0, 1.0)
        with pytest.raises(ValueError):
            QOU(1.0, 2.0)


class TestEvolve:
    def test_zero_time_is_identity(self):
        rho = thermal_state(1.0, 32)
        assert evolve(rho, Heat(), 0.0) is rho

    def test_attenuator_thermal_closed_form(self):
        out = evolve(thermal_state(1.0, 64), Attenuator(), 0.5)
        target = thermal_state(math.exp(-0.5), 64)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-10

    def test_heat_thermal_closed_form(self):
        out = evolve(thermal_state(1.0, 64), Heat(), 0.1)
        target = thermal_state(1.0 + 0.2 * math.pi, 64)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-10

    def test_amplifier_thermal_closed_form(self):
        out = evolve(thermal_state(1.0, 64), Amplifier(), 0.3)
        target = thermal_state(math.exp(0.3) * 2.0 - 1.0, 64)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-10

    def test_qou_photon_number_vs_trajectory(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = random_state(64, 5, StateFamily.DIAGONAL)
        n0 = mean_photon(rho)
        for t in (0.2, 0.7):
            out = evolve(rho, QOU(mu, lam), t)
            closed = gaussian_evolve(GaussianStateSpec(np.zeros(2), 2 * n0 + 1),
                                     QOU(mu, lam), t).nbar
            assert mean_photon(out) == pytest.approx(closed, abs=1e-6)

    def test_semigroup_property(self):
        rho = random_state(48, 1, StateFamily.FULL_RANK)
        kind = Attenuator()
        once = evolve(rho, kind, 0.5)
        twice = evolve(evolve(rho, kind, 0.2), kind, 0.3)
        assert np.max(np.abs(once.mat - twice.mat)) <= 1e-6

    def test_qou_thermal_closed_form(self):
        mu, lam = math.sqrt(2.0), 1.0
        out = evolve(thermal_state(0.8, 64), QOU(mu, lam), 0.4)
        closed = gaussian_evolve(GaussianStateSpec(np.zeros(2), 2 * 0.8 + 1),
                                 QOU(mu, lam), 0.4).nbar
        target = thermal_state(closed, 64)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-10

    @pytest.mark.parametrize(
        "kind, dim",
        [(Heat(), 12), (Attenuator(), 12), (Amplifier(), 12),
         (QOU(math.sqrt(2.0), 1.0), 12)]
        + [(GaussianDensity(mean=np.zeros(2),
                            cov=np.array([[1.0, 0.3], [0.3, 0.6]])), d)
           for d in (3, 12)]
        + [(GaussianDensity(mean=np.zeros(2), cov=0.7 * np.eye(2)), 12)],
        ids=["heat", "attenuator", "amplifier", "qou", "gaussian-d3",
             "gaussian-d12", "gaussian-iso"])
    def test_matches_dense_exponential(self, kind, dim, monkeypatch):
        # Superoperators on row-major vec(rho), vec(A X B) = (A kron B^T) vec(X),
        # assembled from the ladder operators alone.
        a, a_dag, _ = ladder_operators(dim)
        q = (a + a_dag) / math.sqrt(2.0)
        p = (a - a_dag) / (1j * math.sqrt(2.0))
        eye = np.eye(dim)

        def dissipator(jump):
            jd = jump.conj().T
            return (np.kron(jump, jd.T) - 0.5 * np.kron(jd @ jump, eye)
                    - 0.5 * np.kron(eye, (jd @ jump).T))

        def double_commutator(x, y):
            # X -> [x, [y, X]]
            return (np.kron(x @ y, eye) - np.kron(x, y.T) - np.kron(y, x.T)
                    + np.kron(eye, (y @ x).T))

        if isinstance(kind, Heat):
            sup = -math.pi * (double_commutator(q, q) + double_commutator(p, p))
        elif isinstance(kind, Attenuator):
            sup = dissipator(a)
        elif isinstance(kind, Amplifier):
            sup = dissipator(a_dag)
        elif isinstance(kind, QOU):
            sup = kind.mu**2 * dissipator(a) + kind.lam**2 * dissipator(a_dag)
        else:
            # L_C = -pi sum_jk C_jk [G_j, [G_k, .]] with G = (P, -Q).
            g = (p, -q)
            sup = -math.pi * sum(kind.cov[j, k] * double_commutator(g[j], g[k])
                                 for j in range(2) for k in range(2))
        rho = random_state(dim, 3, StateFamily.FULL_RANK)
        t = 0.05
        target = (expm(t * sup) @ rho.mat.ravel()).reshape(dim, dim)
        # At these dims the random state fills the edge band.
        monkeypatch.setattr(semigroups, "EDGE_TOL", math.inf)
        if isinstance(kind, GaussianDensity):
            out = convolve(kind, rho, t)
        else:
            out = evolve(rho, kind, t)
        assert np.max(np.abs(out.mat - target)) <= 1e-12

    def test_repeats_bit_for_bit_under_any_global_seed(self):
        # The sparse exponential's step count rests on randomized norm
        # estimates; here numpy's global seeds 0 and 15 would pick different
        # counts.
        rho = random_state(32, 0, StateFamily.FULL_RANK)
        gen = semigroups._generator(2.0 * math.pi, 2.0 * math.pi, 32)
        outs = []
        for seed in (0, 15):
            np.random.seed(seed)
            outs.append(semigroups._propagate(gen, rho.mat, 0.2))
            # The caller's random stream is left where it was.
            assert np.random.random() == np.random.RandomState(seed).random()
        assert np.array_equal(outs[0], outs[1])

    def test_heat_bands_match_sparse_exponential(self):
        # Random states fill only the bands k < 24; the band propagator
        # skips the rest, which the flow keeps exactly zero.
        dim = 64
        rho = random_state(dim, 5, StateFamily.FULL_RANK)
        gen = semigroups._generator(2.0 * math.pi, 2.0 * math.pi, dim)
        for t in (2e-4, 0.1):
            out = evolve(rho, Heat(), t).mat
            target = semigroups._propagate(gen, rho.mat, t)
            assert np.max(np.abs(out - target)) <= 1e-12
            for k in range(24, dim):
                assert not np.diagonal(out, k).any()
                assert not np.diagonal(out, -k).any()

    def test_isotropic_flows_leave_sparse_exponential(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sparse exponential called")

        monkeypatch.setattr(semigroups, "expm_multiply", refuse)
        rho = random_state(64, 1, StateFamily.FULL_RANK)
        evolve(rho, Heat(), 0.05)
        iso = GaussianDensity(mean=np.array([0.1, -0.2]), cov=0.5 * np.eye(2))
        convolve(iso, rho, 0.05)
        aniso = GaussianDensity(mean=np.zeros(2),
                                cov=np.array([[1.0, 0.3], [0.3, 0.6]]))
        with pytest.raises(AssertionError, match="sparse exponential"):
            convolve(aniso, rho, 0.05)

    def test_edge_mass_breach_raises(self):
        # Amplification out of a basis this small must be caught.
        rho = thermal_state(0.2, 12)
        with pytest.raises(TruncationError):
            evolve(rho, Amplifier(), 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(thermal_state(1.0, 32), Heat(), -0.1)


class TestConvolve:
    def test_identity_atom(self):
        rho = random_state(32, 8, StateFamily.FULL_RANK)
        f = AtomMixture(points=np.zeros((1, 2)), weights=np.ones(1))
        out = convolve(f, rho, 1.0)
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-12

    @pytest.mark.parametrize("dim", [64, 128])
    def test_standard_gaussian_is_heat_flow_bit_for_bit(self, dim):
        # f_Z *_t rho and e^{t L_heat}(rho) share one generator.
        rho = random_state(dim, 11, StateFamily.FULL_RANK)
        for t in (0.02, 0.05, 0.1):
            assert np.array_equal(convolve(standard_gaussian(), rho, t).mat,
                                  evolve(rho, Heat(), t).mat)

    def test_gaussian_convolution_equals_heat_flow(self):
        rho = thermal_state(1.0, 128)
        out = convolve(standard_gaussian(), rho, 0.1)
        target = thermal_state(1.0 + 0.2 * math.pi, 128)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-6

    def test_atom_addition_law(self):
        rho = random_state(64, 2, StateFamily.FULL_RANK)
        x1 = np.array([[0.2, -0.1]])
        x2 = np.array([[-0.15, 0.25]])
        f1 = AtomMixture(points=x1, weights=np.ones(1))
        f2 = AtomMixture(points=x2, weights=np.ones(1))
        f12 = AtomMixture(points=x1 + x2, weights=np.ones(1))
        lhs = convolve(f1, convolve(f2, rho, 1.0), 1.0)
        rhs = convolve(f12, rho, 1.0)
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-6

    def test_atom_scaling_law(self):
        rho = random_state(64, 6, StateFamily.FULL_RANK)
        t = 0.25
        pts = np.array([[0.4, -0.3], [-0.2, 0.1]])
        w = np.array([0.6, 0.4])
        f = AtomMixture(points=pts, weights=w)
        f_scaled = AtomMixture(points=math.sqrt(t) * pts, weights=w)
        lhs = convolve(f, rho, t)
        rhs = convolve(f_scaled, rho, 1.0)
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-8

    def test_compatibility_with_heat_flow(self):
        # evolve(f * rho, Heat, xi) = (heat-widened f) * evolve(rho, Heat, mu)
        # for xi = mu + t*nu; heat flow for time nu at convolution scale t
        # widens the classical density by nu * I.
        rho = thermal_state(0.5, 128)
        t, mu_t, nu_t = 0.5, 0.02, 0.03
        f = GaussianDensity(mean=np.array([0.1, -0.05]), cov=np.eye(2))
        lhs = evolve(convolve(f, rho, t), Heat(), mu_t + t * nu_t)
        f_wide = GaussianDensity(mean=f.mean, cov=f.cov + nu_t * np.eye(2))
        rhs = convolve(f_wide, evolve(rho, Heat(), mu_t), t)
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-5

    def test_covariance_with_displacement(self):
        rho = thermal_state(0.5, 128)
        t = 0.25
        theta = np.array([0.08, -0.04])
        f = GaussianDensity(mean=np.array([0.1, 0.2]), cov=np.eye(2))
        omega_q, omega_c = 1.0, 1.0
        omega = omega_q + math.sqrt(t) * omega_c
        lhs = displace(convolve(f, rho, t), omega * theta)
        f_shift = GaussianDensity(mean=f.mean + omega_c * theta, cov=f.cov)
        rhs = convolve(f_shift, displace(rho, omega_q * theta), t)
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-5

    def test_quadrature_failure_raises(self):
        rho = thermal_state(1.0, 32)
        with pytest.raises((TruncationError, ValueError)):
            convolve(standard_gaussian(), rho, 5.0)

    def test_gaussian_matches_hermite_atoms(self):
        # A mean and an off-diagonal covariance pin the (P, -Q) frame of the
        # generator; 20x20 Gauss-Hermite atoms resolve dim * t * lam_max <= 3.
        dim, t = 32, 0.05
        f = GaussianDensity(mean=np.array([0.4, -0.3]),
                            cov=np.array([[1.0, 0.3], [0.3, 0.6]]))
        nodes, weights = np.polynomial.hermite.hermgauss(20)
        u = math.sqrt(2.0) * nodes
        chol = np.linalg.cholesky(f.cov)
        points = np.array([f.mean + chol @ np.array([x, y])
                           for x in u for y in u])
        w = np.outer(weights, weights).ravel()
        atoms = AtomMixture(points=points, weights=w / w.sum())
        rho = displace(thermal_state(0.3, dim), np.array([0.15, 0.1]))
        out = convolve(f, rho, t)
        target = convolve(atoms, rho, t)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-10


class TestEntropyRates:
    def test_attenuator_rate_on_thermal(self):
        rate = entropy_rate(thermal_state(1.0, 128), Attenuator())
        assert rate == pytest.approx(-2 * math.log(2), abs=1e-3)

    def test_amplifier_rate_on_thermal(self):
        for n in (1.0, 2.0):
            rate = entropy_rate(thermal_state(n, 128), Amplifier())
            assert rate == pytest.approx(2 * (n + 1) * math.log(1 + 1 / n), abs=1e-3)

    def test_fisher_sum_identity(self):
        rho = random_state(128, 12, StateFamily.FULL_RANK)
        j_sum = 2 * math.pi * (entropy_rate(rho, Attenuator())
                               + entropy_rate(rho, Amplifier()))
        heat = entropy_rate(rho, Heat())
        assert heat == pytest.approx(j_sum, rel=1e-8)

    def test_matches_forward_difference_oracle_on_smooth_state(self):
        # On a well-conditioned state the integrated-flow stencil agrees
        # with the algebraic derivative.
        rho = thermal_state(1.0, 64)
        exact = entropy_rate(rho, Attenuator())
        assert forward_difference_rate(rho, Attenuator()) == pytest.approx(
            exact, rel=1e-3)

    def test_rejects_rank_deficient(self):
        from phaseineq.fock_core import IllConditionedError
        with pytest.raises(IllConditionedError):
            entropy_rate(number_state(1, 16), Attenuator())


class TestRelentDecay:
    def test_fixed_point_rate_vanishes(self):
        mu, lam = math.sqrt(2.0), 1.0
        sigma = thermal_state(1.0, 64)
        rate, _ = relent_decay_rate(sigma, mu, lam)
        assert rate == pytest.approx(0.0, abs=1e-6)

    def test_identity_on_thermal(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = thermal_state(2.0, 64)
        rate, rhs = relent_decay_rate(rho, mu, lam)
        d = relative_entropy(rho, thermal_state(1.0, 64))
        assert rate == pytest.approx(-(d + rhs), rel=1e-3)

    def test_gaussian_rate_bound(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = thermal_state(3.0, 128)
        rate, _ = relent_decay_rate(rho, mu, lam)
        d = relative_entropy(rho, thermal_state(1.0, 128))
        assert rate <= -(mu**2 - lam**2) * d + 1e-6
