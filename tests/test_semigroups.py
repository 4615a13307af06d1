import math
import re

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply
from scipy.special import ive

from phaseineq.classical import death_evolve, geometric_pmf
from phaseineq.fock_core import (
    DensityMatrix,
    StateFamily,
    TruncationError,
    mean_photon,
    random_state,
    relative_entropy,
    thermal_state,
    von_neumann_entropy,
    weyl_operator,
)
from phaseineq.gaussian import thermal_mean
from phaseineq import fock_core, semigroups
from phaseineq.semigroups import (
    _decay_terms,
    Amplifier,
    Attenuator,
    GaussianDensity,
    Heat,
    QOU,
    convolve,
    entropy_rate,
    evolve,
    flow,
    liouvillian_apply,
    standard_gaussian,
)

from fock_helpers import displace, ladder_operators, number_state


def sparse_generator(*args):
    """`semigroups._generator` as a scipy sparse matrix, built from the
    diagonals it returns."""
    gen = semigroups._generator(*args)
    size = gen[0].size
    return sp.diags(list(gen.values()), list(gen), shape=(size, size),
                    format="csr")


def dense_superoperator(kind, dim):
    """The generator of a semigroup kind, or the diffusion L_C of a
    Gaussian density, as a dense matrix on row-major vec(rho),
    vec(A X B) = (A kron B^T) vec(X), assembled from the ladder operators
    alone."""
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
        return -math.pi * (double_commutator(q, q) + double_commutator(p, p))
    if isinstance(kind, Attenuator):
        return dissipator(a)
    if isinstance(kind, Amplifier):
        return dissipator(a_dag)
    if isinstance(kind, QOU):
        return kind.mu**2 * dissipator(a) + kind.lam**2 * dissipator(a_dag)
    # L_C = -pi sum_jk C_jk [G_j, [G_k, .]] with G = (P, -Q).
    g = (p, -q)
    return -math.pi * sum(kind.cov[j, k] * double_commutator(g[j], g[k])
                          for j in range(2) for k in range(2))


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


KINDS = [Heat(), Attenuator(), Amplifier(), QOU(math.sqrt(2.0), 1.0)]
KIND_IDS = ["heat", "attenuator", "amplifier", "qou"]
NON_HERMITIAN = KINDS[1:]


def band_supports(dim, rng):
    """Supports that probe the band restriction at dim: the diagonal, each
    corner alone and eight sparse random patterns drawn from rng."""
    last = dim - 1
    supports = [np.eye(dim, dtype=bool)]
    for i, j in ((0, 0), (0, last), (last, 0), (last, last)):
        corner = np.zeros((dim, dim), dtype=bool)
        corner[i, j] = True
        supports.append(corner)
    return supports + [rng.random((dim, dim)) < rng.uniform(0, 3) / dim**2
                       for _ in range(8)]


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

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_matches_dense_superoperator(self, kind, dim):
        # The touched-band restriction holds down to dim 2, where every
        # band has at most two entries.
        rho = random_state(dim, 3, StateFamily.FULL_RANK)
        target = dense_superoperator(kind, dim) @ rho.mat.ravel()
        out = liouvillian_apply(kind, rho)
        assert np.max(np.abs(out - target.reshape(dim, dim))) <= 1e-14

    def test_qou_parameter_validation(self):
        with pytest.raises(ValueError):
            QOU(1.0, 1.0)
        with pytest.raises(ValueError):
            QOU(1.0, 2.0)
        # mu^2 overflows; mu^2 and lam^2 underflow; lam^2 is subnormal;
        # nu = lam^2/mu^2, and with it the fixed point, underflows.
        for mu, lam in ((1e200, 1.0), (1e-200, 1e-201), (1.0, 1e-155),
                        (1e154, 2e-154)):
            with pytest.raises(ValueError, match=re.escape(
                    f"got mu = {mu!r}, lambda = {lam!r}")):
                QOU(mu, lam)
        # mu one ulp above lam = 1: zeta = 2^-51, about 4.4e-16, is normal.
        kind = QOU(1.0000000000000002, 1.0)
        assert kind.zeta == 2.0**-51
        assert kind.n_fixed == 2.0**51


def _zeros_first_matvec(gen, x):
    """The shifted-slice product summed from zeros, as `_matvec` was before
    its main diagonal started the sum."""
    out = np.zeros(x.size, dtype=np.result_type(x, *gen.values()))
    for k, c in gen.items():
        if k >= 0:
            out[:x.size - k] += c * x[k:]
        else:
            out[-k:] += c * x[:k]
    return out


class TestMatvec:
    @pytest.mark.parametrize("s", [0.0, 0.35, 0.3 - 0.2j])
    @pytest.mark.parametrize("dim", [3, 12, 128])
    def test_bit_identical_to_the_zeros_first_sum(self, dim, s):
        # At dim 3 the offsets dim - 1 and 2 coincide and share one band.
        rng = np.random.default_rng(dim)
        x = rng.standard_normal(dim * dim)
        for mu2, lam2 in ((2.0 * math.pi, 2.0 * math.pi), (1.0, 0.0),
                          (0.0, 1.0), (1.3, 0.4)):
            gen = semigroups._generator(mu2, lam2, dim, s)
            for vec in (x, x + 1j * x[::-1]):
                out = semigroups._matvec(gen, vec)
                ref = _zeros_first_matvec(gen, vec)
                assert out.dtype == ref.dtype
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("s", [0.0, 0.3 - 0.2j])
    @pytest.mark.parametrize("dim", [2, 3, 12])
    def test_matches_sparse_product(self, dim, s):
        # The shifted-slice product against scipy's CSR product of the same
        # diagonals; only the order of the sums differs.
        rng = np.random.default_rng(dim)
        x = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
        args = (1.3, 0.4, dim, s)
        out = semigroups._matvec(semigroups._generator(*args), x)
        assert np.max(np.abs(out - sparse_generator(*args) @ x)) <= 1e-13


class TestBesselWeights:
    @pytest.mark.parametrize("z", [1e-12, 1e-4, 0.1, 1.0, 10.0, 100.0,
                                   1600.0, 1e4])
    def test_match_scaled_bessel(self, z):
        # At the length _chebyshev takes for this z.
        size = int(9.0 * math.sqrt(z)) + 30
        weights = semigroups._bessel_weights(z, size)
        assert np.max(np.abs(weights - ive(np.arange(size), z))) <= 1e-15

    def test_zero_argument_is_identity_series(self):
        assert np.array_equal(semigroups._bessel_weights(0.0, 30),
                              np.eye(30)[0])


class TestPoissonWeights:
    @pytest.mark.parametrize("z", [0.0, 1e-12, 0.37, 1.1, 10.5, 100.3,
                                   1600.7, 1e4 + 0.3])
    def test_match_poisson_law_to_40_digits(self, z):
        # At the length _series takes for this z, against e^{-z} z^k / k!
        # at 40 digits (scipy.stats.poisson.pmf is off by 1.2e-13 at
        # z = 1e4, too far to serve as the oracle).
        size = int(z + 9.0 * math.sqrt(z)) + 30
        weights = semigroups._poisson_weights(z, size)
        with mpmath.workdps(40):
            zm = mpmath.mpf(z)
            term, exact = mpmath.exp(-zm), []
            for k in range(size):
                exact.append(term)
                term = term * zm / (k + 1)
            tail = float(1 - mpmath.fsum(exact))
        exact = np.array([float(e) for e in exact])
        assert np.max(np.abs(weights - exact)) <= 2.0**-52
        big = exact >= 1e-300
        assert np.max(np.abs(weights[big] / exact[big] - 1.0)) <= 1e-14
        # The array leaves out less than the series' 1e-16 stopping tail.
        assert tail <= 1e-16

    def test_zero_argument_is_identity_series(self):
        assert np.array_equal(semigroups._poisson_weights(0.0, 30),
                              np.eye(30)[0])


class TestUniformizationBound:
    @pytest.mark.parametrize("kind", NON_HERMITIAN, ids=KIND_IDS[1:])
    def test_restriction_is_a_sub_generator(self, kind):
        # The hypothesis of the uniformization bound: off-diagonals >= 0 and
        # column sums <= 0, exactly 0 on band 0, so 1 + G / theta >= 0 has
        # column sums <= 1 and keeps the trace.
        rng = np.random.default_rng(7)
        for dim in range(2, 41):
            for support in band_supports(dim, rng):
                if not support.any():
                    continue
                kept, gen = semigroups._restrict(support.astype(float),
                                                 *kind.rates, 0.0)
                assert sorted(gen) == [-1, 0, 1]
                assert np.all(gen[-1] >= 0.0) and np.all(gen[1] >= 0.0)
                # Off-diagonal inflow into each column, then its diagonal.
                col = np.zeros(kept.size)
                col[1:] += gen[1]
                col[:-1] += gen[-1]
                col += gen[0]
                assert col.max() <= 0.0
                i, j = np.divmod(kept, dim)
                assert not col[i == j].any()


class TestEvolve:
    def test_zero_time_is_identity(self):
        rho = thermal_state(1.0, 32)
        assert evolve(rho, Heat(), 0.0) is rho

    @pytest.mark.parametrize("run", [
        lambda rho: evolve(rho, Heat(), 0.1),
        lambda rho: convolve(standard_gaussian(), rho, 0.1),
        lambda rho: convolve(GaussianDensity(np.zeros(2), np.array(
            [[1.0, 0.4], [0.4, 0.6]])), rho, 0.1),
        lambda rho: convolve(GaussianDensity(np.array([0.1, 0.0]), np.eye(2)),
                             rho, 0.1)],
        ids=["heat", "f_Z", "anisotropic", "mean"])
    def test_one_level_diffusion_is_a_truncation(self, run):
        # At dim 1 every generator is 0; the only level is the edge band,
        # so a flow with gain leaves edge mass 1.
        with pytest.raises(TruncationError,
                           match=re.escape("edge mass 1.000e+00")):
            run(thermal_state(0.0, 1))

    def test_one_level_loss_keeps_the_state(self):
        out = evolve(thermal_state(0.0, 1), Attenuator(), 0.1)
        assert out.mat.tolist() == [[1.0]]

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
            closed = thermal_mean(n0, QOU(mu, lam), t)
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
        closed = thermal_mean(0.8, QOU(mu, lam), 0.4)
        target = thermal_state(closed, 64)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-10

    @pytest.mark.parametrize(
        "kind, dim",
        [(Heat(), 12), (Attenuator(), 12), (Amplifier(), 12),
         (QOU(math.sqrt(2.0), 1.0), 12)]
        + [(GaussianDensity(mean=np.zeros(2),
                            cov=np.array([[1.0, 0.3], [0.3, 0.6]])), d)
           for d in (3, 12)]
        + [(GaussianDensity(mean=np.zeros(2), cov=0.7 * np.eye(2)), 12)]
        + [(GaussianDensity(mean=np.zeros(2), cov=np.array(cov)), d)
           for cov in ([[0.6, 0.0], [0.0, 1.0]], [[0.8, 0.3], [0.3, 0.8]])
           for d in (3, 12)],
        ids=["heat", "attenuator", "amplifier", "qou", "gaussian-d3",
             "gaussian-d12", "gaussian-iso", "gaussian-negative-s-d3",
             "gaussian-negative-s-d12", "gaussian-imaginary-s-d3",
             "gaussian-imaginary-s-d12"])
    def test_matches_dense_exponential(self, kind, dim, monkeypatch):
        sup = dense_superoperator(kind, dim)
        rho = random_state(dim, 3, StateFamily.FULL_RANK)
        # At these dims the random state fills the edge band.
        monkeypatch.setattr(fock_core, "EDGE_TOL", math.inf)
        for t in (0.05, 1.0):
            target = (expm(t * sup) @ rho.mat.ravel()).reshape(dim, dim)
            if isinstance(kind, GaussianDensity):
                out = convolve(kind, rho, t)
            else:
                out = evolve(rho, kind, t)
            assert np.max(np.abs(out.mat - target)) <= 1e-12

    def test_repeats_bit_for_bit_under_any_global_seed(self, monkeypatch):
        # No flow reads, seeds or restores the global random state.
        rho = random_state(32, 0, StateFamily.FULL_RANK)

        def refuse(*args, **kwargs):
            raise AssertionError("global random state touched")

        for name in ("seed", "get_state", "set_state"):
            monkeypatch.setattr(np.random, name, refuse)
        for kind in (Attenuator(), Amplifier(), QOU(math.sqrt(2.0), 1.0)):
            evolve(rho, kind, 0.01)
        death_evolve(geometric_pmf(1.0, 32), 0.5)

    def test_heat_bands_match_sparse_exponential(self):
        # Random states fill only the bands k < 24; each band is a connected
        # component of the heat generator, so the flow skips the rest and
        # keeps them exactly zero.
        dim = 64
        rho = random_state(dim, 5, StateFamily.FULL_RANK)
        gen = sparse_generator(2.0 * math.pi, 2.0 * math.pi, dim)
        for t in (2e-4, 0.1):
            out = evolve(rho, Heat(), t).mat
            target = expm_multiply(t * gen, rho.mat.ravel()).reshape(dim, dim)
            assert np.max(np.abs(out - target)) <= 1e-12
            for k in range(24, dim):
                assert not np.diagonal(out, k).any()
                assert not np.diagonal(out, -k).any()

    @pytest.mark.parametrize("dim", [32, 64])
    @pytest.mark.parametrize("kind", NON_HERMITIAN, ids=KIND_IDS[1:])
    def test_long_times_match_sparse_exponential(self, kind, dim,
                                                 monkeypatch):
        # Uniformization at z = theta t in the hundreds, where the weights
        # peak far from k = 0.  At these dims the amplifier and the qOU
        # push the random state into the edge band.
        monkeypatch.setattr(fock_core, "EDGE_TOL", math.inf)
        rho = random_state(dim, 3, StateFamily.FULL_RANK)
        gen = sparse_generator(*kind.rates, dim)
        for t in (1.0, 5.0):
            out = evolve(rho, kind, t).mat
            target = expm_multiply(t * gen, rho.mat.ravel()).reshape(dim, dim)
            assert np.max(np.abs(out - target)) <= 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.2j, 0.1 - 0.4j])
    def test_kept_bands_are_the_touched_components(self, s, monkeypatch):
        # The flow reaches only the connected components of the generator's
        # sparsity pattern that the support touches.  At s = 0 _apply gathers
        # the touched bands, and a step that returns ones marks the entries
        # it keeps: they must be exactly those components.  At s != 0 the
        # real flow runs on the whole vector and must leave every entry
        # outside them exactly zero.
        def mark(gen, x, times, hermitian):
            return np.ones(x.size)

        if s == 0:
            monkeypatch.setattr(semigroups, "_series", mark)
        rates = [(1.0, 1.0)] + ([(1.0, 0.0), (0.0, 1.0), (2.0, 1.0)]
                                if s == 0 else [])
        rng = np.random.default_rng(7)
        for dim in range(2, 41):
            supports = band_supports(dim, rng)
            for mu2, lam2 in rates:
                gen = sparse_generator(mu2, lam2, dim, s)
                _, labels = connected_components(abs(gen), directed=False)
                for support in supports:
                    if not support.any():
                        continue
                    out = semigroups._apply(support.astype(complex), (1.0,),
                                            mu2, lam2, s)[0].ravel()
                    touched = np.isin(labels, labels[support.ravel()])
                    if s == 0:
                        assert np.array_equal(out != 0, touched)
                    else:
                        assert not out[~touched].any()

    def test_each_family_takes_only_its_own_weights(self, monkeypatch):
        # Hermitian flows take the Chebyshev series and never the Poisson
        # weights; the others take uniformization and never the Bessel ones.
        def refuse(name):
            def weights(*args, **kwargs):
                raise AssertionError(f"{name} taken")
            return weights

        rho = random_state(64, 1, StateFamily.FULL_RANK)
        with monkeypatch.context() as m:
            m.setattr(semigroups, "_poisson_weights", refuse("Poisson"))
            evolve(rho, Heat(), 0.05)
            iso = GaussianDensity(mean=np.array([0.1, -0.2]),
                                  cov=0.5 * np.eye(2))
            convolve(iso, rho, 0.05)
            aniso = GaussianDensity(mean=np.zeros(2),
                                    cov=np.array([[1.0, 0.3], [0.3, 0.6]]))
            convolve(aniso, rho, 0.05)
            with pytest.raises(AssertionError, match="Poisson taken"):
                evolve(rho, Attenuator(), 0.05)
        monkeypatch.setattr(semigroups, "_bessel_weights", refuse("Bessel"))
        for kind in NON_HERMITIAN:
            evolve(rho, kind, 0.05)
        with pytest.raises(AssertionError, match="Bessel taken"):
            evolve(rho, Heat(), 0.05)

    @pytest.mark.parametrize("dim", [3, 12, 64])
    @pytest.mark.parametrize("cov", [np.eye(2), 0.7 * np.eye(2),
                                     np.array([[1.0, 0.3], [0.3, 0.6]])],
                             ids=["standard", "iso", "aniso"])
    def test_gaussian_generator_is_hermitian(self, cov, dim):
        # The Chebyshev series rests on a real spectrum in [-w, 0].
        iso = math.pi * np.trace(cov)
        gen = sparse_generator(
            iso, iso, dim, 0.5 * (cov[0, 0] - cov[1, 1]) + 1j * cov[0, 1])
        assert (gen != gen.conj().T).nnz == 0

    def test_edge_mass_breach_raises(self):
        # Amplification out of a basis this small must be caught.
        rho = thermal_state(0.2, 12)
        with pytest.raises(TruncationError):
            evolve(rho, Amplifier(), 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve(thermal_state(1.0, 32), Heat(), -0.1)


class TestConvolve:
    @pytest.mark.parametrize("dim", [64, 128])
    def test_standard_gaussian_is_heat_flow_bit_for_bit(self, dim):
        # f_Z *_t rho and e^{t L_heat}(rho) share one generator.
        rho = random_state(dim, 11, StateFamily.FULL_RANK)
        for t in (0.02, 0.05, 0.1):
            assert np.array_equal(convolve(standard_gaussian(), rho, t).mat,
                                  evolve(rho, Heat(), t).mat)

    @pytest.mark.parametrize("mean, cov", [
        ([np.nan, 0.0], np.eye(2)),
        ([0.0, np.inf], np.eye(2)),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
    ], ids=["nan-mean", "inf-mean", "nan-cov"])
    def test_non_finite_density_is_rejected(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            GaussianDensity(mean=np.array(mean), cov=np.array(cov))

    @pytest.mark.parametrize("mean, cov, message", [
        ([0.0, 0.0, 0.0], np.eye(2), "2-vector mean and 2x2 cov"),
        ([0.0, 0.0], np.eye(3), "2-vector mean and 2x2 cov"),
        ([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]], "must be symmetric"),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], "must be positive definite"),
    ], ids=["mean-shape", "cov-shape", "asymmetric", "indefinite"])
    def test_invalid_density_is_rejected(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            GaussianDensity(mean=np.array(mean), cov=np.array(cov))

    def test_gaussian_convolution_equals_heat_flow(self):
        rho = thermal_state(1.0, 128)
        out = convolve(standard_gaussian(), rho, 0.1)
        target = thermal_state(1.0 + 0.2 * math.pi, 128)
        assert np.max(np.abs(out.mat - target.mat)) <= 1e-6

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

    def test_edge_mass_breach_raises(self):
        rho = thermal_state(1.0, 32)
        with pytest.raises(TruncationError):
            convolve(standard_gaussian(), rho, 5.0)

    @pytest.mark.parametrize("cov", [0.7 * np.eye(2),
                                     np.array([[1.0, 0.3], [0.3, 0.6]])],
                             ids=["iso", "aniso"])
    def test_zero_time_is_identity(self, cov):
        rho = random_state(32, 4, StateFamily.FULL_RANK)
        f = GaussianDensity(mean=np.array([0.2, -0.1]), cov=cov)
        assert np.max(np.abs(convolve(f, rho, 0.0).mat - rho.mat)) <= 1e-15

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
        rho = displace(thermal_state(0.3, dim), np.array([0.15, 0.1]))
        out = convolve(f, rho, t)
        # The atoms' convolution is the weighted sum of translated states.
        target = np.zeros((dim, dim), dtype=complex)
        for point, weight in zip(points, w / w.sum()):
            u = weyl_operator(math.sqrt(t) * point, dim)
            target += weight * (u @ rho.mat @ u.conj().T)
        assert np.max(np.abs(out.mat - target)) <= 1e-10


class TestFlow:
    OPS = [Heat(), standard_gaussian(),
           GaussianDensity(mean=np.zeros(2),
                           cov=np.array([[1.0, 0.3], [0.3, 0.6]])),
           QOU(math.sqrt(2.0), 1.0), Attenuator(), Amplifier()]

    @pytest.mark.parametrize("dim", [32, 64])
    @pytest.mark.parametrize("op", OPS, ids=["heat", "f_Z", "aniso", "qou",
                                             "attenuator", "amplifier"])
    def test_grid_matches_each_time_alone_bit_for_bit(self, op, dim):
        # One recurrence serves the grid; each time keeps its own weights,
        # sum and degree.  The grid is unsorted and repeats a time.
        rho = random_state(dim, 2, StateFamily.FULL_RANK)
        coefs = semigroups._coefficients(op)
        grid = (0.05, 2e-4, 0.1, 0.05, 0.02)
        out = semigroups._apply(rho.mat, grid, *coefs)
        assert out.shape == (len(grid), dim, dim)
        for t, x in zip(grid, out):
            alone = semigroups._apply(rho.mat, (t,), *coefs)[0]
            assert np.array_equal(x, alone)

    REAL_OPS = KINDS + [standard_gaussian()] + [
        GaussianDensity(mean=np.zeros(2), cov=np.array(cov))
        for cov in ([[0.6, 0.0], [0.0, 1.0]], [[1.0, 0.3], [0.3, 0.6]],
                    [[0.8, 0.3], [0.3, 0.8]])]

    @pytest.mark.parametrize("op", REAL_OPS, ids=KIND_IDS + [
        "f_Z", "negative-s", "aniso", "imaginary-s"])
    def test_every_flow_runs_in_real_arithmetic(self, op, monkeypatch):
        # The series see the real image Re rho + Im rho, in float64, and its
        # readback is e^{tL}(rho) on the complex matrix, exactly Hermitian.
        dtypes = []

        def record(gen, x, times, hermitian, series=semigroups._series):
            dtypes.append(x.dtype)
            return series(gen, x, times, hermitian)

        monkeypatch.setattr(semigroups, "_series", record)
        rho = random_state(64, 2, StateFamily.FULL_RANK)
        grid = (0.02, 0.05)
        out = [state().mat for state in flow(op, rho, grid)]
        assert dtypes and all(dtype == np.float64 for dtype in dtypes)
        target = semigroups._apply(rho.mat, grid,
                                   *semigroups._coefficients(op))
        for m, x in zip(out, target):
            assert np.array_equal(m, m.conj().T)
            assert np.max(np.abs(m - x)) <= 1e-15

    def test_density_grid_matches_convolve_bit_for_bit(self):
        # Each time's thunk translates by W(sqrt(t) m) as convolve does.
        f = GaussianDensity(mean=np.array([0.15, -0.1]),
                            cov=np.array([[1.0, 0.3], [0.3, 0.6]]))
        rho = random_state(64, 3, StateFamily.FULL_RANK)
        grid = (0.1, 0.02, 0.05)
        for t, conv in zip(grid, flow(f, rho, grid)):
            assert np.array_equal(conv().mat, convolve(f, rho, t).mat)

    def test_states_validate_each_time_on_its_own(self):
        # At dim 40 the random state reaches the edge band by t = 0.1 but
        # not at t = 2e-4.
        rho = random_state(40, 0, StateFamily.FULL_RANK)
        early, late = flow(Heat(), rho, (2e-4, 0.1))
        assert np.array_equal(early().mat, evolve(rho, Heat(), 2e-4).mat)
        with pytest.raises(TruncationError, match="^edge mass "):
            late()

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            semigroups._apply(thermal_state(0.1, 16).mat, (0.1, -0.1),
                              *Heat().rates)

    def test_one_flow_serves_every_dim(self):
        for dim in (32, 64):
            rho = random_state(dim, 2, StateFamily.FULL_RANK)
            assert np.array_equal(flow(Heat(), rho, (2e-4,))[0]().mat,
                                  evolve(rho, Heat(), 2e-4).mat)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.2j, 0.1 - 0.4j])
    def test_restriction_matches_whole_generator(self, s):
        # L on the entries _restrict keeps, put back in place, is L on the
        # whole vector: every entry it drops is zero in x and in L(x).
        rng = np.random.default_rng(11)
        for dim in range(2, 41):
            supports = [np.ones((dim, dim), dtype=bool)]
            supports += [rng.random((dim, dim)) < rng.uniform(0, 3) / dim**2
                         for _ in range(4)]
            for support in supports:
                x = np.where(support, rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)), 0.0)
                for mu2, lam2 in [kind.rates for kind in KINDS]:
                    whole = semigroups._matvec(
                        semigroups._generator(mu2, lam2, dim, s), x.ravel())
                    kept, gen = semigroups._restrict(x, mu2, lam2, s)
                    out = np.zeros(x.size, dtype=complex)
                    out[kept] = semigroups._matvec(gen, x.ravel()[kept])
                    assert np.max(np.abs(out - whole)) <= 1e-14

    def test_unsqueezed_uses_build_no_whole_generator(self, monkeypatch):
        # Only a squeezed flow (s != 0) builds L on the whole vector.
        def refuse(*args, **kwargs):
            raise AssertionError("whole generator built")

        monkeypatch.setattr(semigroups, "_generator", refuse)
        rho = random_state(64, 6, StateFamily.FULL_RANK)
        for kind in KINDS:
            evolve(rho, kind, 0.01)
            liouvillian_apply(kind, rho)
            entropy_rate(rho, kind)
        convolve(standard_gaussian(), rho, 0.01)
        _decay_terms(rho, QOU(math.sqrt(2.0), 1.0))
        aniso = GaussianDensity(mean=np.zeros(2),
                                cov=np.array([[1.0, 0.3], [0.3, 0.6]]))
        with pytest.raises(AssertionError, match="whole generator"):
            convolve(aniso, rho, 0.01)


class TestCharacteristicFunction:
    """Every flow against the channel itself, not the truncated generator:
    each is a Gaussian channel, acting in closed form on the characteristic
    function chi(eta) = tr(W(eta) rho).  A kind maps it to
    chi_0(sqrt(tau) eta) exp(-(pi/2) kappa_t |eta|^2), with tau = e^{-zeta t}
    and kappa_t = (2 lam^2/zeta + 1)(1 - tau), or (mu^2 + lam^2) t at
    zeta = 0, since the vacuum's chi is e^{-pi |eta|^2/2} in `weyl_operator`'s
    convention.  A density with covariance C and mean m multiplies chi by
    exp(-2 pi^2 t (J eta)^T C (J eta)), J eta = (-eta_2, eta_1), and by the
    phase of W(xi) with xi = sqrt(t) m.  The oracle reads only
    `weyl_operator`, so it shares no code with the series, `_restrict` or
    the generator.  The state is floor-free, a random 12-level core and
    zero elsewhere, so the flows at these times keep clear of the edge
    band at dim 128 (Heat at t = 0.5 is not: it misses by about 1.8e-11)."""

    DIM = 128
    ETAS = [r * np.array([math.cos(a), math.sin(a)])
            for r in np.linspace(0.1, 1.5, 5)
            for a in np.arange(6) * math.pi / 6]

    @pytest.fixture(scope="class")
    def oracle(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m = np.zeros((self.DIM, self.DIM), dtype=complex)
        m[:12, :12] = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        weyl = {}

        def chi(mat, eta):
            key = tuple(eta)
            if key not in weyl:
                weyl[key] = weyl_operator(eta, self.DIM)
            return np.sum(weyl[key] * mat.T)

        return rho, chi

    @pytest.mark.parametrize("kind, t", [
        (Heat(), 0.1), (Attenuator(), 0.1), (Attenuator(), 0.5),
        (QOU(math.sqrt(2.0), 1.0), 0.1), (QOU(math.sqrt(2.0), 1.0), 0.5),
        (Amplifier(), 0.05), (Amplifier(), 0.1)],
        ids=["heat-0.1", "attenuator-0.1", "attenuator-0.5", "qou-0.1",
             "qou-0.5", "amplifier-0.05", "amplifier-0.1"])
    def test_kind_acts_on_chi_as_its_channel(self, oracle, kind, t):
        rho, chi = oracle
        mu2, lam2 = kind.rates
        zeta = mu2 - lam2
        tau = math.exp(-zeta * t)
        kappa = ((mu2 + lam2) * t if zeta == 0
                 else (2.0 * lam2 / zeta + 1.0) * (1.0 - tau))
        out = evolve(rho, kind, t).mat
        for eta in self.ETAS:
            expected = (chi(rho.mat, math.sqrt(tau) * eta)
                        * math.exp(-0.5 * math.pi * kappa * (eta @ eta)))
            assert abs(chi(out, eta) - expected) <= 1e-14

    @pytest.mark.parametrize("cov", [[[1.3, 0.0], [0.0, 1.0]],
                                     [[1.0, 0.4], [0.4, 0.6]]],
                             ids=["diagonal", "correlated"])
    def test_density_acts_on_chi_as_its_channel(self, oracle, cov):
        rho, chi = oracle
        t, mean, cov = 0.1, np.array([0.1, -0.2]), np.array(cov)
        out = convolve(GaussianDensity(mean=mean, cov=cov), rho, t).mat
        xi = math.sqrt(t) * mean
        for eta in self.ETAS:
            j_eta = np.array([-eta[1], eta[0]])
            expected = (chi(rho.mat, eta)
                        * math.exp(-2.0 * math.pi**2 * t * (j_eta @ cov @ j_eta))
                        * np.exp(2j * math.pi * (xi[0] * eta[1] - xi[1] * eta[0])))
            assert abs(chi(out, eta) - expected) <= 1e-14


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
        rate = _decay_terms(sigma, QOU(mu, lam))[0]
        assert rate == pytest.approx(0.0, abs=1e-6)

    def test_identity_on_thermal(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = thermal_state(2.0, 64)
        t = _decay_terms(rho, QOU(mu, lam))
        rate, rhs = t[0], sum(t[1:6])
        d = relative_entropy(rho, thermal_state(1.0, 64))
        assert rate == pytest.approx(-(d + rhs), rel=1e-3)

    @pytest.mark.parametrize("rho", [
        thermal_state(2.0, 64),
        *(random_state(64, seed, StateFamily.DIAGONAL) for seed in range(5)),
        random_state(64, 1, StateFamily.FULL_RANK)],
        ids=["thermal", *(f"diagonal-{s}" for s in range(5)), "full-rank"])
    def test_identity_residual_is_the_amplifiers_top_level(self, rho):
        # The truncated a a_dag = diag(1, ..., d - 1, 0) cannot raise level
        # d - 1, so tr(L(rho) N) misses lam^2 d rho_{d-1,d-1}, and through
        # log sigma = const + N log nu the rate misses that times log nu.
        # What remains is round-off: each of the seven assembled terms t_i
        # is a sum over the d levels, with error at most about d u |t_i|
        # (Higham's gamma_d).
        kind = QOU(math.sqrt(2.0), 1.0)
        (mu2, lam2), zeta, nu = kind.rates, kind.zeta, kind.nu
        dim = rho.dim
        t = _decay_terms(rho, kind)
        rate, rhs = t[0], sum(t[1:6])
        d = relative_entropy(rho, thermal_state(kind.n_fixed, dim))
        top = lam2 * dim * rho.mat[-1, -1].real * math.log(nu)
        residual = rate + zeta * d + rhs - top
        terms = [rate, 0.5 * mu2 * entropy_rate(rho, Attenuator()),
                 0.5 * lam2 * entropy_rate(rho, Amplifier()),
                 zeta * von_neumann_entropy(rho), lam2 * math.log(nu),
                 zeta * math.log(1.0 - nu), zeta * d]
        bound = dim * 2.0**-53 * sum(abs(t) for t in terms)
        assert abs(residual) <= bound < abs(top)

    def test_fixed_point_needs_no_eigendecomposition(self, eigh_shapes):
        # log sigma is diagonal in closed form: only rho's own eigenvectors,
        # one eigh of its 24 x 24 block, enter, and none for sigma.
        rho = random_state(64, 4, StateFamily.FULL_RANK)
        t = _decay_terms(rho, QOU(math.sqrt(2.0), 1.0))
        rate, rhs = t[0], sum(t[1:6])
        assert math.isfinite(rate) and math.isfinite(rhs)
        assert eigh_shapes == [(24, 24)]

    def test_gaussian_rate_bound(self):
        mu, lam = math.sqrt(2.0), 1.0
        rho = thermal_state(3.0, 128)
        rate = _decay_terms(rho, QOU(mu, lam))[0]
        d = relative_entropy(rho, thermal_state(1.0, 128))
        assert rate <= -(mu**2 - lam**2) * d + 1e-6
