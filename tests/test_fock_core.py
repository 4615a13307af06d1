import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from phaseineq.fock_core import (
    EDGE_TOL,
    DensityMatrix,
    IllConditionedError,
    StateFamily,
    TruncationError,
    entropy_power,
    fock_rearrangement,
    geometric_weights,
    log_density,
    majorizes,
    mean_photon,
    random_state,
    relative_entropy,
    state_edge_mass,
    thermal_state,
    von_neumann_entropy,
    weyl_operator,
)
from phaseineq.fisher import quantum_fisher
from phaseineq.semigroups import (
    QOU,
    Amplifier,
    Attenuator,
    Heat,
    entropy_rate,
    evolve,
    flow,
    liouvillian_apply,
    relent_decay_rate,
)

from fock_helpers import (
    SQRT_2PI,
    dense_evecs,
    displace,
    ladder_operators,
    number_state,
    quadrature_operators,
)

SIGMA = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestLadderOperators:
    def test_annihilation_action(self):
        a, _, _ = ladder_operators(3)
        e0, e1, e2 = np.eye(3)
        assert np.allclose(a @ e1, e0)
        assert np.allclose(a @ e2, math.sqrt(2) * e1)

    def test_number_operator_diagonal(self):
        _, _, n = ladder_operators(3)
        assert np.allclose(n, np.diag([0.0, 1.0, 2.0]))

    def test_commutator_away_from_edge(self):
        a, a_dag, _ = ladder_operators(4)
        comm = a @ a_dag - a_dag @ a
        assert np.allclose(comm[:3, :3], np.eye(3))

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            ladder_operators(1)


class TestWeylOperator:
    def test_zero_displacement_is_identity(self):
        assert np.allclose(weyl_operator(np.zeros(2), 16), np.eye(16))

    def test_composition_law_interior(self):
        dim = 128
        xi = np.array([0.3, -0.2])
        eta = np.array([0.1, 0.4])
        w = weyl_operator(xi, dim) @ weyl_operator(eta, dim)
        phase = np.exp(-1j * math.pi * xi @ (SIGMA @ eta))
        target = phase * weyl_operator(xi + eta, dim)
        half = dim // 2
        assert np.linalg.norm((w - target)[:half, :half]) <= 1e-6

    def test_displacement_shifts_position_mean(self):
        # |shift| = sqrt(2 pi) theta; the sign follows the symplectic-form
        # convention pinned by the composition law above.
        dim, theta = 128, 0.1
        q, _ = quadrature_operators(dim)
        shifted = displace(number_state(0, dim), np.array([theta, 0.0]))
        shift = float(np.trace(shifted.mat @ q).real)
        assert abs(abs(shift) - math.sqrt(2 * math.pi) * theta) <= 1e-6 * abs(shift)

    def test_truncation_flagged_at_small_dim(self):
        # The operator itself stays unitary (exponential of a Hermitian
        # generator); truncation shows up as mass pushed to the edge band,
        # beyond the bound at which the Fisher information and the
        # propagators refuse a state.
        xi = np.array([3.0, 0.0])
        w = weyl_operator(xi, 8)
        assert np.linalg.norm(w.conj().T @ w - np.eye(8), 2) < 1e-10
        shifted = displace(number_state(0, 8), xi)
        assert state_edge_mass(shifted.mat) > EDGE_TOL

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            weyl_operator(np.array([np.nan, 0.0]), 8)

    def test_rejects_dim_below_one(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            weyl_operator(np.array([0.1, 0.2]), 0)

    def test_one_level_is_the_identity(self):
        # The truncated a + a_dag is [[0]] at dim 1.
        w = weyl_operator(np.array([0.1, 0.2]), 1)
        assert w.dtype == complex
        assert w.tolist() == [[1.0]]

    @pytest.mark.parametrize("dim", [2, 3, 8, 128])
    def test_zero_displacement_is_exactly_identity(self, dim):
        w = weyl_operator(np.zeros(2), dim)
        assert w.dtype == complex
        assert np.array_equal(w, np.eye(dim))

    @pytest.mark.parametrize("dim", [2, 3, 8, 128])
    @pytest.mark.parametrize("xi", [(0.0, 0.3), (-0.25, 0.0), (0.2, 0.15),
                                    (-0.3, 0.1), (0.05, -0.4)],
                             ids=["xi1-zero", "xi2-zero", "both", "mixed",
                                  "mixed-other"])
    def test_matches_exponential_of_dense_generator(self, dim, xi):
        # The oracle exponentiates sqrt(2 pi) (xi_1 P - xi_2 Q) built from
        # the dense quadratures, which the spectral construction never forms.
        q, p = quadrature_operators(dim)
        target = expm(1j * SQRT_2PI * (xi[0] * p - xi[1] * q))
        w = weyl_operator(np.array(xi), dim)
        assert np.max(np.abs(w - target)) <= 1e-12

    def test_one_real_eigh(self, monkeypatch):
        calls = []

        def recorded(a, *args, _solver=np.linalg.eigh, **kw):
            calls.append((np.shape(a), np.asarray(a).dtype))
            return _solver(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        weyl_operator(np.array([0.2, -0.1]), 32)
        assert calls == [((32, 32), np.dtype(float))]


class TestStates:
    def test_vacuum_number_state(self):
        rho = number_state(0, 8)
        assert rho.mat[0, 0] == 1.0
        assert mean_photon(rho) == 0.0

    def test_number_state_photon_and_entropy(self):
        assert mean_photon(number_state(3, 16)) == pytest.approx(3.0)
        assert von_neumann_entropy(number_state(2, 16)) == pytest.approx(0.0, abs=1e-12)

    def test_number_state_out_of_range(self):
        with pytest.raises(ValueError):
            number_state(8, 8)

    def test_thermal_entropy_and_mean(self):
        rho = thermal_state(1.0, 64)
        assert von_neumann_entropy(rho) == pytest.approx(2 * math.log(2), abs=1e-8)
        assert mean_photon(rho) == pytest.approx(1.0, abs=1e-8)

    def test_geometric_weights_reject_negative_mean(self):
        with pytest.raises(ValueError, match="nbar must be >= 0"):
            geometric_weights(-0.5, 8)

    def test_thermal_vacuum(self):
        rho = thermal_state(0.0, 16)
        assert np.allclose(rho.mat, number_state(0, 16).mat)

    def test_thermal_mean_photon_large(self):
        assert mean_photon(thermal_state(2.5, 128)) == pytest.approx(2.5, abs=1e-6)

    def test_thermal_truncation_error_names_adequate_dim(self):
        with pytest.raises(TruncationError) as exc:
            thermal_state(10.0, 16)
        assert exc.value.min_adequate_dim is not None
        thermal_state(10.0, exc.value.min_adequate_dim)  # adequate indeed

    def test_density_matrix_invariant_violations(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(np.full((2, 3), 0.5, dtype=complex))

    @pytest.mark.parametrize("mat", [
        np.diag([np.nan, 0.5, 0.5]),
        [[0.5, np.nan], [np.nan, 0.5]],
        [[0.5, 1j * np.nan], [1j * np.nan, 0.5]],
        np.diag([np.inf, 0.5, 0.5]),
        [[0.5, np.inf], [np.inf, 0.5]],
    ], ids=["nan-diagonal", "nan-coherence", "nan-imaginary", "inf-diagonal",
            "inf-coherence"])
    def test_non_finite_entries_are_rejected(self, mat):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.asarray(mat, dtype=complex))

    def test_caller_array_is_copied_not_frozen(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        rho = DensityMatrix(m)
        assert m.flags.writeable
        assert not np.shares_memory(rho.mat, m)
        m[0, 1] = 0.25
        assert rho.mat[0, 1] == 0.0
        assert not rho.mat.flags.writeable

    def test_handed_over_array_is_adopted(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m.flags.writeable = False
        assert np.shares_memory(DensityMatrix(m).mat, m)

    def test_read_only_view_of_a_writable_base_is_copied(self):
        base = np.diag([0.5, 0.5]).astype(complex)
        view = base[:]
        view.flags.writeable = False
        rho = DensityMatrix(view)
        assert not np.shares_memory(rho.mat, base)
        base[0, 1] = 0.25
        assert rho.mat[0, 1] == 0.0

    def test_package_states_are_adopted(self, monkeypatch):
        # The constructors of this package hand their fresh arrays over
        # read-only, so the state keeps that array and copies nothing.
        adopted = []
        init = DensityMatrix.__post_init__

        def recorded(self):
            given = self.mat
            init(self)
            adopted.append(self.mat is given)

        monkeypatch.setattr(DensityMatrix, "__post_init__", recorded)
        rho = random_state(128, 0, StateFamily.FULL_RANK)
        thermal_state(1.0, 128)
        fock_rearrangement(rho)
        evolve(rho, Heat(), 0.01)
        assert adopted == [True] * 4


def _with_last_row_coherence() -> DensityMatrix:
    m = np.diag(np.arange(1.0, 9.0) / 36.0).astype(complex)
    m[7, 0], m[0, 7] = 0.01j, -0.01j
    return DensityMatrix(m)


class TestSpectrum:
    def test_kept_decomposition_is_read_only_and_rebuilds_the_state(self):
        rho = random_state(32, 3, StateFamily.FULL_RANK)
        evals = np.sort(rho.spectrum)
        assert np.all(np.diff(evals) >= 0.0)
        evecs = dense_evecs(rho)
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.max(np.abs(rebuilt - rho.mat)) <= 1e-13
        for arr in (rho.mat, rho.spectrum, rho.block_vecs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_spectral_functionals_do_not_decompose_again(self, monkeypatch):
        rho = random_state(32, 4, StateFamily.FULL_RANK)
        sigma = thermal_state(1.0, 32)
        callers = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _name=name,
                        _solver=getattr(np.linalg, name), **kw):
                callers.append((_name, sys._getframe(1).f_code.co_name))
                return _solver(a, *args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        # The spectral functionals read only the spectrum the constructor
        # took, and sigma's block is empty, so D(rho||sigma) needs none.
        von_neumann_entropy(rho)
        entropy_power(rho)
        relative_entropy(rho, sigma)
        majorizes(rho, sigma)
        assert callers == []
        # The rearranged state is diagonal, so its constructor makes no
        # LAPACK call.
        fock_rearrangement(rho)
        assert callers == []
        # The first vector reader runs the one eigh of rho's block; later
        # readers reuse its vectors.
        quantum_fisher(rho)
        entropy_rate(rho, Heat())
        assert callers == [("eigh", "block_vecs")]
        random_state(32, 5, StateFamily.FULL_RANK)
        assert callers == [("eigh", "block_vecs"),
                           ("eigvalsh", "__post_init__")]

    def test_a_second_vector_reader_does_not_decompose(self, eigh_shapes):
        rho = random_state(64, 2, StateFamily.FULL_RANK)
        quantum_fisher(rho)
        assert eigh_shapes == [(24, 24)]
        entropy_rate(rho, Attenuator())
        relent_decay_rate(rho, QOU(math.sqrt(2.0), 1.0))
        relative_entropy(thermal_state(1.0, 64), rho)
        quantum_fisher(rho)
        assert eigh_shapes == [(24, 24)]

    @pytest.mark.parametrize("build, k", [
        (lambda rho: rho, 24),
        (lambda rho: evolve(rho, Heat(), 0.1), 90),
        (lambda rho: displace(rho, (0.4, -0.3)), 128),
    ], ids=["random", "heat", "translated"])
    def test_eigh_vectors_pair_with_eigvalsh_values(self, build, k):
        # The kept pairs are eigvalsh values and eigh vectors, matched by
        # index: both the residual |B v - lam v| and the gap to eigh's own
        # eigenvalues stay at the drivers' backward error.
        rho = build(random_state(128, 0, StateFamily.FULL_RANK))
        assert rho.block == k
        blk = rho.mat[:k, :k]
        vecs, lam = rho.block_vecs, rho.spectrum[:k]
        residual = np.linalg.norm(blk @ vecs - vecs * lam, axis=0)
        assert residual.max() <= 1e-15
        assert np.max(np.abs(np.linalg.eigh(blk)[0] - lam)) <= 1e-15

    @pytest.mark.parametrize("build", [
        lambda: thermal_state(1.0, 128),
        lambda: random_state(64, 3, StateFamily.DIAGONAL),
        lambda: fock_rearrangement(random_state(32, 3, StateFamily.FULL_RANK)),
        _with_last_row_coherence,
    ], ids=["thermal", "diagonal", "rearranged", "last-row"])
    def test_diagonal_and_full_block_states_match_whole_eigh(self, build):
        # Eigenvalues come from eigvalsh and eigenvectors from eigh, each of
        # the whole matrix when the block is empty or spans every level.
        rho = build()
        assert np.array_equal(np.sort(rho.spectrum),
                              np.linalg.eigvalsh(rho.mat))
        assert np.array_equal(dense_evecs(rho), np.linalg.eigh(rho.mat)[1])

    @pytest.mark.parametrize("dim", [32, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_decomposition_matches_whole_eigh(self, dim, seed):
        rho = random_state(dim, seed, StateFamily.FULL_RANK)
        states = [rho]
        if dim == 128:  # at dim 32 the heat flow reaches the edge band
            states += [s() for s in flow(Heat(), rho, (0.005, 0.05))]
        for state in states:
            evals = np.sort(state.spectrum)
            dense = np.linalg.eigh(state.mat)[0]
            assert np.max(np.abs(evals - dense)) <= 1e-15
            evecs = dense_evecs(state)
            rebuilt = (evecs * evals) @ evecs.conj().T
            assert np.max(np.abs(rebuilt - state.mat)) <= 1e-13
            for arr in (state.mat, state.spectrum, state.block_vecs):
                assert not arr.flags.writeable

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_only_the_block_holding_coherences_is_decomposed(
            self, seed, eigvalsh_shapes, eigh_shapes):
        rho = random_state(128, seed, StateFamily.FULL_RANK)
        assert eigvalsh_shapes == [(24, 24)]
        eigvalsh_shapes.clear()
        thermal_state(1.0, 128)
        random_state(128, seed, StateFamily.DIAGONAL)
        assert eigvalsh_shapes == []
        ks = []
        for state in flow(Heat(), rho, (0.005, 0.05)):
            out = state()
            (k, k2), = eigvalsh_shapes
            eigvalsh_shapes.clear()
            assert k == k2 == out.block
            # Vectors of the same block, on their first read only.
            assert eigh_shapes == []
            out.block_vecs
            out.block_vecs
            assert eigh_shapes == [(k, k)]
            eigh_shapes.clear()
            # The block ends at the first row past which the strict lower
            # triangle lies within eigh's backward error, 2^-53 max diag:
            # a propagator that leaves larger coherences there widens the
            # block and fails the pinned sizes below.
            lower = np.tril(out.mat, -1)
            bound = 2.0**-53 * out.mat.diagonal().real.max()
            assert np.linalg.norm(lower[k:]) <= bound
            assert np.linalg.norm(lower[k - 1:]) > bound
            ks.append(k)
        # At seed 2, t = 0.05, row 68 alone holds 5.8e-18 against a bound
        # of 5.0e-18.
        assert ks == [40, 69 if seed == 2 else 68]

    def test_block_follows_the_lower_triangle(self, eigvalsh_shapes):
        # eigvalsh and eigh read the lower triangle, so an entry there
        # widens the block even when its mirror is exactly 0 (within
        # HERMITICITY_TOL), and an entry above the diagonal alone does not.
        lower = random_state(16, 0, StateFamily.DIAGONAL).mat.copy()
        lower[9, 2] = 1e-13
        DensityMatrix(lower)
        assert eigvalsh_shapes == [(10, 10)]
        eigvalsh_shapes.clear()
        DensityMatrix(lower.T.copy())
        assert eigvalsh_shapes == []
        # An entry within the drivers' backward error, 2^-53 max diag, does
        # not.
        lower[12, 3] = 1e-20
        DensityMatrix(lower)
        assert eigvalsh_shapes == [(10, 10)]


def _thermal_with_last_row_coherence() -> DensityMatrix:
    # Like _with_last_row_coherence a full block (k = dim), but with the
    # thin edge band that quantum_fisher requires.
    m = thermal_state(1.0, 32).mat.copy()
    m[31, 0], m[0, 31] = 1e-8j, -1e-8j
    return DensityMatrix(m)


def _dense_log(mat: np.ndarray) -> np.ndarray:
    """log mat from a whole-matrix eigh, with log_spectrum's clip."""
    lam, v = np.linalg.eigh(mat)
    return (v * np.log(np.clip(lam, 1e-300, None))) @ v.conj().T


def _dense_entropy(mat: np.ndarray) -> float:
    lam = np.linalg.eigh(mat)[0]
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def _dense_fisher(mat: np.ndarray) -> float:
    lam, v = np.linalg.eigh(mat)
    log_lam = np.log(np.clip(lam, 1e-300, None))
    weight = (lam[:, None] - lam) * (log_lam[:, None] - log_lam)
    a_v = np.zeros_like(v)
    a_v[:-1] = np.sqrt(np.arange(1, len(lam)))[:, None] * v[1:]
    amp = v.conj().T @ a_v
    return 4.0 * math.pi * float(np.sum(np.abs(amp)**2 * weight))


def _dense_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    mu, v = np.linalg.eigh(sigma)
    overlaps = np.sum(v.conj() * (rho @ v), axis=0).real
    return -_dense_entropy(rho) - float(overlaps @ np.log(mu))


def _dense_rate(kind, rho: DensityMatrix, x: np.ndarray) -> float:
    return float(np.vdot(x, liouvillian_apply(kind, rho)).real)


class TestBlockFormReaders:
    """The readers of the block form against the same formulas on the
    whole-matrix eigh, for blocks of 0, 24, 68 or 69, and dim levels."""

    @pytest.fixture(params=[
        ("thermal", None), ("random", 0), ("random", 1), ("random", 2),
        ("heat", 0), ("heat", 1), ("heat", 2), ("last-row", None)],
        ids=lambda p: f"{p[0]}-{p[1]}" if p[1] is not None else p[0])
    def state(self, request):
        what, seed = request.param
        if what == "thermal":
            rho, k = thermal_state(2.0, 128), 0
        elif what == "last-row":
            rho, k = _thermal_with_last_row_coherence(), 32
        else:
            rho, k = random_state(128, seed, StateFamily.FULL_RANK), 24
            if what == "heat":
                rho, k = evolve(rho, Heat(), 0.05), 69 if seed == 2 else 68
        assert rho.block == k
        return rho

    def test_log_density(self, state):
        # Each side is the log of a matrix within a few units of
        # 2^-53 |rho|_2 of rho (the block form's cut and eigh's backward
        # error), and |log A - log B|_2 <= |A - B|_2 / lambda for A, B >=
        # lambda, from log A = int_0^inf (1 + s)^-1 - (A + s)^-1 ds.
        out = log_density(state, "test")
        lam = np.linalg.eigvalsh(state.mat)
        diff = np.linalg.norm(out - _dense_log(state.mat), 2)
        assert diff <= 8.0 * 2.0**-53 * lam[-1] / lam[0]
        if state.block == 0:  # no decomposition: the log of the diagonal
            diag = state.mat.diagonal().real
            assert np.array_equal(out, np.diag(np.log(diag)))

    def test_quantum_fisher(self, state):
        assert quantum_fisher(state).value == pytest.approx(
            _dense_fisher(state.mat), rel=1e-13)

    def test_entropy_rate(self, state):
        log_rho = _dense_log(state.mat)
        dense = -2.0 * _dense_rate(Heat(), state, log_rho)
        assert entropy_rate(state, Heat()) == pytest.approx(dense, rel=1e-13)

    def test_relent_decay_rate(self, state):
        mu, lam = math.sqrt(2.0), 1.0
        kind = QOU(mu, lam)
        log_rho = _dense_log(state.mat)
        log_sigma = _dense_log(thermal_state(kind.n_fixed, state.dim).mat)
        rate = _dense_rate(kind, state, log_rho - log_sigma)
        j_minus = -2.0 * _dense_rate(Attenuator(), state, log_rho)
        j_plus = -2.0 * _dense_rate(Amplifier(), state, log_rho)
        rhs = (0.5 * mu**2 * j_minus + 0.5 * lam**2 * j_plus
               + kind.zeta * _dense_entropy(state.mat)
               + lam**2 * math.log(kind.nu)
               + kind.zeta * math.log(1.0 - kind.nu))
        got = relent_decay_rate(state, kind)
        assert got == pytest.approx((rate, rhs), rel=1e-13)

    def test_relative_entropy(self, state):
        other = random_state(state.dim, 9, StateFamily.FULL_RANK)
        for rho, sigma in ((state, other), (other, state)):
            dense = _dense_relative_entropy(rho.mat, sigma.mat)
            assert relative_entropy(rho, sigma) == pytest.approx(
                dense, rel=1e-13)


class TestRandomState:
    @pytest.mark.parametrize("family", list(StateFamily))
    def test_invariants_and_determinism(self, family):
        r1 = random_state(32, 7, family)
        r2 = random_state(32, 7, family)
        assert np.array_equal(r1.mat, r2.mat)
        assert abs(np.trace(r1.mat).real - 1.0) <= 1e-10

    def test_full_rank_positive_spectrum(self):
        for seed in range(5):
            rho = random_state(64, seed, StateFamily.FULL_RANK)
            assert np.linalg.eigvalsh(rho.mat)[0] > 0

    def test_different_seeds_differ(self):
        a = random_state(16, 0, StateFamily.DIAGONAL)
        b = random_state(16, 1, StateFamily.DIAGONAL)
        assert not np.allclose(a.mat, b.mat)

    @pytest.mark.parametrize("dim, family, message", [
        (1, StateFamily.DIAGONAL, "dim must be >= 2"),
        (16, "diagonal", "unknown family 'diagonal'")])
    def test_rejects_invalid_arguments(self, dim, family, message):
        with pytest.raises(ValueError, match=message):
            random_state(dim, 0, family)


class TestEntropies:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(4))

    def test_thermal_matches_g(self):
        for n in (0.5, 2.0, 5.0):
            g = (n + 1) * math.log(n + 1) - n * math.log(n)
            assert von_neumann_entropy(thermal_state(n, 128)) == pytest.approx(g, abs=1e-7)

    def test_relative_entropy_self_is_zero(self):
        rho = random_state(16, 3, StateFamily.FULL_RANK)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_relative_entropy_vacuum_to_thermal(self):
        val = relative_entropy(number_state(0, 64), thermal_state(1.0, 64))
        assert val == pytest.approx(math.log(2), abs=1e-8)

    def test_relative_entropy_positive_distinct(self):
        assert relative_entropy(thermal_state(2.0, 64), thermal_state(1.0, 64)) > 0

    def test_relative_entropy_rank_deficient_reference(self):
        # The reference has exact zeros in its spectrum, but rho lies in its
        # support, so the value would rest on the clipped log of those zeros.
        sigma = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(IllConditionedError,
                           match="reference state rank-deficient"):
            relative_entropy(number_state(0, 4), sigma)

    def test_relative_entropy_dim_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(number_state(0, 8), number_state(0, 16))

    def test_relative_entropy_support_violation_is_inf(self):
        assert relative_entropy(number_state(1, 8), number_state(0, 8)) == math.inf

    def test_entropy_power_values(self):
        assert entropy_power(number_state(1, 16)) == pytest.approx(1.0)
        assert entropy_power(thermal_state(1.0, 64)) == pytest.approx(4.0, abs=1e-7)
        n = 20.0
        target = (n + 1) ** (n + 1) / n**n
        assert entropy_power(thermal_state(n, 512)) == pytest.approx(target, rel=1e-6)


class TestRearrangementAndMajorization:
    def test_number_state_rearranges_to_vacuum(self):
        out = fock_rearrangement(number_state(1, 8))
        assert np.allclose(out.mat, number_state(0, 8).mat)

    def test_diagonal_sorting(self):
        rho = DensityMatrix(np.diag([0.2, 0.5, 0.3]).astype(complex))
        assert np.allclose(np.diag(fock_rearrangement(rho).mat).real, [0.5, 0.3, 0.2])

    def test_rearrangement_preserves_entropy(self):
        rho = random_state(16, 11, StateFamily.FULL_RANK)
        assert von_neumann_entropy(fock_rearrangement(rho)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_rearrangement_never_increases_photon_number(self, seed):
        rho = random_state(16, seed, StateFamily.FULL_RANK)
        assert mean_photon(fock_rearrangement(rho)) <= mean_photon(rho) + 1e-10

    def test_self_majorization(self):
        p = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        assert np.allclose(majorizes(p, p), 0.0)

    def test_majorization_ordering(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        mixed = DensityMatrix(np.diag([0.5, 0.5]))
        assert majorizes(pure, mixed).tolist() == [0.5, 0.0]
        assert majorizes(mixed, pure).tolist() == [-0.5, 0.0]

    def test_full_majorization_by_rearrangement(self):
        rho = random_state(12, 2, StateFamily.FULL_RANK)
        margins = majorizes(fock_rearrangement(rho), rho)
        assert margins.min() >= -1e-10 and abs(margins[-1]) <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch: 2 vs 3"):
            majorizes(DensityMatrix(np.diag([0.5, 0.5])),
                      DensityMatrix(np.diag([0.2, 0.3, 0.5])))


class TestTruncationHealth:
    def test_vacuum_edge_mass_zero(self):
        assert state_edge_mass(number_state(0, 32).mat) == 0.0

    def test_thermal_edge_mass_tiny(self):
        assert state_edge_mass(thermal_state(1.0, 64).mat) < 1e-15
