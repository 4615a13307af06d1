import math
import re

import numpy as np
import pytest

from phaseineq.fisher import (
    classical_fisher_gaussian,
    quantum_fisher,
)
from phaseineq.fock_core import (
    DensityMatrix,
    FULL_RANK_EPS,
    IllConditionedError,
    StateFamily,
    TruncationError,
    geometric_weights,
    random_state,
    state_edge_mass,
    thermal_state,
    weyl_operator,
)
from phaseineq.gaussian import thermal_fisher_closed
from phaseineq.semigroups import (
    GaussianDensity, Heat, convolve, entropy_rate, standard_gaussian)

from fock_helpers import displace, number_state


def stencil_fisher(rho, h=1e-2):
    """Reference J(rho) from the definition: the trace of the Hessian of
    theta -> D(rho || W(theta) rho W(theta)^dag), by symmetric displaced
    divergences [D(+h) + D(-h)]/h^2 per axis and one Richardson step."""
    lam, vecs = np.linalg.eigh(rho.mat)
    log_lam = np.log(lam)

    def divergence_sum(step):
        total = 0.0
        for theta in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            w = weyl_operator(np.array(theta), rho.dim)
            conj = w.conj().T @ rho.mat @ w
            overlaps = np.real(np.einsum("ji,jk,ki->i", vecs.conj(), conj, vecs))
            total += float(lam @ log_lam - overlaps @ log_lam)
        return total / step**2

    return (4.0 * divergence_sum(0.5 * h) - divergence_sum(h)) / 3.0


def near_pure_state(dim: int, seed: int) -> DensityMatrix:
    """A random pure state on the lowest 24 levels mixed with 1e-6 of the
    full-rank floor that random_state adds: full rank, with a spectrum that
    spans about ten decades."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    v /= np.linalg.norm(v)
    floor = geometric_weights(max(4.0, dim / 6.0), dim)
    m = np.diag(FULL_RANK_EPS * (floor / floor.sum())).astype(complex)
    m[:24, :24] += (1.0 - FULL_RANK_EPS) * np.outer(v, v.conj())
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m / np.trace(m).real)


class TestQuantumFisher:
    def test_thermal_closed_form(self):
        for n in (0.5, 1.0, 2.0):
            est = quantum_fisher(thermal_state(n, 128))
            target = 4.0 * math.pi * math.log((n + 1) / n)
            assert est.value == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("rho", [
        thermal_state(1.0, 64),
        random_state(64, 3, StateFamily.FULL_RANK),
    ], ids=["thermal", "random"])
    def test_matches_displaced_divergence_definition(self, rho):
        assert quantum_fisher(rho).value == pytest.approx(
            stencil_fisher(rho), rel=1e-5)

    @pytest.mark.parametrize("rho", [
        random_state(128, 5, StateFamily.FULL_RANK),
        random_state(128, 5, StateFamily.DIAGONAL),
        near_pure_state(128, 5),
    ], ids=["full_rank", "diagonal", "pure_mixed_eps"])
    def test_de_bruijn_identity(self, rho):
        # J(rho) = 2 dS/dt along the heat flow at t = 0, both sides exact.
        assert quantum_fisher(rho).value == pytest.approx(
            entropy_rate(rho, Heat()), rel=1e-12)

    def test_displacement_invariance(self):
        rho = thermal_state(1.0, 128)
        shifted = displace(rho, np.array([0.05, -0.03]))
        assert quantum_fisher(shifted).value == pytest.approx(
            quantum_fisher(rho).value, rel=1e-4)

    def test_matches_gaussian_closed_form_helper(self):
        n = 2.0
        assert quantum_fisher(thermal_state(n, 128)).value == pytest.approx(
            thermal_fisher_closed(n), rel=1e-12)

    def test_rejects_rank_deficient(self):
        with pytest.raises(IllConditionedError):
            quantum_fisher(number_state(0, 32))

    def test_rejects_edge_heavy_state(self):
        # Full rank, but 1.4% of the mass sits in the top edge band.
        w = geometric_weights(8.0, 32)
        rho = DensityMatrix(np.diag(w / w.sum()).astype(complex))
        with pytest.raises(TruncationError):
            quantum_fisher(rho)

    def test_truncation_error_names_the_edge_mass(self):
        # At dim 12 the random core fills every level, the edge band too.
        rho = random_state(12, 0, StateFamily.FULL_RANK)
        edge = state_edge_mass(rho.mat)
        assert edge > 1e-2
        message = f"edge mass {edge:.3e} exceeds 1.0e-06; increase dim"
        with pytest.raises(TruncationError, match=re.escape(message)):
            quantum_fisher(rho)

    def test_random_states_beat_vacuum_bound(self):
        # The Fisher information of any state dominates the thermal value
        # at its own entropy; a crude sanity floor is strict positivity.
        for seed in range(3):
            rho = random_state(128, seed, StateFamily.FULL_RANK)
            assert quantum_fisher(rho).value > 0


class TestClassicalGaussian:
    def test_fisher_identity_covariance(self):
        assert classical_fisher_gaussian(standard_gaussian()) == pytest.approx(
            2.0)

    def test_fisher_general(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        f = GaussianDensity(mean=np.zeros(2), cov=cov)
        assert classical_fisher_gaussian(f) == pytest.approx(
            np.trace(np.linalg.inv(cov)))


class TestStamMargin:
    # Random states are the stam suite's cases (test_criterion_03).
    def test_nonnegative_on_thermal(self):
        f, rho, t = standard_gaussian(), thermal_state(1.0, 128), 0.05
        margin = (1.0 / quantum_fisher(convolve(f, rho, t)).value
                  - 1.0 / quantum_fisher(rho).value
                  - t / classical_fisher_gaussian(f))
        assert margin >= -1e-3
