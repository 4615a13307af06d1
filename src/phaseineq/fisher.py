"""Divergence-based quantum Fisher information and classical Gaussian calculus.

J(rho) is the trace of the Hessian of theta -> D(rho || W(theta) rho
W(theta)^dag) at theta = 0, estimated by symmetric displacement stencils
with one Richardson step.  Only the trace of the Fisher matrix is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import (
    DensityMatrix,
    IllConditionedError,
    TruncationError,
    displace,
    state_edge_mass,
    weyl_operator,
)
from .semigroups import GaussianDensity, PhaseDensity, convolve

DEFAULT_STENCIL_H = 1e-2


@dataclass(frozen=True)
class FisherEstimate:
    value: float
    stencil_h: float
    error_estimate: float


def _divergence_sum(rho: DensityMatrix, h: float) -> float:
    # [D(+h) + D(-h)]/h^2 per axis estimates J_jj + O(h^2): the divergence
    # vanishes to first order at theta = 0.  Since the reference is the
    # unitary conjugation W rho W^dag, use log(W rho W^dag) = W log(rho) W^dag
    # and rho's own eigenbasis: this avoids re-diagonalizing near-singular
    # displaced matrices (thermal tails underflow) and is exact.
    lam, vecs = np.linalg.eigh(rho.mat)
    lam = np.clip(lam, 1e-300, None)
    log_lam = np.log(lam)
    tr_rho_log_rho = float(lam @ log_lam)
    total = 0.0
    for axis in range(2):
        theta = np.zeros(2)
        for sign in (1.0, -1.0):
            theta[axis] = sign * h
            w = weyl_operator(theta, rho.dim)
            conj = w.conj().T @ rho.mat @ w
            overlaps = np.real(np.einsum("ji,jk,ki->i", vecs.conj(), conj, vecs))
            total += tr_rho_log_rho - float(overlaps @ log_lam)
        theta[axis] = 0.0
    return total / h**2


def quantum_fisher(rho: DensityMatrix, h: float = DEFAULT_STENCIL_H,
                   edge_tol: float = 1e-6) -> FisherEstimate:
    """Fisher information of the phase-space translation family of rho."""
    if not 1e-4 <= h <= 1e-1:
        raise ValueError(f"h must lie in [1e-4, 1e-1], got {h}")
    evals = np.linalg.eigvalsh(rho.mat)
    # Only rank deficiency is fatal (the divergence Hessian blows up): an
    # exactly-zero smallest eigenvalue, or a negative one beyond roundoff.
    # Tiny negatives from unitary conjugation of deep thermal tails are
    # roundoff images of positive eigenvalues and are harmless.
    if evals[0] == 0.0 or evals[0] <= -1e-12:
        raise IllConditionedError(
            f"quantum_fisher needs a full-rank state (min eigenvalue {evals[0]:.3e})"
        )
    probe = displace(rho, np.array([h, 0.0]))
    if state_edge_mass(probe.mat) > edge_tol:
        raise TruncationError(
            f"displaced state edge mass exceeds {edge_tol:.1e}; increase dim"
        )
    coarse = _divergence_sum(rho, h)
    fine = _divergence_sum(rho, 0.5 * h)
    value = (4.0 * fine - coarse) / 3.0
    return FisherEstimate(value=value, stencil_h=h,
                          error_estimate=abs(fine - coarse) / 3.0)


def classical_fisher_gaussian(cov) -> float:
    """Translation-family Fisher information of a Gaussian density: tr(cov^-1)."""
    cov = np.asarray(cov, dtype=float)
    if np.linalg.eigvalsh(cov)[0] <= 0:
        raise ValueError("covariance must be positive definite")
    return float(np.trace(np.linalg.inv(cov)))


def gaussian_density_entropy(cov) -> float:
    """Differential entropy of a 2D Gaussian: 1 + log(2 pi) + log(det cov)/2."""
    cov = np.asarray(cov, dtype=float)
    det = float(np.linalg.det(cov))
    if det <= 0 or np.linalg.eigvalsh(cov)[0] <= 0:
        raise ValueError("covariance must be positive definite")
    return 1.0 + math.log(2.0 * math.pi) + 0.5 * math.log(det)


def stam_margin(f: PhaseDensity, rho: DensityMatrix, t: float,
                h: float = DEFAULT_STENCIL_H) -> float:
    """Signed slack J(f *_t rho)^-1 - J(rho)^-1 - t J(f)^-1 (>= 0 expected)."""
    if not isinstance(f, GaussianDensity):
        raise ValueError("Stam margin is computed for Gaussian densities only")
    conv = convolve(f, rho, t)
    j_conv = quantum_fisher(conv, h).value
    j_rho = quantum_fisher(rho, h).value
    j_f = classical_fisher_gaussian(f.cov)
    return 1.0 / j_conv - 1.0 / j_rho - t / j_f
