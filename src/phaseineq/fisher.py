"""Quantum Fisher information of phase-space translations, and classical
Gaussian calculus.

J(rho) is the trace of the Hessian of theta -> D(rho || W(theta) rho
W(theta)^dag) at theta = 0.  That Hessian is the Bogoliubov-Kubo-Mori
metric of the generators (Petz, "Monotone metrics on matrix spaces",
Lin. Alg. Appl. 244, 1996), so with rho = V diag(lambda) V^dag

    J(rho) = 2 pi sum_{R in {Q, P}} sum_{a,b} |(V^dag R V)_ab|^2
             (lambda_a - lambda_b)(log lambda_a - log lambda_b),

exact on the truncated space.  Only the trace of the Fisher matrix is
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import DensityMatrix, check_edge_mass, log_spectrum
from .semigroups import GaussianDensity


@dataclass(frozen=True)
class FisherEstimate:
    value: float


def quantum_fisher(rho: DensityMatrix) -> FisherEstimate:
    """Fisher information of the phase-space translation family of rho;
    TruncationError (`fock_core.check_edge_mass`) when rho holds more than
    EDGE_TOL in its edge band, IllConditionedError unless it is full rank."""
    log_lam = log_spectrum(rho, "quantum_fisher")
    # The truncated quadratures act on rho itself, so rho's own edge band
    # bounds the truncation error.
    check_edge_mass(rho.mat, "increase dim")
    lam, vecs, k = rho.spectrum, rho.block_vecs, rho.block

    def weight(i, j):
        return (lam[i] - lam[j]) * (log_lam[i] - log_lam[j])

    # With A = V^dag a V, |Q_ab|^2 + |P_ab|^2 = |A_ab|^2 + |A_ba|^2 and the
    # weight is symmetric, so one basis change of the annihilator suffices.
    # a|n> = sqrt(n)|n-1> keeps the block's levels inside it, so A has
    # three parts: the block's k x k product (row n-1 of aV is sqrt(n)
    # times row n of V), <v_b|a|k> = sqrt(k) conj(V[k-1, b]) from level k
    # into the block, and sqrt(n+1) from each later level n + 1 to n.
    a_vecs = np.zeros_like(vecs)
    a_vecs[:-1] = np.sqrt(np.arange(1, k))[:, None] * vecs[1:]
    amp = vecs.conj().T @ a_vecs
    blk = np.arange(k)
    total = np.sum((amp.real**2 + amp.imag**2) * weight(blk[:, None], blk))
    if 0 < k < rho.dim:
        last = vecs[-1].real**2 + vecs[-1].imag**2
        total += k * (last @ weight(blk, k))
    n = np.arange(k, rho.dim - 1)
    total += (n + 1.0) @ weight(n, n + 1)
    value = 4.0 * math.pi * float(total)
    return FisherEstimate(value=value)


def classical_fisher_gaussian(f: GaussianDensity) -> float:
    """Translation-family Fisher information of a Gaussian density: tr(cov^-1)."""
    return float(np.trace(np.linalg.inv(f.cov)))

