"""States that only the tests build, number states and translated states,
the dense eigenvectors of a state's block form, and the dense ladder and
quadrature operators that reference computations assemble."""

import math

import numpy as np

from phaseineq.fock_core import DensityMatrix, weyl_operator

SQRT_2PI = math.sqrt(2.0 * math.pi)


def ladder_operators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number operators on the truncated basis.

    a|n> = sqrt(n)|n-1>, a_dag = a^dagger, n_op = a_dag a = diag(0..dim-1).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    a_dag = a.conj().T.copy()
    n_op = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return a, a_dag, n_op


def quadrature_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum: Q = (a + a_dag)/sqrt(2), P = (a - a_dag)/(i sqrt(2))."""
    a, a_dag, _ = ladder_operators(dim)
    q = (a + a_dag) / math.sqrt(2.0)
    p = (a - a_dag) / (1j * math.sqrt(2.0))
    return q, p


def displace(rho: DensityMatrix, theta) -> DensityMatrix:
    """Translated state W(theta) rho W(theta)^dagger."""
    w = weyl_operator(theta, rho.dim)
    out = w @ rho.mat @ w.conj().T
    out = 0.5 * (out + out.conj().T)
    out /= np.trace(out).real
    return DensityMatrix(out)


def number_state(n: int, dim: int) -> DensityMatrix:
    """|n><n| on the truncated basis."""
    if not 0 <= n < dim:
        raise ValueError(f"number state index {n} out of range for dim {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[n, n] = 1.0
    return DensityMatrix(m)


def dense_evecs(rho: DensityMatrix) -> np.ndarray:
    """The dim x dim eigenvector matrix of rho's block form, columns in
    ascending order of rho.spectrum (stable, so ties keep block order): the
    block's eigenvectors on its k levels, and the unit vector e_j for each
    later level j."""
    k = rho.block
    order = np.argsort(rho.spectrum, kind="stable")
    in_block = order < k
    evecs = np.zeros((rho.dim, rho.dim), dtype=complex)
    evecs[:k, in_block] = rho.block_vecs[:, order[in_block]]
    tail = np.flatnonzero(~in_block)
    evecs[order[tail], tail] = 1.0
    return evecs
