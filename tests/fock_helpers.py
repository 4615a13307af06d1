"""States that only the tests build, number states and translated states,
and the dense eigenvectors of a state's block form."""

import numpy as np

from phaseineq.fock_core import DensityMatrix, weyl_operator


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
    """The dim x dim eigenvector matrix of rho's block form, columns in the
    order of rho.evals: the block's eigenvectors on its k levels, and the
    unit vector e_j for each later level j."""
    k = rho.block
    order = np.argsort(rho.spectrum, kind="stable")
    in_block = order < k
    evecs = np.zeros((rho.dim, rho.dim), dtype=complex)
    evecs[:k, in_block] = rho.block_vecs[:, order[in_block]]
    tail = np.flatnonzero(~in_block)
    evecs[order[tail], tail] = 1.0
    return evecs
