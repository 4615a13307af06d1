"""States that only the tests build: number states and translated states."""

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
