"""Heat, attenuator, amplifier and quantum Ornstein-Uhlenbeck semigroups.

Every flow here is the exponential of one sparse generator on row-major
vec(rho),

    mu^2 L_- + lam^2 L_+ + pi conj(s) [a, [a, .]] + pi s [a_dag, [a_dag, .]],

built from its diagonals.  The four semigroups have s = 0 and carry their
rates (mu^2, lam^2): (2 pi, 2 pi) for Heat, (1, 0) for the attenuator, (0, 1)
for the amplifier and (mu^2, lam^2) for the qOU.  The classical-quantum
convolution of a Gaussian density with mean m and covariance C is
e^{t L_C} followed by a translation by sqrt(t) m, where
L_C = -pi sum_jk C_jk [G_j, [G_k, .]] with G = (P, -Q) splits into the
isotropic part pi tr C (L_- + L_+) and the traceless part with
s = (C_11 - C_22)/2 + i C_12.  Finite atom mixtures are exact weighted
sums of displaced states.

Two helpers apply the exponential exactly (to double precision) on the
truncated space.  The isotropic flows, Heat and the Gaussian convolution
with C proportional to the identity, are r (L_- + L_+): it maps each band
rho_{i,i+k} into itself as a real symmetric tridiagonal matrix, so one
eigendecomposition per band gives e^{tL} at any t (`_isotropic_propagate`).
Every other flow (the attenuator, the amplifier, the qOU, an anisotropic
Gaussian and the classical death process) goes through the sparse action
of the exponential (`_propagate`): its bands are not symmetric, and there
the sparse action is faster than a dense exponential of each band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import expm_multiply

from .fock_core import (
    EDGE_TOL,
    DensityMatrix,
    TruncationError,
    full_rank_eigh,
    state_edge_mass,
    thermal_state,
    von_neumann_entropy,
    weyl_operator,
)

# The generators conserve trace exactly; a larger drift means the
# exponential's action lost accuracy.
_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class Heat:
    """Quantum heat diffusion: L(rho) = -pi sum_j [R_j, [R_j, rho]]."""
    rates = (2.0 * math.pi, 2.0 * math.pi)


@dataclass(frozen=True)
class Attenuator:
    """Photon loss: L(rho) = a rho a_dag - (1/2){a_dag a, rho}."""
    rates = (1.0, 0.0)


@dataclass(frozen=True)
class Amplifier:
    """Photon gain: L(rho) = a_dag rho a - (1/2){a a_dag, rho}."""
    rates = (0.0, 1.0)


@dataclass(frozen=True)
class QOU:
    """Ornstein-Uhlenbeck mixture mu^2 L_- + lam^2 L_+ with mu > lam > 0."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (self.mu > self.lam > 0):
            raise ValueError(f"QOU requires mu > lam > 0, got {self.mu}, {self.lam}")

    @property
    def rates(self) -> tuple[float, float]:
        return self.mu**2, self.lam**2

    @property
    def nu(self) -> float:
        return self.lam**2 / self.mu**2

    @property
    def zeta(self) -> float:
        return self.mu**2 - self.lam**2

    @property
    def n_fixed(self) -> float:
        return self.lam**2 / self.zeta


SemigroupKind = Heat | Attenuator | Amplifier | QOU


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian phase-space density with mean (2,) and SPD covariance (2,2)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("GaussianDensity needs a 2-vector mean and 2x2 cov")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov)[0] <= 0:
            raise ValueError("covariance must be positive definite")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class AtomMixture:
    """Finite mixture of phase-space points with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[1] != 2 or w.shape != (pts.shape[0],):
            raise ValueError("points must be (m, 2) and weights (m,)")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


PhaseDensity = GaussianDensity | AtomMixture


def standard_gaussian() -> GaussianDensity:
    """The unit-variance centered density f_Z."""
    return GaussianDensity(mean=np.zeros(2), cov=np.eye(2))


def _generator(mu2: float, lam2: float, dim: int,
               s: complex = 0.0) -> sp.csr_matrix:
    """mu^2 L_- + lam^2 L_+ + pi conj(s) [a, [a, .]] + pi s [a_dag, [a_dag, .]]
    as a sparse matrix on row-major vec(rho), built from its diagonals.

    a rho a_dag moves entry (i+1, j+1) to (i, j) with weight
    sqrt((i+1)(j+1)), a_dag rho a moves (i-1, j-1) to (i, j) with weight
    sqrt(i j), and the anticommutators are diagonal: the diagonals 0 and
    +-(dim+1).  The truncated a a_dag is diag(1, ..., dim-1, 0), which makes
    Heat = 2 pi (L_- + L_+) equal to -pi sum_j [R_j, [R_j, .]] on the
    truncated space.  [a, [a, rho]] = a^2 rho - 2 a rho a + rho a^2 adds the
    diagonals 2 dim, dim-1 and -2, and its adjoint counterpart -2 dim,
    -(dim-1) and 2; at dim 3 the offsets dim-1 and 2 coincide and add.

    L_C = -pi sum_jk C_jk [G_j, [G_k, .]] with G = (P, -Q) is this generator
    at mu^2 = lam^2 = pi tr C and s = (C_11 - C_22)/2 + i C_12, exactly on
    the truncated space, because P^2 - Q^2 = -(a^2 + a_dag^2) and
    PQ + QP = -i (a^2 - a_dag^2) hold for the truncated matrices too.
    """
    n = np.arange(dim, dtype=float)
    up = n + 1.0
    up[-1] = 0.0
    size = dim * dim

    def band(coef: np.ndarray, offset: int) -> np.ndarray:
        # coef[i, j] weighs entry (i, j) + offset of vec(rho) into entry (i, j).
        flat = np.broadcast_to(coef, (dim, dim)).ravel()
        return flat[:size - offset] if offset >= 0 else flat[-offset:]

    diag = -0.5 * (mu2 * np.add.outer(n, n) + lam2 * np.add.outer(up, up))
    bands = {
        -(dim + 1): band(lam2 * np.sqrt(np.outer(n, n)), -(dim + 1)),
        0: band(diag, 0),
        dim + 1: band(mu2 * np.sqrt(np.outer(up, up)), dim + 1),
    }
    if s:
        # (a^2)_{i,i+2} and (a_dag^2)_{i,i-2}.
        two_down = np.sqrt(up * np.append(up[1:], 0.0))
        two_up = np.sqrt(n * np.append(0.0, n[:-1]))
        lower, raise_ = math.pi * np.conj(s), math.pi * s
        for coef, offset in (
                (lower * two_down[:, None], 2 * dim),
                (-2.0 * lower * np.sqrt(np.outer(up, n)), dim - 1),
                (lower * two_up[None, :], -2),
                (raise_ * two_up[:, None], -2 * dim),
                (-2.0 * raise_ * np.sqrt(np.outer(n, up)), -(dim - 1)),
                (raise_ * two_down[None, :], 2)):
            bands[offset] = bands.get(offset, 0.0) + band(coef, offset)
    return sp.diags(list(bands.values()), list(bands), shape=(size, size),
                    format="csr")


def _propagate(gen: sp.spmatrix, x: np.ndarray, t: float) -> np.ndarray:
    """e^{t gen} applied to x flattened row-major, reshaped like x.

    Serves the generators whose bands are not symmetric: the attenuator,
    the amplifier, the qOU, the anisotropic Gaussian (s != 0, which also
    couples band k to k +- 2) and the death process.  A diagonal similarity
    would symmetrize the qOU bands only at a factor (mu/lam)^dim, 2^64 at
    dim 128 for the default mu = sqrt 2, lam = 1, and a dense exponential
    per band costs 3 to 11 times this sparse action at dim 128 and t <= 0.1.

    Uses the Al-Mohy-Higham action of the matrix exponential, which picks
    its Taylor degree and step count to reach double-precision accuracy.
    That choice rests on norm estimates drawn with numpy's global random
    generator, and a different step count moves the result by roundoff;
    a fixed seed, with the caller's state restored afterwards, makes the
    result repeat bit for bit.
    """
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        out = expm_multiply(t * gen, x.ravel())
    finally:
        np.random.set_state(saved)
    return out.reshape(x.shape)


def _isotropic_propagate(x: np.ndarray, tau: float) -> np.ndarray:
    """e^{tau (L_- + L_+)} applied to the Hermitian part of the square x.

    L_- + L_+ maps each band x_{i,i+k}, k >= 0, into itself, where it acts
    as the real symmetric tridiagonal T_k with diagonal
    -(i + (i+k) + up(i) + up(i+k))/2 and off-diagonal sqrt((i+1)(i+k+1)):
    the diagonals 0 and +-(dim+1) of `_generator` restricted to the band,
    with up(m) = m + 1 except up(dim-1) = 0.  So band_k becomes
    V e^{tau Lambda} V^T band_k from one eigendecomposition of T_k, exact
    to roundoff at every tau with no step selection.  A band that is
    exactly zero stays zero and is skipped; the bands below the diagonal
    are the conjugates of those above.
    """
    dim = x.shape[0]
    herm = 0.5 * (x + x.conj().T)
    n = np.arange(dim, dtype=float)
    up = n + 1.0
    up[-1] = 0.0
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    for k in range(dim):
        band = np.diagonal(herm, k)
        if not band.any():
            continue
        size = dim - k
        lam, vecs = eigh_tridiagonal(
            -0.5 * (n[:size] + n[k:] + up[:size] + up[k:]),
            np.sqrt(n[1:size] * n[k + 1:]))
        parts = np.stack((band.real, band.imag), axis=1)
        parts = vecs @ (np.exp(tau * lam)[:, None] * (vecs.T @ parts))
        band = parts[:, 0] + 1j * parts[:, 1]
        # Entries (i + k, i), then (i, i + k), so the diagonal keeps band.
        flat[k * dim::dim + 1][:size] = band.conj()
        flat[k::dim + 1][:size] = band
    return out


def _flow(x: np.ndarray, t: float, mu2: float, lam2: float,
          s: complex = 0.0) -> np.ndarray:
    """e^{t L}(x) for L = `_generator(mu2, lam2, dim, s)`: band by band when
    L is isotropic (mu2 = lam2 and s = 0), by the sparse action otherwise."""
    if mu2 == lam2 and s == 0:
        return _isotropic_propagate(x, mu2 * t)
    return _propagate(_generator(mu2, lam2, x.shape[0], s), x, t)


def _checked_state(x: np.ndarray, what: str, edges: bool = True) -> DensityMatrix:
    x = 0.5 * (x + x.conj().T)
    trace = np.trace(x).real
    drift = abs(trace - 1.0)
    if drift > _TRACE_TOL:
        raise RuntimeError(f"{what}: trace drift {drift:.3e} exceeds "
                           f"{_TRACE_TOL:.1e}")
    edge = state_edge_mass(x)
    if edges and edge > EDGE_TOL:
        raise TruncationError(
            f"{what} pushed edge mass {edge:.3e} beyond {EDGE_TOL:.1e}; "
            f"increase dim or reduce t"
        )
    return DensityMatrix(x / trace)


def liouvillian_apply(kind: SemigroupKind, rho: DensityMatrix) -> np.ndarray:
    """L(rho) for the requested semigroup; Hermitian and traceless."""
    if rho.dim < 4:
        raise ValueError(f"dim must be >= 4, got {rho.dim}")
    out = (_generator(*kind.rates, rho.dim) @ rho.mat.ravel()).reshape(
        rho.mat.shape)
    return 0.5 * (out + out.conj().T)


def evolve(rho: DensityMatrix, kind: SemigroupKind, t: float) -> DensityMatrix:
    """e^{tL}(rho), exact to double precision: band by band for Heat, by
    the sparse action of the generator's exponential otherwise.

    Raises TruncationError when a flow with gain (lam^2 > 0) leaves more
    than EDGE_TOL in the top edge band of the basis; pure loss maps the
    truncated space into itself, so no edge check applies.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return rho
    mu2, lam2 = kind.rates
    x = _flow(rho.mat, t, mu2, lam2)
    return _checked_state(x, "evolution", edges=lam2 > 0)


def convolve(f: PhaseDensity, rho: DensityMatrix, t: float) -> DensityMatrix:
    """Classical-quantum convolution f *_t rho.

    Atom mixtures are exact weighted sums of displaced states.  For a
    Gaussian density with mean m and covariance C,
    f *_t rho = W(sqrt(t) m) e^{t L_C}(rho) W(sqrt(t) m)^dag, the quantum
    heat semigroup with diffusion matrix C followed by a translation; for
    C proportional to the identity it is the Heat flow's band propagator,
    and a zero translation is skipped.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    dim = rho.dim
    st = math.sqrt(t)
    if isinstance(f, AtomMixture):
        out = np.zeros((dim, dim), dtype=complex)
        for pt, wgt in zip(f.points, f.weights):
            if wgt == 0.0:
                continue
            w = weyl_operator(st * pt, dim)
            out += wgt * (w @ rho.mat @ w.conj().T)
    elif isinstance(f, GaussianDensity):
        c = f.cov
        iso = math.pi * np.trace(c)
        out = _flow(rho.mat, t, iso, iso,
                    0.5 * (c[0, 0] - c[1, 1]) + 1j * c[0, 1])
        shift = st * f.mean
        if shift.any():
            w = weyl_operator(shift, dim)
            out = w @ out @ w.conj().T
    else:
        raise TypeError(f"unknown phase density {f!r}")
    return _checked_state(out, "convolution")


def _log_density(rho: DensityMatrix) -> np.ndarray:
    lam, vecs = full_rank_eigh(rho, "entropy rate")
    return (vecs * np.log(np.clip(lam, 1e-300, None))) @ vecs.conj().T


def entropy_rate(rho: DensityMatrix, kind: SemigroupKind) -> float:
    """2 dS/dt at t = 0 under e^{tL}: the algebraic derivative
    -2 tr(L(rho) log rho), exact at t = 0."""
    log_rho = _log_density(rho)
    lind = liouvillian_apply(kind, rho)
    return -2.0 * float(np.trace(lind @ log_rho).real)


def relent_decay_rate(rho: DensityMatrix, mu: float,
                      lam: float) -> tuple[float, float]:
    """(d/dt D(e^{tL}rho || sigma) at 0, assembled decay-identity RHS).

    The rate is the algebraic derivative tr(L(rho)(log rho - log sigma)).
    The second element is mu^2/2 J_- + lam^2/2 J_+ + zeta S + lam^2 log nu
    + zeta log(1 - nu), built from independent entropy-rate calls, which
    must equal -zeta D(rho||sigma) - dD/dt.
    """
    kind = QOU(mu, lam)
    sigma = thermal_state(kind.n_fixed, rho.dim)
    lind = liouvillian_apply(kind, rho)
    rate = float(np.trace(lind @ (_log_density(rho) - _log_density(sigma))).real)

    j_minus = entropy_rate(rho, Attenuator())
    j_plus = entropy_rate(rho, Amplifier())
    zeta, nu = kind.zeta, kind.nu
    rhs = (0.5 * mu**2 * j_minus + 0.5 * lam**2 * j_plus
           + zeta * von_neumann_entropy(rho)
           + lam**2 * math.log(nu) + zeta * math.log(1.0 - nu))
    return rate, rhs
