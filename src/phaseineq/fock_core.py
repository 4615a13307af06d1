"""Truncated single-mode Fock-space numerics.

States, ladder/Weyl operators, entropies, photon statistics, passive
rearrangement and majorization relations on a finite number basis
{|0>, ..., |N-1>}.

Conventions: natural logarithms (nats) throughout, [Q, P] = i, vacuum
<Q^2> = 1/2, and W(xi) = exp(i sqrt(2 pi) xi . (sigma R)) with
sigma = [[0, 1], [-1, 0]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# Eigenvalues in [-PSD_TOL, 0) are treated as roundoff and clamped to 0
# before logs; anything more negative is a hard invariant violation.
# Largest geometric tail mass a truncated thermal state may drop.
LEAKAGE_TOL = 1e-9
# Largest mass a state may hold in the top edge band of the basis before
# the truncated operators acting on it count as inaccurate.
EDGE_TOL = 1e-6
FULL_RANK_EPS = 1e-6

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TruncationError(RuntimeError):
    """Raised when the configured truncation cannot represent a state."""

    def __init__(self, message: str, min_adequate_dim: int | None = None):
        super().__init__(message)
        self.min_adequate_dim = min_adequate_dim


class IllConditionedError(ValueError):
    """Raised when a reference state is too close to rank-deficient."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace complex matrix on the truncated basis."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        herm_defect = np.max(np.abs(m - m.conj().T))
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: defect {herm_defect:.3e}")
        trace_defect = abs(np.trace(m).real - 1.0)
        if trace_defect > TRACE_TOL:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"not PSD: min eigenvalue {min_eig:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class HealthMetrics:
    """Truncation diagnostics for a state or operator."""

    edge_mass: float
    unitarity_defect: float | None = None
    trace_drift: float | None = None


class MajorizationMode(Enum):
    WEAK_SUB = "weak_sub"
    FULL = "full"
    FOCK = "fock"


class StateFamily(Enum):
    FULL_RANK = "full_rank"
    DIAGONAL = "diagonal"
    PURE_MIXED_EPS = "pure_mixed_eps"


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


def weyl_operator(xi, dim: int) -> np.ndarray:
    """Displacement unitary W(xi) = exp(i sqrt(2 pi) (xi_1 P - xi_2 Q)).

    Computed by Hermitian eigendecomposition of the generator, so the result
    is exactly unitary up to truncation leakage at the basis edge.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,) or not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must be a finite 2-vector, got {xi!r}")
    q, p = quadrature_operators(dim)
    gen = SQRT_2PI * (xi[0] * p - xi[1] * q)
    evals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


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


def geometric_weights(nbar: float, dim: int) -> np.ndarray:
    """Unnormalized geometric populations (1/(nbar+1)) (nbar/(nbar+1))^j;
    at nbar = 0, 0**0 = 1 gives the vacuum."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    r = nbar / (nbar + 1.0)
    return (1.0 / (nbar + 1.0)) * r ** np.arange(dim)


def geometric_law(nbar: float, dim: int) -> np.ndarray:
    """Geometric populations with mean nbar on {0, ..., dim-1}, renormalized.

    Raises TruncationError (with the minimal adequate dim, the support
    size) when the geometric tail beyond level dim-1 exceeds LEAKAGE_TOL.
    """
    w = geometric_weights(nbar, dim)
    r = nbar / (nbar + 1.0)
    tail = r**dim
    if tail > LEAKAGE_TOL:
        min_dim = int(math.ceil(math.log(LEAKAGE_TOL) / math.log(r)))
        raise TruncationError(
            f"geometric tail mass {tail:.3e} exceeds {LEAKAGE_TOL:.1e} at "
            f"support size {dim}; need support size >= {min_dim}",
            min_adequate_dim=min_dim,
        )
    return w / w.sum()


def thermal_state(nbar: float, dim: int) -> DensityMatrix:
    """Thermal state with mean photon number nbar; see geometric_law."""
    return DensityMatrix(np.diag(geometric_law(nbar, dim)).astype(complex))


def _full_rank_floor(dim: int) -> np.ndarray:
    # Flat-enough geometric admixture: keeps the smallest eigenvalue of the
    # epsilon-mixture above ~1e-12 while leaving the edge mass negligible.
    nbar = max(4.0, dim / 6.0)
    w = geometric_weights(nbar, dim)
    return w / w.sum()


def _interior_support(dim: int) -> int:
    # Random states live on the lowest levels so that displacement and heat
    # evolution do not push mass into the truncation edge.
    return dim if dim <= 24 else 24


def random_state(dim: int, seed: int, family: StateFamily) -> DensityMatrix:
    """Deterministic random test state of the requested family."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    d0 = _interior_support(dim)
    floor = _full_rank_floor(dim)
    if family is StateFamily.FULL_RANK:
        g = rng.standard_normal((d0, d0)) + 1j * rng.standard_normal((d0, d0))
        core = g @ g.conj().T
        core /= np.trace(core).real
        m = np.diag(FULL_RANK_EPS * floor).astype(complex)
        m[:d0, :d0] += (1.0 - FULL_RANK_EPS) * core
    elif family is StateFamily.DIAGONAL:
        p = rng.standard_normal(d0) ** 2
        p /= p.sum()
        diag = FULL_RANK_EPS * floor
        diag[:d0] += (1.0 - FULL_RANK_EPS) * p
        m = np.diag(diag).astype(complex)
    elif family is StateFamily.PURE_MIXED_EPS:
        v = rng.standard_normal(d0) + 1j * rng.standard_normal(d0)
        v /= np.linalg.norm(v)
        m = np.diag(FULL_RANK_EPS * floor).astype(complex)
        m[:d0, :d0] += (1.0 - FULL_RANK_EPS) * np.outer(v, v.conj())
    else:
        raise ValueError(f"unknown family {family!r}")
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    return DensityMatrix(m)


def clamped_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues with roundoff negatives clamped to zero."""
    evals = np.linalg.eigvalsh(rho.mat)
    if evals[0] < -PSD_TOL:
        raise ValueError(f"spectrum below PSD tolerance: {evals[0]:.3e}")
    return np.clip(evals, 0.0, None)


def full_rank_eigh(rho: DensityMatrix, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of rho for a log weight; IllConditionedError unless
    rho is full rank.

    Only rank deficiency is fatal (the log diverges): an exactly-zero
    smallest eigenvalue, or a negative one beyond roundoff.  Tiny negatives
    in deep thermal tails are roundoff images of positive eigenvalues and
    contribute finitely once clipped.
    """
    lam, vecs = np.linalg.eigh(rho.mat)
    if lam[0] == 0.0 or lam[0] <= -1e-12:
        raise IllConditionedError(
            f"{what} needs a full-rank state (min eigenvalue {lam[0]:.3e})"
        )
    return lam, vecs


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda log lambda in nats, with 0 log 0 = 0."""
    lam = clamped_spectrum(rho)
    nz = lam[lam > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho||sigma) = tr(rho log rho) - tr(rho log sigma) in nats.

    Returns +inf when rho has support outside the numerical support of
    sigma; raises IllConditionedError when sigma is rank-deficient but rho
    fits inside its support (the value would be dominated by roundoff).
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dim mismatch: {rho.dim} vs {sigma.dim}")
    mu, v = np.linalg.eigh(sigma.mat)
    overlaps = np.real(np.einsum("ji,jk,ki->i", v.conj(), rho.mat, v))
    if mu[0] <= 0.0:
        # rho carrying mass on the numerical null space means the divergence
        # genuinely diverges; tiny-but-positive tail eigenvalues (e.g. of a
        # truncated thermal state) stay in the log and contribute finitely.
        null = mu <= 0.0
        if float(overlaps[null].sum()) > 1e-10:
            return math.inf
        raise IllConditionedError(
            f"reference state rank-deficient (min eigenvalue {mu[0]:.3e})"
        )
    lam = clamped_spectrum(rho)
    nz = lam[lam > 0.0]
    tr_rho_log_rho = float(np.sum(nz * np.log(nz)))
    tr_rho_log_sigma = float(overlaps @ np.log(mu))
    return tr_rho_log_rho - tr_rho_log_sigma


def entropy_power(rho: DensityMatrix) -> float:
    """N(rho) = exp(S(rho)) for a single mode."""
    return math.exp(von_neumann_entropy(rho))


def mean_photon(rho: DensityMatrix) -> float:
    """tr(rho n_hat)."""
    return float(np.real(np.diag(rho.mat) @ np.arange(rho.dim)))


def fock_rearrangement(rho: DensityMatrix) -> DensityMatrix:
    """Passive rearrangement: decreasing spectrum placed on the number basis."""
    lam = clamped_spectrum(rho)
    lam = np.sort(lam)[::-1]
    return DensityMatrix(np.diag(lam / lam.sum()).astype(complex))


def _decreasing_spectrum(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return np.sort(clamped_spectrum(x))[::-1]
    arr = np.asarray(x, dtype=float)
    return np.sort(arr)[::-1]


def majorizes(p, q, mode: MajorizationMode,
              tol: float = 1e-10) -> tuple[bool, np.ndarray]:
    """Does p majorize q in the requested mode?  Returns (verdict, margins).

    WEAK_SUB / FULL compare partial sums of decreasing-sorted spectra
    (margins[n] = sum_{i<=n} p_i - sum_{i<=n} q_i); FULL additionally
    requires equal traces.  FOCK compares cumulative number-basis
    populations tr(Pi_n .) of two DensityMatrix arguments.
    """
    if mode is MajorizationMode.FOCK:
        if not (isinstance(p, DensityMatrix) and isinstance(q, DensityMatrix)):
            raise ValueError("Fock mode requires DensityMatrix inputs")
        if p.dim != q.dim:
            raise ValueError(f"dim mismatch: {p.dim} vs {q.dim}")
        cp = np.cumsum(np.real(np.diag(p.mat)))
        cq = np.cumsum(np.real(np.diag(q.mat)))
        margins = cp - cq
        return bool(margins.min() >= -tol), margins
    ps = _decreasing_spectrum(p)
    qs = _decreasing_spectrum(q)
    if ps.shape != qs.shape:
        raise ValueError(f"length mismatch: {ps.shape} vs {qs.shape}")
    margins = np.cumsum(ps) - np.cumsum(qs)
    ok = bool(margins.min() >= -tol)
    if mode is MajorizationMode.FULL:
        ok = ok and abs(margins[-1]) <= tol
    return ok, margins


def edge_band(dim: int) -> int:
    """Number of top basis levels counted as the truncation edge."""
    return int(math.ceil(dim / 8))


def truncation_health(x) -> HealthMetrics:
    """Edge-mass / unitarity / trace diagnostics for states and operators."""
    if isinstance(x, DensityMatrix):
        k = edge_band(x.dim)
        edge = float(np.real(np.diag(x.mat)[-k:]).sum())
        drift = abs(np.trace(x.mat).real - 1.0)
        return HealthMetrics(edge_mass=edge, trace_drift=drift)
    m = np.asarray(x, dtype=complex)
    dim = m.shape[0]
    k = edge_band(dim)
    total = float(np.sum(np.abs(m) ** 2))
    edge = float(np.sum(np.abs(m[-k:, :]) ** 2) + np.sum(np.abs(m[:-k, -k:]) ** 2))
    edge = edge / total if total > 0 else 0.0
    defect = float(np.linalg.norm(m.conj().T @ m - np.eye(dim), 2))
    return HealthMetrics(edge_mass=edge, unitarity_defect=defect)


def state_edge_mass(mat: np.ndarray) -> float:
    """Edge mass of a raw state matrix (no DensityMatrix validation)."""
    dim = mat.shape[0]
    k = edge_band(dim)
    return float(np.real(np.diag(mat)[-k:]).sum())
