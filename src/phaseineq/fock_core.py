"""Truncated single-mode Fock-space numerics.

States, Weyl operators, entropies, photon statistics, passive
rearrangement and majorization relations on a finite number basis
{|0>, ..., |N-1>}.

Conventions: natural logarithms (nats) throughout, [Q, P] = i, vacuum
<Q^2> = 1/2, and W(xi) = exp(i sqrt(2 pi) xi . (sigma R)) with
sigma = [[0, 1], [-1, 0]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
# Loaded with the package, not inside the first random_state call.
import numpy.random  # noqa: F401

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
# DensityMatrix accepts eigenvalues in [-PSD_TOL, 0) as roundoff and
# rejects anything more negative.  Entropies drop eigenvalues <= 0; the log
# weights of `log_spectrum` clip negatives above -1e-12 to 1e-300 and raise
# IllConditionedError on an eigenvalue that is exactly 0 or <= -1e-12.
PSD_TOL = 1e-10
# Largest geometric tail mass a truncated thermal state may drop.
LEAKAGE_TOL = 1e-9
# Largest mass a state may hold in the top edge band of the basis before
# the truncated operators acting on it count as inaccurate.
EDGE_TOL = 1e-6
FULL_RANK_EPS = 1e-6


class TruncationError(RuntimeError):
    """Raised when the configured truncation cannot represent a state."""

    def __init__(self, message: str, min_adequate_dim: int | None = None):
        super().__init__(message)
        self.min_adequate_dim = min_adequate_dim


class IllConditionedError(ValueError):
    """Raised when a reference state is too close to rank-deficient."""


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace complex matrix on the truncated basis, kept
    in block form, read-only: validated by its spectrum alone, with
    eigenvectors computed only when read.  mat is a read-only copy of the
    array passed in, so the caller's array stays writable and its later
    writes do not reach the state.  A complex array that is already
    read-only and owns its data (base None) is handed over instead and
    adopted without a copy, as this package's constructors do (`_adopt`).

    The leading k x k block (k = block) is decomposed, and each later level
    j is its own eigenpair, the diagonal entry mat[j, j] and the unit vector
    e_j.  The block ends at the smallest k such that the strict lower
    triangle (the triangle LAPACK's Hermitian drivers read) of rows >= k has
    Frobenius norm <= 2^-53 max_i mat[i, i] <= 2^-53 |mat|_2: the block form
    is exact for a matrix within the drivers' own backward error of mat.
    Thermal, Fock-diagonal and rearranged states have k = 0 and need no
    LAPACK call; `random_state`'s core-plus-floor states have k = 24, and a
    heat flow of one widens k by at most the degree of its Chebyshev series,
    stopping near 68 levels at t = 0.05 and 90 at t = 0.1 at every dim
    from 128 on.

    The constructor takes one `np.linalg.eigvalsh` of the block into
    spectrum, the state's one eigenvalue array, in block order: index j < k
    the block's j-th (ascending) and index j >= k mat[j, j].  The PSD check,
    the rank rules and the entropies read its minimum or its sum, and only
    rearrangement and majorization sort it.  block_vecs, whose column j is
    the eigenvector of spectrum[j] on levels 0..k-1, comes from one
    `np.linalg.eigh` of the same block on its first read (by the Fisher
    information, log rho and the reference state of a relative entropy)
    and is kept on the state.  Both drivers return ascending eigenvalues,
    so the pairs match by index, and only eigh's vectors are kept: with
    lam'_i eigh's own eigenvalue, |B v_i - lam_i v_i| <=
    |B v_i - lam'_i v_i| + |lam_i - lam'_i|, and both terms are
    O(2^-53 |B|) since both drivers are backward stable.  So mat
    is V diag(spectrum[:k]) V^dag (V = block_vecs) on the block plus
    diag(spectrum[k:]) after it, to that error (measured on random states
    at dim 128, their t = 0.1 heat outputs and translates, k = 24 to 128:
    residual <= 2.2e-16, |lam - lam'| <= 2.0e-16, and the block rebuilt to
    1.8e-16).
    """

    mat: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    block: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.mat
        if not (type(m) is np.ndarray and m.dtype == complex
                and m.base is None and not m.flags.writeable):
            m = np.array(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has a non-finite entry")
        # conj(m) - m^T is the conjugate of m - m^dag entry by entry, so
        # its largest modulus is the same; one temporary, read in place.
        defect = m.conj()
        defect -= m.T
        herm_defect = np.max(np.abs(defect))
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: defect {herm_defect:.3e}")
        trace_defect = abs(np.trace(m).real - 1.0)
        if trace_defect > TRACE_TOL:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        spectrum = m.diagonal().real.copy()
        # Squared Frobenius norm of the strict lower triangle of rows >= k,
        # for each k < dim; the block ends at the first k within 2^-53 max
        # diag.  The sums never grow as k does, so the rows past the bound
        # are a prefix.
        sq = m.real**2
        sq += m.imag**2
        rows_sq = np.tril(sq, -1).sum(axis=1)
        tail_sq = np.cumsum(rows_sq[::-1])[::-1]
        k = int(np.count_nonzero(tail_sq > (2.0**-53 * spectrum.max())**2))
        if k:
            spectrum[:k] = np.linalg.eigvalsh(m[:k, :k])
        low = spectrum.min()
        if low < -PSD_TOL:
            raise ValueError(f"not PSD: min eigenvalue {low:.3e}")
        for name, arr in (("mat", m), ("spectrum", spectrum)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "block", k)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def block_vecs(self) -> np.ndarray:
        """Eigenvectors of the leading k x k block, column j paired with
        spectrum[j]; one eigh on the first read, kept read-only."""
        k = self.block
        vecs = (np.linalg.eigh(self.mat[:k, :k])[1] if k
                else np.empty((0, 0), dtype=complex))
        vecs.flags.writeable = False
        return vecs


class StateFamily(Enum):
    FULL_RANK = "full_rank"
    DIAGONAL = "diagonal"


def weyl_operator(xi, dim: int) -> np.ndarray:
    """Displacement unitary W(xi) = exp(i sqrt(2 pi) (xi_1 P - xi_2 Q)).

    With xi_2 + i xi_1 = r e^{i phi}, the truncated generator
    sqrt(2 pi) (xi_1 P - xi_2 Q) has the entry -sqrt(pi n) r e^{i phi} at
    (n-1, n) and its conjugate at (n, n-1), so it is -sqrt(pi) r U T U^dag
    with T = a + a_dag, real tridiagonal with sqrt(n) next to the diagonal,
    and U = e^{-i phi a_dag a} diagonal; exact on the truncated space, like
    `semigroups._turn`.  One real eigh T = V diag(lam) V^T then gives
    W(xi) = (U V) diag(e^{-i sqrt(pi) r lam}) (U V)^dag, unitary up to
    round-off; truncation shows up only as mass pushed to the basis edge.
    xi = 0 gives the identity exactly, and so does dim 1, where T = [[0]].
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,) or not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must be a finite 2-vector, got {xi!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not xi.any():
        return np.eye(dim, dtype=complex)
    n = np.arange(dim)
    off = np.sqrt(n[1:])
    lam, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    uv = np.exp(-1j * math.atan2(xi[0], xi[1]) * n)[:, None] * v
    r = math.hypot(xi[0], xi[1])
    return (uv * np.exp(-1j * math.sqrt(math.pi) * r * lam)) @ uv.conj().T


def geometric_weights(nbar: float, dim: int) -> np.ndarray:
    """Unnormalized geometric populations (1/(nbar+1)) (nbar/(nbar+1))^j;
    at nbar = 0, 0**0 = 1 gives the vacuum."""
    if not nbar >= 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    r = nbar / (nbar + 1.0)
    return (1.0 / (nbar + 1.0)) * r ** np.arange(dim)


def geometric_law(nbar: float, dim: int) -> np.ndarray:
    """Geometric populations with mean nbar on {0, ..., dim-1}, renormalized.

    Raises TruncationError (with the minimal adequate dim, the support
    size, or None where that size would pass the largest double) when the
    geometric tail beyond level dim-1 exceeds LEAKAGE_TOL.
    """
    w = geometric_weights(nbar, dim)
    r = nbar / (nbar + 1.0)
    tail = r**dim
    if tail > LEAKAGE_TOL:
        # log r as -log(1 + 1/nbar), nonzero where r rounds to 1.
        size = -math.log(LEAKAGE_TOL) / math.log1p(1.0 / nbar)
        min_dim = int(math.ceil(size)) if size < math.inf else None
        need = (f"need support size >= {min_dim}" if size < math.inf else
                "the support size needed would exceed the largest double")
        raise TruncationError(
            f"geometric tail mass {tail:.3e} exceeds {LEAKAGE_TOL:.1e} at "
            f"support size {dim}; {need}", min_adequate_dim=min_dim)
    return w / w.sum()


def _adopt(m: np.ndarray) -> DensityMatrix:
    """The state of a fresh complex array that nothing else references,
    handed over read-only so that DensityMatrix adopts it without a copy."""
    m.flags.writeable = False
    return DensityMatrix(m)


def thermal_state(nbar: float, dim: int) -> DensityMatrix:
    """Thermal state with mean photon number nbar; see geometric_law."""
    return _adopt(np.diag(geometric_law(nbar, dim)).astype(complex))


def random_state(dim: int, seed: int, family: StateFamily) -> DensityMatrix:
    """Deterministic random test state of the requested family.

    A random core on the lowest min(dim, 24) levels (full rank, or Fock
    diagonal) plus a FULL_RANK_EPS share of a diagonal geometric floor over
    all levels.  Every coherence lies in the core, so a FULL_RANK state's
    `DensityMatrix` decomposes only that 24 x 24 block (k = 24), and a
    DIAGONAL one needs no decomposition.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    # The core lives on the lowest levels so that displacement and heat
    # evolution do not push mass into the truncation edge.
    d0 = min(dim, 24)
    if family is StateFamily.FULL_RANK:
        g = rng.standard_normal((d0, d0)) + 1j * rng.standard_normal((d0, d0))
        core = g @ g.conj().T
        core /= np.trace(core).real
    elif family is StateFamily.DIAGONAL:
        p = rng.standard_normal(d0) ** 2
        core = np.diag(p / p.sum())
    else:
        raise ValueError(f"unknown family {family!r}")
    # Flat-enough geometric floor: keeps the smallest eigenvalue of the
    # epsilon-mixture above ~1e-12 while leaving the edge mass negligible.
    floor = geometric_weights(max(4.0, dim / 6.0), dim)
    m = np.diag(FULL_RANK_EPS * (floor / floor.sum())).astype(complex)
    m[:d0, :d0] += (1.0 - FULL_RANK_EPS) * core
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    return _adopt(m)


def log_spectrum(rho: DensityMatrix, what: str) -> np.ndarray:
    """Log of rho's spectrum in block order (`DensityMatrix.spectrum`), for
    a log weight; IllConditionedError unless rho is full rank.

    Only rank deficiency is fatal (the log diverges): an exactly-zero
    smallest eigenvalue, or a negative one beyond roundoff.  Tiny negatives
    in deep thermal tails are roundoff images of positive eigenvalues and
    contribute finitely once clipped.
    """
    low = rho.spectrum.min()
    if low == 0.0 or low <= -1e-12:
        raise IllConditionedError(
            f"{what} needs a full-rank state (min eigenvalue {low:.3e})"
        )
    return np.log(np.clip(rho.spectrum, 1e-300, None))


def log_density(rho: DensityMatrix, what: str) -> np.ndarray:
    """log rho from its block form: V diag(log lambda) V^dag on the
    decomposed block, and the log of each later level's eigenvalue on the
    diagonal; IllConditionedError as in `log_spectrum`."""
    log_lam, vecs = log_spectrum(rho, what), rho.block_vecs
    k = rho.block
    out = np.diag(log_lam.astype(complex))
    out[:k, :k] = (vecs * log_lam[:k]) @ vecs.conj().T
    return out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda log lambda in nats, with 0 log 0 = 0."""
    nz = rho.spectrum[rho.spectrum > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho||sigma) = tr(rho log rho) - tr(rho log sigma) in nats.

    Returns +inf when rho has support outside the numerical support of
    sigma; raises IllConditionedError when sigma is rank-deficient but rho
    fits inside its support (the value would be dominated by roundoff).
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dim mismatch: {rho.dim} vs {sigma.dim}")
    mu, v, k = sigma.spectrum, sigma.block_vecs, sigma.block
    # <v_i|rho|v_i> in sigma's block order: the block's from one k x k BLAS
    # product and a column-wise sum, each later level's from rho's diagonal.
    overlaps = rho.mat.diagonal().real.copy()
    overlaps[:k] = np.sum(v.conj() * (rho.mat[:k, :k] @ v), axis=0).real
    if mu.min() <= 0.0:
        # rho carrying mass on the numerical null space means the divergence
        # genuinely diverges; tiny-but-positive tail eigenvalues (e.g. of a
        # truncated thermal state) stay in the log and contribute finitely.
        null = mu <= 0.0
        if float(overlaps[null].sum()) > 1e-10:
            return math.inf
        raise IllConditionedError(
            "reference state rank-deficient "
            f"(min eigenvalue {mu.min():.3e})"
        )
    return -von_neumann_entropy(rho) - float(overlaps @ np.log(mu))


def entropy_power(rho: DensityMatrix) -> float:
    """N(rho) = exp(S(rho)) for a single mode."""
    return math.exp(von_neumann_entropy(rho))


def mean_photon(rho: DensityMatrix) -> float:
    """tr(rho n_hat)."""
    return float(np.real(np.diag(rho.mat) @ np.arange(rho.dim)))


def fock_rearrangement(rho: DensityMatrix) -> DensityMatrix:
    """Passive rearrangement: decreasing spectrum placed on the number basis."""
    lam = _decreasing_spectrum(rho)
    return _adopt(np.diag(lam / lam.sum()).astype(complex))


def _decreasing_spectrum(rho: DensityMatrix) -> np.ndarray:
    return np.clip(np.sort(rho.spectrum), 0.0, None)[::-1]


def majorizes(p: DensityMatrix, q: DensityMatrix) -> np.ndarray:
    """margins[n] = sum_{i<=n} p_i - sum_{i<=n} q_i over the decreasing
    spectra: p majorizes q when all are >= 0 and the last (traces) is 0."""
    if p.dim != q.dim:
        raise ValueError(f"dim mismatch: {p.dim} vs {q.dim}")
    ps, qs = _decreasing_spectrum(p), _decreasing_spectrum(q)
    return np.cumsum(ps) - np.cumsum(qs)


def state_edge_mass(mat: np.ndarray) -> float:
    """Mass of a raw state matrix (no DensityMatrix validation) in its edge
    band, the top ceil(dim/8) basis levels."""
    k = math.ceil(mat.shape[0] / 8)
    return float(np.real(np.diag(mat)[-k:]).sum())


def check_edge_mass(mat: np.ndarray, fix: str) -> None:
    """Raise TruncationError, naming `fix`, when mat holds more than EDGE_TOL
    in its edge band: the one truncation rule of the flows and of J."""
    edge = state_edge_mass(mat)
    if edge > EDGE_TOL:
        raise TruncationError(
            f"edge mass {edge:.3e} exceeds {EDGE_TOL:.1e}; {fix}")
