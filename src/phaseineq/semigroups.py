"""Heat, attenuator, amplifier and quantum Ornstein-Uhlenbeck semigroups.

Every flow here is the exponential of one banded generator on row-major
vec(rho),

    mu^2 L_- + lam^2 L_+ + pi conj(s) [a, [a, .]] + pi s [a_dag, [a_dag, .]],

kept as its diagonals and applied by products of shifted slices (`_matvec`).
The four semigroups have s = 0 and carry their rates (mu^2, lam^2):
(2 pi, 2 pi) for Heat, (1, 0) for the attenuator, (0, 1) for the amplifier
and (mu^2, lam^2) for the qOU.  The classical-quantum convolution of a
Gaussian density with mean m and covariance C is e^{t L_C} followed by a
translation by sqrt(t) m, where
L_C = -pi sum_jk C_jk [G_j, [G_k, .]] with G = (P, -Q) splits into the
isotropic part pi tr C (L_- + L_+) and the traceless part with
s = (C_11 - C_22)/2 + i C_12.

Every use of L goes through one restriction to what the state's support
reaches (`_restrict`): the series that evolve the state,
`liouvillian_apply` and the entropy-production rates, which take
tr(L(rho) X) as one inner product with L(rho).  On that restriction one
series applies the exponential to double precision within an a-priori
bound (`_series`): Chebyshev for the Hermitian generators (Heat and every
Gaussian convolution), uniformization for the attenuator, amplifier and
qOU.  `flow(op, rho, times)` runs it once for a whole grid, whose times
share its vectors, and builds each time's state, translated for a
density, when it is read; `evolve` and `convolve` are its one-time grids.

Every production use of L runs in real arithmetic, on the real image
R = Re rho + Im rho of the Hermitian state (`_real_image`).  This is exact
for real s: the generator then has real coefficients, so it maps the real
and imaginary parts of rho each on its own, and it commutes with
transposition, so it keeps Re rho symmetric and Im rho antisymmetric.
(R + R^T)/2 and (R - R^T)/2 of the evolved R are then the evolved real and
imaginary parts (`_hermitian`), an exactly Hermitian matrix.  A Gaussian
density with C_12 != 0 (complex s) first has the phase of s rotated away by
the diagonal unitary U = e^{i theta a_dag a} (`_turn`), exact on the
truncated space because U a U^dag = e^{-i theta} a there too.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fock_core import (
    DensityMatrix,
    _adopt,
    check_edge_mass,
    log_density,
    relative_entropy,
    thermal_state,
    von_neumann_entropy,
    weyl_operator,
)

# The generators conserve trace exactly and `_series` bounds its error a
# priori, so a larger drift is a bug, not a numerical limit.
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
        # The qOU's formulas divide by, and take the logs of, these four.
        try:
            mu2, lam2 = self.rates  # OverflowError past the largest double
            normal = all(sys.float_info.min <= x < math.inf
                         for x in (mu2, lam2, mu2 - lam2, lam2 / mu2))
        except (OverflowError, ZeroDivisionError):
            normal = False
        if not (self.mu > self.lam > 0 and normal):
            raise ValueError(
                f"QOU requires mu > lambda > 0 with mu^2, lambda^2, mu^2 - "
                f"lambda^2 and lambda^2/mu^2 finite and >= 2.23e-308; got "
                f"mu = {self.mu!r}, lambda = {self.lam!r}")

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
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("GaussianDensity needs a finite mean and cov")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov)[0] <= 0:
            raise ValueError("covariance must be positive definite")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def standard_gaussian() -> GaussianDensity:
    """The unit-variance centered density f_Z."""
    return GaussianDensity(mean=np.zeros(2), cov=np.eye(2))


def _levels(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, up(n)) for n < dim: the weights of a_dag a and of the truncated
    a a_dag = diag(1, ..., dim-1, 0)."""
    n = np.arange(dim, dtype=float)
    up = n + 1.0
    up[-1] = 0.0
    return n, up


def _ladder(mu2: float, lam2: float, ni: np.ndarray, nj: np.ndarray,
            ui: np.ndarray, uj: np.ndarray) -> tuple[np.ndarray, ...]:
    """The weights of mu^2 L_- + lam^2 L_+ at entries (i, j), given
    ni = n(i), ui = up(i) and the same for j: into (i, j) from
    (i-1, j-1), from (i, j) itself and from (i+1, j+1)."""
    return (lam2 * np.sqrt(ni * nj),
            -0.5 * (mu2 * (ni + nj) + lam2 * (ui + uj)),
            mu2 * np.sqrt(ui * uj))


def _generator(mu2: float, lam2: float, dim: int,
               s: complex = 0.0) -> dict[int, np.ndarray]:
    """mu^2 L_- + lam^2 L_+ + pi conj(s) [a, [a, .]] + pi s [a_dag, [a_dag, .]]
    on row-major vec(rho), as its diagonals: offset k -> c with
    L[p, p + k] = c[min(p, p + k)].

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
    n, up = _levels(dim)
    size = dim * dim

    def band(coef: np.ndarray, offset: int) -> np.ndarray:
        # coef[i, j] weighs entry (i, j) + offset of vec(rho) into entry (i, j).
        flat = np.broadcast_to(coef, (dim, dim)).ravel()
        return flat[:size - offset] if offset >= 0 else flat[-offset:]

    step = dim + 1
    down, diag, up_w = _ladder(mu2, lam2, n[:, None], n[None, :],
                               up[:, None], up[None, :])
    bands = {-step: band(down, -step), 0: band(diag, 0),
             step: band(up_w, step)}
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
    return bands


def _matvec(gen: dict[int, np.ndarray], x: np.ndarray) -> np.ndarray:
    """gen @ x for a matrix held as its diagonals (see `_generator`); each
    diagonal is one product of contiguous shifted slices.  The main
    diagonal's product starts the sum: 0 + a = a and IEEE addition
    commutes, so this is the sum started from zeros bit for bit, but for
    the sign of an entry whose terms are all zero."""
    out = (gen[0] * x).astype(np.result_type(x, *gen.values()), copy=False)
    for k, c in gen.items():
        if k > 0:
            out[:x.size - k] += c * x[k:]
        elif k < 0:
            out[-k:] += c * x[:k]
    return out


def _norm_1(gen: dict[int, np.ndarray]) -> float:
    """Largest absolute column sum of the matrix held as diagonals gen."""
    size = gen[0].size
    col = np.zeros(size)
    for k, c in gen.items():
        col[max(k, 0):size + min(k, 0)] += np.abs(c)
    return float(col.max())


def _bessel_weights(z: float, size: int) -> np.ndarray:
    """e^{-z} I_k(z) for k < size, z >= 0.

    Miller's backward recurrence (DLMF 3.6(iii)) in ratio form,
    I_k / I_{k-1} = z / (2 k + z I_{k+1} / I_k), started from I_size = 0,
    normalised by e^{-z} (I_0 + 2 sum_k I_k) = 1 (DLMF 10.35.1 at
    theta = 0).  Every ratio lies in [0, 1), so nothing overflows, and z = 0
    gives (1, 0, ...).
    """
    ratios = np.ones(size)
    r = 0.0
    for k in range(size - 1, 0, -1):
        r = z / (2.0 * k + z * r)
        ratios[k] = r
    weights = np.cumprod(ratios)
    return weights / (2.0 * weights.sum() - 1.0)


def _poisson_weights(z: float, size: int) -> np.ndarray:
    """e^{-z} z^k / k! for k < size, z >= 0.

    Products of ratios taken outward from the mode m = floor(z),
    w_k / w_{k-1} = z / k above it and w_k / w_{k+1} = (k + 1) / z below,
    normalised by their sum as in `_bessel_weights`.  Every ratio lies in
    [0, 1], so nothing overflows, and z = 0 gives (1, 0, ...).
    """
    m = min(int(z), size - 1)
    k = np.arange(1.0, size)
    weights = np.concatenate((np.cumprod(k[:m][::-1] / z)[::-1], [1.0],
                              np.cumprod(z / k[m:])))
    return weights / weights.sum()


def _series(gen: dict[int, np.ndarray], x: np.ndarray,
            times: Sequence[float], hermitian: bool) -> list[np.ndarray]:
    """e^{t gen} x at each t of times as sum_k c_k(t) v_k, where the v_k
    are polynomials in one matrix B applied to x and do not depend on t.

    Chebyshev, for a Hermitian gen (mu^2 = lam^2: Heat and every Gaussian
    convolution): its largest absolute column sum w puts its spectrum in
    [-w, 0] and that of B = 2 gen / w + 1 in [-1, 1], so with z = t w / 2,
    e^{t gen} = sum_k eps_k e^{-z} I_k(z) T_k(B), eps_0 = 1 and eps_k = 2
    otherwise (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 1984), where
    T_k = 2 B T_{k-1} - T_{k-2} (b holds 2 B) and |T_k(B)|_2 <= 1.

    Uniformization, for the attenuator, amplifier and qOU (Jensen, Skand.
    Aktuarietidskr. 36, 1953): gen is a tridiagonal `_restrict`ion at s = 0,
    and with theta = -min diag gen, B = 1 + gen / theta and z = theta t,
    e^{t gen} = sum_k e^{-z} z^k / k! B^k.  B >= 0: its off-diagonals are
    ladder weights, and theta makes its diagonal >= 0.  The column of gen
    at (i, j) sums to lam^2 (sqrt(u_i u_j) - (u_i + u_j)/2)
    + mu^2 (sqrt(n_i n_j) - (n_i + n_j)/2) <= 0 by AM-GM (n, u as in
    `_ladder`), with equality on band 0, so |B^k|_1 <= 1 and B keeps the
    trace.  At s != 0 gen has negative off-diagonals and B >= 0 fails;
    Chebyshev also needs about sqrt(z) matvecs where this needs about z.
    (A diagonal similarity would make the qOU Hermitian only at a factor
    (mu/lam)^dim, 2^64 at dim 128 for mu = sqrt 2, lam = 1.)

    Either way the weights sum to 1, so stopping where their tail falls
    below 1e-16 bounds the error by that tail times |x|, a priori; the
    degree, about 8.3 sqrt(z) or z + 8.3 sqrt(z), sizes the weights.  One
    recurrence runs to the grid's largest degree, and each time adds v_k to
    its own sum up to its own degree: its result is the one it gets alone.

    At s = 0 each matvec moves an entry one place along its band i - j, so
    degree D widens a band's support by at most D entries: a state on the
    leading k levels keeps every coherence past level k + D at exactly 0.0,
    and its `DensityMatrix` decomposes a block of at most k + D levels; at
    s != 0 a matvec also reaches the bands i - j +- 2.
    """
    # w/2 or theta; any larger rate serves, so 1 when gen = 0 (dim 1).
    rate = (0.5 * _norm_1(gen) if hermitian else -gen[0].min()) or 1.0
    scale, shift = (2.0 / rate, 2.0) if hermitian else (1.0 / rate, 1.0)
    coefs = []
    for t in times:
        z = rate * t
        if hermitian:
            coef = _bessel_weights(z, int(9.0 * math.sqrt(z)) + 30)
            coef[1:] *= 2.0
        else:
            coef = _poisson_weights(z, int(z + 9.0 * math.sqrt(z)) + 30)
        coefs.append(coef)
    degrees = [np.count_nonzero(np.cumsum(coef[::-1])[::-1] >= 1e-16)
               for coef in coefs]
    b = {k: scale * c for k, c in gen.items()}
    b[0] = b[0] + shift
    prev, cur = x, (0.5 if hermitian else 1.0) * _matvec(b, x)
    outs = [coef[0] * prev + coef[1] * cur for coef in coefs]
    for k in range(2, max(degrees)):
        if hermitian:
            prev, cur = cur, _matvec(b, cur) - prev
        else:
            prev, cur = cur, _matvec(b, cur)
        for out, coef, degree in zip(outs, coefs, degrees):
            if k < degree:
                out += coef[k] * cur
    return outs


def _touched_bands(x: np.ndarray) -> np.ndarray:
    """Row-major indices of the entries of x in the bands its support
    touches, band by band in increasing band b = (i - j) mod 2 dim.

    Band b < dim holds (j + b, j), at b dim + j (dim + 1), and band
    b > dim holds (i, i + k), k = 2 dim - b, at k + i (dim + 1), each for
    dim - (its offset) consecutive values of j or i.
    """
    dim = x.shape[0]
    i, j = np.nonzero(x)
    hit = np.zeros(2 * dim, dtype=bool)
    hit[(i - j) % (2 * dim)] = True
    b = np.flatnonzero(hit)
    below = b < dim
    first = np.where(below, b * dim, 2 * dim - b)
    count = np.where(below, dim - b, b - dim)
    before = np.cumsum(count) - count
    step = dim + 1
    return (np.repeat(first - before * step, count)
            + np.arange(count.sum()) * step)


def _coefficients(op: SemigroupKind | GaussianDensity
                  ) -> tuple[float, float, complex]:
    """(mu^2, lam^2, s) of a semigroup kind, or of the diffusion e^{t L_C}
    of a Gaussian density's covariance C (see `_generator`)."""
    if isinstance(op, GaussianDensity):
        c = op.cov
        iso = math.pi * np.trace(c)
        return iso, iso, 0.5 * (c[0, 0] - c[1, 1]) + 1j * c[0, 1]
    return (*op.rates, 0.0)


def _restrict(x: np.ndarray, mu2: float, lam2: float, s: complex
              ) -> tuple[np.ndarray | slice, dict[int, np.ndarray]]:
    """(the row-major indices of x that L reaches from its support, L on
    them as diagonals) for the generator of coefficients (mu2, lam2, s).

    Entry (i, j) lies in band (i - j) mod (2 if s else 2 dim), and L keeps
    each band class, the offsets +-(dim+1) moving along a band and the s
    terms two bands over (through a^2, or a rho a at dim 2, connecting each
    parity).  At s = 0 the kept entries are the bands that x's support
    touches (`_touched_bands`), and gathered band by band they make L
    tridiagonal: the offsets +-(dim+1) become +-1, and their coefficients
    vanish where two bands join, the weight sqrt(up(i) up(j)) at a band's
    last entry (i or j is dim-1, up(dim-1) = 0) and sqrt(i j) at its first
    (i or j is 0).  At s != 0 L acts on the whole vector: it couples no two
    parity classes (its coefficients are exactly 0 where a row wraps), so a
    class that x leaves at zero stays zero under either series.
    """
    dim = x.shape[0]
    if s:
        return slice(None), _generator(mu2, lam2, dim, s)
    kept = _touched_bands(x)
    n, up = _levels(dim)
    i, j = np.divmod(kept, dim)
    down, diag, up_w = _ladder(mu2, lam2, n[i], n[j], up[i], up[j])
    return kept, {-1: down[1:], 0: diag, 1: up_w[:-1]}


def _apply(x: np.ndarray, times: Sequence[float], mu2: float, lam2: float,
           s: complex = 0.0) -> np.ndarray:
    """e^{tL}(x) for each t of times, stacked along a new first axis: one run
    of `_series` on the restriction of L to what x's support reaches, in
    the arithmetic of x and of L's coefficients (float64 for the real image
    that `flow` passes at real s, complex128 for a complex x or s)."""
    if min(times) < 0:
        raise ValueError(f"t must be >= 0, got {min(times)}")
    kept, gen = _restrict(x, mu2, lam2, s)
    y = x.ravel()[kept]
    ys = _series(gen, y, times, mu2 == lam2)
    out = np.zeros((len(times), x.size),
                   dtype=np.result_type(y, *gen.values()))
    out[:, kept] = ys
    return out.reshape(len(times), *x.shape)


def _real_image(x: np.ndarray) -> np.ndarray:
    """Re x + Im x for a Hermitian x: its symmetric real part plus its
    antisymmetric imaginary part, one real matrix that `_hermitian` reads
    back."""
    return x.real + x.imag


def _hermitian(r: np.ndarray) -> np.ndarray:
    """(r + r^T)/2 + i (r - r^T)/2 over the last two axes of r: the
    Hermitian matrix whose real image is r, exactly Hermitian in floating
    point because both halves are sums and differences of the same pair."""
    rt = np.swapaxes(r, -1, -2)
    out = np.empty(r.shape, dtype=complex)
    out.real = 0.5 * (r + rt)
    out.imag = 0.5 * (r - rt)
    return out


def _turn(r: np.ndarray, theta: float) -> np.ndarray:
    """The real image of U x U^dag, U = e^{i theta a_dag a}, from the real
    image r of a Hermitian x, over r's last two axes.

    (U x U^dag)_jk = e^{i theta (j - k)} x_jk maps x = S + i A to
    (cos S - sin A) + i (cos A + sin S), elementwise in the cosine and sine
    of theta (j - k), whose real image is cos r + sin r^T; -theta undoes
    it."""
    n = np.arange(r.shape[-1])
    phase = theta * np.subtract.outer(n, n)
    return np.cos(phase) * r + np.sin(phase) * np.swapaxes(r, -1, -2)


def flow(op: SemigroupKind | GaussianDensity, rho: DensityMatrix,
         times: Sequence[float]) -> list[Callable[[], DensityMatrix]]:
    """e^{tL}(rho) for a semigroup kind, or f *_t rho for a Gaussian
    density f, at each t of times: one run of `_series` on the real image
    of rho for the whole grid, whatever the kind, and per time a thunk that
    builds and validates that time's state on its own when called, so a
    TruncationError at one t leaves the others usable.  At C_12 != 0 the
    phase of s is first turned away (`_turn`); the module docstring shows
    why both steps are exact."""
    mu2, lam2, s = _coefficients(op)
    x = _real_image(rho.mat)
    theta = -0.5 * np.angle(s) if s.imag else 0.0
    if theta:
        x, s = _turn(x, theta), abs(s)
    xs = _apply(x, times, mu2, lam2, s.real)
    if theta:
        xs = _turn(xs, -theta)
    return [partial(_state, m, op, t, lam2 > 0)
            for t, m in zip(times, _hermitian(xs))]


def _state(x: np.ndarray, op: SemigroupKind | GaussianDensity, t: float,
           edges: bool) -> DensityMatrix:
    """The state of the Hermitian x = e^{tL}(rho): for a density with mean m
    first translated by W(sqrt(t) m), a zero translation skipped, and made
    Hermitian again; then checked for trace drift and, when edges (every
    flow with gain, lam^2 > 0), by `fock_core.check_edge_mass`."""
    what = "evolution"
    if isinstance(op, GaussianDensity):
        what = "convolution"
        shift = math.sqrt(t) * op.mean
        if shift.any():
            w = weyl_operator(shift, x.shape[0])
            x = w @ x @ w.conj().T
            # The two products leave x Hermitian only to round-off.
            x = 0.5 * (x + x.conj().T)
    trace = np.trace(x).real
    drift = abs(trace - 1.0)
    if drift > _TRACE_TOL:
        raise RuntimeError(f"{what}: trace drift {drift:.3e} exceeds "
                           f"{_TRACE_TOL:.1e}")
    if edges:
        check_edge_mass(x, "increase dim or reduce t")
    return _adopt(x / trace)


def liouvillian_apply(kind: SemigroupKind, rho: DensityMatrix) -> np.ndarray:
    """L(rho) for the requested semigroup, applied to the real image of rho
    as `flow` applies e^{tL}; exactly Hermitian, and traceless."""
    x = _real_image(rho.mat)
    kept, gen = _restrict(x, *_coefficients(kind))
    out = np.zeros(x.size)
    out[kept] = _matvec(gen, x.ravel()[kept])
    return _hermitian(out.reshape(x.shape))


def evolve(rho: DensityMatrix, kind: SemigroupKind, t: float) -> DensityMatrix:
    """e^{tL}(rho), exact to double precision: the one-time grid of `flow`,
    by the Chebyshev series for Heat and uniformization otherwise.

    Raises TruncationError (`fock_core.check_edge_mass`) when a flow with
    gain (lam^2 > 0) leaves more than EDGE_TOL in the edge band; pure loss
    maps the truncated space into itself, so no edge check applies.
    """
    if t == 0:
        return rho
    return flow(kind, rho, (t,))[0]()


def convolve(f: GaussianDensity, rho: DensityMatrix, t: float) -> DensityMatrix:
    """Classical-quantum convolution f *_t rho of a Gaussian density with
    mean m and covariance C:
    f *_t rho = W(sqrt(t) m) e^{t L_C}(rho) W(sqrt(t) m)^dag, the quantum
    heat semigroup with diffusion matrix C followed by a translation: the
    one-time grid of `flow`, where every C takes the Chebyshev series that
    Heat takes.
    """
    if t == 0:
        return rho
    return flow(f, rho, (t,))[0]()


def _rate(kind: SemigroupKind, rho: DensityMatrix, x: np.ndarray) -> float:
    """tr(L(rho) x) for a Hermitian x, as the inner product <x, L(rho)>."""
    return float(np.vdot(x, liouvillian_apply(kind, rho)).real)


def entropy_rate(rho: DensityMatrix, kind: SemigroupKind) -> float:
    """2 dS/dt at t = 0 under e^{tL}: the algebraic derivative
    -2 tr(L(rho) log rho), exact at t = 0."""
    return -2.0 * _rate(kind, rho, log_density(rho, "entropy rate"))


def _decay_terms(rho: DensityMatrix, kind: QOU) -> tuple[float, ...]:
    """The seven terms t of the qOU decay identity at rho: (dD/dt,
    mu^2/2 J_-, lam^2/2 J_+, zeta S, lam^2 log nu, zeta log(1 - nu),
    zeta D(rho||sigma)), with D(.||sigma) the relative entropy to the fixed
    point sigma = omega_{n_fixed}.

    The identity reads dD/dt = -zeta D - (mu^2/2 J_- + lam^2/2 J_+ + zeta S
    + lam^2 log nu + zeta log(1 - nu)), so sum(t) = 0 on the whole Fock
    space.  On the truncated space a a_dag cannot raise level dim - 1, so
    sum(t) is lam^2 dim rho_{dim-1,dim-1} log nu, to within the round-off
    of the seven sums over the dim levels, at most dim u |t_i| each
    (Higham's gamma_dim).  dD/dt is the algebraic derivative
    tr(L(rho)(log rho - log sigma)); J_- and J_+ are the attenuator's and
    the amplifier's `entropy_rate`, all three taken on one log rho.
    """
    sigma = thermal_state(kind.n_fixed, rho.dim)
    log_rho = log_density(rho, "entropy rate")
    rate = _rate(kind, rho, log_rho - np.diag(np.log(sigma.spectrum)))
    j_minus = -2.0 * _rate(Attenuator(), rho, log_rho)
    j_plus = -2.0 * _rate(Amplifier(), rho, log_rho)
    (mu2, lam2), zeta, nu = kind.rates, kind.zeta, kind.nu
    return (rate, 0.5 * mu2 * j_minus, 0.5 * lam2 * j_plus,
            zeta * von_neumann_entropy(rho), lam2 * math.log(nu),
            zeta * math.log(1.0 - nu), zeta * relative_entropy(rho, sigma))
