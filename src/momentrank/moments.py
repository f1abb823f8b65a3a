"""Truncated moment matrices A = (a_ab), a_ab = integral of z^a conj(z)^b d mu.

Rows and columns are indexed by the multi-indices of total degree <= D in
graded lexicographic order, which makes every degree-D matrix a leading
principal submatrix of the degree-(D+1) matrix.  `IndexBasis` owns that
layout as read-only integer arrays (exponents, +-e_j shifts, degree offsets,
parents), built once per (d, D); no other code works it out again.

Every matrix comes from one Gram product of weighted points,
sum_k w_k z_k^alpha conj(z_k)^beta, over a monomial value table built by
iterative multiplication along the graded order (no complex pow calls).  The
points are the atoms of a discrete measure (exact up to rounding), the
recentred atoms of a Galerkin matrix (see operators), or the polar nodes of a
density's per-coordinate disk tables (Gauss-Legendre in radius, trapezoid in
angle): exact on the first level for uniform and polynomial densities, and
refined for the Gaussian until the entries stabilize below 1e-10.

`numerical_rank` counts singular values above a relative threshold.  A
square matrix of size >= 64 is first compressed by one seeded randomized
range sketch, A ~ Q B with B = Q^H A of width n // 8, whose residual
||A - Q B||_F is computed exactly (`_range_sketch`; atomic moment and
Galerkin matrices have rank N far below their size).  Two certificates read
it: the rank's, when every singular value of B sits clear of the threshold
by more than the residual (`_sketched_rank`), and the spectrum's, when the
residual is within a dense eigensolver's own backward error
(`operators.spectrum`).  When a certificate cannot settle its question, as
for a density's full-rank matrix, the dense SVD or eigensolver decides.  A
density's full rank is instead certified for all leading truncations at
once by `_full_rank_certificate`: one Cholesky factorization of the
matrix's shifted Hermitian part, which `recovery.verify_theorem` tries
before ranking each truncation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measures import DensityMeasure, DiscreteMeasure, PolynomialWeight

__all__ = [
    "MultiIndex",
    "IndexBasis",
    "MomentMatrix",
    "RankResult",
    "QuadratureError",
    "NumericalError",
    "moment_entry",
    "moment_matrix",
    "submatrix_drop_coord",
    "submatrix_drop_first",
    "leading_truncation",
    "numerical_rank",
    "reweight_moments",
    "rotate_moments",
]


class QuadratureError(RuntimeError):
    """Quadrature refinement failed to converge; carries the last two estimates."""

    def __init__(self, estimates: tuple[float, float]):
        self.estimates = estimates
        super().__init__(
            "quadrature did not converge; last two refinement errors: "
            f"{estimates[0]:.3e}, {estimates[1]:.3e}"
        )


class NumericalError(RuntimeError):
    """A dense linear algebra kernel (SVD / eigensolver) failed to converge."""


@dataclass(frozen=True)
class MultiIndex:
    """A multi-index alpha in Z_+^d with total degree |alpha| = sum alpha_i.

    The argument type of the scalar `moment_entry`; bases and matrices index
    by `IndexBasis` positions and never build one.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if len(entries) < 1 or any(e < 0 for e in entries):
            raise ValueError(f"bad multi-index {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, ascending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=128)
def _basis_tables(dimension: int, max_degree: int):
    """The read-only integer tables of one (d, D) basis, built once per process.

    Returns the (size, d) exponents; the (2, size, d) positions of
    alpha + e_j and alpha - e_j (-1 outside the basis); the D + 2 offsets
    where each degree starts (the last is the size); and the (2, size)
    parent table: per index alpha != 0 its first nonzero axis v and the
    position of alpha - e_v, one degree lower (column 0 is meaningless).
    """
    exps = np.array(
        [e for degree in range(max_degree + 1) for e in _compositions(degree, dimension)],
        dtype=np.int64,
    )
    position = {e: i for i, e in enumerate(map(tuple, exps.tolist()))}
    shifts = np.empty((2, len(exps), dimension), dtype=np.int64)
    for s, step in enumerate((1, -1)):
        for j in range(dimension):
            moved = exps.copy()
            moved[:, j] += step
            shifts[s, :, j] = [position.get(tuple(e), -1) for e in moved.tolist()]
    offsets = np.searchsorted(exps.sum(axis=1), np.arange(max_degree + 2))
    axis = np.argmax(shifts[1] >= 0, axis=1)
    parents = np.stack([axis, shifts[1, np.arange(len(exps)), axis]])
    for table in (exps, shifts, offsets, parents):
        table.flags.writeable = False
    return exps, shifts, offsets, parents


class IndexBasis:
    """All multi-indices with |alpha| <= max_degree, graded lexicographic order.

    The order sorts by total degree first, then by ascending tuple comparison,
    so the degree-D basis is a prefix of the degree-(D+1) basis; the degree-k
    indices sit at positions offsets[k] .. offsets[k + 1] - 1.

    `shifts[0]` and `shifts[1]` hold the positions of alpha + e_j and
    alpha - e_j, shape (2, size, d), with -1 where the shifted index leaves
    the basis.  `parents[0]` and `parents[1]` hold each index's first nonzero
    axis v and the position of alpha - e_v.  All tables are read-only and
    shared by every IndexBasis of that (d, D).
    """

    def __init__(self, dimension: int, max_degree: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.dimension = dimension
        self.max_degree = max_degree
        self._exponents, self.shifts, self.offsets, self.parents = _basis_tables(
            dimension, max_degree
        )

    @property
    def size(self) -> int:
        return len(self._exponents)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexBasis)
            and other.dimension == self.dimension
            and other.max_degree == self.max_degree
        )

    def __repr__(self) -> str:
        return f"IndexBasis(d={self.dimension}, D={self.max_degree}, size={self.size})"

    def entries_array(self) -> np.ndarray:
        """Basis exponents as a read-only (size, d) integer array."""
        return self._exponents


def monomial_table(points: np.ndarray, basis: IndexBasis) -> np.ndarray:
    """Values z^alpha for every point (rows) and basis index (columns).

    Built one degree at a time: each index is its parent's column times one
    coordinate, reusing lower-degree results along the graded order.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    n_points = pts.shape[0]
    if pts.shape[1] != basis.dimension:
        raise ValueError("point dimension does not match basis dimension")
    table = np.empty((n_points, basis.size), dtype=complex)
    table[:, 0] = 1.0
    var, parent = basis.parents
    for start, stop in zip(basis.offsets[1:-1], basis.offsets[2:]):
        table[:, start:stop] = table[:, parent[start:stop]] * pts[:, var[start:stop]]
    return table


class MomentMatrix:
    """A truncated moment matrix over an IndexBasis; entry (i, j) = a_{alpha_i beta_j}."""

    def __init__(self, basis: IndexBasis, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (basis.size, basis.size):
            raise ValueError(
                f"entries shape {entries.shape} does not match basis size {basis.size}"
            )
        self.basis = basis
        self.entries = entries

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def max_degree(self) -> int:
        return self.basis.max_degree

    def __repr__(self) -> str:
        return f"MomentMatrix(d={self.dimension}, D={self.max_degree})"


def moment_entry(m: DiscreteMeasure, alpha: MultiIndex, beta: MultiIndex) -> complex:
    """Single moment a_ab = sum_k lambda_k zeta_k^alpha conj(zeta_k)^beta."""
    if alpha.dimension != m.dimension or beta.dimension != m.dimension:
        raise ValueError("multi-index dimension does not match measure dimension")
    total = 0j
    for atom in m.atoms:
        term = atom.weight
        for z, a, b in zip(atom.location.coords, alpha.entries, beta.entries):
            term *= z**a * z.conjugate() ** b
        total += term
    return total


def _gram(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram product sum_k lambda_k t_k^alpha conj(t_k)^beta of a weighted
    monomial table; with real weights it is symmetrized to be exactly
    Hermitian."""
    entries = (table * weights[:, np.newaxis]).T @ table.conj()
    if np.all(weights.imag == 0):
        # real weights make the matrix Hermitian in exact arithmetic;
        # symmetrizing removes the accumulation-order noise of the matmul
        entries += entries.conj().T
        entries *= 0.5
    return entries


def _discrete_moment_matrix(
    points: np.ndarray, weights: np.ndarray, basis: IndexBasis
) -> np.ndarray:
    """Gram product sum_k lambda_k z_k^alpha conj(z_k)^beta of weighted points."""
    return _gram(monomial_table(points, basis), weights)


# -- density quadrature ------------------------------------------------------
#
# Every catalogued density is a polynomial density sum_gamma c_gamma z^gamma
# (uniform is {0: 1}) times a per-coordinate factor (the Gaussian's
# exp(-|z_j|^2 / 2) / (2 pi), or 1), so the tensor-product rule reduces to
# 1-D tables t_j[p, q] = integral over the j-th disk of z^p conj(z)^q rho_j(z)
# dm(z).  Each table is the Gram product of weighted polar nodes; with real
# node weights it comes out exactly Hermitian.
#
# Without the radial factor the integrand of t_j[p, q] is a polynomial: in
# polar form about the disk's centre it has radial degree <= p + q + 1 (the
# Jacobian r included) and angular frequencies |k| <= p + q.  The first
# level's p_max + q_max + 2 Gauss-Legendre nodes are exact up to radial
# degree 2 (p_max + q_max) + 3, and its n = 4 (p_max + q_max + 1) trapezoid
# nodes are exact for every frequency |k| < n, so uniform and polynomial
# tables are exact on the first level.  Only the Gaussian is refined.

_QUAD_TOL = 1e-10
_MAX_REFINEMENTS = 6


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gaussian_factor(z: np.ndarray) -> np.ndarray:
    return np.exp(-np.abs(z) ** 2 / 2) / (2 * np.pi)


def _disk_table(
    center: complex, radius: float, p_max: int, q_max: int, radial_density
) -> np.ndarray:
    """Table of disk moments t[p, q], p <= p_max, q <= q_max (p_max >= q_max).

    Exact for a polynomial integrand (`radial_density` None: the uniform and
    polynomial densities), so the first level is returned as it is; with a
    radial density (the Gaussian) the rule is refined until stable.  Raises
    QuadratureError if refinement does not settle, and at once when a level
    overflows to a non-finite table.
    """
    basis = IndexBasis(1, p_max)
    current = None
    errors: list[float] = []
    for level in range(_MAX_REFINEMENTS + 1):
        n_r = (p_max + q_max + 2) << level
        n_theta = 4 * (p_max + q_max + 1) << level
        nodes, gl_weights = _gauss_legendre(n_r)
        # an overflow shows as a non-finite table, which is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            r = 0.5 * radius * (nodes + 1.0)
            wr = 0.5 * radius * gl_weights * r  # polar Jacobian folded in
            theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
            z = (center + r[:, np.newaxis] * np.exp(1j * theta)[np.newaxis, :]).ravel()
            w = np.repeat(wr * (2.0 * np.pi / n_theta), n_theta)
            if radial_density is not None:
                w = w * radial_density(z)
            refined = _discrete_moment_matrix(z, w, basis)[:, : q_max + 1]
        if not np.all(np.isfinite(refined)):
            # finer levels cannot recover from an overflow; they only cost memory
            raise QuadratureError((errors[-1] if errors else math.inf, math.nan))
        if radial_density is None:
            return refined
        if current is not None:
            err = float(np.max(np.abs(refined - current)))
            errors.append(err)
            scale = max(1.0, float(np.max(np.abs(refined))))
            if err <= _QUAD_TOL * scale:
                return refined
        current = refined
    raise QuadratureError((errors[-2] if len(errors) > 1 else math.inf, errors[-1]))


def _density_moment_matrix(m: DensityMeasure, basis: IndexBasis) -> np.ndarray:
    D = basis.max_degree
    exps = basis.entries_array()
    g = m.density.polynomial
    if g is None:
        g = PolynomialWeight.constant(m.dimension)
    factor = _gaussian_factor if m.density.kind == "gaussian" else None
    tables = [
        _disk_table(c, r, D + g.degree, D, factor)
        for c, r in zip(m.domain.center.coords, m.domain.radii)
    ]
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for gamma, coeff in g.terms.items():
        term = np.ones((basis.size, basis.size), dtype=complex)
        for j, table in enumerate(tables):
            term *= table[exps[:, j, np.newaxis] + gamma[j], exps[np.newaxis, :, j]]
        out += coeff * term
    return out


def moment_matrix(m: DiscreteMeasure | DensityMeasure, max_degree: int) -> MomentMatrix:
    """Assemble the truncated moment matrix of a measure up to total degree D."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    basis = IndexBasis(m.dimension, max_degree)
    if isinstance(m, DiscreteMeasure):
        entries = _discrete_moment_matrix(m.locations_matrix(), m.weights_vector(), basis)
    elif isinstance(m, DensityMeasure):
        entries = _density_moment_matrix(m, basis)
    else:
        raise TypeError(f"unsupported measure type {type(m).__name__}")
    return MomentMatrix(basis, entries)


def submatrix_drop_coord(a: MomentMatrix, axis: int) -> MomentMatrix:
    """Sub-matrix over index pairs with alpha_axis = beta_axis = 0.

    The integrand of those entries is independent of the dropped coordinate,
    so the result is the moment matrix of the pushforward measure, reindexed
    over C^{d-1} at the same max degree.
    """
    d = a.dimension
    if d < 2:
        raise ValueError("cannot project below dimension 1")
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dimension {d}")
    keep = np.flatnonzero(a.basis.entries_array()[:, axis] == 0)
    reduced = IndexBasis(d - 1, a.max_degree)
    # zero components drop out of the tuple comparison, so the kept positions
    # already appear in the reduced graded order
    assert len(keep) == reduced.size
    return MomentMatrix(reduced, a.entries[np.ix_(keep, keep)])


def submatrix_drop_first(a: MomentMatrix) -> MomentMatrix:
    return submatrix_drop_coord(a, 0)


def leading_truncation(a: MomentMatrix, max_degree: int) -> MomentMatrix:
    """The degree-D' leading principal submatrix, D' <= D."""
    if max_degree > a.max_degree:
        raise ValueError("cannot truncate upward")
    reduced = IndexBasis(a.dimension, max_degree)
    return MomentMatrix(reduced, a.entries[: reduced.size, : reduced.size])


class RankResult(NamedTuple):
    rank: int
    singular_values: np.ndarray
    ill_conditioned: bool


_RANK_TOL = 1e-8  # the default relative rank threshold, also RecoveryConfig's
_CONDITION_LIMIT = 1e12
_SKETCH_MIN_SIZE = 64
_SKETCH_RATIO = 8  # sketch width l = n // 8


def _rank_result(sigma: np.ndarray, rel_tol: float) -> RankResult:
    """Rank and conditioning read off non-increasing singular values."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return RankResult(0, sigma, False)
    if not np.isfinite(sigma[0]):
        raise NumericalError(f"largest singular value {sigma[0]} is not finite")
    rank = int(np.count_nonzero(sigma > rel_tol * sigma[0]))
    ill = bool(rank > 0 and sigma[0] / sigma[rank - 1] > _CONDITION_LIMIT)
    return RankResult(rank, sigma, ill)


@functools.lru_cache(maxsize=16)
def _sketch_matrix(n: int, width: int) -> np.ndarray:
    """The n x width complex Gaussian sketch drawn from seed 0, read-only,
    drawn once per size."""
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    omega.flags.writeable = False
    return omega


class _RangeSketch(NamedTuple):
    q: np.ndarray
    b: np.ndarray
    residual: float
    b_norm: float  # ||B||_F


def _range_sketch(entries: np.ndarray, rel_tol: float) -> _RangeSketch | None:
    """Q, B = Q^H A, ||A - Q B||_F and ||B||_F for a square matrix A of size
    n >= 64, or None for any other matrix, when the sketch has full rank, and
    when a finite A overflows the sketch.

    Y = A Omega for l = n // 8 complex Gaussian columns drawn from seed 0,
    and Q R = Y (Halko, Martinsson and Tropp, SIAM Review 2011).  A last
    diagonal entry of R above rel_tol |R_11| means Y has full rank, so A is
    not low-rank and neither B nor the residual is formed.  Otherwise the
    residual is exact: A = Q B - gap, with gap formed in full.  Entries near
    the float range overflow Y, R or the norms; the sketch then declines
    without a warning and the caller's dense path decides.
    """
    if not (entries.ndim == 2 and entries.shape[0] == entries.shape[1] >= _SKETCH_MIN_SIZE):
        return None
    n = entries.shape[0]
    width = n // _SKETCH_RATIO
    with np.errstate(over="ignore", invalid="ignore"):
        y = entries @ _sketch_matrix(n, width)
        if not np.all(np.isfinite(y)):
            return None
        q, r = np.linalg.qr(y)
        if not np.all(np.isfinite(r)) or abs(r[-1, -1]) > rel_tol * abs(r[0, 0]):
            return None
        b = q.conj().T @ entries
        gap = q @ b  # the only n x n temporary
        gap -= entries
        residual, b_norm = float(np.linalg.norm(gap)), float(np.linalg.norm(b))
    if not (np.isfinite(residual) and np.isfinite(b_norm)):
        return None
    return _RangeSketch(q, b, residual, b_norm)


def _sketched_rank(entries: np.ndarray, rel_tol: float) -> RankResult | None:
    """The rank of a square matrix from the certified range sketch of
    `_range_sketch`, or None when the certificate cannot settle it.

    With err = ||A - Q B||_F + n eps ||A||_F, every sigma_i(A) lies within
    err of s_i = sigma_i(B), taken as 0 past l (Weyl), and the threshold
    rel_tol sigma_1(A) within rel_tol err of rel_tol s_1.  The count is
    accepted only if err lies below that threshold and no s_i lies within
    err of where the threshold can fall, so the dense SVD would count the
    same.
    """
    sketch = _range_sketch(entries, rel_tol)
    if sketch is None:
        return None
    _, b, residual, b_norm = sketch
    n = entries.shape[0]
    # ||A||_F from the orthogonal split A = Q B - gap, without another pass over A
    err = residual + n * np.finfo(float).eps * np.hypot(residual, b_norm)
    s = np.linalg.svd(b, compute_uv=False)
    low, high = rel_tol * (s[0] - err), rel_tol * (s[0] + err)
    if not err < low or np.any((s >= low - err) & (s <= high + err)):
        return None
    sigma = np.zeros(n)
    sigma[: s.size] = s
    return _rank_result(sigma, rel_tol)


def numerical_rank(a: MomentMatrix | np.ndarray, rel_tol: float = _RANK_TOL) -> RankResult:
    """Count of singular values above rel_tol times the largest one.

    The all-zero matrix has rank 0.  The result is flagged ill-conditioned
    when sigma_max / sigma_rank exceeds 1e12.  Non-finite entries raise
    NumericalError before any LAPACK call, and so does an overflowed sigma_max.

    A square matrix of size n >= 64 is first ranked from a sketch of width
    n // 8 with an exact a-posteriori residual (`_sketched_rank`): when the
    residual certifies that every singular value sits clear of the
    threshold, that count is returned, with the sketch's singular values
    and zeros past its width.  Otherwise, and for every smaller or
    rectangular matrix, the dense SVD decides, so both paths give the same
    rank.
    """
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    entries = a.entries if isinstance(a, MomentMatrix) else np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(entries)):
        raise NumericalError("matrix has non-finite entries")
    try:
        sketched = _sketched_rank(entries, rel_tol)
        if sketched is not None:
            return sketched
        sigma = np.linalg.svd(entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    return _rank_result(np.sort(sigma)[::-1], rel_tol)


def _full_rank_certificate(entries: np.ndarray, rel_tol: float) -> bool:
    """True only if every leading principal block A_k of the square matrix
    A has full numerical rank at rel_tol; False when the certificate cannot
    settle it.  One Cholesky factorization covers the whole nested family
    (Rump, "Verification of positive definiteness", BIT 46, 2006).

    With H = (A + A^H) / 2 and a unit vector x, ||A_k x|| >= |x^H A_k x| >=
    x^H H_k x >= lambda_min(H_k) >= lambda_min(H) (Cauchy interlacing), so
    sigma_min(A_k) >= lambda_min(H), while sigma_max(A_k) <= ||A||_F.  Hence
    lambda_min(H) > rel_tol ||A||_F gives every A_k full rank, and it holds
    when the Cholesky factorization of H - (rel_tol ||A||_F + c) I completes.
    In units of eps ||A||_F, forming H costs at most 1, the computed ||A||_F
    n^2 + 2, the shifted diagonal 2, and a completed complex Cholesky
    factorization at most about 2 (n + 2) trace(H) / ||A||_F <= 2 (n + 2)^1.5
    (Demmel; Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.5), so c = 4 (n + 2)^2 eps ||A||_F covers them all, and with room
    to spare the dense SVD's own backward error, so the SVD counts the same.
    ||A||_F must lie clear of underflow and overflow.
    """
    n = entries.shape[0]
    norm = float(np.linalg.norm(entries))
    if not 1e-100 < norm < math.inf:
        return False
    shift = (rel_tol + 4 * (n + 2) ** 2 * np.finfo(float).eps) * norm
    diagonal = entries.diagonal().real  # the diagonal of H, exactly
    if np.min(diagonal) <= shift:
        return False
    h = entries.conj().T  # the one n x n buffer, H formed in place
    h += entries
    h *= 0.5
    np.fill_diagonal(h, diagonal - shift)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def reweight_moments(a: MomentMatrix, g: PolynomialWeight) -> MomentMatrix:
    """Moment matrix of mu_g = |g|^2 mu from the moments of mu alone.

    |g|^2 = sum_{gamma delta} c_gamma conj(c_delta) z^gamma conj(z)^delta, so
    a'_{ab} = sum c_gamma conj(c_delta) a_{a+gamma, b+delta}; the result lives
    at max degree D - deg(g) (the headroom the weight consumes).
    """
    if g.dimension != a.dimension:
        raise ValueError("polynomial dimension does not match matrix dimension")
    if not g.terms:
        raise ValueError("cannot reweight by the zero polynomial")
    gdeg = g.degree
    new_degree = a.max_degree - gdeg
    if new_degree < 0:
        raise ValueError(
            f"not enough headroom: matrix degree {a.max_degree} < deg(g) = {gdeg}"
        )
    reduced = IndexBasis(a.dimension, new_degree)
    # positions of alpha + gamma in a's basis, for alpha in the reduced prefix
    up = a.basis.shifts[0]
    shifted = {}
    for gamma in g.terms:
        pos = np.arange(reduced.size)
        for j, k in enumerate(gamma):
            for _ in range(k):
                pos = up[pos, j]
        shifted[gamma] = pos
    out = np.zeros((reduced.size, reduced.size), dtype=complex)
    for gamma, cg in g.terms.items():
        for delta, cd in g.terms.items():
            out += (cg * cd.conjugate()) * a.entries[np.ix_(shifted[gamma], shifted[delta])]
    return MomentMatrix(reduced, out)


def _rotation_coefficients(basis: IndexBasis, unitary: np.ndarray) -> np.ndarray:
    """Matrix C with (U z)^{alpha_i} = sum_g C[i, g] z^{gamma_g}.

    Degree-preserving: row i is supported on indices of degree |alpha_i|.
    Built along the graded order, extending each parent expansion by one
    linear factor sum_j U[v, j] z_j.
    """
    n = basis.size
    up = basis.shifts[0]
    var, parent = basis.parents
    coeffs = np.zeros((n, n), dtype=complex)
    coeffs[0, 0] = 1.0
    for i in range(1, n):
        parent_row = coeffs[parent[i]]
        for p in np.nonzero(parent_row)[0]:
            # up[p] holds d distinct positions, so the fancy += adds every term
            coeffs[i, up[p]] += unitary[var[i]] * parent_row[p]
    return coeffs


def rotate_moments(a: MomentMatrix, unitary: np.ndarray) -> MomentMatrix:
    """Moment matrix of the rotated measure U_* mu from the moments of mu.

    Monomials in U z expand over monomials of equal degree, so the rotated
    matrix is C A C^H for the multinomial coefficient matrix C.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (a.dimension, a.dimension):
        raise ValueError(f"expected a {a.dimension}x{a.dimension} matrix, got {u.shape}")
    c = _rotation_coefficients(a.basis, u)
    return MomentMatrix(a.basis, c @ a.entries @ c.conj().T)
