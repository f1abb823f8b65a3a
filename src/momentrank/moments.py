"""Truncated moment matrices A = (a_ab), a_ab = integral of z^a conj(z)^b d mu.

Rows and columns are indexed by the multi-indices of total degree <= D in
graded lexicographic order, which makes every degree-D matrix a leading
principal submatrix of the degree-(D+1) matrix.  `IndexBasis` owns that
layout as read-only integer arrays (exponents, +-e_j shifts, degree offsets,
parents), built once per (d, D); no other code works it out again.

A discrete measure's matrix is one Gram product of weighted points,
sum_k w_k z_k^alpha conj(z_k)^beta, over a monomial value table built by
iterative multiplication along the graded order (no complex pow calls); it
is exact up to rounding, and a Galerkin matrix rescales it (see operators).
A density's matrix is assembled from per-coordinate disk tables.  Uniform
and polynomial tables are in closed form: the Gram product of the binomial
shift of z^p about the disk's centre with the centred disk's moments, so
they are exact up to rounding, entry by entry.  The Gaussian factor depends
only on |z|, so its table is integrated about the origin: exactly in angle
over each circle's arc inside the disk, and by Gauss-Legendre in radius,
doubling up to 2048 nodes until the entries stabilize below 1e-10, up to
degree 504, the last whose rules fit twice within that cap.

`numerical_rank` counts singular values above a relative threshold.  A
square matrix of size >= 32 is first compressed by one seeded randomized
range sketch, A ~ Q B with B = Q^H A, whose residual ||A - Q B||_F is
computed exactly (`_range_sketch`; atomic moment and Galerkin matrices have
rank N far below their size).  Its width starts at 8 and doubles while the
sketch has full rank, up to max(8, n // 8), and Q then keeps the N + 1
columns it needs.  Two certificates read it: the rank's, when every
singular value sits clear of the threshold by more than the residual
(`_sketched_ranks`), and the spectrum's, when the residual is within a
dense eigensolver's own backward error (`operators.spectrum`).  When a
certificate cannot settle its question, as for a density's full-rank
matrix, the dense SVD or eigensolver decides (`_dense_ranks`).  One
`_BlockRanker` of A answers a whole list of rank queries at once, as
`recovery.verify_theorem` asks them: A's leading blocks, their diagonal
rescalings s A s and other matrices of A's size, off A's one sketch in
two stacked QRs and one stacked SVD, and the blocks below the sketch's
floor in one zero-padded stacked SVD; no stack holds more than 1 MB.
`numerical_rank` runs the same functions on a stack of one matrix.  A
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
    """A density's disk table could not be formed: its entries overflow, or
    the Gaussian's degree is past its rule's cap (`estimates` None), or the
    Gaussian's refinement did not converge (`estimates` holds the last two
    refinement errors)."""

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        self.estimates = estimates
        super().__init__(message)


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


_ROW_BLOCK_BYTES = 1 << 16
_MIN_BLOCK_ROWS = 32


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an n-column complex matrix, about 64 KB each but at
    least 32 rows: the one block rule of every pass over an n x n matrix
    that would otherwise form an n x n temporary.  (Without the floor, a
    large n would get blocks of a few rows, each a BLAS call too small to
    run at speed.)"""
    step = max(_MIN_BLOCK_ROWS, _ROW_BLOCK_BYTES // (16 * n))
    return [slice(start, start + step) for start in range(0, n, step)]


def _gram(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram product sum_k lambda_k t_k^alpha conj(t_k)^beta of a weighted
    monomial table; with real weights it is symmetrized to be exactly
    Hermitian."""
    entries = (table * weights[:, np.newaxis]).T @ table.conj()
    if np.all(weights.imag == 0):
        # real weights make the matrix Hermitian in exact arithmetic;
        # symmetrizing, a_ij <- (a_ij + conj(a_ji)) / 2, removes the
        # accumulation-order noise of the matmul.  Row block I and column
        # block I, from the diagonal on, are averaged with each other's
        # conjugate transposes, so the only temporaries are row blocks
        for rows in _row_blocks(len(entries)):
            tail = slice(rows.start, None)
            upper = entries[rows, tail] + entries[tail, rows].conj().T
            lower = entries[tail, rows] + entries[rows, tail].conj().T
            upper *= 0.5
            lower *= 0.5
            entries[rows, tail] = upper
            entries[tail, rows] = lower
    return entries


# -- density tables ----------------------------------------------------------
#
# Every catalogued density is a polynomial density sum_gamma c_gamma z^gamma
# (uniform is {0: 1}), or the Gaussian prod_j exp(-|z_j|^2 / 2) / (2 pi), so
# the tensor-product rule reduces to 1-D tables t_j[p, q] = integral over the
# j-th disk of z^p conj(z)^q rho_j(z) dm(z).
#
# Without the Gaussian factor the table is in closed form (`_disk_table`):
# with z = c + w, t[p, q] = sum_{a <= min(p, q)} C(p, a) C(q, a) c^(p - a)
# conj(c)^(q - a) pi r^(2a + 2) / (a + 1).  Every term has the phase
# e^{i (p - q) arg c} and a positive modulus, so no digits cancel.
#
# The Gaussian factor depends only on |z|, so its table is integrated in polar
# coordinates about the origin, z = rho e^{i phi}, where z^p conj(z)^q =
# rho^n e^{ik phi} with n = p + q, k = p - q.  The integral over phi of each
# circle's part inside the disk is exact: a whole circle (rho < r - |c|)
# gives 2 pi [k = 0], and an arc |phi - arg c| < beta gives e^{ik arg c}
# S_k(beta), S_k(beta) = 2 sin(k beta) / k, S_0 = 2 beta.  One smooth radial
# integral is left per piece, taken by Gauss-Legendre rules doubling to
# _MAX_RADII nodes (numpy's leggauss solves a dense eigenproblem, ~0.7 s at
# 2048) until two agree within 1e-10.  Only radii within sqrt(2 degree) + 8
# of the disk's point nearest the origin are kept: past them the factor's
# moments up to rho^(2 degree) are below e^-32 of their value there.  The
# powers are formed as exp(n log rho - rho^2 / 2) and |c| r as g^2 with
# g = sqrt(|c|) sqrt(r), so disks out to 1e300 do not overflow.

_QUAD_TOL = 1e-10
_MAX_RADII = 1 << 11
# the highest degree whose first rule, 2 degree + 16 nodes, leaves room for
# a second, twice as large, within _MAX_RADII nodes
_MAX_GAUSSIAN_DEGREE = (_MAX_RADII // 2 - 16) // 2


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _disk_table(center: complex, radius: float, p_max: int, q_max: int) -> np.ndarray:
    """Table of disk moments t[p, q] = integral over |z - c| < r of
    z^p conj(z)^q dm(z), p <= p_max, q <= q_max (p_max >= q_max), in closed
    form: the Gram product of shift[a, p] = C(p, a) c^(p - a), the
    coefficient of w^a in (c + w)^p, with the real weights
    pi r^(2a + 2) / (a + 1), so it is Hermitian bit for bit and a centred
    disk's table is diagonal.  Raises QuadratureError when it overflows.
    """
    p = np.arange(p_max + 1)
    shift = np.zeros((p_max + 1, p_max + 1), dtype=complex)
    # an overflow shows as a non-finite table, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        shift[0] = np.cumprod(np.r_[1.0, np.full(p_max, center, dtype=complex)])
        for k in range(1, p_max + 1):
            shift[k, k:] = shift[k - 1, k - 1 : -1] * p[k:] / k
        table = _gram(shift, np.pi * radius ** (2.0 * p + 2) / (p + 1))[:, : q_max + 1]
    if not np.all(np.isfinite(table)):
        raise QuadratureError(
            f"disk moments overflow: centre {center}, radius {radius}, degree {p_max}"
        )
    return table


def _gaussian_disk_table(center: complex, radius: float, degree: int) -> np.ndarray:
    """Table of t[p, q] = integral over |z - c| < r of z^p conj(z)^q
    exp(-|z|^2 / 2) / (2 pi) dm(z), p, q <= degree, in polar coordinates
    about the origin.  The whole circles rho < r - |c| are integrated in
    rho, the arcs |r - |c|| < rho < r + |c| in psi, the angle at the centre
    from the origin's side: rho^2 = (r - |c|)^2 + (2 g sin(psi / 2))^2 with
    g^2 = |c| r, so rho drho = g^2 sin(psi) dpsi.  Both take Gauss-Legendre
    rules from 2 degree + 16 nodes, doubling until two levels agree within
    1e-10 max(1, max |t|).  Entry (p, q) is R[p + q, |p - q|] e^{i (p - q)
    arg c} for a real R, so the table is Hermitian bit for bit.  Raises
    QuadratureError when no two levels within _MAX_RADII nodes agree, and
    before forming any rule when the degree is past 504, where no two
    levels fit.
    """
    if degree > _MAX_GAUSSIAN_DEGREE:
        raise QuadratureError(
            f"Gaussian disk moments of degree {degree} are past the quadrature's cap of "
            f"degree {_MAX_GAUSSIAN_DEGREE} (two Gauss-Legendre rules within {_MAX_RADII} nodes)"
        )
    a, g = abs(center), math.sqrt(abs(center)) * math.sqrt(radius)
    window = max(0.0, a - radius) + math.sqrt(2 * degree) + 8.0
    whole, top, gap = min(radius - a, window), min(radius + a, window), abs(radius - a)
    half = 0.0  # psi / 2 where the arcs leave the window
    if a > 0 and top > gap:
        edge = math.sqrt((top - gap) / g / 2) * math.sqrt((top + gap) / g / 2)
        half = math.asin(min(1.0, edge))
    p, q = np.indices((degree + 1, degree + 1))
    phase = np.exp(1j * np.abs(p - q) * np.angle(center))
    phase = np.where(p >= q, phase, phase.conj())
    powers, k = np.arange(2 * degree + 1)[:, np.newaxis], np.arange(1, degree + 1)
    current, errors, n = None, [], 2 * degree + 16
    while n <= _MAX_RADII:
        x, w = _gauss_legendre(n)
        radial = np.zeros((2 * degree + 1, degree + 1))  # R[p + q, |p - q|]
        with np.errstate(over="ignore"):  # rho^2 past the float range: exp(-inf) = 0
            if whole > 0:  # the angle's integral 2 pi [k = 0], times 1 / (2 pi)
                rho = 0.5 * whole * (x + 1.0)
                radial[:, 0] = np.exp(powers * np.log(rho) - rho**2 / 2) @ (0.5 * whole * w * rho)
            if half > 0:  # the arc |phi - arg c| < beta: e^{ik arg c} S_k(beta)
                psi = half * (x + 1.0)
                sine = np.sin(psi / 2)
                rho = np.hypot(gap, g * (2 * sine))
                beta = np.arctan2(radius * np.sin(psi), (a - radius) + radius * (2 * sine**2))
                arcs = np.hstack([2 * beta[:, np.newaxis], 2 * np.sin(np.outer(beta, k)) / k])
                arcs *= ((g * np.sin(psi)) * (g * half * w) / (2 * np.pi))[:, np.newaxis]
                radial += np.exp(powers * np.log(rho) - rho**2 / 2) @ arcs
        refined = radial[p + q, np.abs(p - q)] * phase
        if current is not None:
            err = float(np.max(np.abs(refined - current)))
            errors.append(err)
            if err <= _QUAD_TOL * max(1.0, float(np.max(np.abs(refined)))):
                return refined
        current, n = refined, 2 * n
    last = (errors[-2] if len(errors) > 1 else math.inf, errors[-1] if errors else math.nan)
    raise QuadratureError(
        f"quadrature did not converge; last two refinement errors: {last[0]:.3e}, {last[1]:.3e}",
        last,
    )


def _density_moment_matrix(m: DensityMeasure, basis: IndexBasis) -> np.ndarray:
    D = basis.max_degree
    exps = basis.entries_array()
    g = m.density.polynomial
    if g is None:
        g = PolynomialWeight.constant(m.dimension)
    gaussian = m.density.kind == "gaussian"
    # columns[j][p, k] = t_j[p, beta_kj]: each table's columns gathered once,
    # so entry (i, k) of a term's j-th factor is row alpha_ij + gamma_j there
    columns = [
        (_gaussian_disk_table(c, r, D) if gaussian else _disk_table(c, r, D + g.degree, D))[
            :, exps[:, j]
        ]
        for j, (c, r) in enumerate(zip(m.domain.center.coords, m.domain.radii))
    ]
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for rows in _row_blocks(basis.size):
        alpha = exps[rows]
        for gamma, coeff in g.terms.items():
            term = np.ones((len(alpha), basis.size), dtype=complex)
            for j, cols in enumerate(columns):
                term *= cols[alpha[:, j] + gamma[j]]
            out[rows] += coeff * term
    return out


def moment_matrix(m: DiscreteMeasure | DensityMeasure, max_degree: int) -> MomentMatrix:
    """Assemble the truncated moment matrix of a measure up to total degree D."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    basis = IndexBasis(m.dimension, max_degree)
    if isinstance(m, DiscreteMeasure):
        entries = _gram(monomial_table(m.locations_matrix(), basis), m.weights_vector())
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
_SKETCH_MIN_SIZE = 32
_SKETCH_START, _SKETCH_RATIO = 8, 8  # widths 8, 16, ... while full rank, up to max(8, n // 8)


def _rank_results(s: np.ndarray, sizes, rel_tol: float) -> list[RankResult]:
    """Rank and conditioning of each of a stack of matrices, read off its
    row of s: non-increasing singular values, the first sizes[i] of them
    the matrix's, taken as 0 past the row's end.  The rows are counted one
    at a time, so a lone row costs one numpy count and scalar work."""
    found = []
    for i, size in enumerate(sizes):
        row = s[i]
        if size > len(row):
            row = np.concatenate([row, np.zeros(size - len(row))])
        top = float(row[0]) if len(row) else 0.0
        if not math.isfinite(top):
            raise NumericalError(f"largest singular value {top} is not finite")
        rank = int(np.count_nonzero(row > rel_tol * top))  # 0 when top is 0
        ill = rank > 0 and top / row[rank - 1] > _CONDITION_LIMIT
        found.append(RankResult(rank, row[:size], bool(ill)))
    return found


_STACK_BYTES = 1 << 20


def _stack_chunks(items: list, entries_each: int) -> list[list]:
    """`items` cut into chunks whose stacks of complex matrices of
    `entries_each` entries each (at least one) hold at most 1 MB, as much as
    32 rows of a desk-scale (n ~ 2000) matrix, and at least one matrix: a
    small matrix's queries take one chunk, and no n x n temporary is made."""
    step = max(1, _STACK_BYTES // 16 // max(1, entries_each))
    return [items[start : start + step] for start in range(0, len(items), step)]


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

    def error(self) -> float:
        """||A - Q B||_F + n eps ||A||_F, with ||A||_F bounded by the
        orthogonal split A = Q B - (Q B - A), without another pass over A."""
        n = len(self.q)
        return self.residual + n * np.finfo(float).eps * np.hypot(self.residual, self.b_norm)


def _sketch_residual(q: np.ndarray, b: np.ndarray, entries: np.ndarray) -> float:
    """||A - Q B||_F for A = entries, with the gap formed one row block
    (`_row_blocks`) at a time, so no n x n temporary is made."""
    gap_sq = 0.0
    for rows in _row_blocks(len(entries)):
        gap = q[rows] @ b
        gap -= entries[rows]
        gap_sq += float(np.vdot(gap, gap).real)
    return math.sqrt(gap_sq)


def _range_sketch(entries: np.ndarray, rel_tol: float) -> _RangeSketch | None:
    """Q, B = Q^H A, ||A - Q B||_F and ||B||_F for a square matrix A of size
    n >= 32, or None for any other matrix, when the sketch has full rank, and
    when a finite A overflows the sketch.

    Y = A Omega and Q R = Y (Halko, Martinsson and Tropp, SIAM Review 2011)
    for the first l columns of one seed-0 complex Gaussian Omega of
    max(8, n // 8) columns.  l starts at 8 and doubles, appending A Omega's
    next columns, while |R_ll| > rel_tol |R_11| shows Y at full rank; at
    Omega's full width A is then not low-rank, and neither B nor the
    residual is formed.  Otherwise Q keeps its columns up to the last k with
    |R_kk| > rel_tol |R_11|, and one more (at least one): still orthonormal,
    so `_sketched_ranks`'s bound holds, and as wide as A's rank.  The residual
    is exact (`_sketch_residual`).  Entries near the
    float range overflow Y, R or the norms; the sketch then declines without
    a warning and the caller's dense path decides.
    """
    if not (entries.ndim == 2 and entries.shape[0] == entries.shape[1] >= _SKETCH_MIN_SIZE):
        return None
    n = entries.shape[0]
    omega = _sketch_matrix(n, max(_SKETCH_START, n // _SKETCH_RATIO))
    with np.errstate(over="ignore", invalid="ignore"):
        y = entries @ omega[:, :_SKETCH_START]
        while True:
            if not np.all(np.isfinite(y)):
                return None
            q, r = np.linalg.qr(y)
            full = abs(r[-1, -1]) > rel_tol * abs(r[0, 0])  # Y has full rank
            if not np.all(np.isfinite(r)) or (full and y.shape[1] == omega.shape[1]):
                return None
            if not full:
                break
            y = np.hstack([y, entries @ omega[:, y.shape[1] : 2 * y.shape[1]]])
        needed = np.flatnonzero(np.abs(r.diagonal()) > rel_tol * abs(r[0, 0]))
        q = q[:, : int(np.max(needed, initial=-1)) + 2]
        b = q.conj().T @ entries
        residual, b_norm = _sketch_residual(q, b, entries), float(np.linalg.norm(b))
    if not (np.isfinite(residual) and np.isfinite(b_norm)):
        return None
    return _RangeSketch(q, b, residual, b_norm)


def _settled(s: np.ndarray, err: np.ndarray, rel_tol: float) -> np.ndarray:
    """Whether the certificate settles the rank of each matrix X_i whose
    singular values lie within err[i] of row i of s (Weyl), non-increasing
    and taken as 0 past its end.  The threshold rel_tol sigma_1(X) lies
    within rel_tol err of rel_tol s_1, and a count is accepted only if err
    lies below that threshold and no s_j lies within err of where it can
    fall, so the dense SVD would count the same."""
    e, top = err[:, np.newaxis], s[:, :1]
    low, high = rel_tol * (top - e), rel_tol * (top + e)
    return (e < low)[:, 0] & ~((s >= low - e) & (s <= high + e)).any(axis=1)


def _sketched_ranks(sketch: _RangeSketch, queries, rel_tol: float) -> list:
    """The ranks of the matrices that `queries` name, read off the range
    sketch of a square matrix A of size n, or None for each one that the
    certificate (`_settled`) cannot settle.

    A query (k, scale, None) names S A_k S, for the leading k-block A_k of A
    and S = diag(scale) > 0 (S = I when scale is None).  With S Q_k = Q_x
    R_x, S A_k S = Q_x (R_x B_k S) - S E_k S for E = Q B - A, and
    ||S E_k S||_F <= max(s)^2 ||E||_F; so every sigma_i(S A_k S) lies within
    max(s)^2 `sketch.error()` of sigma_i(R_x B_k S).  A query (n, None, C)
    names a matrix C of size n read off A's Q: C = Q (Q^H C) - (C - Q Q^H C),
    with C's own exact residual ||C - Q Q^H C||_F and split in place of A's.

    A query of A itself, alone, is read off the SVD of B.  Otherwise each
    factor M = R_x B_k S (R_x = I for A itself) has the singular values of
    the l x l matrix R_x R^H, for (B_k S)^H = Q' R, so it is never formed:
    each chunk of queries (`_stack_chunks`) takes one stacked QR of the
    (B_k S)^H, zero-padded to n rows, one of the S Q_k that need it, and one
    stacked SVD of l x l matrices.  A query whose factors overflow is left
    to its caller.
    """
    q, b = sketch.q, sketch.b
    n, width = q.shape
    error = sketch.error()
    found = []
    for part in [queries] if len(queries) == 1 else _stack_chunks(queries, width * n):
        sizes = [size for size, _, _ in part]
        if sizes == [n] and part[0][1] is None and part[0][2] is None:  # A itself, alone
            r, err = b, np.array([error])
        else:
            pads, err = np.zeros((len(part), n)), np.empty(len(part))
            for i, (size, scale, _) in enumerate(part):
                pads[i, :size] = 1.0 if scale is None else scale
                bound = 1.0 if scale is None else float(np.max(scale)) ** 2
                err[i] = bound * error
            rotated = [
                i for i, (size, scale, c) in enumerate(part)
                if c is None and (size < n or scale is not None)
            ]
            with np.errstate(over="ignore", invalid="ignore"):
                tall = b.conj().T * pads[:, :, np.newaxis]
                for i, (_, _, c) in enumerate(part):
                    if c is not None:
                        m = q.conj().T @ c
                        tall[i] = m.conj().T
                        gap = _sketch_residual(q, m, c)
                        err[i] = gap + n * np.finfo(float).eps * np.hypot(gap, np.linalg.norm(m))
                r = np.linalg.qr(tall, mode="r")
                if rotated:
                    r_x = np.linalg.qr(q * pads[rotated][:, :, np.newaxis], mode="r")
                    r[rotated] = r_x @ np.swapaxes(r[rotated], 1, 2).conj()
                overflowed = ~np.all(np.isfinite(r), axis=(1, 2))
            if overflowed.any():
                r[overflowed], err[overflowed] = 0.0, np.inf
        try:
            s = np.linalg.svd(r, compute_uv=False).reshape(len(part), -1)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed: {exc}") from exc
        if min(sizes) < width:
            s[np.arange(width) >= np.asarray(sizes)[:, np.newaxis]] = 0.0
        settled = _settled(s, err, rel_tol)
        found += [x if ok else None for x, ok in zip(_rank_results(s, sizes, rel_tol), settled)]
    return found


def _dense_ranks(matrices: list, rel_tol: float) -> list[RankResult]:
    """The rank of each matrix read off the dense SVD, the path that decides
    whenever no sketch settles a rank.  A lone matrix goes to LAPACK as it
    is, square or not; square ones are zero-padded to the largest one's
    size, which adds only zero singular values, one stacked SVD per chunk
    (`_stack_chunks`).  Non-finite entries raise NumericalError first."""
    parts = [matrices]
    if len(matrices) > 1:
        width = max(len(x) for x in matrices)
        parts = _stack_chunks(matrices, width * width)
    found = []
    for part in parts:
        if len(part) == 1:
            stack = part[0]
        else:
            stack = np.zeros((len(part), width, width), dtype=complex)
            for x, slot in zip(part, stack):
                slot[: len(x), : len(x)] = x
        if not np.isfinite(stack).all():
            raise NumericalError("matrix has non-finite entries")
        try:
            s = np.linalg.svd(stack, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed: {exc}") from exc
        s = np.sort(s, axis=-1)[..., ::-1].reshape(len(part), -1)
        found += _rank_results(s, [min(x.shape) for x in part], rel_tol)
    return found


class _BlockRanker:
    """Numerical ranks, by `numerical_rank`'s rule, of the leading blocks
    A_k of one square matrix A, of their rescalings S A_k S (S = diag(s) >
    0), and of matrices of A's size whose range lies near A's, a list of
    queries at a time.

    The ranker holds A's one range sketch (`_range_sketch`), or None when
    it declined.  A query is decided by `_sketched_ranks` off that sketch,
    for a block of size >= 16 (twice the sketch's first width) and every
    matrix of A's size, where its certificate settles it; by one
    `_dense_ranks` call for the blocks below the sketch's floor of 32 that
    it does not serve; and otherwise as `numerical_rank` decides it: by
    `_dense_ranks` for A itself, whose sketch has already declined or left
    the rank open, and by `numerical_rank` of the formed matrix for any
    other.
    """

    def __init__(self, entries: np.ndarray, rel_tol: float):
        self.entries, self.rel_tol = entries, rel_tol
        try:
            self.sketch = _range_sketch(entries, rel_tol)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed: {exc}") from exc

    def ranks(self, blocks, others=()) -> list[RankResult]:
        """The RankResult of S A_k S for each (k, scale) of blocks (scale
        None for S = I), then of each n x n matrix of others."""
        n = len(self.entries)
        queries = [(size, scale, None) for size, scale in blocks]
        queries += [(n, None, c) for c in others]
        found = [None] * len(queries)
        sketched = [
            i for i, (size, _, c) in enumerate(queries)
            if self.sketch is not None and (c is not None or size >= 2 * _SKETCH_START)
        ]
        if sketched:
            answers = _sketched_ranks(self.sketch, [queries[i] for i in sketched], self.rel_tol)
            for i, answer in zip(sketched, answers):
                found[i] = answer
        small = [
            i for i, (size, _, _) in enumerate(queries)
            if i not in sketched and size < _SKETCH_MIN_SIZE
        ]
        if small:
            formed = [self._formed(*queries[i]) for i in small]
            for i, answer in zip(small, _dense_ranks(formed, self.rel_tol)):
                found[i] = answer
        for i, (size, scale, c) in enumerate(queries):
            if found[i] is None:
                if c is None and scale is None and size == n >= _SKETCH_MIN_SIZE:
                    found[i] = _dense_ranks([self.entries], self.rel_tol)[0]
                else:
                    found[i] = numerical_rank(self._formed(size, scale, c), self.rel_tol)
        return found

    def _formed(self, size: int, scale, other) -> np.ndarray:
        if other is not None:
            return other
        block = self.entries[:size, :size]
        if scale is not None:
            block = block * scale[:, np.newaxis]
            block *= scale
        return block


def numerical_rank(a: MomentMatrix | np.ndarray, rel_tol: float = _RANK_TOL) -> RankResult:
    """Count of singular values above rel_tol times the largest one.

    The all-zero matrix has rank 0.  The result is flagged ill-conditioned
    when sigma_max / sigma_rank exceeds 1e12.  Non-finite entries raise
    NumericalError before any LAPACK call, and so does an overflowed sigma_max.

    A square matrix of size n >= 32 is first ranked by `_sketched_ranks`,
    the one query of its own `_range_sketch` (width 8, doubled up to
    max(8, n // 8) while it has full rank, then cut to the rank's columns
    and one more, with an exact residual).  When the residual certifies
    that every singular value sits clear of the threshold, that count is
    returned, with the singular values of B = Q^H A and zeros past them.
    Otherwise, and for every smaller or rectangular matrix, the dense SVD
    of the matrix alone decides (`_dense_ranks`): the same rank.
    """
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    entries = a.entries if isinstance(a, MomentMatrix) else np.asarray(a, dtype=complex)
    if entries.ndim > 2:
        raise ValueError(f"expected a matrix, got an array of shape {entries.shape}")
    try:  # non-finite entries make the sketch decline and _dense_ranks raise
        sketch = _range_sketch(entries, rel_tol)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if sketch is not None:
        found, = _sketched_ranks(sketch, [(len(entries), None, None)], rel_tol)
        if found is not None:
            return found
    return _dense_ranks([entries], rel_tol)[0]


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
    h = entries.T.copy()  # the one n x n buffer, H formed in place
    np.conjugate(h, out=h)  # in C order, as entries, so the sum runs row by row
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
