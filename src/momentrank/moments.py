"""Truncated moment matrices A = (a_ab), a_ab = integral of z^a conj(z)^b d mu.

Rows and columns are indexed by the multi-indices of total degree <= D in
graded lexicographic order, which makes every degree-D matrix a leading
principal submatrix of the degree-(D+1) matrix.

Every matrix comes from one Gram product of weighted points,
sum_k w_k z_k^alpha conj(z_k)^beta, over a monomial value table built by
iterative multiplication along the graded order (no complex pow calls).  The
points are the atoms of a discrete measure (exact up to rounding), the
recentred atoms of a Galerkin matrix (see operators), or the polar nodes of a
density's per-coordinate disk tables (Gauss-Legendre in radius, trapezoid in
angle), refined until the entries stabilize below 1e-10.
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
    """A multi-index alpha in Z_+^d with total degree |alpha| = sum alpha_i."""

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
    """The tables of one (d, D) basis, built once per process.

    Returns the MultiIndex tuple, the (size, d) exponent array and the
    (2, size, d) shift table; both arrays are read-only because every
    IndexBasis of that (d, D) shares them.
    """
    indices = tuple(
        MultiIndex(entries)
        for degree in range(max_degree + 1)
        for entries in _compositions(degree, dimension)
    )
    position = {mi.entries: i for i, mi in enumerate(indices)}
    exps = np.array([mi.entries for mi in indices], dtype=np.int64)
    shifts = np.empty((2, len(indices), dimension), dtype=np.int64)
    for s, step in enumerate((1, -1)):
        for j in range(dimension):
            moved = exps.copy()
            moved[:, j] += step
            shifts[s, :, j] = [position.get(tuple(e), -1) for e in moved.tolist()]
    exps.flags.writeable = False
    shifts.flags.writeable = False
    return indices, exps, shifts


class IndexBasis:
    """All multi-indices with |alpha| <= max_degree, graded lexicographic order.

    The order sorts by total degree first, then by ascending tuple comparison,
    so the degree-D basis is a prefix of the degree-(D+1) basis.

    `shifts[0]` and `shifts[1]` hold the positions of alpha + e_j and
    alpha - e_j, shape (2, size, d), with -1 where the shifted index leaves
    the basis.
    """

    def __init__(self, dimension: int, max_degree: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.dimension = dimension
        self.max_degree = max_degree
        self.indices, self._exponents, self.shifts = _basis_tables(
            dimension, max_degree
        )

    @property
    def size(self) -> int:
        return len(self.indices)

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


def _parents(basis: IndexBasis) -> tuple[np.ndarray, np.ndarray]:
    """Per index alpha != 0: its first nonzero axis v and the position of its
    parent alpha - e_v, one degree lower (entry 0 is meaningless)."""
    down = basis.shifts[1]
    var = np.argmax(down >= 0, axis=1)
    return var, down[np.arange(basis.size), var]


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
    var, parent = _parents(basis)
    stop = 1
    for degree in range(1, basis.max_degree + 1):
        start, stop = stop, math.comb(degree + basis.dimension, basis.dimension)
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


def _discrete_moment_matrix(
    points: np.ndarray, weights: np.ndarray, basis: IndexBasis
) -> np.ndarray:
    """Gram product sum_k lambda_k z_k^alpha conj(z_k)^beta of weighted points."""
    table = monomial_table(points, basis)
    entries = (table * weights[:, np.newaxis]).T @ table.conj()
    if np.all(weights.imag == 0):
        # real weights make the matrix Hermitian in exact arithmetic;
        # symmetrizing removes the accumulation-order noise of the matmul
        entries += entries.conj().T
        entries *= 0.5
    return entries


# -- density quadrature ------------------------------------------------------
#
# Every catalogued density is a polynomial density sum_gamma c_gamma z^gamma
# (uniform is {0: 1}) times a per-coordinate factor (the Gaussian's
# exp(-|z_j|^2 / 2) / (2 pi), or 1), so the tensor-product rule reduces to
# 1-D tables t_j[p, q] = integral over the j-th disk of z^p conj(z)^q rho_j(z)
# dm(z).  Each table is the Gram product of weighted polar nodes, refined
# until stable; with real node weights it comes out exactly Hermitian.

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
    """Refined table of disk moments (p_max >= q_max); raises QuadratureError
    if unstable."""
    basis = IndexBasis(1, p_max)
    current = None
    errors: list[float] = []
    for level in range(_MAX_REFINEMENTS + 1):
        n_r = (p_max + q_max + 2) << level
        n_theta = 4 * (p_max + q_max + 1) << level
        nodes, gl_weights = _gauss_legendre(n_r)
        r = 0.5 * radius * (nodes + 1.0)
        wr = 0.5 * radius * gl_weights * r  # polar Jacobian folded in
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        z = (center + r[:, np.newaxis] * np.exp(1j * theta)[np.newaxis, :]).ravel()
        w = np.repeat(wr * (2.0 * np.pi / n_theta), n_theta)
        if radial_density is not None:
            w = w * radial_density(z)
        refined = _discrete_moment_matrix(z, w, basis)[:, : q_max + 1]
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


_CONDITION_LIMIT = 1e12


def numerical_rank(a: MomentMatrix | np.ndarray, rel_tol: float = 1e-8) -> RankResult:
    """Count of singular values above rel_tol times the largest one.

    The all-zero matrix has rank 0.  The result is flagged ill-conditioned
    when sigma_max / sigma_rank exceeds 1e12.
    """
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    entries = a.entries if isinstance(a, MomentMatrix) else np.asarray(a, dtype=complex)
    try:
        sigma = np.linalg.svd(entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    sigma = np.sort(sigma)[::-1]
    if sigma.size == 0 or sigma[0] == 0.0:
        return RankResult(0, sigma, False)
    rank = int(np.count_nonzero(sigma > rel_tol * sigma[0]))
    ill = bool(rank > 0 and sigma[0] / sigma[rank - 1] > _CONDITION_LIMIT)
    return RankResult(rank, sigma, ill)


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
    var, parent = _parents(basis)
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
