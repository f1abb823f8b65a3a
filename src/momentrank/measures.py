"""Complex measures on C^d and the transformations used throughout the library.

Two measure representations are supported: finite atomic measures (complex
point masses) and absolutely continuous measures given by a catalogued
density on a polydisk.  The transformations are the ones the rank/recovery
machinery needs:

  * coordinate pushforward  nu(E) = mu(pi^{-1} E),
  * reweighting  mu_g = |g|^2 mu  for a holomorphic polynomial g,
  * unitary coordinate rotation,

plus seeded generators for random unitaries, perturbation polynomials
g = 1 + eps*ell, and random well-separated test measures.

All types are immutable values; every operation is pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComplexPoint",
    "Atom",
    "DiscreteMeasure",
    "Polydisk",
    "DensitySpec",
    "DensityMeasure",
    "PolynomialWeight",
    "UnitarityError",
    "pushforward_drop_coord",
    "weight_by_g",
    "rotate_unitary",
    "random_unitary",
    "random_linear_polynomial",
    "perturb_weight",
    "generate_measure",
]


class UnitarityError(ValueError):
    """Raised when a matrix fails the unitarity tolerance; carries the deviation."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = deviation
        self.tol = tol
        super().__init__(
            f"matrix is not unitary: ||U*U - I||_F = {deviation:.3e} > {tol:.1e}"
        )


def _as_complex_tuple(values) -> tuple[complex, ...]:
    return tuple(complex(v) for v in values)


@dataclass(frozen=True)
class ComplexPoint:
    """A point z = (z_1, ..., z_d) in C^d."""

    coords: tuple[complex, ...]

    def __post_init__(self):
        coords = _as_complex_tuple(self.coords)
        if len(coords) < 1:
            raise ValueError("a point needs at least one coordinate")
        for c in coords:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coordinate {c!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coords))

    def distance(self, other: "ComplexPoint") -> float:
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch in distance")
        return math.sqrt(
            sum(abs(a - b) ** 2 for a, b in zip(self.coords, other.coords))
        )


@dataclass(frozen=True)
class Atom:
    """A point mass lambda * delta(z - location) with nonzero weight."""

    location: ComplexPoint
    weight: complex

    def __post_init__(self):
        object.__setattr__(self, "weight", complex(self.weight))
        if self.weight == 0:
            raise ValueError("atom weight must be nonzero")
        if not (math.isfinite(self.weight.real) and math.isfinite(self.weight.imag)):
            raise ValueError("atom weight must be finite")


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite atomic measure sum_k lambda_k delta(z - zeta_k) on C^d.

    Atoms at exactly coinciding locations are merged by weight summation at
    construction; merged weights that cancel to zero are dropped.  The empty
    measure is allowed (it still carries a dimension).
    """

    dimension: int
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        merged: dict[tuple[complex, ...], complex] = {}
        order: list[tuple[complex, ...]] = []
        for atom in self.atoms:
            if atom.location.dimension != self.dimension:
                raise ValueError(
                    f"atom in C^{atom.location.dimension} inside a measure on "
                    f"C^{self.dimension}"
                )
            key = atom.location.coords
            if key not in merged:
                merged[key] = 0j
                order.append(key)
            merged[key] += atom.weight
        atoms = tuple(
            Atom(ComplexPoint(key), merged[key]) for key in order if merged[key] != 0
        )
        object.__setattr__(self, "atoms", atoms)

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def total_mass(self) -> complex:
        return sum((a.weight for a in self.atoms), 0j)

    def locations_matrix(self) -> np.ndarray:
        """Atom locations as an (N, d) complex array."""
        if not self.atoms:
            return np.zeros((0, self.dimension), dtype=complex)
        return np.array([a.location.coords for a in self.atoms], dtype=complex)

    def weights_vector(self) -> np.ndarray:
        return np.array([a.weight for a in self.atoms], dtype=complex)


@dataclass(frozen=True)
class Polydisk:
    """A polydisk {z : |z_j - c_j| < r_j} with strictly positive radii."""

    center: ComplexPoint
    radii: tuple[float, ...]

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if len(radii) != self.center.dimension:
            raise ValueError("radii length must match the center dimension")
        if any(not math.isfinite(r) or r <= 0 for r in radii):
            raise ValueError("radii must be finite and strictly positive")
        object.__setattr__(self, "radii", radii)

    @property
    def dimension(self) -> int:
        return self.center.dimension


@dataclass(frozen=True)
class PolynomialWeight:
    """A holomorphic polynomial g(z) = sum_alpha c_alpha z^alpha on C^d.

    Terms map multi-indices (tuples of nonnegative ints of length d) to
    complex coefficients.  Evaluation is exact term-by-term summation.
    """

    dimension: int
    terms: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        cleaned: dict[tuple[int, ...], complex] = {}
        for alpha, coeff in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.dimension or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for dimension {self.dimension}")
            coeff = complex(coeff)
            if coeff != 0:
                cleaned[alpha] = cleaned.get(alpha, 0j) + coeff
        object.__setattr__(self, "terms", {a: c for a, c in cleaned.items() if c != 0})

    @classmethod
    def constant(cls, dimension: int, value: complex = 1.0) -> "PolynomialWeight":
        return cls(dimension, {(0,) * dimension: complex(value)})

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(alpha) for alpha in self.terms)

    def evaluate(self, coords) -> complex:
        zs = _as_complex_tuple(
            coords.coords if isinstance(coords, ComplexPoint) else coords
        )
        if len(zs) != self.dimension:
            raise ValueError("point dimension does not match polynomial dimension")
        total = 0j
        for alpha, coeff in self.terms.items():
            term = coeff
            for z, a in zip(zs, alpha):
                for _ in range(a):
                    term *= z
            total += term
        return total


@dataclass(frozen=True)
class DensitySpec:
    """A catalogued density on a polydisk.

    kinds:
      * "uniform"    : rho(z) = 1
      * "gaussian"   : rho(z) = (2 pi)^{-d} exp(-|z|^2 / 2)
      * "polynomial" : rho(z) = g(z) for a holomorphic polynomial g
                       (times the uniform measure; the density may be complex)
    """

    kind: str
    polynomial: PolynomialWeight | None = None

    _KINDS = ("uniform", "gaussian", "polynomial")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "polynomial" and self.polynomial is None:
            raise ValueError("polynomial density requires a polynomial")
        if self.kind == "polynomial" and not self.polynomial.terms:
            # the zero measure: a density of rank 0, not full rank
            raise ValueError("polynomial density needs a nonzero term")
        if self.kind != "polynomial" and self.polynomial is not None:
            raise ValueError(f"{self.kind} density takes no polynomial")

    def evaluate(self, point: ComplexPoint) -> complex:
        if self.kind == "uniform":
            return 1.0 + 0j
        if self.kind == "gaussian":
            d = point.dimension
            return (2 * math.pi) ** (-d) * math.exp(-point.norm() ** 2 / 2) + 0j
        return self.polynomial.evaluate(point)


@dataclass(frozen=True)
class DensityMeasure:
    """An absolutely continuous measure rho(z) dm(z) supported on a polydisk."""

    dimension: int
    domain: Polydisk
    density: DensitySpec

    def __post_init__(self):
        if self.domain.dimension != self.dimension:
            raise ValueError("domain dimension does not match measure dimension")
        if self.density.kind == "polynomial":
            if self.density.polynomial.dimension != self.dimension:
                raise ValueError("density polynomial dimension mismatch")
        # sanity probe: the density must be finite at the center
        value = self.density.evaluate(self.domain.center)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError("density is not finite on the domain")


# ---------------------------------------------------------------------------
# measure-level transformations
# ---------------------------------------------------------------------------

def pushforward_drop_coord(m: DiscreteMeasure, axis: int) -> DiscreteMeasure:
    """Induced measure on C^{d-1} under the projection dropping one coordinate.

    Atoms whose projected locations coincide exactly have their weights
    summed; zero sums are dropped (weight cancellation is allowed).
    """
    if m.dimension < 2:
        raise ValueError("cannot project below dimension 1")
    if not 0 <= axis < m.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {m.dimension}")
    projected = [
        Atom(
            ComplexPoint(a.location.coords[:axis] + a.location.coords[axis + 1:]),
            a.weight,
        )
        for a in m.atoms
    ]
    return DiscreteMeasure(m.dimension - 1, tuple(projected))


def weight_by_g(m: DiscreteMeasure, g: PolynomialWeight) -> DiscreteMeasure:
    """The reweighted measure |g|^2 mu: each weight becomes |g(zeta_k)|^2 lambda_k."""
    if g.dimension != m.dimension:
        raise ValueError("polynomial dimension does not match measure dimension")
    atoms = []
    for a in m.atoms:
        gz = g.evaluate(a.location)
        if gz == 0:
            continue
        atoms.append(Atom(a.location, (abs(gz) ** 2) * a.weight))
    return DiscreteMeasure(m.dimension, tuple(atoms))


_UNITARY_TOL = 1e-12


def rotate_unitary(m: DiscreteMeasure, unitary: np.ndarray) -> DiscreteMeasure:
    """Rotate atom locations zeta_k -> U zeta_k; weights are unchanged."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (m.dimension, m.dimension):
        raise ValueError(f"expected a {m.dimension}x{m.dimension} matrix, got {u.shape}")
    deviation = float(
        np.linalg.norm(u.conj().T @ u - np.eye(m.dimension), ord="fro")
    )
    if deviation > _UNITARY_TOL:
        raise UnitarityError(deviation, _UNITARY_TOL)
    atoms = tuple(
        Atom(ComplexPoint(tuple(u @ np.array(a.location.coords))), a.weight)
        for a in m.atoms
    )
    return DiscreteMeasure(m.dimension, atoms)


def random_unitary(dimension: int, seed: int) -> np.ndarray:
    """Seeded Haar-style random unitary via QR of a complex Gaussian matrix.

    The R-diagonal phases are normalized so the result is a deterministic
    function of the seed alone.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal(
        (dimension, dimension)
    )
    q, r = np.linalg.qr(g / math.sqrt(2.0))
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases[np.newaxis, :]


def _disk_sample(rng: np.random.Generator, radius: float) -> complex:
    """Uniform sample from the closed disk of the given radius."""
    r = radius * math.sqrt(rng.uniform(0.0, 1.0))
    theta = rng.uniform(0.0, 2 * math.pi)
    return r * cmath.exp(1j * theta)


def random_linear_polynomial(dimension: int, seed: int) -> PolynomialWeight:
    """Seeded random degree-1 polynomial with coefficients of modulus <= 1."""
    rng = np.random.default_rng(seed)
    terms = {(0,) * dimension: _disk_sample(rng, 1.0)}
    for j in range(dimension):
        alpha = tuple(1 if i == j else 0 for i in range(dimension))
        terms[alpha] = _disk_sample(rng, 1.0)
    return PolynomialWeight(dimension, terms)


def perturb_weight(seed: int, epsilon: float, dimension: int) -> PolynomialWeight:
    """The perturbation polynomial g = 1 + eps * ell with ell seeded and linear.

    ell has coefficients of modulus <= 1, so g is nonvanishing wherever
    eps * max|ell| < 1 holds.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    terms = {(0,) * dimension: 1 + 0j}
    for alpha, coeff in random_linear_polynomial(dimension, seed).terms.items():
        terms[alpha] = terms.get(alpha, 0j) + epsilon * coeff
    return PolynomialWeight(dimension, terms)


_MAX_ATTEMPTS = 10_000


def generate_measure(
    dimension: int, count: int, seed: int, separation: float = 0.1
) -> DiscreteMeasure:
    """Seeded random measure with `count` atoms at pairwise distance >= separation.

    Locations satisfy |zeta| <= 2 (each coordinate sampled uniformly from the
    disk of radius 2/sqrt(d)); weights are complex with modulus in [0.5, 2].
    Rejection-samples locations until the separation constraint holds, and
    raises RuntimeError after 10 000 candidates.  A dimension below 1, a
    negative count, or a separation that is not finite and positive raises
    ValueError before anything is drawn.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if count < 0:
        raise ValueError("count must be >= 0")
    if not (math.isfinite(separation) and separation > 0):
        raise ValueError(f"separation must be finite and positive, got {separation}")
    rng = np.random.default_rng(seed)
    coord_radius = 2.0 / math.sqrt(dimension)
    points: list[ComplexPoint] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise RuntimeError(
                f"could not place {count} atoms at separation {separation} "
                f"after {_MAX_ATTEMPTS} attempts"
            )
        candidate = ComplexPoint(
            tuple(_disk_sample(rng, coord_radius) for _ in range(dimension))
        )
        if all(candidate.distance(p) >= separation for p in points):
            points.append(candidate)
    atoms = []
    for p in points:
        modulus = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        atoms.append(Atom(p, modulus * cmath.exp(1j * phase)))
    return DiscreteMeasure(dimension, tuple(atoms))
