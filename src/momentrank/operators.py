"""Reproducing kernels and Galerkin matrices of measure-driven Toeplitz operators.

Two kernels are instantiated: the Fock/Bargmann kernel exp(z.conj(w)/2) on
C^d with Gaussian weight (2 pi)^{-d} exp(-|z|^2/2) dm, and the Bergman kernel
of a polydisk (product of per-coordinate disk kernels).  For an atomic
measure the operator has finite rank and its Galerkin matrix on the
orthonormalized monomial basis is a diagonal rescaling s A s of the moment
matrix A, so the two ranks agree exactly.  `galerkin_matrix` scales the same
Gram product that `moments` assembles A from (over recentred atoms for the
polydisk), and its `GalerkinMatrix` is a `MomentMatrix` that also carries the
kernel, so everything that takes a moment matrix takes it too.
`spectrum` reads the eigenvalues of a finite-rank Galerkin matrix off the
small matrix B Q of the range sketch that also ranks it (see moments), when
the sketch's exact residual is within a dense solver's backward error, and
runs the dense nonsymmetric solver otherwise.
`enclosing_kernel` gives every atomic measure a deterministic kernel of each
kind, as the verify battery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import ComplexPoint, DiscreteMeasure, Polydisk, PolynomialWeight
from .moments import (
    IndexBasis,
    MomentMatrix,
    NumericalError,
    _discrete_moment_matrix,
    _range_sketch,
)

__all__ = [
    "KernelSpec",
    "GalerkinMatrix",
    "DomainError",
    "enclosing_kernel",
    "kernel_eval",
    "toeplitz_apply",
    "galerkin_matrix",
    "spectrum",
]

_FACTORIAL_CAP = 40


class DomainError(ValueError):
    """A point required to lie inside the kernel's domain does not."""


@dataclass(frozen=True)
class KernelSpec:
    """Reproducing-kernel choice: "bargmann" (no domain) or "bergman_polydisk"."""

    kind: str
    domain: Polydisk | None = None

    def __post_init__(self):
        if self.kind not in ("bargmann", "bergman_polydisk"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "bergman_polydisk" and self.domain is None:
            raise ValueError("bergman_polydisk requires a domain")
        if self.kind == "bargmann" and self.domain is not None:
            raise ValueError("bargmann takes no domain")

    def check_point(self, point: ComplexPoint) -> None:
        if self.kind != "bergman_polydisk":
            return
        for z, c, r in zip(point.coords, self.domain.center.coords, self.domain.radii):
            if abs(z - c) >= r:
                raise DomainError(
                    f"point coordinate {z} lies outside the open disk of radius {r} "
                    f"around {c}"
                )


def enclosing_kernel(kind: str, m: DiscreteMeasure) -> KernelSpec:
    """Kernel for an atomic measure: "bargmann", or "bergman" on a deterministic
    origin-centred polydisk of radii 2 max(1, max_k |zeta_{k, j}|)."""
    if kind == "bargmann":
        return KernelSpec("bargmann")
    tops = np.abs(m.locations_matrix()).max(axis=0) if m.atom_count else np.zeros(m.dimension)
    radii = tuple(2.0 * max(1.0, float(top)) for top in tops)
    return KernelSpec("bergman_polydisk", Polydisk(ComplexPoint((0j,) * m.dimension), radii))


class GalerkinMatrix(MomentMatrix):
    """Entries (T e_alpha, e_beta) over the orthonormalized monomial basis: a
    moment matrix, rescaled, that also carries its kernel."""

    def __init__(self, kernel: KernelSpec, basis: IndexBasis, entries: np.ndarray):
        super().__init__(basis, entries)
        self.kernel = kernel

    def __repr__(self) -> str:
        return f"GalerkinMatrix({self.kernel.kind}, d={self.dimension}, D={self.max_degree})"


def kernel_eval(kernel: KernelSpec, z: ComplexPoint, w: ComplexPoint) -> complex:
    """Evaluate the reproducing kernel K(z, w)."""
    if z.dimension != w.dimension:
        raise ValueError("points must share a dimension")
    if kernel.kind == "bargmann":
        return complex(np.exp(sum(a * b.conjugate() for a, b in zip(z.coords, w.coords)) / 2))
    kernel.check_point(z)
    kernel.check_point(w)
    value = 1.0 + 0j
    for zj, wj, cj, rj in zip(
        z.coords, w.coords, kernel.domain.center.coords, kernel.domain.radii
    ):
        value *= (rj**2 / math.pi) / (rj**2 - (zj - cj) * (wj - cj).conjugate()) ** 2
    return value


def toeplitz_apply(
    kernel: KernelSpec, m: DiscreteMeasure, u: PolynomialWeight, z: ComplexPoint
) -> complex:
    """Apply the finite-rank operator of an atomic measure to a polynomial.

    (T u)(z) = sum_k K(z, zeta_k) lambda_k u(zeta_k); the image always lies in
    the span of the kernel sections K(., zeta_k).
    """
    if u.dimension != m.dimension or z.dimension != m.dimension:
        raise ValueError("dimension mismatch")
    total = 0j
    for atom in m.atoms:
        total += kernel_eval(kernel, z, atom.location) * atom.weight * u.evaluate(
            atom.location
        )
    return total


def _log_normalizers(kernel: KernelSpec, basis: IndexBasis) -> np.ndarray:
    """log of 1/||z^alpha|| for the kernel's monomial basis, per basis index.

    bargmann: ||z^alpha||^2 = 2^|alpha| alpha! under the Gaussian weight.
    bergman polydisk: per coordinate ||(z_j - c_j)^a||^2 = pi r^(2a+2) / (a+1),
    taken in the recentred coordinates (the atoms are recentred to match).
    """
    if basis.max_degree > _FACTORIAL_CAP:
        raise ValueError(
            f"basis degree {basis.max_degree} exceeds the factorial cap {_FACTORIAL_CAP}"
        )
    exps = basis.entries_array()
    if kernel.kind == "bargmann":
        log_factorial = np.array([math.lgamma(a + 1) for a in range(basis.max_degree + 1)])
        log_norm_sq = exps.sum(axis=1) * math.log(2.0) + log_factorial[exps].sum(axis=1)
    else:
        log_radii = np.log(np.asarray(kernel.domain.radii, dtype=float))
        log_norm_sq = (
            math.log(math.pi) + (2 * exps + 2) * log_radii - np.log(exps + 1)
        ).sum(axis=1)
    return -0.5 * log_norm_sq


def galerkin_matrix(
    kernel: KernelSpec, m: DiscreteMeasure, max_degree: int
) -> GalerkinMatrix:
    """Galerkin matrix (T e_alpha, e_beta) = sum_k lambda_k e_alpha(zeta_k) conj(e_beta(zeta_k)).

    e_alpha = s_alpha z^alpha are the orthonormalized monomials of the
    kernel's space, so the result is s A s for the moment matrix A (of the
    recentred atoms in the polydisk case) and the positive scales s; the
    ranks coincide.
    """
    basis = IndexBasis(m.dimension, max_degree)
    points = m.locations_matrix()
    if kernel.kind == "bergman_polydisk":
        if kernel.domain.dimension != m.dimension:
            raise ValueError("kernel domain dimension does not match measure")
        for atom in m.atoms:
            kernel.check_point(atom.location)
        points = points - np.array(kernel.domain.center.coords, dtype=complex)
    scale = np.exp(_log_normalizers(kernel, basis))
    entries = _discrete_moment_matrix(points, m.weights_vector(), basis)
    entries *= scale[:, np.newaxis]
    entries *= scale
    return GalerkinMatrix(kernel, basis, entries)


def spectrum(gal: GalerkinMatrix) -> np.ndarray:
    """Eigenvalues of the Galerkin matrix, sorted by descending modulus.

    Complex atom weights make the matrix non-Hermitian in general, so the
    values come from a nonsymmetric solver.  A matrix of size n >= 64 is
    first compressed by the range sketch that also ranks it
    (`moments._range_sketch`, width l = n // 8, at tolerance n eps).  When
    its exact residual ||A - Q B||_F is at most n eps ||B||_F, the backward
    error the dense solver has anyway, the values are the l eigenvalues of
    the l x l matrix B Q, which are the nonzero eigenvalues of Q B = A - E
    with ||E||_F that residual, followed by n - l zeros.  Otherwise (a
    sketch of full rank, a larger residual, or a smaller matrix) the dense
    solver runs on A itself.  Non-finite entries raise NumericalError
    before any LAPACK call.
    """
    entries = gal.entries
    if not np.all(np.isfinite(entries)):
        raise NumericalError("matrix has non-finite entries")
    n = entries.shape[0]
    tol = n * np.finfo(float).eps
    try:
        sketch = _range_sketch(entries, tol)
        if sketch is not None and sketch.residual <= tol * sketch.b_norm:
            values = np.zeros(n, dtype=complex)
            values[: sketch.b.shape[0]] = np.linalg.eigvals(sketch.b @ sketch.q)
        else:
            values = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real, -np.abs(values)))
    return values[order]
