"""JSON and CSV schemas for measures, matrices, spectra, and recovery reports.

Complex numbers are always serialized as [re, im] pairs of doubles.  All
writers produce deterministic bytes (sorted keys, fixed separators), so a
rerun with the same inputs reproduces files exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .measures import (
    Atom,
    ComplexPoint,
    DensityMeasure,
    DensitySpec,
    DiscreteMeasure,
    Polydisk,
    PolynomialWeight,
)
from .moments import IndexBasis, MomentMatrix
from .operators import GalerkinMatrix, KernelSpec
from .recovery import RecoveryReport

__all__ = [
    "pair",
    "unpair",
    "measure_to_dict",
    "measure_from_dict",
    "density_to_dict",
    "density_from_dict",
    "matrix_to_dict",
    "matrix_from_dict",
    "galerkin_to_dict",
    "galerkin_from_dict",
    "report_to_dict",
    "spectrum_to_csv",
    "dump_json",
]


def pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def unpair(value) -> complex:
    re, im = value
    return complex(float(re), float(im))


def dump_json(payload: dict) -> str:
    """Deterministic JSON encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


# -- measures ----------------------------------------------------------------

def measure_to_dict(m: DiscreteMeasure) -> dict:
    return {
        "dimension": m.dimension,
        "atoms": [
            {
                "location": [pair(c) for c in a.location.coords],
                "weight": pair(a.weight),
            }
            for a in m.atoms
        ],
    }


def measure_from_dict(data: dict) -> DiscreteMeasure:
    dimension = int(data["dimension"])
    atoms = tuple(
        Atom(
            ComplexPoint(tuple(unpair(c) for c in entry["location"])),
            unpair(entry["weight"]),
        )
        for entry in data["atoms"]
    )
    return DiscreteMeasure(dimension, atoms)


def _polynomial_to_terms(g: PolynomialWeight) -> list[dict]:
    return [
        {"alpha": list(alpha), "coeff": pair(coeff)}
        for alpha, coeff in sorted(g.terms.items())
    ]


def _polynomial_from_terms(dimension: int, terms: list[dict]) -> PolynomialWeight:
    return PolynomialWeight(
        dimension,
        {tuple(int(a) for a in t["alpha"]): unpair(t["coeff"]) for t in terms},
    )


def density_to_dict(m: DensityMeasure) -> dict:
    density: dict[str, Any] = {"type": m.density.kind}
    if m.density.kind == "polynomial":
        density["terms"] = _polynomial_to_terms(m.density.polynomial)
    return {
        "dimension": m.dimension,
        "domain": {
            "center": [pair(c) for c in m.domain.center.coords],
            "radii": [float(r) for r in m.domain.radii],
        },
        "density": density,
    }


def density_from_dict(data: dict) -> DensityMeasure:
    dimension = int(data["dimension"])
    domain = Polydisk(
        ComplexPoint(tuple(unpair(c) for c in data["domain"]["center"])),
        tuple(float(r) for r in data["domain"]["radii"]),
    )
    density = data["density"]
    kind = density["type"]
    polynomial = None
    if kind == "polynomial":
        polynomial = _polynomial_from_terms(dimension, density["terms"])
    return DensityMeasure(dimension, domain, DensitySpec(kind, polynomial))


def any_measure_from_dict(data: dict) -> DiscreteMeasure | DensityMeasure:
    """Dispatch on schema: atomic files carry "atoms", density files "density"."""
    if "atoms" in data:
        return measure_from_dict(data)
    if "density" in data:
        return density_from_dict(data)
    raise ValueError("not a measure file: expected an 'atoms' or 'density' key")


# -- matrices ----------------------------------------------------------------

def matrix_to_dict(a: MomentMatrix) -> dict:
    return {
        "dimension": a.dimension,
        "max_degree": a.max_degree,
        "order": "grlex",
        "entries": [[pair(v) for v in row] for row in a.entries],
    }


def _grlex_basis_and_entries(data: dict) -> tuple[IndexBasis, np.ndarray]:
    """The basis and entries of a matrix file, whose order must be grlex."""
    if data.get("order", "grlex") != "grlex":
        raise ValueError(f"unsupported index order {data['order']!r}")
    basis = IndexBasis(int(data["dimension"]), int(data["max_degree"]))
    entries = np.array(
        [[unpair(v) for v in row] for row in data["entries"]], dtype=complex
    )
    return basis, entries


def matrix_from_dict(data: dict) -> MomentMatrix:
    return MomentMatrix(*_grlex_basis_and_entries(data))


def _kernel_to_dict(kernel: KernelSpec) -> dict:
    payload: dict[str, Any] = {"kind": kernel.kind}
    if kernel.domain is not None:
        payload["domain"] = {
            "center": [pair(c) for c in kernel.domain.center.coords],
            "radii": [float(r) for r in kernel.domain.radii],
        }
    return payload


def _kernel_from_dict(data: dict) -> KernelSpec:
    domain = None
    if "domain" in data:
        domain = Polydisk(
            ComplexPoint(tuple(unpair(c) for c in data["domain"]["center"])),
            tuple(float(r) for r in data["domain"]["radii"]),
        )
    return KernelSpec(data["kind"], domain)


def galerkin_to_dict(g: GalerkinMatrix) -> dict:
    return {
        "dimension": g.dimension,
        "max_degree": g.max_degree,
        "order": "grlex",
        "kernel": _kernel_to_dict(g.kernel),
        "entries": [[pair(v) for v in row] for row in g.entries],
    }


def galerkin_from_dict(data: dict) -> GalerkinMatrix:
    return GalerkinMatrix(_kernel_from_dict(data["kernel"]), *_grlex_basis_and_entries(data))


# -- recovery reports and spectra ---------------------------------------------

def report_to_dict(report: RecoveryReport) -> dict:
    return {
        "atoms": measure_to_dict(report.atoms),
        "residual": float(report.residual),
        "detected_rank": report.detected_rank,
        "retries_used": report.retries_used,
        "rotation_seed_used": report.rotation_seed_used,
    }


def spectrum_to_csv(values: np.ndarray, header_comment: str | None = None) -> str:
    """Eigenvalues as "index,re,im,modulus" lines, descending modulus."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("index,re,im,modulus")
    for i, v in enumerate(values):
        v = complex(v)
        lines.append(f"{i},{v.real!r},{v.imag!r},{abs(v)!r}")
    return "\n".join(lines) + "\n"
