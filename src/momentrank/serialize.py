"""JSON and CSV schemas for measures, matrices, spectra, and recovery reports.

Complex numbers are always serialized as [re, im] pairs of doubles.  All
writers produce deterministic bytes (sorted keys, fixed separators), so a
rerun with the same inputs reproduces files exactly.

`matrix_to_dict` returns the entries as one (n, n, 2) float64 array of
[re, im] pairs under "entries"; a Galerkin file is a matrix file with one
more key, "kernel".  `dump_json` writes top-level ndarray values itself,
row by row, and its text is byte for byte what `json.dumps` writes for the
same payload with the arrays as nested lists, so the files are unchanged.
"""

from __future__ import annotations

import functools
import json
import math
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


def _reader(kind: str):
    """Makes a file reader name its file kind and the key a file lacks."""

    def wrap(read):
        @functools.wraps(read)
        def checked(data: dict):
            try:
                return read(data)
            except KeyError as exc:
                raise ValueError(f"{kind} file: missing key {exc.args[0]!r}") from exc

        return checked

    return wrap


def pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def unpair(value) -> complex:
    re, im = value
    return complex(float(re), float(im))


def dump_json(payload: dict) -> str:
    """Deterministic JSON encoding.

    Top-level ndarray values are written as float arrays.  The rest of the
    payload goes through `json.dumps` with null in their place; a top-level
    key is the only text that follows a newline and a single space, so each
    placeholder is found exactly, and the text is joined once around the
    rendered rows.
    """
    arrays = {k: v for k, v in payload.items() if isinstance(v, np.ndarray)}
    text = json.dumps(
        {k: None if k in arrays else v for k, v in payload.items()},
        sort_keys=True,
        separators=(",", ": "),
        indent=1,
    )
    pieces = []
    for key in sorted(arrays):  # the order sort_keys put the placeholders in
        slot = f"\n {json.dumps(key)}: "
        head, text = text.split(slot + "null", 1)
        pieces += (head, slot)
        pieces += _array_pieces(arrays[key])
    pieces += (text, "\n")
    return "".join(pieces)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    r = float.__repr__(x)
    return _JSON_NONFINITE.get(r, r)


def _array_template(shape: tuple[int, ...], level: int) -> str:
    """%-template of a JSON array of the given shape whose "[" sits at `level`."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = " " * (level + 1)
    item = pad + _array_template(shape[1:], level + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + " " * level + "]"


def _array_pieces(value: np.ndarray) -> list[str]:
    """Strings that join to `json.dumps(value.tolist(), indent=1)` at key depth."""
    value = np.asarray(value, dtype=float)
    if value.ndim == 0 or value.shape[0] == 0:
        return [json.dumps(value.tolist(), indent=1)]
    # each row is one %-format of the template of value[0], nested one level down
    rows = value.reshape(value.shape[0], -1)
    template = "  " + _array_template(value.shape[1:], 2)
    fmt = float.__repr__ if np.isfinite(rows).all() else _json_float
    pieces = ["[\n"]
    for row in rows.tolist():
        pieces += (template % tuple(map(fmt, row)), ",\n")
    pieces[-1] = "\n ]"
    return pieces


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


@_reader("measure")
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


def _polydisk_to_dict(p: Polydisk) -> dict:
    return {"center": [pair(c) for c in p.center.coords], "radii": [float(r) for r in p.radii]}


def _polydisk_from_dict(data: dict) -> Polydisk:
    return Polydisk(
        ComplexPoint(tuple(unpair(c) for c in data["center"])),
        tuple(float(r) for r in data["radii"]),
    )


def density_to_dict(m: DensityMeasure) -> dict:
    density: dict[str, Any] = {"type": m.density.kind}
    if m.density.kind == "polynomial":
        density["terms"] = _polynomial_to_terms(m.density.polynomial)
    return {
        "dimension": m.dimension,
        "domain": _polydisk_to_dict(m.domain),
        "density": density,
    }


@_reader("density")
def density_from_dict(data: dict) -> DensityMeasure:
    dimension = int(data["dimension"])
    domain = _polydisk_from_dict(data["domain"])
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

def _pairs_array(entries: np.ndarray) -> np.ndarray:
    """Complex (n, n) entries as an (n, n, 2) float64 array of [re, im] pairs."""
    return np.stack([entries.real, entries.imag], -1)


def matrix_to_dict(a: MomentMatrix) -> dict:
    return {
        "dimension": a.dimension,
        "max_degree": a.max_degree,
        "order": "grlex",
        "entries": _pairs_array(a.entries),
    }


def _grlex_basis_and_entries(data: dict) -> tuple[IndexBasis, np.ndarray]:
    """The basis and entries of a matrix file, whose order must be grlex."""
    if data.get("order", "grlex") != "grlex":
        raise ValueError(f"unsupported index order {data['order']!r}")
    dimension, max_degree = int(data["dimension"]), int(data["max_degree"])
    # without a dtype, a null or a string makes an object or str array, and a
    # ragged row raises, instead of becoming NaN
    raw = np.asarray(data["entries"])
    if raw.dtype.kind not in "iuf":
        raise ValueError("matrix entries must be numbers")
    # the size is checked before the basis is built: its tables grow as D^d
    size = math.comb(max_degree + dimension, dimension)
    shape = (size, size, 2)
    if raw.shape != shape:
        raise ValueError(f"entries of shape {raw.shape} do not match the basis: expected {shape}")
    basis = IndexBasis(dimension, max_degree)
    # the complex view keeps every bit, -0.0 and infinities included
    return basis, np.ascontiguousarray(raw, dtype=float).view(complex)[..., 0]


@_reader("moment matrix")
def matrix_from_dict(data: dict) -> MomentMatrix:
    return MomentMatrix(*_grlex_basis_and_entries(data))


def _kernel_to_dict(kernel: KernelSpec) -> dict:
    payload: dict[str, Any] = {"kind": kernel.kind}
    if kernel.domain is not None:
        payload["domain"] = _polydisk_to_dict(kernel.domain)
    return payload


def _kernel_from_dict(data: dict) -> KernelSpec:
    domain = _polydisk_from_dict(data["domain"]) if "domain" in data else None
    return KernelSpec(data["kind"], domain)


def galerkin_to_dict(g: GalerkinMatrix) -> dict:
    # sort_keys puts "kernel" where it always was, so the bytes are unchanged
    return {**matrix_to_dict(g), "kernel": _kernel_to_dict(g.kernel)}


@_reader("Galerkin matrix")
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
