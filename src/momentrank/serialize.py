"""JSON and CSV schemas for measures, matrices, spectra, and recovery reports.

Complex numbers are serialized as [re, im] pairs of doubles, except in a
matrix's "entries": one object holding the whole (n, n, 2) array of pairs
as base64 of its little-endian float64 bytes, row-major, so a file keeps
every bit and is read without parsing a number per entry.  A Galerkin file
is a matrix file with one more key, "kernel".  All writers produce
deterministic bytes (sorted keys, fixed separators), so a rerun with the
same inputs reproduces files exactly.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import reprlib
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
    """Makes a file reader name its file kind in every error a malformed file
    raises, and the key a file lacks."""

    def wrap(read):
        @functools.wraps(read)
        def checked(data: dict):
            try:
                return read(data)
            except KeyError as exc:
                raise ValueError(f"{kind} file: missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{kind} file: {exc}") from exc

        return checked

    return wrap


_JSON_TYPES = {dict: "an object", list: "a list"}


def _field(data: dict, key: str, kind: type = dict, of_objects: bool = False):
    """data[key], checked to be a JSON object (kind dict) or array (kind
    list), and with `of_objects` an array of objects; the error names the key."""
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} must be {_JSON_TYPES[kind]}, got {reprlib.repr(value)}")
    for item in value if of_objects else ():
        if not isinstance(item, dict):
            raise ValueError(f"{key!r} entries must be objects, got {reprlib.repr(item)}")
    return value


def _integer(value, key: str) -> int:
    """A JSON integer; a float, a string or a boolean is an error naming the key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {reprlib.repr(value)}")
    return value


def pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def unpair(value) -> complex:
    try:
        re, im = value
        return complex(float(re), float(im))
    except (TypeError, ValueError):
        raise ValueError(f"expected a [re, im] pair of numbers, got {value!r}") from None


class _Base64(str):
    """Base64 text, which JSON never escapes: `dump_json` writes it as it is."""


_JSON_FORMAT = {"sort_keys": True, "separators": (",", ": "), "indent": 1}


def dump_json(payload: dict) -> str:
    """Deterministic JSON encoding: sorted keys, fixed separators, indent 1;
    the base64 data of `matrix_to_dict` is joined in without a scan."""
    entries = payload.get("entries")
    data = entries.get("data") if isinstance(entries, dict) else None
    if type(data) is not _Base64:
        return json.dumps(payload, **_JSON_FORMAT) + "\n"
    text = json.dumps({**payload, "entries": {**entries, "data": ""}}, **_JSON_FORMAT)
    # indent 1 puts raw newlines only before items: 1 space marks a top-level key, 2 its child
    at = text.index('\n  "data": "', text.index('\n "entries": {')) + len('\n  "data": "')
    return "".join((text[:at], data, text[at:], "\n"))


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
    dimension = _integer(data["dimension"], "dimension")
    atoms = tuple(
        Atom(
            ComplexPoint(tuple(unpair(c) for c in _field(entry, "location", list))),
            unpair(entry["weight"]),
        )
        for entry in _field(data, "atoms", list, of_objects=True)
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
        {tuple(_integer(a, "alpha") for a in _field(t, "alpha", list)): unpair(t["coeff"])
         for t in terms},
    )


def _polydisk_to_dict(p: Polydisk) -> dict:
    return {"center": [pair(c) for c in p.center.coords], "radii": [float(r) for r in p.radii]}


def _polydisk_from_dict(data: dict) -> Polydisk:
    return Polydisk(
        ComplexPoint(tuple(unpair(c) for c in _field(data, "center", list))),
        tuple(float(r) for r in _field(data, "radii", list)),
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
    dimension = _integer(data["dimension"], "dimension")
    domain = _polydisk_from_dict(_field(data, "domain"))
    density = _field(data, "density")
    kind = density["type"]
    polynomial = None
    if kind == "polynomial":
        terms = _field(density, "terms", list, of_objects=True)
        polynomial = _polynomial_from_terms(dimension, terms)
    return DensityMeasure(dimension, domain, DensitySpec(kind, polynomial))


def any_measure_from_dict(data: dict) -> DiscreteMeasure | DensityMeasure:
    """Dispatch on schema: atomic files carry "atoms", density files "density"."""
    if "atoms" in data:
        return measure_from_dict(data)
    if "density" in data:
        return density_from_dict(data)
    raise ValueError("not a measure file: expected an 'atoms' or 'density' key")


# -- matrices ----------------------------------------------------------------

_ENTRIES_ENCODING = "f64le-base64"


def matrix_to_dict(a: MomentMatrix) -> dict:
    n = a.basis.size
    data = np.ascontiguousarray(a.entries, dtype="<c16").tobytes()
    return {
        "dimension": a.dimension,
        "max_degree": a.max_degree,
        "order": "grlex",
        "entries": {
            "encoding": _ENTRIES_ENCODING,
            "shape": [n, n, 2],
            "data": _Base64(base64.b64encode(data).decode("ascii")),
        },
    }


def _grlex_basis_and_entries(data: dict) -> tuple[IndexBasis, np.ndarray]:
    """The basis and entries of a matrix file, whose order must be grlex."""
    dimension, max_degree = (_integer(data[k], k) for k in ("dimension", "max_degree"))
    if data["order"] != "grlex":
        raise ValueError(f"unsupported index order {data['order']!r}")
    # the size is checked before the basis is built: its tables grow as D^d
    size = math.comb(max_degree + dimension, dimension)
    shape = (size, size, 2)
    entries = _field(data, "entries")
    if entries["encoding"] != _ENTRIES_ENCODING:
        raise ValueError(f"unsupported entries encoding {entries['encoding']!r}")
    stated = [_integer(n, "shape") for n in _field(entries, "shape", list)]
    if stated != list(shape):
        raise ValueError(f"entries of shape {stated!r} do not match the basis: expected {shape}")
    try:
        raw = base64.b64decode(entries["data"], validate=True)
    except ValueError as exc:  # binascii.Error, or a str that is not ASCII
        raise ValueError(f"entries data is not base64: {exc}") from exc
    if len(raw) != 16 * size**2:
        raise ValueError(f"entries data holds {len(raw)} bytes: expected {16 * size**2}")
    values = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(size, size)
    return IndexBasis(dimension, max_degree), values


@_reader("moment matrix")
def matrix_from_dict(data: dict) -> MomentMatrix:
    return MomentMatrix(*_grlex_basis_and_entries(data))


def _kernel_to_dict(kernel: KernelSpec) -> dict:
    payload: dict[str, Any] = {"kind": kernel.kind}
    if kernel.domain is not None:
        payload["domain"] = _polydisk_to_dict(kernel.domain)
    return payload


def _kernel_from_dict(data: dict) -> KernelSpec:
    domain = _polydisk_from_dict(_field(data, "domain")) if "domain" in data else None
    return KernelSpec(data["kind"], domain)


def galerkin_to_dict(g: GalerkinMatrix) -> dict:
    return {**matrix_to_dict(g), "kernel": _kernel_to_dict(g.kernel)}


@_reader("Galerkin matrix")
def galerkin_from_dict(data: dict) -> GalerkinMatrix:
    kernel = _kernel_from_dict(_field(data, "kernel"))
    return GalerkinMatrix(kernel, *_grlex_basis_and_entries(data))


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
