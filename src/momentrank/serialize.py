"""JSON and CSV schemas for measures, matrices, spectra, and recovery reports.

Complex numbers are serialized as [re, im] pairs of doubles, except in a
matrix file: one compact JSON header line, then the (n, n, 2) pairs as raw
little-endian float64 bytes, row-major (in memory, the entries' "data"), so
a file keeps every bit and is read without parsing a number per entry.  A
Galerkin file is a matrix file with one more key, "kernel".  All writers
produce deterministic bytes (sorted keys, fixed separators), so a rerun
with the same inputs reproduces files exactly.

A matrix command holds one n x n buffer, the matrix itself.  `load_file`
reads the bytes after a header line into one fresh writable buffer, sized
from the file (never from its header), and `matrix_from_dict` takes that
buffer as the entries without copying it.  `matrix_to_dict` gives the
entries as a read-only byte view, not a copy, and `dump_chunks` hands the
header line and that view to the writer as they are.
"""

from __future__ import annotations

import functools
import json
import math
import os
import reprlib
from typing import Any, BinaryIO

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
    "dump_chunks",
    "load_file",
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


def dump_json(payload: dict) -> str:
    """Deterministic JSON encoding: the bytes of `json.dumps(payload,
    sort_keys=True, separators=(",", ": "), indent=1)` and a newline.  Any
    indent sends `json.dumps` to its pure-Python encoder, so where CPython
    has its C encoder, `_indented` lays the text out and the C encoder
    writes every scalar and every container of scalars."""
    if json.encoder.c_make_encoder is None or not isinstance(payload, _CONTAINERS):
        return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    return _indented(payload, 0) + "\n"


_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=32)
def _c_encoder(depth: int):
    """`dump_json`'s C encoder of a scalar, or of a container of scalars
    whose items start lines at `depth` spaces; one per depth and process."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + " " * depth, True, False, True,
    )


def _key(key) -> str:
    """An object key and its separator as `json.dumps` writes them; a key
    that is not a str is converted, or refused, by the C encoder."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key) + ": "
    return "".join(_c_encoder(0)({key: 0}, 0))[1:-2]


def _indented(value, depth: int) -> str:
    """The dict, list or tuple `value` as `dump_json` lays it out at depth `depth`."""
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    inner = "\n" + " " * (depth + 1)
    items = value.values() if is_dict else value
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        body = "".join(_c_encoder(depth + 1)(value, 0))[1:-1]
    else:
        scalar = _c_encoder(0)
        pairs = sorted(value.items()) if is_dict else [(None, v) for v in value]
        body = ("," + inner).join(
            (_key(k) if is_dict else "")
            + (_indented(v, depth + 1) if isinstance(v, _CONTAINERS) else "".join(scalar(v, 0)))
            for k, v in pairs
        )
    opening, closing = "{}" if is_dict else "[]"
    return opening + inner + body + "\n" + " " * depth + closing


def dump_chunks(payload: dict) -> tuple:
    """A file's bytes as chunks to write in order: a matrix payload, whose
    entries hold "data", as its compact header line and then that data as it
    is (`matrix_to_dict`'s view of the entries, not a copy); any other
    payload as `dump_json`, in one chunk."""
    entries = payload.get("entries")
    if not (isinstance(entries, dict) and "data" in entries):
        return (dump_json(payload).encode(),)
    header = {**payload, "entries": {k: v for k, v in entries.items() if k != "data"}}
    text = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    return text.encode(), entries["data"]


def load_file(f: BinaryIO) -> Any:
    """The value the binary stream f holds, a UTF-8 byte-order mark skipped.
    A first line holding a JSON object with an "entries" object is a matrix
    header, and the rest of the stream becomes the entries' "data", in one
    fresh writable buffer; else the stream is one JSON value.  A first byte
    NUL, which a killed CLI write leaves, is a ValueError."""
    head = f.readline()
    if head[:1] == b"\0":
        raise ValueError("first byte is NUL: the file is incomplete, as a killed write leaves it")
    data = None
    if head.endswith(b"\n"):  # a stream without a newline is one JSON value
        try:
            data = json.loads(head)
        except ValueError:  # the first line of a JSON document; one nested
            pass  # too deep (RecursionError) is as deep in the whole stream
    rest = _read_rest(f)
    if not (isinstance(data, dict) and isinstance(data.get("entries"), dict)):
        if rest or data is None:  # the first line is not the whole stream
            data = json.loads(head + rest)
        rest = bytearray()
    if isinstance(data, dict) and isinstance(data.get("entries"), dict):
        data["entries"]["data"] = rest
    return data


def _read_rest(f: BinaryIO) -> bytearray:
    """The rest of the binary stream f in one fresh writable buffer.  A
    stream that can seek is measured first, so its bytes land in a buffer of
    their size; one that cannot, as a pipe, is read to its end."""
    size = 0
    if f.seekable():
        here = f.tell()
        size = f.seek(0, os.SEEK_END) - here
        f.seek(here)
    rest = bytearray(size)
    filled = 0
    with memoryview(rest) as view:
        while filled < size:
            got = f.readinto(view[filled:])
            if not got:  # the file shrank since it was measured
                break
            filled += got
    del rest[filled:]
    rest += f.read()  # all of a stream that cannot seek; what a file grew by
    return rest


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

_ENTRIES_ENCODING = "f64le"


def matrix_to_dict(a: MomentMatrix) -> dict:
    n = a.basis.size
    values = np.ascontiguousarray(a.entries, dtype="<c16")
    return {
        "dimension": a.dimension,
        "max_degree": a.max_degree,
        "order": "grlex",
        "entries": {
            "encoding": _ENTRIES_ENCODING,
            "shape": [n, n, 2],
            # a read-only byte view of the entries, which the writer sends as they are
            "data": memoryview(values).cast("B").toreadonly(),
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
    payload = entries["data"]
    if len(payload) != 16 * size**2:
        raise ValueError(f"entries payload holds {len(payload)} bytes: expected {16 * size**2}")
    values = np.frombuffer(payload, dtype="<c16").reshape(size, size)
    # a writable buffer, as `load_file`'s, becomes the entries as it is; a
    # read-only one, as `matrix_to_dict`'s view of another matrix, is copied
    values = values.astype(complex, copy=not values.flags.writeable)
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
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append("index,re,im,modulus")
    lines += [f"{i},{v.real!r},{v.imag!r},{abs(v)!r}" for i, v in enumerate(map(complex, values))]
    return "\n".join(lines) + "\n"
