import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentrank import (
    Atom,
    ComplexPoint,
    DensityMeasure,
    DensitySpec,
    DiscreteMeasure,
    KernelSpec,
    Polydisk,
    PolynomialWeight,
    enclosing_kernel,
    galerkin_matrix,
    generate_measure,
    moment_matrix,
    recover_atoms,
    spectrum,
)
from momentrank import serialize


def test_complex_pair_roundtrip():
    for z in [0, 1 + 2j, -0.5j, 3.25]:
        assert serialize.unpair(serialize.pair(z)) == complex(z)


def test_measure_roundtrip():
    m = generate_measure(2, 4, seed=1)
    data = serialize.measure_to_dict(m)
    assert data["dimension"] == 2
    assert len(data["atoms"]) == 4
    assert all(len(a["location"]) == 2 for a in data["atoms"])
    assert serialize.measure_from_dict(data) == m


def test_measure_schema_shape():
    m = DiscreteMeasure(1, (Atom(ComplexPoint((1 + 2j,)), 3 - 1j),))
    data = serialize.measure_to_dict(m)
    assert data == {
        "dimension": 1,
        "atoms": [{"location": [[1.0, 2.0]], "weight": [3.0, -1.0]}],
    }


def test_density_roundtrip_uniform():
    dens = DensityMeasure(
        2,
        Polydisk(ComplexPoint((0j, 0j)), (1.0, 1.0)),
        DensitySpec("uniform"),
    )
    data = serialize.density_to_dict(dens)
    assert data["density"] == {"type": "uniform"}
    assert serialize.density_from_dict(data) == dens


def test_density_roundtrip_polynomial():
    g = PolynomialWeight(1, {(1,): 2j, (0,): 1})
    dens = DensityMeasure(
        1, Polydisk(ComplexPoint((0j,)), (2.0,)), DensitySpec("polynomial", g)
    )
    back = serialize.density_from_dict(serialize.density_to_dict(dens))
    assert back == dens


def test_any_measure_dispatch():
    m = generate_measure(1, 2, seed=0)
    assert serialize.any_measure_from_dict(serialize.measure_to_dict(m)) == m
    dens = DensityMeasure(
        1, Polydisk(ComplexPoint((0j,)), (1.0,)), DensitySpec("gaussian")
    )
    got = serialize.any_measure_from_dict(serialize.density_to_dict(dens))
    assert got == dens
    with pytest.raises(ValueError):
        serialize.any_measure_from_dict({"dimension": 1})


def test_matrix_roundtrip():
    a = moment_matrix(generate_measure(2, 3, seed=2), 3)
    data = serialize.matrix_to_dict(a)
    assert data["order"] == "grlex"
    back = serialize.matrix_from_dict(data)
    assert back.basis == a.basis
    assert np.array_equal(back.entries, a.entries)


def test_galerkin_roundtrip_with_kernel():
    m = generate_measure(1, 2, seed=3)
    kernel = KernelSpec(
        "bergman_polydisk", Polydisk(ComplexPoint((0j,)), (3.0,))
    )
    g = galerkin_matrix(kernel, m, 3)
    back = serialize.galerkin_from_dict(serialize.galerkin_to_dict(g))
    assert back.kernel == g.kernel
    assert np.array_equal(back.entries, g.entries)


@pytest.mark.parametrize("kind", ["matrix", "galerkin"])
def test_matrix_files_reject_other_orders(kind):
    m = generate_measure(2, 2, seed=5)
    if kind == "matrix":
        data, read = serialize.matrix_to_dict(moment_matrix(m, 2)), serialize.matrix_from_dict
    else:
        g = galerkin_matrix(KernelSpec("bargmann"), m, 2)
        data, read = serialize.galerkin_to_dict(g), serialize.galerkin_from_dict
    data["order"] = "lex"
    with pytest.raises(ValueError, match="unsupported index order 'lex'"):
        read(data)


def test_report_schema_keys():
    m = generate_measure(2, 2, seed=4)
    report = recover_atoms(moment_matrix(m, 3))
    data = serialize.report_to_dict(report)
    assert set(data) == {
        "atoms",
        "residual",
        "detected_rank",
        "retries_used",
        "rotation_seed_used",
    }
    assert data["detected_rank"] == 2


def test_spectrum_csv_format():
    m = generate_measure(1, 2, seed=5)
    values = spectrum(galerkin_matrix(KernelSpec("bargmann"), m, 3))
    text = serialize.spectrum_to_csv(values, header_comment="hello")
    lines = text.strip().split("\n")
    assert lines[0] == "# hello"
    assert lines[1] == "index,re,im,modulus"
    assert len(lines) == 2 + len(values)
    first = lines[2].split(",")
    assert first[0] == "0"
    assert abs(float(first[3]) - abs(values[0])) < 1e-15


def test_dump_json_deterministic():
    payload = {"b": 1, "a": [1.5, {"z": 2}]}
    assert serialize.dump_json(payload) == serialize.dump_json(payload)
    assert json.loads(serialize.dump_json(payload)) == payload


def test_matrix_entries_roundtrip_bits():
    edge = [-0.0, 5e-324, 0.1, 1e16, 1e-7, np.nan, np.inf, -np.inf]
    m = generate_measure(1, 2, seed=6)
    a = moment_matrix(m, 3)  # 4 x 4 entries
    g = galerkin_matrix(KernelSpec("bargmann"), m, 3)
    for matrix, to_dict, read in [
        (a, serialize.matrix_to_dict, serialize.matrix_from_dict),
        (g, serialize.galerkin_to_dict, serialize.galerkin_from_dict),
    ]:
        matrix.entries.view(float)[0, :8] = edge
        matrix.entries.view(float)[1, :8] = edge[::-1]
        text = serialize.dump_json(to_dict(matrix))
        back = read(json.loads(text)).entries
        assert back.view(float).tobytes() == matrix.entries.view(float).tobytes()
        assert back.dtype == np.complex128 and back.flags.writeable


def _json_dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


@functools.cache
def _matrix_payload(kind, d, degree):
    m = generate_measure(d, 3, seed=10 * d + degree, separation=0.2)
    if kind == "moment":
        return serialize.matrix_to_dict(moment_matrix(m, degree))
    return serialize.galerkin_to_dict(galerkin_matrix(enclosing_kernel(kind, m), m, degree))


# texts and keys that imitate the lines around the entries data of a matrix file
_TEXT = st.text() | st.sampled_from(
    ['"data": ""', '\n  "data": "', '\n "entries": {', "", '"', "\\", "\n"])
_KEYS = st.text() | st.sampled_from(["a", "data", "entries", "z"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    base=st.tuples(st.sampled_from(["moment", "bargmann", "bergman"]),
                   st.sampled_from([(1, 0), (1, 5), (2, 3), (3, 2), (3, 9)])),
    run_spec=st.dictionaries(_TEXT, _JSON_VALUES, max_size=4),
    extra=st.dictionaries(_KEYS, _JSON_VALUES, max_size=3),
    extra_entries=st.dictionaries(_KEYS, _JSON_VALUES, max_size=2),
    hand_built=st.none() | _TEXT,
)
# a "data" or "entries" key nested before the file's own, at every depth
@example(base=("moment", (1, 5)), run_spec={}, extra={"a": {"entries": {}}, "b": {"data": ""}},
         extra_entries={}, hand_built=None)
@example(base=("bergman", (2, 3)), run_spec={}, extra={}, extra_entries={"a": {"data": "x"}},
         hand_built=None)
@example(base=("moment", (1, 0)), run_spec={"output": '"data": ""'}, extra={"data": {"data": ""}},
         extra_entries={"": []}, hand_built=None)
def test_dump_json_is_json_dumps_of_matrix_payloads(base, run_spec, extra, extra_entries,
                                                    hand_built):
    # extra keys land before, between and after the file's own keys, in the
    # payload and in its entries; a hand-built data string is encoded as JSON
    kind, (d, degree) = base
    payload = _matrix_payload(kind, d, degree)
    entries = {**extra_entries, **payload["entries"]}
    if hand_built is not None:
        entries["data"] = hand_built
    p = {**extra, **payload, "entries": entries, "run_spec": run_spec}
    assert serialize.dump_json(p) == _json_dumps(p)
    assert serialize.dump_json(payload) == _json_dumps(payload)
