import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from momentrank import cli, recovery, serialize


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


def _json_dumps_indented(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def test_dump_json_matches_json_dumps_on_every_cli_payload(tmp_path, monkeypatch):
    # each JSON payload the CLI writes, as the CLI builds it: a measure, a
    # density, a recover report, rank.json with 220 singular values, and
    # verdicts, one of them holding a RecoveryError string
    payloads = []
    dump_chunks = serialize.dump_chunks
    monkeypatch.setattr(serialize, "dump_chunks", lambda p: payloads.append(p) or dump_chunks(p))
    monkeypatch.chdir(tmp_path)
    density = _polynomial_density_payload()
    (tmp_path / "d.json").write_text(json.dumps(density))
    for argv in (["gen", "--dimension", "3", "--atoms", "8", "--seed", "3",
                  "--separation", "0.2", "--output", "m.json"],
                 ["moments", "--input", "m.json", "--degree", "9", "--output", "A.json"],
                 ["rank", "--input", "A.json", "--output", "rank.json"],
                 ["recover", "--input", "A.json", "--output", "report.json"],
                 ["verify", "--input", "m.json", "--output", "v.json"],
                 ["verify", "--input", "d.json", "--degree", "3", "--output", "vd.json"]):
        assert cli.main(argv) == 0
    with pytest.raises(recovery.RecoveryError) as failure:
        recover_atoms(moment_matrix(generate_measure(1, 6, seed=2), 2))

    def fail(*args):
        raise failure.value

    monkeypatch.setattr(recovery, "_recover", fail)
    assert cli.main(["verify", "--input", "m.json", "--output", "vf.json"]) == 2
    payloads = [p for p in payloads if "entries" not in p] + [density]
    assert len(payloads) == 7
    assert any(len(p.get("singular_values", ())) == 220 for p in payloads)
    errors = [c["measured"].get("error") for p in payloads for c in p.get("checks", ())]
    assert str(failure.value) in errors
    for payload in payloads:
        assert serialize.dump_json(payload) == _json_dumps_indented(payload)


def _polynomial_density_payload() -> dict:
    g = PolynomialWeight(2, {(0, 0): 1, (1, 0): 0.25j, (0, 1): -0.5})
    dens = DensityMeasure(2, Polydisk(ComplexPoint((0.1j, 0j)), (0.8, 1.1)), DensitySpec("polynomial", g))
    return serialize.density_to_dict(dens)


_JSON_SCALARS = (
    st.none() | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    | st.text()  # non-ASCII, quotes, backslashes and control characters
)
# one key type per object: json.dumps cannot sort mixed key types
_JSON_KEYS = (st.text(), st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())


def _json_containers(children):
    objects = [st.dictionaries(keys, children, max_size=5) for keys in _JSON_KEYS]
    return st.one_of(st.lists(children, max_size=5), st.lists(children, max_size=3).map(tuple),
                     *objects)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_JSON_SCALARS, _json_containers, max_leaves=30))
def test_dump_json_matches_json_dumps_on_nested_values(payload):
    assert serialize.dump_json(payload) == _json_dumps_indented(payload)


def test_dump_json_without_the_c_encoder_is_json_dumps(monkeypatch):
    payload = {"b": [1, {"c": []}], "a": "\u00e9", "z": {}}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert serialize.dump_json(payload) == _json_dumps_indented(payload)


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
        raw = b"".join(serialize.dump_chunks(to_dict(matrix)))
        back = read(serialize.load_file(io.BytesIO(raw))).entries
        assert back.view(float).tobytes() == matrix.entries.view(float).tobytes()
        assert back.dtype == np.complex128 and back.flags.writeable


@pytest.mark.parametrize("kind", ["moment", "bergman"])
def test_matrix_file_is_a_header_line_then_the_raw_payload(kind):
    m = generate_measure(2, 3, seed=8)
    if kind == "moment":
        matrix = moment_matrix(m, 3)
        payload = serialize.matrix_to_dict(matrix)
    else:
        matrix = galerkin_matrix(enclosing_kernel(kind, m), m, 3)
        payload = serialize.galerkin_to_dict(matrix)
    payload["run_spec"] = {"command": "x", "output": None}
    header, data = serialize.dump_chunks(payload)
    entries = {"encoding": "f64le", "shape": [10, 10, 2]}
    assert header == json.dumps({**payload, "entries": entries}, sort_keys=True,
                                separators=(",", ":")).encode() + b"\n"
    assert data == matrix.entries.astype("<c16").tobytes() and len(data) == 16 * 10**2
    # the writer gets a read-only view of the entries, not a copy of them
    assert isinstance(data, memoryview) and data.readonly
    assert np.shares_memory(np.frombuffer(data, dtype="<c16"), matrix.entries)
    loaded = serialize.load_file(io.BytesIO(header + data))
    view = loaded["entries"].pop("data")
    # the reader puts the bytes after the header line in one fresh writable buffer
    assert isinstance(view, bytearray) and view == data
    assert loaded == {**payload, "entries": entries}


def test_matrix_read_back_from_a_dict_shares_no_memory():
    a = moment_matrix(generate_measure(2, 3, seed=8), 3)
    for data in (serialize.matrix_to_dict(a),
                 serialize.load_file(io.BytesIO(b"".join(
                     serialize.dump_chunks(serialize.matrix_to_dict(a)))))):
        back = serialize.matrix_from_dict(data).entries
        assert not np.shares_memory(back, a.entries)
        assert back.dtype == np.complex128 and back.flags.writeable and back.flags.c_contiguous
        assert back.tobytes() == a.entries.tobytes()


def test_loaded_matrix_takes_the_read_buffer_as_its_entries():
    a = moment_matrix(generate_measure(2, 3, seed=8), 3)
    data = serialize.load_file(io.BytesIO(b"".join(
        serialize.dump_chunks(serialize.matrix_to_dict(a)))))
    buffer = data["entries"]["data"]
    back = serialize.matrix_from_dict(data).entries
    assert np.shares_memory(back, np.frombuffer(buffer, dtype=np.uint8))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("layout", ["indented", "one-line", "one-line-newline"])
def test_json_files_load_as_json_loads(layout, bom):
    payload = {**serialize.measure_to_dict(generate_measure(2, 2, seed=1)), "run_spec": {"a": 1}}
    text = {"indented": serialize.dump_json(payload), "one-line": json.dumps(payload),
            "one-line-newline": json.dumps(payload) + "\n"}[layout]
    raw = bom + text.encode()
    assert serialize.load_file(io.BytesIO(raw)) == json.loads(raw) == payload
