import base64
import contextlib
import copy
import errno
import functools
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentrank import (ComplexPoint, DensityMeasure, DensitySpec, DiscreteMeasure, IndexBasis,
                        MomentMatrix, Polydisk, enclosing_kernel, galerkin_matrix,
                        generate_measure, moment_matrix, moments)
from momentrank.cli import build_parser, main
from momentrank.serialize import (any_measure_from_dict, density_to_dict, dump_bytes, dump_json,
                                  galerkin_to_dict, load_bytes, matrix_from_dict, matrix_to_dict,
                                  measure_from_dict, measure_to_dict, pair)


def run(*argv):
    return main(list(argv))


def _entries(values, shape=None):
    """A matrix's "entries" object holding the complex `values` as the bytes
    of their little-endian float64 [re, im] pairs; `shape` defaults to the
    one those values fill."""
    raw = np.asarray(values, dtype="<c16")
    return {"encoding": "f64le", "shape": shape or [*raw.shape, 2], "data": raw.tobytes()}


def _v3(header, payload):
    """A matrix file written by hand: the header as one compact sorted JSON
    line, a newline, then the payload bytes."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload


def test_gen_writes_measure(tmp_path):
    out = tmp_path / "m.json"
    assert run("gen", "--dimension", "2", "--atoms", "3", "--seed", "5",
               "--output", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 2
    assert len(data["atoms"]) == 3
    assert data["run_spec"]["command"] == "gen"
    measure_from_dict(data)  # parses back


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("gen", "--dimension", "1", "--atoms", "4", "--seed", "9", "--output", str(a))
    run("gen", "--dimension", "1", "--atoms", "4", "--seed", "9", "--output", str(b))
    assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(
        str(b).encode(), b""
    )


def test_gen_without_output_prints_the_bytes_output_writes(tmp_path, capfdbinary):
    # gen writes indented JSON, moments and galerkin a header line and raw
    # float64 bytes; stdout takes either through its binary buffer
    m_path = tmp_path / "m.json"
    commands = [
        ("gen", "--dimension", "2", "--atoms", "3", "--seed", "5"),
        ("moments", "--input", str(m_path), "--degree", "4"),
        ("galerkin", "--input", str(m_path), "--degree", "4", "--kernel", "bergman"),
    ]
    for argv, sep in zip(commands, (b": ", b":", b":")):
        out = m_path if argv[0] == "gen" else tmp_path / f"{argv[0]}.json"
        assert run(*argv) == 0
        printed = capfdbinary.readouterr().out
        assert run(*argv, "--output", str(out)) == 0
        # only the echoed flag differs
        echoed = printed.replace(b'"output"' + sep + b"null",
                                 b'"output"' + sep + json.dumps(str(out)).encode(), 1)
        assert echoed != printed and echoed == out.read_bytes(), argv[0]


def test_output_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "m.json"
    assert run("gen", "--dimension", "1", "--atoms", "2", "--output", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


# -- output files: rewritten in place ------------------------------------------

_REWRITES = [
    ("moments", "--input", "m.json", "--degree", "4", "--output", "A.json"),
    ("rank", "--input", "A.json", "--output", "rank.json"),
    ("spectrum", "--input", "G.json", "--output", "spectrum.csv"),
]


def _measure_and_galerkin(directory):
    run("gen", "--dimension", "2", "--atoms", "3", "--seed", "5",
        "--output", str(directory / "m.json"))
    run("galerkin", "--input", str(directory / "m.json"), "--degree", "4",
        "--output", str(directory / "G.json"))


@pytest.mark.parametrize("stale", [b"junk" * 2**18, b"{}"], ids=["longer", "shorter"])
def test_output_over_an_existing_file_holds_the_bytes_of_a_fresh_one(
        tmp_path, monkeypatch, capfdbinary, stale):
    # the same relative names in both directories, so the run_specs agree
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for directory in (fresh, reused):
        directory.mkdir()
        _measure_and_galerkin(directory)
    for argv in _REWRITES:
        (reused / argv[-1]).write_bytes(stale)
    for argv in _REWRITES:
        monkeypatch.chdir(fresh)
        assert run(*argv) == 0
        assert run(*argv[:-2]) == 0  # to stdout
        printed = capfdbinary.readouterr().out
        monkeypatch.chdir(reused)
        assert run(*argv) == 0
        written = (reused / argv[-1]).read_bytes()
        assert written == (fresh / argv[-1]).read_bytes(), argv[0]
        sep = b": " if argv[0] == "rank" else b":"
        assert printed.replace(b'"output"' + sep + b"null",
                               b'"output"' + sep + b'"' + argv[-1].encode() + b'"', 1) == written


def test_output_to_dev_null_is_written(capsys):
    # not a regular file: the bytes only, no truncation
    assert run("gen", "--dimension", "1", "--atoms", "2", "--output", os.devnull) == 0
    assert capsys.readouterr() == ("", "")


def test_existing_output_keeps_its_inode(tmp_path):
    _measure_and_galerkin(tmp_path)
    out = tmp_path / "A.json"
    out.write_bytes(b"junk" * 2**18)
    inode = out.stat().st_ino
    assert run("moments", "--input", str(tmp_path / "m.json"), "--degree", "4",
               "--output", str(out)) == 0
    assert out.stat().st_ino == inode
    assert load_bytes(out.read_bytes())["max_degree"] == 4


@pytest.mark.parametrize("command, name", [("moments", "m.json"), ("rank", "A.json"),
                                           ("spectrum", "G.json")])
def test_file_whose_first_byte_is_nul_is_one_error_line(tmp_path, capsys, command, name):
    # what a write killed before its last step leaves behind
    _measure_and_galerkin(tmp_path)
    run("moments", "--input", str(tmp_path / "m.json"), "--degree", "4",
        "--output", str(tmp_path / "A.json"))
    path, out = tmp_path / name, tmp_path / "out"
    path.write_bytes(b"\0" + path.read_bytes()[1:])
    capsys.readouterr()
    argv = ("--degree", "2") if command == "moments" else ()
    assert run(command, "--input", str(path), *argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_write_killed_before_its_first_byte_leaves_a_file_every_reader_rejects(
        tmp_path, run_python):
    # the process dies after the payload and the truncation: over a longer,
    # valid matrix file the new bytes must not parse
    _measure_and_galerkin(tmp_path)
    argv = ("moments", "--input", "m.json", "--output", "A.json", "--degree")
    assert run_python("-m", "momentrank.cli", *argv, "6", cwd=tmp_path).returncode == 0
    stale = (tmp_path / "A.json").read_bytes()
    killed = ("import os, sys\nfrom momentrank.cli import main\n"
              "os.lseek = lambda *args: os._exit(9)\nsys.exit(main(sys.argv[1:]))\n")
    assert run_python("-c", killed, *argv, "4", cwd=tmp_path).returncode == 9
    left = (tmp_path / "A.json").read_bytes()
    assert run_python("-m", "momentrank.cli", *argv, "4", cwd=tmp_path).returncode == 0
    fresh = (tmp_path / "A.json").read_bytes()
    assert len(fresh) < len(stale)
    assert left == b"\0" + fresh[1:]
    (tmp_path / "A.json").write_bytes(left)
    done = run_python("-m", "momentrank.cli", "rank", "--input", "A.json", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: A.json is not valid JSON: ")


@pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                     KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
def test_write_that_raises_partway_leaves_an_empty_file(tmp_path, capsys, monkeypatch, failure):
    _measure_and_galerkin(tmp_path)
    out = tmp_path / "A.json"
    out.write_bytes(b"junk" * 2**18)
    write = os.write

    def failing(fd, data):
        if len(data) > 1:  # the payload: part of it lands, then the write fails
            write(fd, bytes(data[:100]))
            raise failure
        return write(fd, data)

    monkeypatch.setattr(os, "write", failing)
    argv = ("moments", "--input", str(tmp_path / "m.json"), "--degree", "4", "--output", str(out))
    if isinstance(failure, OSError):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            run(*argv)
    assert out.read_bytes() == b""


def test_pipeline_closure(tmp_path):
    m_path = tmp_path / "m.json"
    a_path = tmp_path / "a.json"
    r_path = tmp_path / "r.json"
    assert run("gen", "--dimension", "2", "--atoms", "4", "--seed", "3",
               "--separation", "0.3", "--output", str(m_path)) == 0
    assert run("moments", "--input", str(m_path), "--degree", "5",
               "--output", str(a_path)) == 0
    assert run("recover", "--input", str(a_path), "--seed", "3",
               "--output", str(r_path)) == 0
    generated = json.loads(m_path.read_text())
    recovered = json.loads(r_path.read_text())
    assert recovered["detected_rank"] == 4
    assert recovered["residual"] <= 1e-6
    gen_locs = sorted(tuple(map(tuple, a["location"])) for a in generated["atoms"])
    rec_locs = sorted(tuple(map(tuple, a["location"])) for a in recovered["atoms"]["atoms"])
    for g_loc, r_loc in zip(gen_locs, rec_locs):
        for (gre, gim), (rre, rim) in zip(g_loc, r_loc):
            assert abs(gre - rre) <= 1e-6 and abs(gim - rim) <= 1e-6


def test_rank_and_spectrum_outputs(tmp_path):
    m_path, a_path = tmp_path / "m.json", tmp_path / "a.json"
    g_path, s_path, k_path = tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "k.json"
    run("gen", "--dimension", "1", "--atoms", "3", "--seed", "7", "--output", str(m_path))
    run("moments", "--input", str(m_path), "--degree", "4", "--output", str(a_path))
    assert run("rank", "--input", str(a_path), "--output", str(k_path)) == 0
    rank_data = json.loads(k_path.read_text())
    assert rank_data["rank"] == 3
    assert len(rank_data["singular_values"]) == 5
    assert run("galerkin", "--input", str(m_path), "--degree", "4",
               "--kernel", "bergman", "--output", str(g_path)) == 0
    gal = load_bytes(g_path.read_bytes())
    assert gal["kernel"]["kind"] == "bergman_polydisk"
    assert run("spectrum", "--input", str(g_path), "--output", str(s_path)) == 0
    lines = s_path.read_text().strip().split("\n")
    assert lines[1] == "index,re,im,modulus"
    mods = [float(line.split(",")[3]) for line in lines[2:]]
    assert mods == sorted(mods, reverse=True)


def test_rank_file_lists_every_value_at_basis_220(run_twice):
    # d=3, degree 9: rank 8 from the certified sketch, zeros past its width,
    # and a fresh process writes the same bytes
    run1 = run_twice([
        ("gen", "--dimension", "3", "--atoms", "8", "--seed", "3", "--separation", "0.2",
         "--output", "m.json"),
        ("moments", "--input", "m.json", "--degree", "9", "--output", "A.json"),
        ("rank", "--input", "A.json", "--output", "rank.json"),
    ])
    data = json.loads((run1 / "rank.json").read_text())
    values = data["singular_values"]
    assert data["rank"] == 8
    assert len(values) == 220
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert values[8] <= 1e-8 * values[0] and values[-1] == 0.0


@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
@pytest.mark.parametrize("command", ["rank", "recover", "spectrum"])
def test_non_finite_matrix_file_is_numerical_failure(tmp_path, capfd, command, bad):
    # capfd, not capsys: LAPACK writes its own complaints to file descriptor 2
    m_path, a_path = tmp_path / "m.json", tmp_path / "a.json"
    run("gen", "--dimension", "2", "--atoms", "3", "--seed", "4", "--output", str(m_path))
    if command == "spectrum":  # basis 66, past the sketch's minimum size
        run("galerkin", "--input", str(m_path), "--degree", "10", "--output", str(a_path))
    else:
        run("moments", "--input", str(m_path), "--degree", "4", "--output", str(a_path))
    data = load_bytes(a_path.read_bytes())
    a = matrix_from_dict(data)
    a.entries[3, 5] = complex(bad, 0.0)
    a_path.write_bytes(dump_bytes({**data, **matrix_to_dict(a)}))
    capfd.readouterr()
    # a numpy warning would be a second stderr line; pytest turns it into an error
    assert run(command, "--input", str(a_path)) == 3
    err = capfd.readouterr().err
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["rank", "recover"])
def test_matrix_file_whose_singular_value_overflows_is_numerical_failure(tmp_path, capfd, command):
    # finite entries, but the largest singular value 4.5e308 is not
    a = MomentMatrix(IndexBasis(1, 2), np.full((3, 3), 1.5e308 + 0j))
    path, out = tmp_path / "a.json", tmp_path / "out"
    path.write_bytes(dump_bytes(matrix_to_dict(a)))
    assert run(command, "--input", str(path), "--output", str(out)) == 3
    err = capfd.readouterr().err
    assert err == "numerical failure: largest singular value inf is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "spectrum"])
def test_matrix_file_whose_entries_overflow_the_sketch_is_read_quietly(tmp_path, capfd, command):
    # 84 x 84 (d=3, degree 6) entries of 1e200: finite and of rank one, but
    # the sketch's norms overflow, so it declines and the dense path decides
    m_path, a_path, out = tmp_path / "m.json", tmp_path / "a.json", tmp_path / "out"
    run("gen", "--dimension", "3", "--atoms", "2", "--seed", "4", "--output", str(m_path))
    source = "galerkin" if command == "spectrum" else "moments"
    run(source, "--input", str(m_path), "--degree", "6", "--output", str(a_path))
    data = load_bytes(a_path.read_bytes())
    a_path.write_bytes(dump_bytes({**data, "entries": _entries(np.full((84, 84), 1e200))}))
    capfd.readouterr()
    assert run(command, "--input", str(a_path), "--output", str(out)) == 0
    assert capfd.readouterr().err == ""
    if command == "rank":
        assert json.loads(out.read_text())["rank"] == 1
    else:
        moduli = [float(line.split(",")[3]) for line in out.read_text().splitlines()[2:]]
        assert moduli[0] == pytest.approx(84e200)
        assert max(moduli[1:]) <= 1e-8 * moduli[0]


@pytest.mark.parametrize("command", ["rank", "recover", "spectrum"])
def test_nested_list_matrix_file_is_one_error_line(tmp_path, capsys, command):
    # entries as nested [re, im] lists instead of the base64 object
    a = moment_matrix(generate_measure(1, 2, seed=3), 2)
    doc = {**matrix_to_dict(a), "entries": [[pair(v) for v in row] for row in a.entries]}
    if command == "spectrum":
        doc["kernel"] = {"kind": "bargmann"}
    kind = "Galerkin matrix" if command == "spectrum" else "moment matrix"
    path, out = tmp_path / "a.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert run(command, "--input", str(path), "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file: 'entries' must be an object, got [[")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_passes_on_generated_measure(tmp_path):
    m_path, v_path = tmp_path / "m.json", tmp_path / "v.json"
    run("gen", "--dimension", "2", "--atoms", "4", "--seed", "13",
        "--separation", "0.2", "--output", str(m_path))
    assert run("verify", "--input", str(m_path), "--degree", "6", "--seed", "13",
               "--output", str(v_path)) == 0
    verdict = json.loads(v_path.read_text())
    assert verdict["passed"] is True
    names = {c["name"] for c in verdict["checks"]}
    assert names == {
        "rank_saturation",
        "recovery_roundtrip",
        "galerkin_rank_equality",
        "reweighting_rank_monotonicity",
        "submatrix_consistency",
    }


def _density(dimension, center, radii, density):
    return json.dumps({"dimension": dimension, "domain": {"center": center, "radii": radii},
                       "density": density})


def _polynomial(*terms):
    return {"type": "polynomial",
            "terms": [{"alpha": alpha, "coeff": coeff} for alpha, coeff in terms]}


# uniform and polynomial densities take the exact first-level polar rule, the
# Gaussian the refined one
DENSITIES_AT_DEGREE_6 = {
    "uniform": _density(2, [[0, 0], [0, 0]], [1.0, 1.0], {"type": "uniform"}),
    "gaussian": _density(2, [[0.3, -0.2], [0, 0]], [0.9, 1.1], {"type": "gaussian"}),
    "polynomial": _density(2, [[0.4, -0.3], [-0.1, 0.2]], [0.9, 1.1], _polynomial(
        ([0, 0], [1, 0]), ([1, 0], [0.1, 0.2]), ([0, 1], [0, -0.25]))),
}
# the d=3 files are certified full rank by one Cholesky; 1 + 1.5 z, whose real
# part is negative on part of the disk, falls back to ranking every truncation
DENSITIES_AT_DEGREE_8 = {
    "d3-uniform": _density(3, [[0, 0], [0, 0], [0, 0]], [1.0, 0.9, 1.1], {"type": "uniform"}),
    "d3-gaussian": _density(3, [[0.3, -0.2], [0, 0], [-0.1, 0.4]], [0.9, 1.1, 1.0],
                            {"type": "gaussian"}),
    "d3-polynomial": _density(3, [[0.4, -0.3], [-0.1, 0.2], [0, 0]], [0.9, 1.1, 1.0], _polynomial(
        ([0, 0, 0], [1, 0]), ([1, 0, 0], [0.1, 0.2]), ([0, 0, 1], [0, -0.25]))),
    "sign-changing": _density(1, [[0, 0]], [1.0], _polynomial(([0], [1, 0]), ([1], [1.5, 0]))),
}


def test_verify_density_rank_growth(run_twice):
    # density moments and verdicts are byte-identical across processes, and
    # every degree-8 verdict passes
    commands = []
    for kind in DENSITIES_AT_DEGREE_6:
        commands += [
            ("moments", "--input", f"{kind}.json", "--degree", "6", "--output", f"{kind}-A.json"),
            ("verify", "--input", f"{kind}.json", "--degree", "6",
             "--output", f"{kind}-verdict.json"),
        ]
    for kind in DENSITIES_AT_DEGREE_8:
        commands.append(("verify", "--input", f"{kind}.json", "--degree", "8",
                         "--output", f"{kind}-verdict.json"))
    inputs = {f"{kind}.json": text
              for kind, text in {**DENSITIES_AT_DEGREE_6, **DENSITIES_AT_DEGREE_8}.items()}
    run1 = run_twice(commands, inputs)
    verdict = json.loads((run1 / "uniform-verdict.json").read_text())
    check = verdict["checks"][0]
    assert check["name"] == "rank_growth"
    assert check["measured"]["ranks"] == [3, 6, 10, 15, 21, 28]
    for kind in DENSITIES_AT_DEGREE_8:
        lines = (run1 / f"{kind}-verdict.json").read_text().splitlines()
        assert ' "passed": true,' in lines, kind


def test_galerkin_on_density_file_is_usage_error(tmp_path, capsys):
    dens = DensityMeasure(1, Polydisk(ComplexPoint((0j,)), (1.0,)), DensitySpec("uniform"))
    d_path, g_path = tmp_path / "d.json", tmp_path / "g.json"
    d_path.write_text(dump_json(density_to_dict(dens)))
    assert run("galerkin", "--input", str(d_path), "--degree", "3",
               "--output", str(g_path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: galerkin needs an atomic measure file; {d_path} holds a density\n"
    assert not g_path.exists()


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_moments_quadrature_failure_exit_code(tmp_path, capsys, kind):
    d_path = tmp_path / "d.json"
    d_path.write_text(json.dumps({
        "dimension": 1,
        "domain": {"center": [[0, 0]], "radii": [1e200]},
        "density": {"type": kind},
    }))
    assert run("moments", "--input", str(d_path), "--degree", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: quadrature did not converge")
    assert err.count("\n") == 1


def test_verify_byte_identical_rerun(tmp_path):
    m_path, v_path = tmp_path / "m.json", tmp_path / "v.json"
    run("gen", "--dimension", "2", "--atoms", "3", "--seed", "2", "--output", str(m_path))
    run("verify", "--input", str(m_path), "--degree", "5", "--seed", "2",
        "--output", str(v_path))
    first = v_path.read_bytes()
    run("verify", "--input", str(m_path), "--degree", "5", "--seed", "2",
        "--output", str(v_path))
    assert v_path.read_bytes() == first


def test_missing_input_is_usage_error(tmp_path):
    assert run("moments", "--input", str(tmp_path / "nope.json"),
               "--degree", "3") == 1


def test_bad_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("rank", "--input", str(bad)) == 1


def test_json_nested_too_deep_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert run("rank", "--input", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["moments", "rank", "recover", "galerkin", "spectrum", "verify"])
def test_file_that_is_not_a_json_object_is_one_error_line(tmp_path, capsys, command):
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text("[1, 2]")
    degree = ("--degree", "2") if command in ("moments", "galerkin") else ()
    assert run(command, "--input", str(path), *degree, "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path} does not hold a JSON object\n"
    assert not out.exists()


def test_unknown_flag_is_usage_error():
    assert run("gen", "--dimension", "2", "--atoms", "1", "--bogus", "3") == 1


@pytest.mark.parametrize(
    "command, flag",
    [
        ("gen", "--rank-tol"),
        ("moments", "--seed"),
        ("moments", "--rank-tol"),
        ("rank", "--seed"),
        ("galerkin", "--seed"),
        ("galerkin", "--rank-tol"),
        ("spectrum", "--seed"),
        ("spectrum", "--rank-tol"),
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys, command, flag):
    # each command declares only the flags it reads, so run_spec echoes no
    # value that could not change the output
    m_path, out = tmp_path / "m.json", tmp_path / "out"
    run("gen", "--dimension", "1", "--atoms", "2", "--seed", "4", "--output", str(m_path))
    capsys.readouterr()
    argv = {
        "gen": ("--dimension", "1", "--atoms", "2"),
        "moments": ("--input", str(m_path), "--degree", "2"),
        "rank": ("--input", str(m_path)),
        "galerkin": ("--input", str(m_path), "--degree", "2"),
        "spectrum": ("--input", str(m_path)),
    }[command]
    assert run(command, *argv, flag, "5", "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 5\n"
    assert not out.exists()


def test_spectrum_on_moment_matrix_file_is_usage_error(tmp_path, capsys):
    m_path, a_path, s_path = tmp_path / "m.json", tmp_path / "a.json", tmp_path / "s.csv"
    run("gen", "--dimension", "1", "--atoms", "2", "--seed", "4", "--output", str(m_path))
    run("moments", "--input", str(m_path), "--degree", "2", "--output", str(a_path))
    capsys.readouterr()
    assert run("spectrum", "--input", str(a_path), "--output", str(s_path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: spectrum needs a Galerkin matrix file; {a_path} has no kernel\n"
    assert not s_path.exists()


def test_gen_with_atoms_that_cannot_be_placed_is_one_error_line(tmp_path, capsys):
    # every location lies in a disk of diameter 4, so no second atom fits
    out = tmp_path / "m.json"
    assert run("gen", "--dimension", "1", "--atoms", "2", "--separation", "5",
               "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: could not place 2 atoms at separation 5.0 after 10000 attempts\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("--dimension", "0"), "dimension must be >= 1, got 0"),
        (("--dimension", "-1"), "dimension must be >= 1, got -1"),
        (("--dimension", "1", "--separation", "nan"),
         "separation must be finite and positive, got nan"),
        (("--dimension", "1", "--separation", "inf"),
         "separation must be finite and positive, got inf"),
    ],
    ids=["dimension-0", "dimension-negative", "separation-nan", "separation-inf"],
)
def test_gen_rejects_a_bad_dimension_or_separation_up_front(tmp_path, capsys, args, message):
    out = tmp_path / "m.json"
    assert run("gen", *args, "--atoms", "2", "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("terms", [(), (([1], [0, 0]), ([0], [0.0, -0.0]))],
                         ids=["no-terms", "zero-coefficients"])
@pytest.mark.parametrize("command", ["moments", "verify"])
def test_zero_polynomial_density_is_one_error_line(tmp_path, capsys, command, terms):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(_density(1, [[0, 0]], [1.0], _polynomial(*terms)))
    assert run(command, "--input", str(path), "--degree", "2", "--output", str(out)) == 1
    assert capsys.readouterr().err == "error: density file: polynomial density needs a nonzero term\n"
    assert not out.exists()


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_shared_parser_restores_defaults_between_calls(tmp_path):
    m_path, v_path = tmp_path / "m.json", tmp_path / "v.json"
    run("gen", "--dimension", "1", "--atoms", "2", "--seed", "4", "--output", str(m_path))
    assert run("verify", "--input", str(m_path), "--degree", "8",
               "--output", str(v_path)) == 0
    assert json.loads(v_path.read_text())["run_spec"]["degree"] == 8
    assert run("verify", "--input", str(m_path), "--output", str(v_path)) == 0
    assert json.loads(v_path.read_text())["run_spec"]["degree"] == 6


def test_shared_parser_after_usage_error_writes_fresh_parser_bytes(tmp_path):
    m_path, v_path = tmp_path / "m.json", tmp_path / "v.json"
    run("gen", "--dimension", "2", "--atoms", "3", "--seed", "8", "--output", str(m_path))
    verify = ("verify", "--input", str(m_path), "--degree", "5", "--output", str(v_path))
    assert run(*verify, "--bogus") == 1
    assert run(*verify) == 0
    after_error = v_path.read_bytes()
    build_parser.cache_clear()
    assert run(*verify) == 0
    assert v_path.read_bytes() == after_error


def test_verify_failure_exit_code(tmp_path):
    # two atoms below the rank threshold's resolution: saturation and
    # round-trip both fail, battery exits 2
    m_path, v_path = tmp_path / "m.json", tmp_path / "v.json"
    m_path.write_text(
        json.dumps(
            {
                "dimension": 1,
                "atoms": [
                    {"location": [[1, 0]], "weight": [1, 0]},
                    {"location": [[1 + 1e-9, 0]], "weight": [1, 0]},
                ],
            }
        )
    )
    assert run("verify", "--input", str(m_path), "--degree", "4",
               "--output", str(v_path)) == 2
    verdict = json.loads(v_path.read_text())
    assert verdict["passed"] is False
    failed = {c["name"] for c in verdict["checks"] if not c["passed"]}
    assert "rank_saturation" in failed


def test_recovery_failure_exit_code(tmp_path):
    # a truncation below the detected rank cannot be unfolded
    m_path = tmp_path / "m.json"
    a_path = tmp_path / "a.json"
    run("gen", "--dimension", "1", "--atoms", "4", "--seed", "19",
        "--separation", "0.3", "--output", str(m_path))
    assert run("moments", "--input", str(m_path), "--degree", "3",
               "--output", str(a_path)) == 0
    assert run("recover", "--input", str(a_path)) == 2


# d=1, D=1: a basis of size 2, whose 2 x 2 entries take 64 bytes
_GRAM_2 = np.array([[1.0, 0.5], [0.5, 1.0]], dtype="<c16").tobytes()
_NOT_JSON = "{path} is not valid JSON: "


def _shaped(header, shape):
    return {**header, "entries": {**header["entries"], "shape": shape}}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda h: _v3(h, b""), "{kind} file: entries payload holds 0 bytes: expected 64"),
        (lambda h: _v3(_shaped(h, [2, 2, 1]), _GRAM_2[:32]),
         "{kind} file: entries of shape [2, 2, 1] do not match the basis: expected (2, 2, 2)"),
        (lambda h: _v3(_shaped(h, [2, 2, 3]), _GRAM_2 + _GRAM_2[:32]),
         "{kind} file: entries of shape [2, 2, 3] do not match the basis: expected (2, 2, 2)"),
        (lambda h: _v3(h, _GRAM_2[:48]),
         "{kind} file: entries payload holds 48 bytes: expected 64"),
        (lambda h: _v3(_shaped(h, [1, 1, 2]), _GRAM_2[:16]),
         "{kind} file: entries of shape [1, 1, 2] do not match the basis: expected (2, 2, 2)"),
        (lambda h: json.dumps({**h, "entries": {
            "encoding": "f64le-base64", "shape": [2, 2, 2],
            "data": base64.b64encode(_GRAM_2).decode()}}, indent=1).encode(),
         "{kind} file: unsupported entries encoding 'f64le-base64'"),
        (lambda h: _v3(h, _GRAM_2 + _GRAM_2[:16]),
         "{kind} file: entries payload holds 80 bytes: expected 64"),
        (lambda h: _v3(h, _GRAM_2).replace(b"}\n", b"}", 1), _NOT_JSON),
        (lambda h: b"{not json\n" + _GRAM_2, _NOT_JSON),
        (lambda h: b"[1, 2]\n" + _GRAM_2, _NOT_JSON),
        (lambda h: b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n" + _GRAM_2, _NOT_JSON),
    ],
    ids=["null", "short-pair", "long-pairs", "ragged", "size-mismatch", "strings", "over-long",
         "no-newline", "header-not-json", "header-not-object", "header-too-deep"],
)
@pytest.mark.parametrize("command", ["rank", "recover", "spectrum"])
def test_malformed_matrix_file_is_usage_error(tmp_path, capsys, make, message, command):
    # null: a header line with no payload after it; short-pair and long-pairs:
    # pairs of the wrong length; ragged: a truncated payload; size-mismatch: a
    # smaller matrix; strings: the old base64 text payload.  A file whose
    # first line is not a matrix header is read as one JSON value, which its
    # binary payload breaks
    header = {"dimension": 1, "max_degree": 1, "order": "grlex",
              "entries": {"encoding": "f64le", "shape": [2, 2, 2]}}
    if command == "spectrum":
        header["kernel"] = {"kind": "bargmann"}
    kind = "Galerkin matrix" if command == "spectrum" else "moment matrix"
    path, out = tmp_path / "a.json", tmp_path / "out"
    path.write_bytes(make(header))
    assert run(command, "--input", str(path), "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(kind=kind, path=path)), err
    assert err.count("\n") == 1
    assert not out.exists()


MEASURE = {"dimension": 1, "atoms": [{"location": [[0.5, 0]], "weight": [1, 0]}]}


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (("moments", "--degree", "2"), {"dimension": 1, "atoms": [{"location": [[0.5, 0]]}]},
         "measure file: missing key 'weight'"),
        (("moments", "--degree", "2"), {"dimension": 1, "density": {"type": "uniform"}},
         "density file: missing key 'domain'"),
        (("rank",), MEASURE, "moment matrix file: missing key 'max_degree'"),
        (("recover",), MEASURE, "moment matrix file: missing key 'max_degree'"),
        (("spectrum",),
         {"dimension": 1, "max_degree": 0, "order": "grlex", "entries": _entries([[1.0]]),
          "kernel": {}},
         "Galerkin matrix file: missing key 'kind'"),
    ],
    ids=["atom-weight", "density-domain", "rank-on-measure", "recover-on-measure",
         "kernel-kind"],
)
def test_file_missing_a_key_names_its_kind_and_the_key(tmp_path, capsys, argv, data, message):
    path = tmp_path / "in.json"
    path.write_bytes(dump_bytes(data))
    assert run(*argv, "--input", str(path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_matrix_file_size_is_checked_before_its_basis_is_built(tmp_path, capsys, monkeypatch):
    # a basis of degree 10**6 at d=3 has ~1.7e17 indices
    built = []
    tables = moments._basis_tables
    monkeypatch.setattr(moments, "_basis_tables", lambda *key: built.append(key) or tables(*key))
    path = tmp_path / "a.json"
    path.write_bytes(dump_bytes(
        {"dimension": 3, "max_degree": 10**6, "order": "grlex", "entries": _entries([[1.0]])}
    ))
    assert run("rank", "--input", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: moment matrix file: entries of shape [1, 1, 2] do not match")
    assert err.count("\n") == 1
    assert built == []


@pytest.mark.parametrize(
    "data, message",
    [
        ({"dimension": 1, "atoms": [{"location": [[0.5, 0]], "weight": 3}]},
         "measure file: expected a [re, im] pair of numbers, got 3"),
        ({"dimension": 1, "atoms": [{"location": [[0.5]], "weight": [1, 0]}]},
         "measure file: expected a [re, im] pair of numbers, got [0.5]"),
        (json.loads(_density(1, [[0, 0, 0]], [1.0], {"type": "uniform"})),
         "density file: expected a [re, im] pair of numbers, got [0, 0, 0]"),
        (json.loads(_density(1, [[0, 0]], [1.0], _polynomial(([0], "x")))),
         "density file: expected a [re, im] pair of numbers, got 'x'"),
    ],
    ids=["atom-weight", "atom-location", "density-centre", "polynomial-coeff"],
)
def test_malformed_complex_pair_names_its_kind_and_the_value(tmp_path, capsys, data, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert run("moments", "--input", str(path), "--degree", "2") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (("spectrum",),
         {"dimension": 1, "max_degree": 0, "order": "grlex", "entries": _entries([[1.0]]),
          "kernel": "x"},
         "Galerkin matrix file: 'kernel' must be an object, got 'x'"),
        (("moments", "--degree", "2"), {"dimension": 1, "atoms": {}},
         "measure file: 'atoms' must be a list, got {}"),
        (("moments", "--degree", "2"), {"dimension": 1, "atoms": [None]},
         "measure file: 'atoms' entries must be objects, got None"),
        (("moments", "--degree", "2"), {"dimension": 1, "domain": None, "density": {}},
         "density file: 'domain' must be an object, got None"),
    ],
    ids=["kernel", "atoms", "atom", "domain"],
)
def test_nested_value_of_the_wrong_type_names_its_key(tmp_path, capsys, argv, data, message):
    path = tmp_path / "in.json"
    path.write_bytes(dump_bytes(data))
    assert run(*argv, "--input", str(path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# every file is d = 2 and degree 2, and a matrix shape is [6, 6, 2], so int()
# would read 2.7 and "2" as valid, and 2.0 equals the integer it imitates
@pytest.mark.parametrize("bad", [2.7, 2.0, "2", True],
                         ids=["float", "integral-float", "string", "bool"])
@pytest.mark.parametrize(
    "argv, kind, path",
    [
        (("moments", "--degree", "2"), "measure", ("dimension",)),
        (("moments", "--degree", "2"), "density", ("dimension",)),
        (("moments", "--degree", "2"), "density", ("density", "terms", 1, "alpha", 0)),
        (("rank",), "moment matrix", ("dimension",)),
        (("rank",), "moment matrix", ("max_degree",)),
        (("spectrum",), "Galerkin matrix", ("max_degree",)),
        (("rank",), "moment matrix", ("entries", "shape", 2)),
        (("spectrum",), "Galerkin matrix", ("entries", "shape", 2)),
    ],
    ids=["measure-dimension", "density-dimension", "density-alpha", "matrix-dimension",
         "matrix-max_degree", "galerkin-max_degree", "matrix-shape", "galerkin-shape"],
)
def test_integer_field_that_is_not_a_json_integer_is_one_error_line(
        tmp_path, capsys, argv, kind, path, bad):
    m = generate_measure(2, 3, seed=1, separation=0.2)
    doc = {
        "measure": measure_to_dict(m),
        "density": json.loads(DENSITIES_AT_DEGREE_6["polynomial"]),
        "moment matrix": matrix_to_dict(moment_matrix(m, 2)),
        "Galerkin matrix": galerkin_to_dict(galerkin_matrix(enclosing_kernel("bergman", m), m, 2)),
    }[kind]
    _at(doc, path[:-1])[path[-1]] = bad
    key = [k for k in path if isinstance(k, str)][-1]
    file, out = tmp_path / "in.json", tmp_path / "out"
    file.write_bytes(dump_bytes(doc))
    assert run(*argv, "--input", str(file), "--output", str(out)) == 1
    assert capsys.readouterr().err == f"error: {kind} file: {key!r} must be an integer, got {bad!r}\n"
    assert not out.exists()


def test_measure_file_with_a_utf8_bom_is_read(tmp_path):
    # RFC 8259 section 8.1 lets a parser ignore a byte order mark
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(dump_json(measure_to_dict(generate_measure(2, 3, seed=4))))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    payloads = []
    for path in (plain, marked):
        out = tmp_path / f"A-{path.stem}.json"
        assert run("moments", "--input", str(path), "--degree", "3", "--output", str(out)) == 0
        header, payload = out.read_bytes().split(b"\n", 1)
        assert json.loads(header)["entries"]["shape"] == [10, 10, 2]
        payloads.append(payload)
    assert len(payloads[0]) == 16 * 10**2 and payloads[0] == payloads[1]


def test_matrix_file_with_a_utf8_bom_is_read(tmp_path, capsys):
    # the mark goes before the header line; the payload's offset counts it
    m_path, plain, marked = tmp_path / "m.json", tmp_path / "plain.json", tmp_path / "marked.json"
    run("gen", "--dimension", "2", "--atoms", "3", "--seed", "4", "--output", str(m_path))
    run("moments", "--input", str(m_path), "--degree", "3", "--output", str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    capsys.readouterr()
    ranks = []
    for path in (plain, marked):
        assert run("rank", "--input", str(path)) == 0
        ranks.append(json.loads(capsys.readouterr().out)["singular_values"])
    assert ranks[0] == ranks[1]


@functools.cache
def _matrix_files():
    """Valid matrix files and a command that reads each: a d=2 moment matrix
    through `rank` and `recover`, a Bergman Galerkin matrix through `spectrum`."""
    m = generate_measure(2, 3, seed=1, separation=0.2)
    a = matrix_to_dict(moment_matrix(m, 4))
    g = galerkin_to_dict(galerkin_matrix(enclosing_kernel("bergman", m), m, 4))
    return [("rank", a), ("recover", a), ("spectrum", g)]


def _json_slots(value, path=()):
    """(container path, key) of every value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path, key
        yield from _json_slots(item, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _drop_or_replace(draw, doc, family):
    """Deletes one key of an object in doc, or replaces one nested value by
    a null, a string, an empty list or an empty object."""
    if family == "drop":
        path, key = draw(st.sampled_from(
            [(path, key) for path, key in _json_slots(doc) if isinstance(_at(doc, path), dict)]))
        del _at(doc, path)[key]
    else:
        path, key = draw(st.sampled_from(list(_json_slots(doc))))
        _at(doc, path)[key] = draw(st.sampled_from([None, "x", [], {}]))


@st.composite
def _mutants(draw):
    """A command and the bytes of a file it reads with one mutation of a
    fixed family: of the header line, or of the payload after it."""
    command, valid = draw(st.sampled_from(_matrix_files()))
    doc = copy.deepcopy(valid)
    entries = doc["entries"]
    payload = entries.pop("data")
    family = draw(st.sampled_from(["drop", "replace", "shape", "encoding", "data"]))
    if family in ("drop", "replace"):
        _drop_or_replace(draw, doc, family)
    elif family == "shape":
        entries["shape"] = draw(st.lists(st.integers(-1, 300), max_size=4)
                                .filter(lambda shape: shape != entries["shape"]))
    elif family == "encoding":
        entries["encoding"] = draw(st.text(max_size=20).filter(lambda e: e != "f64le"))
    else:
        cut = draw(st.integers(0, len(payload) - 1))
        if draw(st.booleans()):  # truncated
            payload = payload[:cut]
        else:  # 1 to 17 arbitrary bytes inserted
            payload = payload[:cut] + draw(st.binary(min_size=1, max_size=17)) + payload[cut:]
    return command, _v3(doc, payload)


def _run_on(command, raw, *flags):
    """Exit code, stderr and whether an output file appeared."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "in.json"), Path(tmp, "out")
        path.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), "--output", str(out), *flags])
        return code, err.getvalue(), out.exists()


def test_unmutated_matrix_files_are_read():
    for command, doc in _matrix_files():
        assert _run_on(command, dump_bytes(doc)) == (0, "", True), command


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutants())
def test_mutated_matrix_file_is_one_error_line(mutant):
    code, err, wrote = _run_on(*mutant)
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not wrote


@functools.cache
def _measure_files():
    """Valid measure files and a command that reads each (at --degree 2): a
    d=2 atomic measure through `moments`, `galerkin` and `verify`, and the
    three density kinds through `moments` and `verify`."""
    atomic = measure_to_dict(generate_measure(2, 3, seed=1, separation=0.2))
    densities = [density_to_dict(any_measure_from_dict(json.loads(text)))
                 for text in DENSITIES_AT_DEGREE_6.values()]
    return ([(command, atomic) for command in ("moments", "galerkin", "verify")]
            + [(command, doc) for doc in densities for command in ("moments", "verify")])


def _written_by_writer(doc):
    """Whether a measure document is exactly what a writer makes of the
    measure its reader reads from it."""
    try:
        m = any_measure_from_dict(doc)
    except (ValueError, KeyError, TypeError):
        return False
    return (measure_to_dict if isinstance(m, DiscreteMeasure) else density_to_dict)(m) == doc


@st.composite
def _measure_mutants(draw):
    """A command and a measure file it reads with one drop or replace mutation."""
    command, valid = draw(st.sampled_from(_measure_files()))
    doc = copy.deepcopy(valid)
    _drop_or_replace(draw, doc, draw(st.sampled_from(["drop", "replace"])))
    return command, doc


def test_unmutated_measure_files_are_read():
    for command, doc in _measure_files():
        assert _written_by_writer(doc), doc
        assert _run_on(command, json.dumps(doc).encode(), "--degree", "2") == (0, "", True), (
            command, doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_measure_mutants())
def test_mutated_measure_file_is_one_error_line(mutant):
    command, doc = mutant
    code, err, wrote = _run_on(command, json.dumps(doc).encode(), "--degree", "2")
    if _written_by_writer(doc):  # the mutant is itself a valid file
        assert err.count("\n") <= 1, err
        return
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not wrote
