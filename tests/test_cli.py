import json

import pytest

from momentrank import DensityMeasure, DensitySpec, ComplexPoint, Polydisk
from momentrank.cli import main
from momentrank.serialize import density_to_dict, dump_json, measure_from_dict


def run(*argv):
    return main(list(argv))


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
    gal = json.loads(g_path.read_text())
    assert gal["kernel"]["kind"] == "bergman_polydisk"
    assert run("spectrum", "--input", str(g_path), "--output", str(s_path)) == 0
    lines = s_path.read_text().strip().split("\n")
    assert lines[1] == "index,re,im,modulus"
    mods = [float(line.split(",")[3]) for line in lines[2:]]
    assert mods == sorted(mods, reverse=True)


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


def test_verify_density_rank_growth(tmp_path):
    dens = DensityMeasure(
        2,
        Polydisk(ComplexPoint((0j, 0j)), (1.0, 1.0)),
        DensitySpec("uniform"),
    )
    d_path, v_path = tmp_path / "d.json", tmp_path / "v.json"
    d_path.write_text(dump_json(density_to_dict(dens)))
    assert run("verify", "--input", str(d_path), "--degree", "4",
               "--output", str(v_path)) == 0
    verdict = json.loads(v_path.read_text())
    check = verdict["checks"][0]
    assert check["name"] == "rank_growth"
    assert check["measured"]["ranks"] == [3, 6, 10, 15]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_moments_quadrature_failure_exit_code(tmp_path, capsys, kind):
    d_path = tmp_path / "d.json"
    d_path.write_text(json.dumps({
        "dimension": 1,
        "domain": {"center": [[0, 0]], "radii": [1e200]},
        "density": {"type": kind},
    }))
    assert run("moments", "--input", str(d_path), "--degree", "2") == 2
    assert capsys.readouterr().err.startswith("failure: quadrature did not converge")


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


def test_unknown_flag_is_usage_error():
    assert run("gen", "--dimension", "2", "--atoms", "1", "--bogus", "3") == 1


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


@pytest.mark.parametrize(
    "entries",
    [
        [[[1.0, 0.0], [0.5, None]], [[0.5, 0.0], [1.0, 0.0]]],  # null entry
        [[[1.0, 0.0], [0.5]], [[0.5, 0.0], [1.0, 0.0]]],  # 1-element pair
        [[[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]],  # 3-element pairs
        [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0]]],  # ragged row
        [[[1.0, 0.0]]],  # 1x1 entries for a basis of size 2
        [[["1.0", "x"], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],  # strings
    ],
    ids=["null", "short-pair", "long-pairs", "ragged", "size-mismatch", "strings"],
)
@pytest.mark.parametrize("command", ["rank", "recover", "spectrum"])
def test_malformed_matrix_file_is_usage_error(tmp_path, capsys, entries, command):
    # d=1, D=1: a basis of size 2
    data = {"dimension": 1, "max_degree": 1, "order": "grlex", "entries": entries}
    if command == "spectrum":
        data["kernel"] = {"kind": "bargmann"}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    assert run(command, "--input", str(path)) == 1
    assert capsys.readouterr().err.startswith("error: ")
