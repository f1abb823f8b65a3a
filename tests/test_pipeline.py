"""The README's CLI pipeline and library example, and the example scripts,
each run as a user would run them: in fresh Python processes.  One test
calls the recovery demo's printer directly."""

import importlib.util
import json
import re
import shlex
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from momentrank import DiscreteMeasure, generate_measure
from momentrank.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PIPELINE = [
    ("gen", "--dimension", "2", "--atoms", "4", "--seed", "7", "--separation", "0.2",
     "--output", "m.json"),
    ("moments", "--input", "m.json", "--degree", "5", "--output", "A.json"),
    ("rank", "--input", "A.json", "--output", "rank.json"),
    ("recover", "--input", "A.json", "--seed", "7", "--output", "report.json"),
    ("galerkin", "--input", "m.json", "--degree", "5", "--kernel", "bergman", "--output", "G.json"),
    ("spectrum", "--input", "G.json", "--output", "spectrum.csv"),
    ("verify", "--input", "m.json", "--degree", "6", "--seed", "7", "--output", "verdict.json"),
]

# the values the library example prints, each stated in its comments
EXAMPLE_VALUES = ["4", "(3, 4, 4, 4, 4) True", "[21, 21, 2]", "7056"]

# the benchmark's `files` workload: d=3, 8 atoms, degree 9 (basis 220), seed 7
FILES = [
    ("gen", "--dimension", "3", "--atoms", "8", "--seed", "7", "--separation", "0.2",
     "--output", "m.json"),
    ("moments", "--input", "m.json", "--degree", "9", "--output", "A.json"),
    ("rank", "--input", "A.json", "--output", "rank.json"),
    ("recover", "--input", "A.json", "--seed", "7", "--output", "report.json"),
    ("galerkin", "--input", "m.json", "--degree", "9", "--kernel", "bargmann",
     "--output", "Gb.json"),
    ("galerkin", "--input", "m.json", "--degree", "9", "--kernel", "bergman",
     "--output", "Gp.json"),
    ("spectrum", "--input", "Gb.json", "--output", "sb.csv"),
    ("spectrum", "--input", "Gp.json", "--output", "sp.csv"),
    ("verify", "--input", "m.json", "--seed", "7", "--output", "verdict.json"),
]


def test_readme_pipeline_reruns_byte_for_byte(run_twice):
    readme = [tuple(shlex.split(line)[1:])
              for line in README.read_text().splitlines() if line.startswith("momentrank ")]
    assert readme == PIPELINE
    run1 = run_twice(PIPELINE)
    assert sorted(p.name for p in run1.iterdir()) == sorted(
        "m.json A.json rank.json report.json G.json spectrum.csv verdict.json".split()
    )


def test_readme_pipeline_rerun_in_one_directory_writes_the_bytes_of_a_fresh_one(
        tmp_path, run_python):
    # outputs are rewritten in place: over stale files longer than the new
    # ones, and then over its own, each pass must leave a fresh pass's bytes
    script = ("import sys\nfrom momentrank.cli import main\n"
              f"sys.exit(max(main(list(argv)) for argv in {PIPELINE!r}))\n")
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for directory in (fresh, reused):
        directory.mkdir()
    done = run_python("-c", script, cwd=fresh)
    assert done.returncode == 0, done.stderr
    expected = {p.name: p.read_bytes() for p in fresh.iterdir()}
    for name, data in expected.items():
        (reused / name).write_bytes(b"stale " * (len(data) // 6 + 4096))
    for _ in range(2):
        done = run_python("-c", script, cwd=reused)
        assert done.returncode == 0, done.stderr
        assert {p.name: p.read_bytes() for p in reused.iterdir()} == expected


def test_readme_library_example_prints_the_values_its_comments_state(tmp_path, run_python):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    example = "".join(blocks)
    assert example.strip(), "README has no python block"
    script = tmp_path / "example.py"
    script.write_text(example)
    done = run_python(script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    for value in EXAMPLE_VALUES:
        assert value in printed, value
        assert re.search(rf"^print\(.*\)\s+# {re.escape(value)}(:|$)", example, re.M), value


def test_files_pipeline_is_byte_identical_at_one_and_two_blas_threads(tmp_path, run_python):
    # singular values and eigenvalues may move in their last bits with the
    # thread count, so only the rank file and the spectra may differ
    script = ("import sys\nfrom momentrank.cli import main\n"
              f"sys.exit(max(main(list(argv)) for argv in {FILES!r}))\n")
    files = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        done = run_python("-c", script, cwd=cwd, env={"OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        files[threads] = {p.name: p.read_bytes() for p in cwd.iterdir()}
    one, two = files["1"], files["2"]
    assert sorted(one) == sorted(two) == sorted(argv[-1] for argv in FILES)
    for name in ("m.json", "A.json", "report.json", "Gb.json", "Gp.json", "verdict.json"):
        assert one[name] == two[name], name
    assert json.loads(one["rank.json"])["rank"] == json.loads(two["rank.json"])["rank"] == 8


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_example_script_exits_0(tmp_path, run_python, script):
    done = run_python(script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_rank_layers_reports_its_sketches_and_quadrature_levels(tmp_path, run_python):
    done = run_python(ROOT / "scripts" / "rank_layers.py", "--repeats", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    # the top matrix's one sketch serves every rank of an op, the
    # |g|^2-reweighted matrix's too, in two stacked QRs (the blocks' and
    # the cut of the wide factors) and one stacked SVD, and the blocks
    # below 16 (sizes 4 and 10) take one padded stacked SVD
    assert result["verify_sketches_per_op"] == 1.0
    assert result["verify_stacked_calls_per_op"] == 4.0
    # rank 8 fills the first width, 8, and Q keeps 9 of the doubled 16
    assert result["rank_220_widths"] == result["spectrum_220_widths"] == [9]
    # the d = 3 measures have N <= 6 atoms: Q keeps N + 1 columns, none declines
    assert all(0 < width <= 7 for width in result["verify_widths"])
    # and the top sketch settles every block of size >= 16
    assert result["verify_dense_blocks"] == 0
    # each rank call is timed once, within verify
    assert result["verify_large_rank_ms"] <= result["verify_rank_ms"] <= result["verify_ms"]
    # a declined top sketch is the op's only one: the dense SVD ranks the rest
    assert result["declined_sketches_per_op"] == 1.0
    assert result["declined_verify_ms"] > 0
    # the ops at the verify workload's median, and the page faults of d = 3 ops
    assert result["verify_small_ms"] > 0
    assert result["verify_minflt_per_op"] >= 0
    # lone numerical_rank calls at the corpus's sizes, n = 10 and 45
    assert 0 < result["rank_10_us"] < result["rank_45_us"] < 1e3 * result["rank_220_ms"]
    levels = result["density_level_nodes"]
    # uniform and polynomial tables are in closed form: only the Gaussian's
    # radial rules double until two levels agree
    assert list(levels) == ["gaussian"] and levels["gaussian"]
    for rules in levels["gaussian"]:
        assert len(rules) >= 2
        assert all(b == 2 * a for a, b in zip(rules, rules[1:]))


def test_rank_dichotomy_prints_saturating_and_full_ranks(tmp_path, run_python):
    # defaults: d = 2, 4 atoms, degrees 1..6
    done = run_python(ROOT / "scripts" / "rank_dichotomy.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = lines.index(next(line for line in lines if line.split()[:1] == ["degree"])) + 1
    rows = [[int(x) for x in line.split()] for line in lines[start:start + 6]]
    assert [row[0] for row in rows] == [1, 2, 3, 4, 5, 6]
    assert [row[2] for row in rows] == [3, 4, 4, 4, 4, 4]
    assert [row[3] for row in rows] == [row[1] for row in rows] == [3, 6, 10, 15, 21, 28]
    assert "detected rank 4" in done.stdout


def test_files_commands_hold_under_two_matrices_of_memory(tmp_path, monkeypatch):
    # each matrix command on the basis-220 files holds its one n x n matrix
    # plus row blocks: no copy of it for reading, writing or a residual.  The
    # second pass is measured, so the caches that outlive a command (basis
    # tables, sketch matrices) are built already
    monkeypatch.chdir(tmp_path)
    matrix_bytes = 16 * 220**2
    peaks = {}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for measured in (False, True):
            for argv in FILES:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert main(list(argv)) == 0, argv
                if measured:
                    peak = tracemalloc.get_traced_memory()[1] - before
                    peaks[argv[-1]] = peak / matrix_bytes
    finally:
        if started:
            tracemalloc.stop()
    del peaks["m.json"]  # gen holds no matrix
    assert all(peak < 2 for peak in peaks.values()), peaks


_D3_TERMS = [{"alpha": alpha, "coeff": coeff} for alpha, coeff in [
    ([0, 0, 0], [1.0, 0.0]), ([1, 0, 0], [0.2, 0.1]), ([0, 1, 0], [0.0, -0.15]),
    ([0, 0, 1], [0.1, 0.0])]]


@pytest.mark.parametrize("density", [{"type": "uniform"},
                                     {"type": "polynomial", "terms": _D3_TERMS}],
                         ids=["uniform", "polynomial"])
def test_density_moments_hold_under_two_matrices_of_memory(tmp_path, monkeypatch, density):
    # `moments` on a d=3 density at degree 9 (basis 220) assembles the matrix
    # it writes in row blocks: no n x n term or table factor beside it.  The
    # second run is measured, so the basis tables are built already
    monkeypatch.chdir(tmp_path)
    domain = {"center": [[0.1, -0.2], [0.0, 0.0], [-0.3, 0.1]], "radii": [1.0, 0.9, 1.1]}
    Path("d.json").write_text(json.dumps({"dimension": 3, "domain": domain, "density": density}))
    argv = ["moments", "--input", "d.json", "--degree", "9", "--output", "A.json"]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        assert main(argv) == 0
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 2 * 16 * 220**2, peak / (16 * 220**2)


def test_cli_runs_with_numpy_alone(tmp_path, run_python):
    # numpy is the only runtime dependency; scipy and hypothesis are test extras
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
        "import momentrank, momentrank.cli\n"
        "sys.exit(momentrank.cli.main(['gen', '--dimension', '2', '--atoms', '3',"
        " '--output', 'm.json']))\n"
    )
    result = run_python("-c", script, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "m.json").is_file()


def test_recovery_demo_prints_every_true_atom_when_fewer_are_recovered(capsys):
    spec = importlib.util.spec_from_file_location("recovery_demo",
                                                  ROOT / "scripts" / "recovery_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    truth = generate_measure(2, 3, seed=1)
    short = SimpleNamespace(detected_rank=1, retries_used=0, residual=1.0,
                            atoms=DiscreteMeasure(2, truth.atoms[:1]))
    demo.show("short", truth, short)
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("  true ") for line in lines) == 3
    assert sum(line.startswith("  rec  ") for line in lines) == 1
    assert lines[-1] == "  NOT matched"
