"""The README's CLI pipeline and library example, and the example scripts,
each run as a user would run them: in fresh Python processes."""

import json
import re
import shlex
from pathlib import Path

import pytest

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
