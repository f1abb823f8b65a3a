import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import math

import numpy as np
import pytest

from momentrank import IndexBasis, MomentMatrix
from momentrank.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def verify_inputs():
    """`verify_inputs` of bench/workloads.py: the 36 measure files per input
    seed that the `verify` benchmark runs on."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verify_inputs


@pytest.fixture
def svd_spy(monkeypatch):
    """Installs, when called, a spy that records the shape of every matrix
    handed to np.linalg.svd and returns that list; the sketch only
    decomposes its wide l x n factor, so a square shape is a dense SVD."""

    def install() -> list[tuple[int, ...]]:
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return shapes

    return install


@pytest.fixture(scope="session")
def run_python():
    """Runs `python *args` in a fresh process that imports momentrank from
    this checkout and draws a hash seed of its own, with `env` set on top of
    this process's environment; returns the finished
    `subprocess.CompletedProcess` with its text output."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))

    def run(*args, cwd, env=None):
        return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                              env={**base, **(env or {})}, capture_output=True, text=True,
                              timeout=300)

    return run


@pytest.fixture
def run_twice(tmp_path, monkeypatch, run_python):
    """Runs `momentrank` commands twice and asserts that both passes write the
    same bytes.

    Each pass works in its own directory under the same relative file names,
    so the `run_spec` headers agree; `inputs` maps file names to the text
    written into both directories first.  The first pass calls `main` in this
    process, whose caches earlier tests have warmed; the second runs every
    command in a fresh `python -m momentrank.cli` process, under another hash
    seed and with cold caches.  Every command must exit 0 in both passes, and
    both directories must end up holding the same files with the same bytes.
    Returns the first pass's directory.
    """

    def run(commands, inputs=None):
        first, second = tmp_path / "run1", tmp_path / "run2"
        for directory in (first, second):
            directory.mkdir()
            for name, text in (inputs or {}).items():
                (directory / name).write_text(text)
        with monkeypatch.context() as m:
            m.chdir(first)
            for argv in commands:
                assert main(list(argv)) == 0, argv
        for argv in commands:
            done = run_python("-m", "momentrank.cli", *argv, cwd=second)
            assert done.returncode == 0, (argv, done.stderr)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        return first

    return run


@pytest.fixture(scope="session")
def line_moments():
    """Returns the degree-D moment matrix of the uniform measure on the
    complex line {z_2 = c z_1}, |z_1| < 1, c = 1/2: a_ab = pi c^a_2
    conj(c)^b_2 / (|a| + 1) when |a| = |b|, and 0 otherwise."""

    def build(degree: int, c: complex = 0.5) -> MomentMatrix:
        basis = IndexBasis(2, degree)
        exps = basis.entries_array()
        total = exps.sum(axis=1)
        powers = c ** exps[:, 1]
        same = total[:, np.newaxis] == total[np.newaxis, :]
        entries = np.where(same, math.pi * np.outer(powers, np.conj(powers))
                           / (total[:, np.newaxis] + 1), 0)
        return MomentMatrix(basis, entries.astype(complex))

    return build
