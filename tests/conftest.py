import importlib.util
from pathlib import Path

import numpy as np
import pytest


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
