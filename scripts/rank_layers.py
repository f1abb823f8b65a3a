#!/usr/bin/env python3
"""Wall times of the rank layer, one BLAS thread, printed as one JSON line.

Times the median over --repeats runs of:

  * rank_220_ms: `numerical_rank` of the README's d=3, 8-atom, degree-9
    moment matrix (basis 220; `gen --seed 3 --separation 0.2`);
  * rank_10_us and rank_45_us: lone `numerical_rank` calls at the acceptance
    corpus's sizes, on `generate_measure(1, 5, seed=3)` at degree 9 (n = 10,
    the dense SVD) and `generate_measure(2, 7, seed=3)` at degree 8 (n = 45,
    the sketch), each the median of --repeats timeit minima of 200 calls;
  * spectrum_220_ms: `spectrum` of its Bargmann and Bergman Galerkin
    matrices, the mean of the two;
  * verify_ms: `verify_theorem` at degrees 1..8 on the six d=3 atomic
    measures of the `verify` benchmark's first input set, per measure;
  * verify_small_ms: the same on its twelve d=1 and d=2 atomic measures,
    per measure: the ops at that workload's median;
  * verify_minflt_per_op: minor page faults (`resource.getrusage`) per
    `verify_theorem` on its twelve d=3 inputs, atomic and density, after
    a warm-up pass;
  * verify_rank_ms: the part of verify_ms spent in the rank calls the
    battery makes (`numerical_rank` and the `_BlockRanker` of the top
    matrix: its sketch and its one call for every rank), per measure, each
    timed at its outermost call, and verify_large_rank_ms the part of that
    on matrices of size >= 32, the sketch's floor.

`numerical_rank` and `_BlockRanker.ranks` share the rank layer's three
functions (`_sketched_ranks`, `_dense_ranks` and the count they both call),
so the wrappers below tell a ranker's own call from the lone calls made
inside it.

Each section also reports the widths of the range sketches it formed on
matrices of size >= 32 (0 for a sketch that declined) and, for verify, the
number formed per measure; verify_stacked_calls_per_op, the stacked (3-D)
QR and SVD calls per measure, the ranker's; and verify_dense_blocks: per
pass over the measures, the blocks of size >= 16 the ranker answered
(leading blocks and Galerkin rescalings) that the top matrix's sketch did
not settle.

A density section times the quadrature layer that feeds verify's
rank_growth check:

  * density_moments_ms: `moment_matrix(m, 8)` over the 18 densities of the
    same input set, the median per input;
  * density_level_nodes: the distinct sequences of node counts of one
    Gaussian disk table's radial Gauss-Legendre rules, doubling until two
    agree, keyed by density kind; uniform and polynomial tables are in
    closed form and take no rule.

    python3 scripts/rank_layers.py [--repeats R]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from momentrank import (  # noqa: E402
    DensityMeasure,
    enclosing_kernel,
    galerkin_matrix,
    generate_measure,
    moment_matrix,
    numerical_rank,
    spectrum,
    verify_theorem,
)
from momentrank import moments, operators, recovery  # noqa: E402
from momentrank.serialize import any_measure_from_dict  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
LARGE = moments._SKETCH_MIN_SIZE
BLOCK = 2 * moments._SKETCH_START  # the ranker's floor for blocks read off the sketch


def _verify_inputs():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verify_inputs(0)


def _count_sketches(widths: list) -> None:
    """Wraps `_range_sketch` wherever the library holds it, so that every
    sketch of a matrix of size >= LARGE appends its width, or 0 when it
    declines, to widths."""
    original = moments._range_sketch

    @functools.wraps(original)
    def counted(entries, rel_tol):
        sketch = original(entries, rel_tol)
        if min(entries.shape) >= LARGE:
            widths.append(0 if sketch is None else sketch.q.shape[1])
        return sketch

    for module in (moments, operators, recovery):
        if getattr(module, "_range_sketch", None) is original:
            module._range_sketch = counted


def _count_dense_blocks(unsettled: list) -> None:
    """Wraps `_BlockRanker.ranks` and the `_sketched_ranks` it calls on its
    own sketch, so that every block of size >= BLOCK that the sketch did not
    settle appends its size to unsettled.  The sketches of `numerical_rank`
    calls made inside the ranker, for the formed matrices it hands on, are
    not the ranker's and are not counted."""
    ranks, sketched_ranks = moments._BlockRanker.ranks, moments._sketched_ranks
    settled: list = []
    own = [None]  # the sketch of the ranker being called

    def counted_sketched(sketch, queries, rel_tol):
        found = sketched_ranks(sketch, queries, rel_tol)
        if sketch is own[0]:
            settled.extend(q[0] for q, r in zip(queries, found) if q[2] is None and r is not None)
        return found

    @functools.wraps(ranks)
    def counted(self, blocks, others=()):
        settled.clear()
        own[0] = self.sketch
        found = ranks(self, blocks, others)
        asked = sorted(size for size, _ in blocks if size >= BLOCK)
        for size in settled:
            if size >= BLOCK:
                asked.remove(size)
        unsettled.extend(asked)
        return found

    moments._BlockRanker.ranks, moments._sketched_ranks = counted, counted_sketched


def _count_stacked(calls: list) -> None:
    """Wraps np.linalg.qr and np.linalg.svd, so that every call on a stack
    of matrices (an array of 3 dimensions) appends its name to calls."""
    for name in ("qr", "svd"):
        function = getattr(np.linalg, name)

        @functools.wraps(function)
        def counted(a, *args, _function=function, _name=name, **kwargs):
            if np.ndim(a) == 3:
                calls.append(_name)
            return _function(a, *args, **kwargs)

        setattr(np.linalg, name, counted)


def _time_rank_layer(calls: list) -> None:
    """Wraps the rank functions verify calls, `numerical_rank` in recovery
    and the `_BlockRanker`'s sketch and query call, so that each outermost
    call appends the size of the matrix it ranks and the seconds it took to
    calls.  A rank call made inside another (`numerical_rank` inside
    `_BlockRanker.ranks`) is part of the outer call's time, not an entry of
    its own."""
    depth = [0]

    def timed(function, size_of):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return function(*args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                calls.append((size_of(args), time.perf_counter() - start))
                depth[0] -= 1

        return wrapper

    ranker = moments._BlockRanker
    ranker.__init__ = timed(ranker.__init__, lambda args: len(args[1]))
    ranker.ranks = timed(ranker.ranks, lambda args: len(args[0].entries))
    recovery.numerical_rank = timed(
        recovery.numerical_rank, lambda args: len(getattr(args[0], "entries", args[0]))
    )


def _level_nodes(densities) -> dict:
    """Per density kind, the distinct sequences of node counts of one
    Gaussian disk table's radial Gauss-Legendre rules, read while each
    density's degree-8 moments are assembled; kinds whose tables take no
    rule are left out."""
    tables: list = []
    gaussian_table, gauss_legendre = moments._gaussian_disk_table, moments._gauss_legendre

    def counted_rule(n):
        tables[-1].append(n)
        return gauss_legendre(n)

    def counted_gaussian(*args):
        tables.append([])
        return gaussian_table(*args)

    moments._gaussian_disk_table, moments._gauss_legendre = counted_gaussian, counted_rule
    found: dict = {}
    try:
        for x in densities:
            tables.clear()
            moment_matrix(x, 8)
            if tables:
                found.setdefault(x.density.kind, set()).update(map(tuple, tables))
    finally:
        moments._gaussian_disk_table, moments._gauss_legendre = gaussian_table, gauss_legendre
    return {kind: sorted(map(list, seqs)) for kind, seqs in sorted(found.items())}


def _median_ms(run, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    widths: list = []
    _count_sketches(widths)
    m = generate_measure(3, 8, seed=3, separation=0.2)
    a = moment_matrix(m, 9)
    galerkins = [galerkin_matrix(enclosing_kernel(k, m), m, 9) for k in ("bargmann", "bergman")]
    result = {"machine": platform.machine(), "cpus": os.cpu_count(), "blas_threads": 1,
              "repeats": args.repeats, "n": a.basis.size}

    numerical_rank(a)  # warm the sketch cache
    widths.clear()
    result["rank_220_ms"] = _median_ms(lambda: numerical_rank(a), args.repeats)
    result["rank_220_widths"] = sorted(set(widths))
    for key, (d, atoms, degree) in (("rank_10_us", (1, 5, 9)), ("rank_45_us", (2, 7, 8))):
        lone = moment_matrix(generate_measure(d, atoms, seed=3), degree)
        numerical_rank(lone)
        result[key] = 1e6 * statistics.median(
            min(timeit.repeat(lambda: numerical_rank(lone), number=200, repeat=3)) / 200
            for _ in range(args.repeats)
        )

    for g in galerkins:
        spectrum(g)
    widths.clear()
    result["spectrum_220_ms"] = statistics.mean(
        _median_ms(lambda: spectrum(g), args.repeats) for g in galerkins
    )
    result["spectrum_220_widths"] = sorted(set(widths))

    inputs = [(name, any_measure_from_dict(payload)) for name, payload in _verify_inputs()]
    densities = [x for _, x in inputs if isinstance(x, DensityMeasure)]
    result["density_level_nodes"] = _level_nodes(densities)
    result["density_moments_ms"] = _median_ms(
        lambda: [moment_matrix(x, 8) for x in densities], args.repeats
    ) / len(densities)

    measures = [x for name, x in inputs if name.startswith("d3-atoms")]
    small = [x for name, x in inputs if name.startswith(("d1-atoms", "d2-atoms"))]
    degrees = list(range(1, 9))
    for x in measures + small:
        if not verify_theorem(x, degrees).passed:
            raise SystemExit("verify_theorem failed on an atomic input")
    result["verify_small_ms"] = _median_ms(
        lambda: [verify_theorem(x, degrees) for x in small], args.repeats
    ) / len(small)
    d3 = [x for name, x in inputs if name.startswith("d3-")]
    for x in d3:  # the warm-up pass
        verify_theorem(x, degrees)
    faults = []
    for _ in range(args.repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for x in d3:
            verify_theorem(x, degrees)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(d3))
    result["verify_minflt_per_op"] = statistics.median(faults)
    calls: list = []
    unsettled: list = []
    stacked: list = []
    _count_dense_blocks(unsettled)
    _count_stacked(stacked)
    _time_rank_layer(calls)
    widths.clear()
    verify_ms, rank_ms, large_ms = [], [], []
    for _ in range(args.repeats):
        calls.clear()
        start = time.perf_counter()
        for x in measures:
            verify_theorem(x, degrees)
        verify_ms.append((time.perf_counter() - start) / len(measures))
        rank_ms.append(sum(t for _, t in calls) / len(measures))
        large_ms.append(sum(t for size, t in calls if size >= LARGE) / len(measures))
    result["verify_ms"] = 1e3 * statistics.median(verify_ms)
    result["verify_rank_ms"] = 1e3 * statistics.median(rank_ms)
    result["verify_large_rank_ms"] = 1e3 * statistics.median(large_ms)
    result["verify_sketches_per_op"] = len(widths) / (args.repeats * len(measures))
    result["verify_stacked_calls_per_op"] = len(stacked) / (args.repeats * len(measures))
    result["verify_widths"] = sorted(set(widths))
    result["verify_dense_blocks"] = len(unsettled) / args.repeats
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
