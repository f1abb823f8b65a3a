#!/usr/bin/env python3
"""Wall times of the rank layer, one BLAS thread, printed as one JSON line.

Times the median over --repeats runs of:

  * rank_220_ms: `numerical_rank` of the README's d=3, 8-atom, degree-9
    moment matrix (basis 220; `gen --seed 3 --separation 0.2`);
  * spectrum_220_ms: `spectrum` of its Bargmann and Bergman Galerkin
    matrices, the mean of the two;
  * verify_ms: `verify_theorem` at degrees 1..8 on the six d=3 atomic
    measures of the `verify` benchmark's first input set, per measure;
  * verify_rank_ms: the part of verify_ms spent in the rank calls the
    battery makes (`numerical_rank` and the sketch functions recovery
    imports from moments), per measure, each timed at its outermost call,
    and verify_large_rank_ms the part of that on matrices of size >= 32, the
    sketch's floor: the top matrix's blocks, its two Galerkin rescalings and
    the separately assembled |g|^2-reweighted matrix.

Each section also reports the widths of the range sketches it formed on
matrices of size >= 32 (0 for a sketch that declined) and, for verify, the
number formed per measure and verify_dense_blocks: per pass over the
measures, the blocks of size >= 16 the battery ranked (leading blocks and
Galerkin rescalings) that the top matrix's sketch did not settle.

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
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

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
RANK_LAYER = ("numerical_rank", "_range_sketch", "_leading_rank")
LARGE = moments._SKETCH_MIN_SIZE
BLOCK = 2 * moments._SKETCH_START  # the battery's floor for blocks read off the sketch


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
    """Wraps `_leading_rank` and the `_block_rank` it calls, so that every
    block of size >= BLOCK that the sketch did not settle appends its size
    to unsettled."""
    leading, block_rank = recovery._leading_rank, recovery._block_rank
    settled = [False]

    def counted_block(*args):
        found = block_rank(*args)
        settled[0] = found is not None
        return found

    @functools.wraps(leading)
    def counted(entries, sketch, size, *rest):
        settled[0] = False
        found = leading(entries, sketch, size, *rest)
        if size >= BLOCK and not settled[0]:
            unsettled.append(size)
        return found

    recovery._leading_rank, recovery._block_rank = counted, counted_block


def _time_rank_layer(calls: list) -> None:
    """Wraps the rank functions recovery calls, so that each outermost call
    appends the size of the matrix it ranks and the seconds it took to
    calls.  A rank call made inside another (`numerical_rank` inside
    `_leading_rank`) is part of the outer call's time, not an entry of its
    own."""
    depth = [0]
    for name in RANK_LAYER:
        function = getattr(recovery, name, None)
        if function is None:
            continue

        def timed(*args, _function=function, _name=name, **kwargs):
            if depth[0]:
                return _function(*args, **kwargs)
            if _name == "_leading_rank":  # (entries, sketch, size, ...)
                size = args[2]
            else:  # a MomentMatrix or an array
                size = len(getattr(args[0], "entries", args[0]))
            depth[0] += 1
            start = time.perf_counter()
            try:
                return _function(*args, **kwargs)
            finally:
                calls.append((size, time.perf_counter() - start))
                depth[0] -= 1

        setattr(recovery, name, timed)


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
    degrees = list(range(1, 9))
    for x in measures:
        if not verify_theorem(x, degrees).passed:
            raise SystemExit("verify_theorem failed on a d=3 atomic input")
    calls: list = []
    unsettled: list = []
    _count_dense_blocks(unsettled)
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
    result["verify_widths"] = sorted(set(widths))
    result["verify_dense_blocks"] = len(unsettled) / args.repeats
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
