"""One workload in one fresh process.

    python3 bench/worker.py --workload corpus --seed 1 --seconds 20 --mode run \
        --t0 <parent's time.monotonic() before the spawn> --workdir DIR [--spans PATH]

Modes:
  setup  import, generate inputs, run the warm-up pass, report setup_s;
  run    setup, then ops in a closed loop (one caller, next op after the
         previous returns) until --seconds have passed and at least one
         digest set of ops is done;
  trace  setup, then exactly one digest set of ops with spans recorded.

Ops read and write their files in DIR.  Prints one JSON object on stdout.
The parent (bench/run.py) sets the BLAS thread variables and PYTHONPATH;
`t0` comes from the parent because CLOCK_MONOTONIC is shared by all
processes, so setup_s includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="span output path (trace mode)")
    return p.parse_args(argv)


def _p95(samples: list[float]) -> float | None:
    """Nearest-rank 95th percentile, only with at least 10 samples beyond it."""
    if len(samples) < 200:
        return None
    ordered = sorted(samples)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def _set_digest(per_key: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(per_key):
        h.update(f"{key}:".encode())
        h.update(hashlib.sha256(per_key[key]).digest())
    return h.hexdigest()


def _blas_env() -> dict:
    """Library versions and the thread count OpenBLAS reports at run time."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "blas_threads_runtime": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _run_op(workload, key, op_index, tracer):
    try:
        if tracer is None:
            return workload.run(key)
        return tracer.op_span(op_index, workload.run, key)
    except Exception as exc:  # an op that raises is a failed op, the loop goes on
        return f"{workload.name} key={key}: {type(exc).__name__}: {exc}", b""


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, BENCH_DIR)
    os.chdir(args.workdir)

    import workloads  # imports numpy and momentrank

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm_failures = [f for f, _ in (_run_op(workload, k, -1, None)
                                    for k in workload.warmup_keys()) if f]
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "warmup_failures": warm_failures[:5]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    op_ms: list[float] = []
    best_ms: dict = {}
    failures: list[str] = []
    failed = 0
    first_digest: dict = {}
    mismatched = 0
    op_index = 0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if op_index >= workload.set_size and (args.mode == "trace" or elapsed >= args.seconds):
            break
        key = workload.key(op_index)
        start = time.perf_counter()
        failure, digest = _run_op(workload, key, op_index, tracer)
        ms = 1000 * (time.perf_counter() - start)
        op_ms.append(ms)
        best_ms[key] = min(ms, best_ms.get(key, math.inf))
        if failure:
            failed += 1
            if len(failures) < 5:
                failures.append(failure)
        # a repeated input must reproduce its first output byte for byte
        if key in first_digest:
            mismatched += first_digest[key] != digest
        else:
            first_digest[key] = digest
        op_index += 1
    loop_s = time.perf_counter() - loop_start

    n_set = workload.set_size
    set_walls = [sum(op_ms[i:i + n_set]) / 1000 for i in range(0, len(op_ms) - n_set + 1, n_set)]
    passed_share = 1 - failed / len(op_ms)
    best = list(best_ms.values())
    result.update({
        "set_size": n_set,
        "ops": len(op_ms),
        "failed": failed,
        "failures": failures,
        "repeat_mismatches": mismatched,
        "inputs": len(best),
        "loop_s": loop_s,
        # each input at its fastest repetition: contention from other tenants
        # of the host only ever adds time, so the best repetition tracks the
        # program's own cost (see DESIGN.md, "Noise and bounds")
        "ops_per_s": passed_share * len(best) / (sum(best) / 1000),
        "op_p50_ms": statistics.median(best),
        "loop_ops_per_s": passed_share * len(op_ms) / loop_s,
        "loop_op_p50_ms": statistics.median(op_ms),
        "loop_op_p95_ms": _p95(op_ms),
        "set_walls_s": set_walls,
        "digest": _set_digest({workload.key(i): first_digest[workload.key(i)]
                               for i in range(n_set)}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": _blas_env(),
    })
    if tracer is not None:
        result["layers"], result["layer_times"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans, loop_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
