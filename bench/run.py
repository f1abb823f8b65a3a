"""momentrank benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload corpus|files|verify --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
workload names, metric names, units and the reasons behind them are in
BENCHMARK.json and bench/DESIGN.md.

Every measurement runs in a fresh child process with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before numpy is imported: the
plain single-threaded baseline.  With --trace 0:

  * two setup probes and the measured run each report setup_s (process
    start through import, input generation and the warm-up pass);
  * the measured run loops over ops for --seconds and checks every op;
  * six fresh `python -m momentrank.cli verify` children, spread before
    and after the measured run, give cold_cli_s (in the report only).

With --trace 1 an untraced run and a traced pass over one digest set of
ops give the per-layer metrics, their digests must agree, and the slowdown
between them is the tracing overhead.

Human-readable details go first on stdout; the last line is the JSON result
`{"correct", "attempted", "failed", "metrics"}`.  Spans and the full report
are written under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
SETUP_PROBES = 2
COLD_CLI_PER_GAP = 2  # after each setup probe and after the run: 6 in all
IMPORT_PROBES = 5
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("corpus", "files", "verify"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


class Children:
    """Spawns benchmark children one at a time under a shared deadline."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = BLAS_THREADS
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run one child to completion; returns its wall time and result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("out of time before starting " + " ".join(argv[:3]))
        start = time.monotonic()
        try:
            done = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise HarnessError(f"child timed out: {' '.join(argv[:4])}") from exc
        return time.monotonic() - start, done

    def worker(self, mode: str, args, extra=()) -> dict:
        t0 = time.monotonic()
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0),
                "--workdir", self.workdir, *extra]
        _, done = self.run(argv)
        if done.returncode != 0:
            raise HarnessError(f"worker ({mode}) exited {done.returncode}:\n{done.stderr[-2000:]}")
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise HarnessError(f"worker ({mode}) printed no result:\n{done.stderr[-2000:]}") from exc


def _cold_cli(children: Children, runs: int) -> tuple[list[float], int]:
    """Wall time of fresh `momentrank verify` processes, one at a time."""
    measure = os.path.join(BENCH_DIR, "cold_measure.json")
    argv = [sys.executable, "-m", "momentrank.cli", "verify", "--input", measure,
            "--degree", "6", "--seed", "17", "--output", "cold_verdict.json"]
    times, failed = [], 0
    for _ in range(runs):
        wall, done = children.run(argv)
        times.append(wall)
        if done.returncode != 0:
            failed += 1
            continue
        with open(os.path.join(children.workdir, "cold_verdict.json")) as f:
            failed += json.load(f)["passed"] is not True
    return times, failed


def _import_s(children: Children) -> list[float]:
    """Wall time of fresh processes that only `import momentrank`."""
    times = []
    for _ in range(IMPORT_PROBES):
        wall, done = children.run([sys.executable, "-c", "import momentrank"])
        if done.returncode != 0:
            raise HarnessError(f"import momentrank failed:\n{done.stderr[-2000:]}")
        times.append(wall)
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _src_sha256(root: str) -> str:
    h = hashlib.sha256()
    package = os.path.join(root, "src", "momentrank")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def _environment(root: str, seed: int, worker_env: dict) -> dict:
    return {
        "workload_seed": seed,
        "blas_threads_env": BLAS_THREADS,
        **worker_env,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_sha256(root),
    }


def _end_to_end(args, children: Children):
    # cold CLI samples are spread before and after the measured run, so that
    # they span the run's time instead of one phase of the host's load
    setups, cold, cold_failed = [], [], 0
    for _ in range(SETUP_PROBES):
        setups.append(children.worker("setup", args))
        times, failures = _cold_cli(children, COLD_CLI_PER_GAP)
        cold, cold_failed = cold + times, cold_failed + failures
    run = children.worker("run", args)
    times, failures = _cold_cli(children, COLD_CLI_PER_GAP)
    cold, cold_failed = cold + times, cold_failed + failures
    setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]
    values = {
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {"ops_per_s": run["inputs"], "op_p50_ms": run["inputs"],
               "setup_s": len(setup_times), "peak_rss_mb": 1}
    details = {
        "op_p95_ms": {"value": run["loop_op_p95_ms"], "unit": "ms", "n": run["ops"],
                      "note": None if run["loop_op_p95_ms"] is not None
                      else "fewer than 200 ops: median only"},
        "failed_share": {"value": run["failed"] / run["ops"], "unit": "share", "n": run["ops"]},
        "loop_ops_per_s": {"value": run["loop_ops_per_s"], "unit": "1/s", "n": run["ops"]},
        "loop_op_p50_ms": {"value": run["loop_op_p50_ms"], "unit": "ms", "n": run["ops"]},
        "cold_cli_s": {"value": statistics.median(cold), "fastest": min(cold), "unit": "s",
                       "n": len(cold), "note": "not gated: see bench/DESIGN.md"},
        "setup_samples_s": setup_times,
        "cold_cli_samples_s": cold,
        "cold_cli_failed": cold_failed,
        "digest": run["digest"],
        "repeat_mismatches": run["repeat_mismatches"],
        "failures": run["failures"],
        "warmup_failures": [f for s in setups + [run] for f in s["warmup_failures"]],
        "env": run["env"],
    }
    correct = (run["failed"] == 0 and run["repeat_mismatches"] == 0 and cold_failed == 0
               and not details["warmup_failures"])
    return values, samples, details, correct, run["ops"], run["failed"]


def _per_layer(args, children: Children, out_dir: str):
    untraced = children.worker("run", args)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = children.worker("trace", args, ["--spans", spans_path])
    imports = _import_s(children)
    baseline = statistics.median(untraced["set_walls_s"])
    traced_wall = traced["set_walls_s"][0]
    values = dict(traced["layers"])
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_pct"] = 100 * (traced_wall / baseline - 1)
    values["trace.spans"] = traced["spans"]
    # every layer metric covers the traced pass over one digest set
    samples = {name: traced["ops"] for name in values}
    samples["cli.import_s"] = len(imports)
    digests_agree = traced["digest"] == untraced["digest"]
    details = {
        "untraced_set_wall_s": {"value": baseline, "n": len(untraced["set_walls_s"])},
        "traced_set_wall_s": traced_wall,
        "layer_times": traced["layer_times"],
        "digest_untraced": untraced["digest"],
        "digest_traced": traced["digest"],
        "digests_agree": digests_agree,
        "spans_file": os.path.relpath(spans_path, os.getcwd()),
        "failures": untraced["failures"] + traced["failures"],
        "env": traced["env"],
    }
    failed = untraced["failed"] + traced["failed"]
    correct = (failed == 0 and digests_agree and untraced["repeat_mismatches"] == 0
               and not untraced["warmup_failures"] and not traced["warmup_failures"])
    return values, samples, details, correct, untraced["ops"] + traced["ops"], failed


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "momentrank", "__init__.py")):
        print("error: run from the repository root (src/momentrank not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        children = Children(root, workdir)
        if args.trace:
            result = _per_layer(args, children, out_dir)
        else:
            result = _end_to_end(args, children)
        values, samples, details, correct, attempted, failed = result
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": "one caller; the next op starts when the previous returns",
        "metrics": {name: {**m, "n": samples[name]} for name, m in metrics.items()},
        "details": details,
        "environment": _environment(root, args.seed, details.pop("env")),
    }
    path = os.path.join(out_dir, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
