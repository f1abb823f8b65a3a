"""Per-layer tracing of momentrank from outside the package.

`Tracer.install()` replaces the public functions of every momentrank module
with wrappers that record one span per call: name, start, end, parent span
and op id.  Spans stay in memory until `write_spans` runs at the end of the
traced pass; `layer_metrics` turns them into per-layer call counts and self
times (a span's duration minus the time its child spans cover).

A name is rebound in every module that holds it, because `from .x import y`
copies the binding: `recovery.numerical_rank` and `cli.moment_matrix` would
bypass a wrapper placed only on `moments`.  Classes are instrumented by
patching methods (`IndexBasis.__init__`, `MultiIndex.__post_init__`), never
by rebinding the class name, because library code calls `isinstance` on the
module-global class.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import sys
import time
from collections import Counter, defaultdict

from momentrank import cli, measures, moments, operators, recovery, serialize

# module -> public functions that get a span; the per-value helpers
# serialize.pair/unpair run once per matrix entry and are left unwrapped
WRAPPED = {
    measures: [
        "generate_measure", "perturb_weight", "pushforward_drop_coord",
        "random_linear_polynomial", "random_unitary", "rotate_unitary",
        "weight_by_g",
    ],
    moments: [
        "leading_truncation", "moment_entry", "moment_matrix", "monomial_table",
        "numerical_rank", "reweight_moments", "rotate_moments",
        "submatrix_drop_coord", "submatrix_drop_first",
    ],
    operators: ["galerkin_matrix", "kernel_eval", "spectrum", "toeplitz_apply"],
    recovery: ["match_atoms", "recover_1d", "recover_atoms", "verify_theorem"],
    serialize: [
        "any_measure_from_dict", "density_from_dict", "density_to_dict",
        "dump_json", "galerkin_from_dict", "galerkin_to_dict",
        "matrix_from_dict", "matrix_to_dict", "measure_from_dict",
        "measure_to_dict", "report_to_dict", "spectrum_to_csv",
    ],
    cli: ["main"],
}

CLI_COMMANDS = ("gen", "moments", "rank", "recover", "galerkin", "spectrum", "verify")

# functions whose calls and self time are reported as per-layer metrics
LAYER_FUNCTIONS = (
    "moments.IndexBasis",
    "moments.monomial_table",
    "moments.rotate_moments",
    "moments.reweight_moments",
    "moments.submatrix_drop_coord",
    "moments.leading_truncation",
    "moments.moment_matrix.density",
    "moments.moment_matrix.discrete",
    "moments.numerical_rank",
    "recovery.recover_atoms",
    "recovery.recover_1d",
    "recovery.match_atoms",
    "recovery.verify_theorem",
    "measures.rotate_unitary",
    "measures.weight_by_g",
    "measures.pushforward_drop_coord",
    "operators.galerkin_matrix",
    "operators.spectrum",
    "serialize.dump_json",
    "serialize.matrix_to_dict",
    "serialize.matrix_from_dict",
    "serialize.galerkin_to_dict",
    "serialize.galerkin_from_dict",
    "cli.main",
)

# failed attempts and rotated frames each log one "attempt k:" / "frame s:" line
_ATTEMPT = re.compile(r"\b(attempt \d+|frame \d+):")
_FRAME = re.compile(r"\bframe (\d+):")


def _module_tag(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, op id)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.worst: dict[str, float] = defaultdict(float)
        self.cli_ms: dict[str, list[float]] = defaultdict(list)
        self._recover_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id: int, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[index] = (name_id, start, end, parent, self.op_id)

    # -- wrappers -------------------------------------------------------------

    def _wrapper(self, tag: str, name: str, fn):
        span = self.name_id(f"{tag}.{name}")
        call = self.call

        if (tag, name) == ("moments", "moment_matrix"):
            density = self.name_id("moments.moment_matrix.density")
            discrete = self.name_id("moments.moment_matrix.discrete")

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                m = args[0] if args else kwargs["m"]
                kind = density if isinstance(m, measures.DensityMeasure) else discrete
                return call(kind, fn, args, kwargs)

        elif (tag, name) == ("recovery", "recover_atoms"):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                top = self._recover_depth == 0
                self._recover_depth += 1
                try:
                    report = call(span, fn, args, kwargs)
                except recovery.RecoveryError as exc:
                    if top:
                        self._record_recovery(None, str(exc))
                    raise
                finally:
                    self._recover_depth -= 1
                if top:
                    self._record_recovery(report, " | ".join(report.retry_log))
                return report

        elif (tag, name) == ("recovery", "match_atoms"):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                matched = call(span, fn, args, kwargs)
                if matched is not None:
                    self._raise_worst("worst_loc_err", matched[0])
                    self._raise_worst("worst_weight_err", matched[1])
                return matched

        elif (tag, name) == ("serialize", "dump_json"):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                text = call(span, fn, args, kwargs)
                self.counts["serialize.dump_json.bytes"] += len(text.encode())
                return text

        elif (tag, name) == ("cli", "main"):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                argv = args[0] if args else kwargs.get("argv")
                start = time.perf_counter()
                try:
                    return call(span, fn, args, kwargs)
                finally:
                    if argv:
                        self.cli_ms[argv[0]].append(1000 * (time.perf_counter() - start))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(span, fn, args, kwargs)

        return traced

    def _raise_worst(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst[key], float(value))

    def _record_recovery(self, report, log: str) -> None:
        self.counts["recovery.recover_atoms.top_calls"] += 1
        if report is None:
            self.counts["recovery.attempts"] += max(1, len(set(_ATTEMPT.findall(log))))
            return
        # attempt 0, one per reweighting retry, one per rotated frame tried
        frames = len(set(_FRAME.findall(log)))
        self.counts["recovery.attempts"] += 1 + report.retries_used + frames
        self.counts["recovery.successes"] += 1
        self.counts["recovery.retries_used.sum"] += report.retries_used
        if "rotated frame" in log:
            self.counts["recovery.frame_fallbacks"] += 1
        self._raise_worst("worst_residual", report.residual)

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a momentrank module binds it."""
        holders = [m for name, m in sys.modules.items()
                   if name == "momentrank" or name.startswith("momentrank.")]
        for module, names in WRAPPED.items():
            tag = _module_tag(module)
            for name in names:
                original = getattr(module, name)
                traced = self._wrapper(tag, name, original)
                for holder in holders:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, traced)

        basis_init = moments.IndexBasis.__init__
        basis_span = self.name_id("moments.IndexBasis")
        call = self.call

        @functools.wraps(basis_init)
        def traced_basis_init(*args, **kwargs):
            return call(basis_span, basis_init, args, kwargs)

        moments.IndexBasis.__init__ = traced_basis_init

        index_post_init = moments.MultiIndex.__post_init__
        counts = self.counts

        # a count only: ~1e5 constructions per corpus pass make a span each
        # too costly to keep
        @functools.wraps(index_post_init)
        def counted_post_init(self_):
            counts["moments.MultiIndex.calls"] += 1
            return index_post_init(self_)

        moments.MultiIndex.__post_init__ = counted_post_init

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per-name call counts and summed self times over the closed spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
        return calls, self_s

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, plus the absolute times behind the shares.

        Times enter the metrics as shares of the traced pass (the summed
        `bench.op` spans): a layer a workload never reaches then reads 0%,
        and its absolute time, exactly 0 s, stays in the report.
        """
        calls, self_s = self.self_times()
        traced_s = sum(end - start for name_id, start, end, _, _ in self.spans
                       if self.names[name_id] == "bench.op")
        metrics: dict[str, float] = {
            "moments.MultiIndex.calls": self.counts["moments.MultiIndex.calls"],
        }
        times: dict[str, float] = {"traced_s": traced_s}
        for name in LAYER_FUNCTIONS:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_pct"] = 100 * self_s[name] / traced_s
            times[f"{name}.self_s"] = self_s[name]
        for key in ("recovery.recover_atoms.top_calls", "recovery.retries_used.sum",
                    "recovery.frame_fallbacks"):
            metrics[key] = self.counts[key]
        successes = self.counts["recovery.successes"]
        metrics["recovery.attempts_per_success"] = (
            self.counts["recovery.attempts"] / successes if successes else 0.0
        )
        for key in ("worst_loc_err", "worst_weight_err", "worst_residual"):
            metrics[f"recovery.{key}"] = self.worst[key]
        dumped = self.counts["serialize.dump_json.bytes"]
        metrics["serialize.dump_json.bytes"] = dumped
        dump_s = self_s["serialize.dump_json"]
        metrics["serialize.mb_per_s"] = dumped / 1e6 / dump_s if dump_s > 0 else 0.0
        for command in CLI_COMMANDS:
            samples = self.cli_ms.get(command, [])
            metrics[f"cli.{command}.calls"] = len(samples)
            metrics[f"cli.{command}.pct"] = 100 * sum(samples) / 1000 / traced_s
            times[f"cli.{command}.p50_ms"] = statistics.median(samples) if samples else 0.0
        return metrics, times

    def write_spans(self, path: str, origin: float) -> None:
        """One JSON line per span; times in seconds from `origin`."""
        with open(path, "w") as f:
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index,
                    "name": self.names[name_id],
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                }) + "\n")

    def op_span(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span tagged with its op id."""
        self.op_id = op_id
        try:
            return self.call(self.name_id("bench.op"), fn, args, {})
        finally:
            self.op_id = -1

