"""The benchmark's tracer against the library as it is: `bench/tracing.py`
looks up every name it wraps with `getattr`, so a renamed or deleted library
function fails here instead of in the next traced benchmark run."""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# one `files` op under the tracer, in a fresh process whose cwd takes the
# op's files; prints the op's failure and the calls of the serialize layers
TRACED_FILES_OP = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import workloads
from tracing import Tracer

tracer = Tracer()
tracer.install()
files = workloads.Files(1)
failure, _ = tracer.op_span(0, files.run, files.key(0))
metrics, _ = tracer.layer_metrics()
names = ("serialize.dump_json", "serialize.matrix_from_dict", "serialize.galerkin_from_dict")
print(json.dumps({{"failure": failure, **{{n: metrics[n + ".calls"] for n in names}}}}))
"""


def test_traced_files_op_reaches_every_serialize_layer(tmp_path, run_python):
    done = run_python("-c", TRACED_FILES_OP, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result.pop("failure") is None
    assert all(calls > 0 for calls in result.values()), result
