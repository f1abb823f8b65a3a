"""Command-line front end: generation, moments, ranks, Galerkin matrices,
spectra, recovery, and the full verification battery.

Every command declares only the flags it reads and echoes them into the
output header, so a file identifies the exact invocation that produced it;
identical invocations produce byte-identical files.  All numerics live in
the library modules: `verify` only serializes the checks of
`recovery.verify_theorem`, so the command and the library run one
invariant battery.

An existing --output file is rewritten in place, not replaced by an atomic
rename: a rerun reuses its blocks.  A write that is killed partway leaves a
file whose first byte is NUL, which every command rejects as not valid
JSON; a write that fails with an error leaves it empty.

Exit codes: 0 ok, 1 usage or I/O error, 2 check/recovery failure,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import serialize
from .measures import DiscreteMeasure, generate_measure
from .moments import NumericalError, QuadratureError, moment_matrix, numerical_rank
from .operators import enclosing_kernel, galerkin_matrix, spectrum
from .recovery import (
    RecoveryConfig,
    RecoveryError,
    recover_atoms,
    verify_theorem,
)

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_CHECK_FAILED = 2
_EXIT_NUMERICAL = 3


class _CliError(Exception):
    """Usage or I/O error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _read_json(path: str, kind: str | None = None) -> dict:
    """The JSON object in the file at path; read as a matrix file of `kind`,
    one that does not parse has a first line that is not a matrix header."""
    try:
        with open(path, "rb") as f:
            data = serialize.load_file(f)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        if kind and isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
            raise _CliError(f"{kind} file: first line of {path} is not a matrix header") from exc
        raise _CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _CliError(f"{path} does not hold a JSON object")
    return data


def _write(path: str | None, chunks) -> None:
    """Write the byte chunks in order to path, or to stdout when path is None.

    The chunks are `serialize.dump_chunks`'s, sent as they are: a matrix
    file's entries go from the matrix's own buffer, never joined into a copy.
    A regular file is opened without O_TRUNC, so the filesystem reuses an
    existing file's blocks instead of freeing and allocating them again.
    NUL goes first, then the rest of the bytes, the truncation to their
    length, and the real first byte last: a killed write never leaves new
    bytes over an old tail that still parses.  If any step raises, the file
    is truncated to empty.  A FIFO, tty or /dev/null only receives the bytes.
    """
    views = [memoryview(chunk) for chunk in chunks]  # bytes, or byte views
    if path is None:
        for view in views:
            sys.stdout.buffer.write(view)
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                for view in views:
                    _write_all(fd, view)
                return
            try:
                _write_all(fd, b"\0")
                for view in [views[0][1:], *views[1:]]:
                    _write_all(fd, view)
                os.ftruncate(fd, sum(len(view) for view in views))
                os.lseek(fd, 0, os.SEEK_SET)
                _write_all(fd, views[0][:1])
            except BaseException:
                os.ftruncate(fd, 0)
                raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _write_all(fd: int, data) -> None:
    """os.write until every byte is written: one call may write fewer."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _run_spec(args: argparse.Namespace) -> dict:
    """The reproducibility header: command plus every parameter it used."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _config_from_args(args: argparse.Namespace) -> RecoveryConfig:
    return RecoveryConfig(rank_tol=args.rank_tol, seed=args.seed)


# -- commands -----------------------------------------------------------------

def _cmd_gen(args) -> int:
    try:
        m = generate_measure(args.dimension, args.atoms, args.seed, args.separation)
    except RuntimeError as exc:  # the atoms do not fit at that separation
        raise _CliError(str(exc)) from exc
    payload = serialize.measure_to_dict(m)
    payload["run_spec"] = _run_spec(args)
    _write(args.output, serialize.dump_chunks(payload))
    return _EXIT_OK


def _cmd_moments(args) -> int:
    measure = serialize.any_measure_from_dict(_read_json(args.input))
    a = moment_matrix(measure, args.degree)
    payload = serialize.matrix_to_dict(a)
    payload["run_spec"] = _run_spec(args)
    _write(args.output, serialize.dump_chunks(payload))
    return _EXIT_OK


def _cmd_rank(args) -> int:
    a = serialize.matrix_from_dict(_read_json(args.input, "moment matrix"))
    result = numerical_rank(a, args.rank_tol)
    payload = {
        "rank": result.rank,
        "singular_values": [float(s) for s in result.singular_values],
        "ill_conditioned": result.ill_conditioned,
        "run_spec": _run_spec(args),
    }
    _write(args.output, serialize.dump_chunks(payload))
    return _EXIT_OK


def _cmd_galerkin(args) -> int:
    measure = serialize.any_measure_from_dict(_read_json(args.input))
    if not isinstance(measure, DiscreteMeasure):
        raise _CliError(
            f"galerkin needs an atomic measure file; {args.input} holds a density"
        )
    kernel = enclosing_kernel(args.kernel, measure)
    g = galerkin_matrix(kernel, measure, args.degree)
    payload = serialize.galerkin_to_dict(g)
    payload["run_spec"] = _run_spec(args)
    _write(args.output, serialize.dump_chunks(payload))
    return _EXIT_OK


def _cmd_spectrum(args) -> int:
    data = _read_json(args.input, "Galerkin matrix")
    if "kernel" not in data:
        raise _CliError(f"spectrum needs a Galerkin matrix file; {args.input} has no kernel")
    values = spectrum(serialize.galerkin_from_dict(data))
    header = json.dumps({"run_spec": _run_spec(args)}, sort_keys=True, separators=(",", ":"))
    _write(args.output, [serialize.spectrum_to_csv(values, header).encode()])
    return _EXIT_OK


def _cmd_recover(args) -> int:
    a = serialize.matrix_from_dict(_read_json(args.input, "moment matrix"))
    report = recover_atoms(a, _config_from_args(args))
    payload = serialize.report_to_dict(report)
    payload["run_spec"] = _run_spec(args)
    _write(args.output, serialize.dump_chunks(payload))
    return _EXIT_OK


def _cmd_verify(args) -> int:
    measure = serialize.any_measure_from_dict(_read_json(args.input))
    verdict = verify_theorem(measure, list(range(1, args.degree + 1)), _config_from_args(args))
    payload = {
        "passed": verdict.passed,
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "measured": c.measured}
            for c in verdict.checks
        ],
        "run_spec": _run_spec(args),
    }
    _write(args.output, serialize.dump_chunks(payload))
    return _EXIT_OK if verdict.passed else _EXIT_CHECK_FAILED


# -- argument wiring ----------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, seed=False, rank_tol=False) -> None:
    """--output, plus --seed and --rank-tol for the commands that read them."""
    parser.add_argument("--output", help="output path (default stdout)")
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    if rank_tol:
        parser.add_argument("--rank-tol", dest="rank_tol", type=float,
                            default=RecoveryConfig.rank_tol)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `momentrank` parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = _Parser(prog="momentrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random well-separated atomic measure")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--separation", type=float, default=0.1)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("moments", help="moment matrix of a measure file")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("rank", help="numerical rank of a moment matrix file")
    p.add_argument("--input", required=True)
    _add_common(p, rank_tol=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("galerkin", help="Galerkin matrix of a measure under a kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kernel", choices=("bargmann", "bergman"), default="bargmann")
    _add_common(p)
    p.set_defaults(func=_cmd_galerkin)

    p = sub.add_parser("spectrum", help="eigenvalues of a Galerkin matrix file (CSV)")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("recover", help="recover atoms from a moment matrix file")
    p.add_argument("--input", required=True)
    _add_common(p, seed=True, rank_tol=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("verify", help="run the invariant battery on a measure file")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, default=6)
    _add_common(p, seed=True, rank_tol=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (RecoveryError, QuadratureError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
