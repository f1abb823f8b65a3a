"""Command-line front end: generation, moments, ranks, Galerkin matrices,
spectra, recovery, and the full verification battery.

Every command echoes its run parameters into the output header, so a file
identifies the exact invocation that produced it; identical invocations
produce byte-identical files.  All numerics live in the library modules.

Exit codes: 0 ok, 1 usage or I/O error, 2 check/recovery failure,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .measures import (
    ComplexPoint,
    DiscreteMeasure,
    Polydisk,
    generate_measure,
    pushforward_drop_coord,
    random_linear_polynomial,
    weight_by_g,
)
from .moments import (
    NumericalError,
    QuadratureError,
    moment_matrix,
    numerical_rank,
    submatrix_drop_first,
)
from .operators import KernelSpec, galerkin_matrix, spectrum
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


def _read_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _run_spec(args: argparse.Namespace) -> dict:
    """The reproducibility header: command plus every parameter it used."""
    skip = {"func"}
    spec = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return spec


def _config_from_args(args: argparse.Namespace) -> RecoveryConfig:
    return RecoveryConfig(rank_tol=args.rank_tol, seed=args.seed)


def _enclosing_kernel(kind: str, m: DiscreteMeasure) -> KernelSpec:
    """Kernel for a measure file: bergman gets a deterministic enclosing polydisk."""
    if kind == "bargmann":
        return KernelSpec("bargmann")
    radii = []
    locs = m.locations_matrix()
    for j in range(m.dimension):
        top = float(np.max(np.abs(locs[:, j]))) if m.atom_count else 0.0
        radii.append(2.0 * max(1.0, top))
    return KernelSpec(
        "bergman_polydisk",
        Polydisk(ComplexPoint((0j,) * m.dimension), tuple(radii)),
    )


# -- commands -----------------------------------------------------------------

def _cmd_gen(args) -> int:
    m = generate_measure(args.dimension, args.atoms, args.seed, args.separation)
    payload = serialize.measure_to_dict(m)
    payload["run_spec"] = _run_spec(args)
    _write_text(args.output, serialize.dump_json(payload))
    return _EXIT_OK


def _cmd_moments(args) -> int:
    measure = serialize.any_measure_from_dict(_read_json(args.input))
    a = moment_matrix(measure, args.degree)
    payload = serialize.matrix_to_dict(a)
    payload["run_spec"] = _run_spec(args)
    _write_text(args.output, serialize.dump_json(payload))
    return _EXIT_OK


def _cmd_rank(args) -> int:
    a = serialize.matrix_from_dict(_read_json(args.input))
    result = numerical_rank(a, args.rank_tol)
    payload = {
        "rank": result.rank,
        "singular_values": [float(s) for s in result.singular_values],
        "ill_conditioned": result.ill_conditioned,
        "run_spec": _run_spec(args),
    }
    _write_text(args.output, serialize.dump_json(payload))
    return _EXIT_OK


def _cmd_galerkin(args) -> int:
    measure = serialize.measure_from_dict(_read_json(args.input))
    kernel = _enclosing_kernel(args.kernel, measure)
    g = galerkin_matrix(kernel, measure, args.degree)
    payload = serialize.galerkin_to_dict(g)
    payload["run_spec"] = _run_spec(args)
    _write_text(args.output, serialize.dump_json(payload))
    return _EXIT_OK


def _cmd_spectrum(args) -> int:
    g = serialize.galerkin_from_dict(_read_json(args.input))
    values = spectrum(g)
    header = json.dumps({"run_spec": _run_spec(args)}, sort_keys=True, separators=(",", ":"))
    _write_text(args.output, serialize.spectrum_to_csv(values, header))
    return _EXIT_OK


def _cmd_recover(args) -> int:
    a = serialize.matrix_from_dict(_read_json(args.input))
    cfg = _config_from_args(args)
    report = recover_atoms(a, cfg)
    payload = serialize.report_to_dict(report)
    payload["run_spec"] = _run_spec(args)
    _write_text(args.output, serialize.dump_json(payload))
    return _EXIT_OK


def _verify_checks(measure, args) -> list[dict]:
    """The full invariant battery for one input measure."""
    cfg = _config_from_args(args)
    d_max = args.degree
    degrees = list(range(1, d_max + 1))
    verdict = verify_theorem(measure, degrees, cfg)
    checks = [
        {"name": c.name, "passed": bool(c.passed), "measured": c.measured}
        for c in verdict.checks
    ]
    if not isinstance(measure, DiscreteMeasure):
        return checks

    a = moment_matrix(measure, d_max)
    base_rank = numerical_rank(a, cfg.rank_tol).rank

    galerkin_measured = {}
    galerkin_ok = True
    for kind in ("bargmann", "bergman"):
        kernel = _enclosing_kernel(kind, measure)
        gal = galerkin_matrix(kernel, measure, d_max)
        g_rank = numerical_rank(gal.entries, cfg.rank_tol).rank
        galerkin_measured[kind] = {"galerkin_rank": g_rank, "moment_rank": base_rank}
        galerkin_ok = galerkin_ok and g_rank == base_rank
    checks.append(
        {"name": "galerkin_rank_equality", "passed": galerkin_ok, "measured": galerkin_measured}
    )

    g_poly = random_linear_polynomial(measure.dimension, args.seed)
    reweighted = weight_by_g(measure, g_poly)
    rank_g = numerical_rank(moment_matrix(reweighted, d_max), cfg.rank_tol).rank
    monotone = rank_g <= base_rank
    min_g = min(
        (abs(g_poly.evaluate(atom.location)) for atom in measure.atoms),
        default=1.0,
    )
    equality_expected = min_g > 1e-6
    mono_ok = monotone and (not equality_expected or rank_g == base_rank)
    checks.append(
        {
            "name": "reweighting_rank_monotonicity",
            "passed": mono_ok,
            "measured": {
                "rank": base_rank,
                "rank_reweighted": rank_g,
                "min_abs_g_on_atoms": min_g,
            },
        }
    )

    if measure.dimension >= 2:
        sub = submatrix_drop_first(a)
        push = moment_matrix(pushforward_drop_coord(measure, 0), d_max)
        gap = float(np.max(np.abs(sub.entries - push.entries))) if sub.entries.size else 0.0
        checks.append(
            {
                "name": "submatrix_consistency",
                "passed": gap <= 1e-12,
                "measured": {"max_entry_gap": gap},
            }
        )
    return checks


def _cmd_verify(args) -> int:
    measure = serialize.any_measure_from_dict(_read_json(args.input))
    checks = _verify_checks(measure, args)
    passed = all(c["passed"] for c in checks)
    payload = {
        "passed": passed,
        "checks": checks,
        "run_spec": _run_spec(args),
    }
    _write_text(args.output, serialize.dump_json(payload))
    return _EXIT_OK if passed else _EXIT_CHECK_FAILED


# -- argument wiring ----------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, output_default=None) -> None:
    parser.add_argument("--output", default=output_default, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random well-separated atomic measure")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--separation", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("moments", help="moment matrix of a measure file")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("rank", help="numerical rank of a moment matrix file")
    p.add_argument("--input", required=True)
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("verify", help="run the invariant battery on a measure file")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, default=6)
    _add_common(p)
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
