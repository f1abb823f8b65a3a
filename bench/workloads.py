"""The three benchmark workloads: inputs, one op, its correctness check.

Every op returns `(failure, digest)`: `failure` is None when the op passed
its check, otherwise a one-line reason; `digest` is bytes that depend only on
the op's deterministic outputs.  Ops reach the library through module
attributes looked up at call time (`mr.moment_matrix`, `cli.main`), so the
wrappers a traced run installs see every call.  The checks use functions
bound below at import, before any wrapper exists, so checking adds nothing
to the per-layer counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import momentrank as mr
from momentrank import cli
from momentrank.recovery import match_atoms as _check_match
from momentrank.serialize import measure_from_dict as _check_measure
from momentrank.serialize import measure_to_dict as _measure_dict

CORPUS_SIZE = 200
CORPUS_BASE = 1000  # seeds of tests/test_acceptance.py, criteria 1 and 2
TOL = 1e-6          # location, weight and residual tolerance of criterion 2
RANK_TOL = 1e-8

FILES_DIMENSION = 3
FILES_ATOMS = 8
FILES_DEGREE = 9

VERIFY_DEGREE = 8
VERIFY_INPUT_SEED = 0
VERIFY_SEED = 0


def _hex(z: complex) -> str:
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


class Corpus:
    """Acceptance corpus of criteria 1 and 2, in a seeded order.

    The measures are the fixed corpus the acceptance battery checks; the
    workload seed only permutes the order in which they run.
    """

    name = "corpus"
    set_size = CORPUS_SIZE

    def __init__(self, seed: int):
        self.items = []
        for i in range(CORPUS_SIZE):
            d = (1, 2, 3)[i % 3]
            n = 1 + i % 8
            s = CORPUS_BASE + i
            self.items.append((mr.generate_measure(d, n, seed=s, separation=0.1), d, n, s))
        self.order = list(range(CORPUS_SIZE))
        random.Random(seed).shuffle(self.order)

    def key(self, op_index: int) -> int:
        return self.order[op_index % CORPUS_SIZE]

    def warmup_keys(self) -> list[int]:
        """One measure of every (d, N) shape, so shape-keyed state is built."""
        seen = {}
        for k in self.order:
            seen.setdefault(self.items[k][1:3], k)
        return list(seen.values())

    def run(self, k: int):
        m, d, n, s = self.items[k]
        a = mr.moment_matrix(m, n + 1)
        rank = mr.numerical_rank(a, RANK_TOL).rank
        report = mr.recover_atoms(a, mr.RecoveryConfig(seed=s))
        matched = mr.match_atoms(report.atoms, m, TOL)
        digest = ";".join(
            [str(rank), _hex(report.residual), str(report.retries_used),
             str(report.rotation_seed_used)]
            + [" ".join(_hex(c) for c in atom.location.coords) + "/" + _hex(atom.weight)
               for atom in report.atoms.atoms]
        ).encode()
        label = f"corpus d={d} N={n} seed={s}"
        if rank != n:
            return f"{label}: rank {rank}", digest
        if matched is None:
            return f"{label}: atoms not matched at {TOL}", digest
        if max(matched) > TOL or report.residual > TOL:
            return (f"{label}: errors {matched[0]:.1e}/{matched[1]:.1e}, "
                    f"residual {report.residual:.1e}"), digest
        return None, digest


def _count_above(csv_path: str, rel_tol: float) -> int:
    with open(csv_path) as f:
        rows = [line for line in f if not line.startswith("#")][1:]
    moduli = [float(row.split(",")[3]) for row in rows]
    return sum(1 for x in moduli if x > rel_tol * moduli[0])


class Files:
    """The README's CLI sequence on freshly generated measures.

    Each run draws `set_size` fresh CLI seeds from the workload seed and
    cycles through them, so every pipeline repeats and its fastest
    repetition can be taken like any other workload's input.
    """

    name = "files"
    set_size = 4
    outputs = ("m.json", "A.json", "rank.json", "report.json", "Gb.json",
               "Gp.json", "sb.csv", "sp.csv", "verdict.json")

    def __init__(self, seed: int):
        self.base = seed * 100_000

    def key(self, op_index: int) -> int:
        return self.base + op_index % self.set_size

    def warmup_keys(self) -> list[int]:
        return [self.key(0)]

    def run(self, k: int):
        s = str(k)
        commands = [
            ["gen", "--dimension", str(FILES_DIMENSION), "--atoms", str(FILES_ATOMS),
             "--seed", s, "--separation", "0.2", "--output", "m.json"],
            ["moments", "--input", "m.json", "--degree", str(FILES_DEGREE), "--output", "A.json"],
            ["rank", "--input", "A.json", "--output", "rank.json"],
            ["recover", "--input", "A.json", "--seed", s, "--output", "report.json"],
            ["galerkin", "--input", "m.json", "--degree", str(FILES_DEGREE),
             "--kernel", "bargmann", "--output", "Gb.json"],
            ["galerkin", "--input", "m.json", "--degree", str(FILES_DEGREE),
             "--kernel", "bergman", "--output", "Gp.json"],
            ["spectrum", "--input", "Gb.json", "--output", "sb.csv"],
            ["spectrum", "--input", "Gp.json", "--output", "sp.csv"],
            ["verify", "--input", "m.json", "--seed", s, "--output", "verdict.json"],
        ]
        for argv in commands:
            code = cli.main(argv)
            if code != 0:
                return f"files seed={s}: {argv[0]} exited {code}", b""
        digest = hashlib.sha256()
        for name in self.outputs:
            with open(name, "rb") as f:
                digest.update(f.read())
        label = f"files seed={s}"
        with open("rank.json") as f:
            rank = json.load(f)["rank"]
        if rank != FILES_ATOMS:
            return f"{label}: rank file reports {rank}", digest.digest()
        with open("m.json") as f:
            truth = _check_measure(json.load(f))
        with open("report.json") as f:
            recovered = _check_measure(json.load(f)["atoms"])
        matched = _check_match(recovered, truth, TOL)
        if matched is None or max(matched) > TOL:
            return f"{label}: recover report does not match at {TOL}", digest.digest()
        for csv_name in ("sb.csv", "sp.csv"):
            above = _count_above(csv_name, RANK_TOL)
            if above != FILES_ATOMS:
                return f"{label}: {csv_name} has {above} eigenvalues above threshold", digest.digest()
        with open("verdict.json") as f:
            if json.load(f)["passed"] is not True:
                return f"{label}: verdict failed", digest.digest()
        return None, digest.digest()


def verify_inputs(input_seed: int) -> list[tuple[str, dict]]:
    """36 measure files: d in {1,2,3} x (atomic N=1..6, 3 densities x 2 centres)."""
    rng = random.Random(input_seed)
    out = []
    for d in (1, 2, 3):
        for n in range(1, 7):
            m = mr.generate_measure(d, n, seed=rng.randrange(2**31), separation=0.1)
            out.append((f"d{d}-atoms{n}", _measure_dict(m)))
        for kind in ("uniform", "gaussian", "polynomial"):
            for centred in (True, False):
                if centred:
                    center = [[0.0, 0.0] for _ in range(d)]
                else:
                    center = [[rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)] for _ in range(d)]
                density = {"type": kind}
                if kind == "polynomial":
                    terms = [{"alpha": [0] * d, "coeff": [1.0, 0.0]}]
                    for j in range(d):
                        c = 0.3 * rng.random()
                        phase = 2 * math.pi * rng.random()
                        terms.append({
                            "alpha": [1 if i == j else 0 for i in range(d)],
                            "coeff": [c * math.cos(phase), c * math.sin(phase)],
                        })
                    density["terms"] = terms
                out.append((
                    f"d{d}-{kind}-{'centred' if centred else 'offset'}",
                    {
                        "dimension": d,
                        "domain": {"center": center,
                                   "radii": [rng.uniform(0.8, 1.2) for _ in range(d)]},
                        "density": density,
                    },
                ))
    return out


class Verify:
    """`momentrank verify --degree 8` over 36 fixed input files, seeded order."""

    name = "verify"

    def __init__(self, seed: int):
        self.inputs = verify_inputs(VERIFY_INPUT_SEED)
        self.set_size = len(self.inputs)
        for k, (_, payload) in enumerate(self.inputs):
            with open(f"in{k}.json", "w") as f:
                json.dump(payload, f)
        self.order = list(range(self.set_size))
        random.Random(seed).shuffle(self.order)

    def key(self, op_index: int) -> int:
        return self.order[op_index % self.set_size]

    def warmup_keys(self) -> list[int]:
        return list(self.order)

    def run(self, k: int):
        code = cli.main(["verify", "--input", f"in{k}.json", "--degree", str(VERIFY_DEGREE),
                         "--seed", str(VERIFY_SEED), "--output", "verdict.json"])
        if code != 0:
            return f"verify {self.inputs[k][0]}: exited {code}", b""
        with open("verdict.json", "rb") as f:
            data = f.read()
        if json.loads(data)["passed"] is not True:
            return f"verify {self.inputs[k][0]}: not passed", data
        return None, data


WORKLOADS = {w.name: w for w in (Corpus, Files, Verify)}
