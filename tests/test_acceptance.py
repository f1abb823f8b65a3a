"""Acceptance battery: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
The randomized corpus is seeded and shared between the rank and recovery
criteria, so reruns are exactly reproducible.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from momentrank import (
    Atom,
    ComplexPoint,
    DensityMeasure,
    DensitySpec,
    DiscreteMeasure,
    KernelSpec,
    Polydisk,
    RecoveryConfig,
    galerkin_matrix,
    generate_measure,
    match_atoms,
    moment_matrix,
    numerical_rank,
    pushforward_drop_coord,
    random_linear_polynomial,
    recover_atoms,
    submatrix_drop_first,
    weight_by_g,
)
from momentrank.cli import main as cli_main
from momentrank.serialize import dump_json, report_to_dict

CORPUS_SIZE = 200


class criterion:
    """Prints one [PASS]/[FAIL] line per acceptance criterion."""

    def __init__(self, name):
        self.name = name
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            suffix = f" :: {self.detail}" if self.detail else ""
            print(f"[PASS] {self.name}{suffix}")
        else:
            print(f"[FAIL] {self.name} :: {exc}")
        return False


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random measures covering d in {1,2,3} and N in {1..8}."""
    items = []
    for i in range(CORPUS_SIZE):
        d = [1, 2, 3][i % 3]
        n = 1 + (i % 8)
        seed = 1000 + i
        items.append((generate_measure(d, n, seed=seed, separation=0.1), d, n, seed))
    return items


def cancellation_measure(seed):
    """Seeded d=2 measure with one exactly cancelling pair plus extra atoms."""
    rng = np.random.default_rng(seed)

    def point():
        r = (2.0 / math.sqrt(2)) * math.sqrt(rng.uniform())
        return r * cmath.exp(2j * math.pi * rng.uniform())

    def weight():
        return rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.uniform())

    shared = point()
    a1, a2 = point(), point()
    while abs(a1 - a2) < 0.15:
        a2 = point()
    w = weight()
    atoms = [
        Atom(ComplexPoint((a1, shared)), w),
        Atom(ComplexPoint((a2, shared)), -w),
    ]
    for _ in range(int(rng.integers(0, 3))):
        p = ComplexPoint((point(), point()))
        while any(p.distance(existing.location) < 0.15 for existing in atoms):
            p = ComplexPoint((point(), point()))
        atoms.append(Atom(p, weight()))
    return DiscreteMeasure(2, tuple(atoms))


def test_criterion_1_rank_equals_atom_count(corpus):
    with criterion("criterion 1: rank = atom count over the 200-measure corpus") as c:
        start = time.monotonic()
        for m, d, n, seed in corpus:
            result = numerical_rank(moment_matrix(m, n + 1), 1e-8)
            assert result.rank == n, f"(d={d}, N={n}, seed={seed}) rank {result.rank}"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        c.detail = f"200/200 exact, {elapsed:.2f}s"


def test_criterion_2_recovery_roundtrip(corpus):
    with criterion("criterion 2: recovery round-trip over the same corpus") as c:
        start = time.monotonic()
        worst_loc = worst_w = worst_res = 0.0
        for m, d, n, seed in corpus:
            report = recover_atoms(moment_matrix(m, n + 1), RecoveryConfig(seed=seed))
            matched = match_atoms(report.atoms, m, 1e-6)
            assert matched is not None, f"(d={d}, N={n}, seed={seed}) atoms not matched"
            loc_err, w_err = matched
            assert loc_err <= 1e-6, f"seed {seed}: location error {loc_err:.2e}"
            assert w_err <= 1e-6, f"seed {seed}: weight error {w_err:.2e}"
            assert report.residual <= 1e-6, f"seed {seed}: residual {report.residual:.2e}"
            worst_loc = max(worst_loc, loc_err)
            worst_w = max(worst_w, w_err)
            worst_res = max(worst_res, report.residual)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        c.detail = (
            f"worst location {worst_loc:.1e}, weight {worst_w:.1e}, "
            f"residual {worst_res:.1e}, {elapsed:.1f}s"
        )


def test_criterion_3_absolutely_continuous_full_rank():
    with criterion("criterion 3: uniform polydisk density has full rank growth") as c:
        worst_gap = 0.0
        for d in (1, 2):
            dens = DensityMeasure(
                d,
                Polydisk(ComplexPoint((0j,) * d), (1.0,) * d),
                DensitySpec("uniform"),
            )
            for degree in range(1, 6):
                a = moment_matrix(dens, degree)
                expected_rank = math.comb(degree + d, d)
                got = numerical_rank(a, 1e-8).rank
                assert got == expected_rank, f"d={d}, D={degree}: rank {got}"
                # closed-form diagonal oracle pi/(j+1) per coordinate
                oracle = np.zeros_like(a.entries)
                for i, alpha in enumerate(a.basis.indices):
                    value = 1.0
                    for exponent in alpha.entries:
                        value *= math.pi / (exponent + 1)
                    oracle[i, i] = value
                gap = float(np.max(np.abs(a.entries - oracle)))
                assert gap <= 1e-10, f"d={d}, D={degree}: oracle gap {gap:.2e}"
                worst_gap = max(worst_gap, gap)
        c.detail = f"ranks exact, worst oracle gap {worst_gap:.1e}"


def test_criterion_4_galerkin_rank_equality(corpus):
    with criterion("criterion 4: Galerkin rank = moment rank under both kernels") as c:
        discrepancies = 0
        for m, d, n, seed in corpus[:100]:
            moment_rank = numerical_rank(moment_matrix(m, n + 1), 1e-8).rank
            bergman = KernelSpec(
                "bergman_polydisk",
                Polydisk(ComplexPoint((0j,) * d), (3.0,) * d),
            )
            for kernel in (KernelSpec("bargmann"), bergman):
                gal = galerkin_matrix(kernel, m, n + 1)
                if numerical_rank(gal.entries, 1e-8).rank != moment_rank:
                    discrepancies += 1
        assert discrepancies == 0, f"{discrepancies} discrepancies"
        c.detail = "100 measures x 2 kernels, zero discrepancies"


def test_criterion_5_reweighting_monotonicity(corpus):
    with criterion("criterion 5: |g|^2 reweighting never increases the rank") as c:
        equalities = 0
        for idx, (m, d, n, seed) in enumerate(corpus[:100]):
            g = random_linear_polynomial(d, 2000 + idx)
            base_rank = numerical_rank(moment_matrix(m, n + 1), 1e-8).rank
            g_rank = numerical_rank(moment_matrix(weight_by_g(m, g), n + 1), 1e-8).rank
            assert g_rank <= base_rank, f"seed {seed}: {g_rank} > {base_rank}"
            min_g = min(abs(g.evaluate(a.location)) for a in m.atoms)
            if min_g > 1e-6:
                assert g_rank == base_rank, (
                    f"seed {seed}: rank dropped {base_rank}->{g_rank} "
                    f"with min|g| = {min_g:.2e}"
                )
                equalities += 1
        c.detail = f"100 pairs monotone, {equalities} nonvanishing cases all equal"


def test_criterion_6_submatrix_consistency():
    with criterion("criterion 6: projected submatrix = pushforward moments") as c:
        worst = 0.0
        for i in range(100):
            d = 2 + (i % 2)
            n = 1 + (i % 6)
            m = generate_measure(d, n, seed=3000 + i, separation=0.1)
            a = moment_matrix(m, n + 1)
            sub = submatrix_drop_first(a)
            push = moment_matrix(pushforward_drop_coord(m, 0), n + 1)
            gap = float(np.max(np.abs(sub.entries - push.entries)))
            assert gap <= 1e-12, f"seed {3000 + i}: gap {gap:.2e}"
            worst = max(worst, gap)
        c.detail = f"100 measures, worst entry gap {worst:.1e}"


def test_criterion_7_degenerate_projection_handling():
    with criterion("criterion 7: cancellation instances recover at 1e-6") as c:
        hand_built = DiscreteMeasure(
            2,
            (
                Atom(ComplexPoint((1, 5)), 1),
                Atom(ComplexPoint((2, 5)), -1),
            ),
        )
        report = recover_atoms(moment_matrix(hand_built, 4), RecoveryConfig(seed=0))
        matched = match_atoms(report.atoms, hand_built, 1e-6)
        assert matched is not None and matched[1] <= 1e-6
        for k in range(20):
            variant = cancellation_measure(5000 + k)
            n = variant.atom_count
            var_report = recover_atoms(
                moment_matrix(variant, n + 2), RecoveryConfig(seed=5000 + k)
            )
            var_match = match_atoms(var_report.atoms, variant, 1e-6)
            assert var_match is not None, f"variant {k} not recovered"
            assert var_match[0] <= 1e-6 and var_match[1] <= 1e-6, f"variant {k}"
            assert var_report.residual <= 1e-6, f"variant {k}"
        c.detail = "hand-built pair and 20 variants recovered"


def test_criterion_8_deterministic_battery(tmp_path, corpus):
    with criterion("criterion 8: rerunning the battery is byte-identical") as c:
        # library level: recovery reports serialize identically across reruns
        for m, d, n, seed in corpus[:12]:
            a = moment_matrix(m, n + 1)
            first = dump_json(report_to_dict(recover_atoms(a, RecoveryConfig(seed=seed))))
            second = dump_json(report_to_dict(recover_atoms(a, RecoveryConfig(seed=seed))))
            assert first == second, f"seed {seed}: report JSON differs"
        # CLI level: the verify verdict file reproduces byte-for-byte
        m_path = tmp_path / "measure.json"
        v_path = tmp_path / "verdict.json"
        assert cli_main([
            "gen", "--dimension", "2", "--atoms", "4", "--seed", "17",
            "--separation", "0.2", "--output", str(m_path),
        ]) == 0
        gen_bytes = m_path.read_bytes()
        assert cli_main([
            "gen", "--dimension", "2", "--atoms", "4", "--seed", "17",
            "--separation", "0.2", "--output", str(m_path),
        ]) == 0
        assert m_path.read_bytes() == gen_bytes, "gen output differs across reruns"
        assert cli_main([
            "verify", "--input", str(m_path), "--degree", "6", "--seed", "17",
            "--output", str(v_path),
        ]) == 0
        verdict_bytes = v_path.read_bytes()
        assert json.loads(verdict_bytes)["passed"] is True
        assert cli_main([
            "verify", "--input", str(m_path), "--degree", "6", "--seed", "17",
            "--output", str(v_path),
        ]) == 0
        assert v_path.read_bytes() == verdict_bytes, "verdict differs across reruns"
        c.detail = "12 reports + gen/verify files byte-identical"
