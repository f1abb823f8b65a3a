import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentrank import (
    Atom,
    ComplexPoint,
    DensityMeasure,
    DensitySpec,
    DiscreteMeasure,
    IndexBasis,
    MomentMatrix,
    NumericalError,
    Polydisk,
    RecoveryConfig,
    RecoveryError,
    generate_measure,
    match_atoms,
    moment_matrix,
    perturb_weight,
    pushforward_drop_coord,
    random_unitary,
    recover_1d,
    recover_atoms,
    rotate_moments,
    rotate_unitary,
    verify_theorem,
    weight_by_g,
)
from momentrank import recovery
from momentrank.serialize import any_measure_from_dict, dump_json, report_to_dict


def atom(coords, weight):
    return Atom(ComplexPoint(tuple(coords)), weight)


def measure(d, *pairs):
    return DiscreteMeasure(d, tuple(atom(c, w) for c, w in pairs))


CANCELLING = measure(2, ([1, 5], 1), ([2, 5], -1))


# -- one-dimensional pencil ------------------------------------------------------

def test_recover_1d_zero_matrix():
    a = moment_matrix(DiscreteMeasure(1, ()), 3)
    assert recover_1d(a).atom_count == 0


def test_recover_1d_single_atom_roundtrip():
    truth = measure(1, ([0.5 + 0.5j], 2))
    rec = recover_1d(moment_matrix(truth, 3))
    assert rec.atom_count == 1
    assert abs(rec.atoms[0].location.coords[0] - (0.5 + 0.5j)) <= 1e-8
    assert abs(rec.atoms[0].weight - 2) <= 1e-8


def test_recover_1d_plus_minus_one():
    # frozen matrix from the enumeration a_jk = 1 + (-1)^(j+k)
    entries = np.array(
        [[1 + (-1) ** (j + k) for k in range(4)] for j in range(4)], dtype=complex
    )
    rec = recover_1d(MomentMatrix(IndexBasis(1, 3), entries))
    got = sorted(
        ((a.location.coords[0], a.weight) for a in rec.atoms),
        key=lambda p: p[0].real,
    )
    assert abs(got[0][0] - (-1)) <= 1e-9 and abs(got[0][1] - 1) <= 1e-9
    assert abs(got[1][0] - 1) <= 1e-9 and abs(got[1][1] - 1) <= 1e-9


def test_recover_1d_rejects_wrong_dimension():
    a = moment_matrix(measure(2, ([1, 2], 1)), 2)
    with pytest.raises(ValueError):
        recover_1d(a)


def test_recover_1d_degree_below_rank():
    truth = generate_measure(1, 4, seed=2)
    a = moment_matrix(truth, 3)  # rank can reach 4 on a degree-3 matrix
    if np.linalg.matrix_rank(a.entries) > 3:
        with pytest.raises(RecoveryError):
            recover_1d(a)


def test_recover_1d_random_roundtrips():
    for seed in range(6):
        n = 1 + seed
        truth = generate_measure(1, n, seed=100 + seed)
        rec = recover_1d(moment_matrix(truth, n + 1))
        matched = match_atoms(rec, truth, 1e-6)
        assert matched is not None
        assert matched[1] <= 1e-6


# -- multi-dimensional recovery -----------------------------------------------------

def test_recover_atoms_single_atom_d2():
    truth = measure(2, ([1 + 1j, 2 - 1j], 3))
    report = recover_atoms(moment_matrix(truth, 2), RecoveryConfig(seed=1))
    assert report.residual <= 1e-9
    assert report.detected_rank == 1
    matched = match_atoms(report.atoms, truth, 1e-8)
    assert matched is not None and matched[1] <= 1e-8


def test_recover_atoms_cancelling_pair():
    report = recover_atoms(moment_matrix(CANCELLING, 4), RecoveryConfig(seed=0))
    matched = match_atoms(report.atoms, CANCELLING, 1e-6)
    assert matched is not None and matched[1] <= 1e-6
    assert report.residual <= 1e-6


def test_recover_atoms_d3_random():
    truth = generate_measure(3, 4, seed=77, separation=0.3)
    report = recover_atoms(moment_matrix(truth, 5), RecoveryConfig(seed=77))
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6


def test_recover_atoms_empty_matrix():
    report = recover_atoms(moment_matrix(DiscreteMeasure(2, ()), 3))
    assert report.atoms.atom_count == 0
    assert report.detected_rank == 0
    assert report.residual == 0


def test_recover_atoms_reports_rank_equal_atom_count():
    for seed in (3, 4, 5):
        truth = generate_measure(2, 4, seed=seed)
        report = recover_atoms(moment_matrix(truth, 5), RecoveryConfig(seed=seed))
        assert report.atoms.atom_count == report.detected_rank == 4


def test_front_projection_matches_pushforward_atoms():
    # with no cancellation, the first recursion step recovers exactly the
    # pushforward's atom set
    from momentrank import submatrix_drop_first

    truth = generate_measure(2, 4, seed=61)
    front = submatrix_drop_first(moment_matrix(truth, 5))
    recovered = recover_1d(front, RecoveryConfig(seed=61))
    expected = pushforward_drop_coord(truth, 0)
    matched = match_atoms(recovered, expected, 1e-6)
    assert matched is not None and matched[1] <= 1e-6


def test_recover_atoms_cancelling_pair_at_minimal_degree():
    # degree 3 is one above the rank of 2: no headroom beyond the pencil's own
    a = moment_matrix(CANCELLING, 3)
    report = recover_atoms(a, RecoveryConfig(seed=0))
    matched = match_atoms(report.atoms, CANCELLING, 1e-6)
    assert matched is not None and matched[1] <= 1e-6


def test_recover_1d_fails_when_degree_below_rank():
    truth = generate_measure(1, 4, seed=19, separation=0.3)
    a = moment_matrix(truth, 3)  # 4x4 matrix of a rank-4 measure
    with pytest.raises(RecoveryError):
        recover_1d(a)
    with pytest.raises(RecoveryError):
        recover_atoms(a, RecoveryConfig(seed=19))


def test_projected_near_collision_recovers_through_frames():
    # atoms well separated in C^3 whose z3 projections nearly collide: the
    # axis-aligned pencil cannot resolve them, a generic frame can
    truth = DiscreteMeasure(3, (
        atom([1.0, 0.5, 0.8], 1.0),
        atom([-0.5, 1.0, 0.8 + 3e-5], 2.0),
        atom([0.3j, -0.9, -0.5], 1.5),
        atom([-0.2, 0.4j, 1.1], -1.0),
    ))
    report = recover_atoms(moment_matrix(truth, 5), RecoveryConfig(seed=5))
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6


def test_recovered_locations_do_not_depend_on_g():
    truth = generate_measure(2, 3, seed=31)
    cfg = RecoveryConfig(seed=31)
    base = recover_atoms(moment_matrix(truth, 4), cfg)
    for gseed in (0, 1):
        g = perturb_weight(gseed, 0.1, 2)
        reweighted = weight_by_g(truth, g)
        report = recover_atoms(moment_matrix(reweighted, 4), cfg)
        # same locations; weights transform by |g|^2
        expected = weight_by_g(truth, g)
        matched = match_atoms(report.atoms, expected, 1e-6)
        assert matched is not None
        assert matched[0] <= 1e-6 and matched[1] <= 1e-6
        loc_match = match_atoms(report.atoms, base.atoms, 1e-6)
        assert loc_match is not None


def test_rotation_equivariance():
    truth = generate_measure(2, 3, seed=41)
    u = random_unitary(2, 99)
    rotated_truth = rotate_unitary(truth, u)
    a = rotate_moments(moment_matrix(truth, 4), u)
    report = recover_atoms(a, RecoveryConfig(seed=41))
    matched = match_atoms(report.atoms, rotated_truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6


def test_reports_are_deterministic():
    truth = generate_measure(3, 4, seed=55)
    a = moment_matrix(truth, 5)
    cfg = RecoveryConfig(seed=55)
    first = dump_json(report_to_dict(recover_atoms(a, cfg)))
    second = dump_json(report_to_dict(recover_atoms(a, cfg)))
    assert first == second


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("d, n, degree", [(2, 16, 7), (2, 20, 8), (3, 10, 5)])
def test_recover_atoms_many_atoms_low_degree(d, n, degree, seed):
    # the degree is far below N, so no one-dimensional projection can carry
    # all N atoms; the joint pencil reads every coordinate at once
    truth = generate_measure(d, n, seed, separation=0.1)
    report = recover_atoms(moment_matrix(truth, degree), RecoveryConfig(seed=seed))
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6
    assert report.residual <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_recover_atoms_basis_2024_from_flat_block(seed):
    # d=3, D=21: a basis of 2024 indices, far above the 20 atoms, so the
    # pencil runs on a small flat leading block and only the residual sees
    # the whole matrix
    truth = generate_measure(3, 20, seed, separation=0.1)
    a = moment_matrix(truth, 21)
    assert a.basis.size == 2024
    report = recover_atoms(a, RecoveryConfig(seed=seed))
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6
    assert report.residual <= 1e-6
    assert report.block_degree < a.max_degree


def test_residual_check_never_holds_a_whole_fitted_matrix():
    # the whole-input residual runs over ~1 MB row blocks, so recovering
    # from a 2024 x 2024 input allocates far less than one more such matrix
    # (65.5 MB of complex entries)
    truth = generate_measure(3, 20, 0, separation=0.1)
    a = moment_matrix(truth, 21)
    tracemalloc.start()
    try:
        report = recover_atoms(a, RecoveryConfig(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.residual <= 1e-6
    assert peak < 20e6


@pytest.mark.parametrize("d, n, degree", [(1, 6, 7), (2, 7, 6), (3, 8, 5)])
def test_recovered_atoms_come_out_in_coordinate_order(d, n, degree):
    truth = generate_measure(d, n, seed=d, separation=0.1)
    report = recover_atoms(moment_matrix(truth, degree), RecoveryConfig(seed=d))
    keys = [tuple(x for z in atom.location.coords for x in (z.real, z.imag))
            for atom in report.atoms.atoms]
    assert len(keys) == n and keys == sorted(keys)


@pytest.mark.parametrize("d, n, degree", [(1, 9, 10), (2, 6, 6), (2, 12, 20), (3, 10, 7)])
def test_residual_is_the_gap_of_the_recovered_measure(d, n, degree):
    # complex weights and n <= 256: the gate's one row block is the whole
    # unsymmetrized Gram product that moment_matrix also forms
    a = moment_matrix(generate_measure(d, n, seed=n, separation=0.1), degree)
    assert a.basis.size <= 256
    report = recover_atoms(a, RecoveryConfig(seed=n))
    assert not np.all(report.atoms.weights_vector().imag == 0)
    fitted = moment_matrix(report.atoms, degree)
    assert report.residual == float(np.max(np.abs(fitted.entries - a.entries)))


@pytest.mark.parametrize(
    "truth, degree",
    [
        (measure(3, ([0.5, -0.25, 1.0], 1.5), ([-0.75, 0.5, 0.0], 0.75),
                 ([1.25, 0.0, -0.5], 2.0), ([0.0, 1.0, 0.25], 1.0),
                 ([-1.0, -1.0, 0.5], 0.5)), 5),
        (generate_measure(3, 20, 0, separation=0.1), 21),
    ],
    ids=["real-weights", "basis-2024"],
)
def test_residual_agrees_with_the_symmetrized_or_blocked_gap(truth, degree):
    # real weights make moment_matrix symmetrize, and basis 2024 makes the
    # gate run over row blocks; either way the gap moves only by rounding
    a = moment_matrix(truth, degree)
    report = recover_atoms(a, RecoveryConfig(seed=0))
    fitted = moment_matrix(report.atoms, degree)
    gap = float(np.max(np.abs(fitted.entries - a.entries)))
    assert report.residual <= 1e-6
    assert abs(report.residual - gap) <= 1e-15 * float(np.max(np.abs(a.entries)))


def test_nan_residual_fails_the_gate(monkeypatch):
    monkeypatch.setattr(recovery, "_moment_gap", lambda *args: float("nan"))
    with pytest.raises(RecoveryError, match="residual nan above"):
        recover_atoms(moment_matrix(generate_measure(2, 3, seed=0), 3))


def test_flat_block_search_ranks_no_larger_matrix(monkeypatch):
    sizes = []
    real = recovery.numerical_rank

    def recording(a, rel_tol=1e-8):
        sizes.append((a.entries if isinstance(a, MomentMatrix) else np.asarray(a)).shape[0])
        return real(a, rel_tol)

    monkeypatch.setattr(recovery, "numerical_rank", recording)
    truth = generate_measure(3, 20, 0, separation=0.1)
    report = recover_atoms(moment_matrix(truth, 21), RecoveryConfig(seed=0))
    assert report.residual <= 1e-6
    # the search stops at the accepted block, so nothing past one degree
    # above it is ranked, and the 2024 x 2024 input never is
    assert sizes and max(sizes) <= IndexBasis(3, report.block_degree + 1).size


def test_false_plateau_goes_on_to_the_next_block():
    # ranks 1..6, 6, 7, 7 at degrees 0..8: the step at degree 6 looks flat
    # but a seventh atom only shows at degree 7, so the fit on that block
    # misses the whole-input residual and the search moves on
    truth = generate_measure(1, 7, seed=1018, separation=0.1)
    a = moment_matrix(truth, 8)
    report = recover_atoms(a, RecoveryConfig(seed=1018))
    assert report.retry_log and report.retry_log[0].startswith("degree 6 ")
    assert report.block_degree == 8
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6
    assert report.residual <= 1e-6


@pytest.mark.parametrize(
    "n, seed", [(10, 2), (10, 6), (10, 9), (11, 0), (11, 2), (11, 6), (11, 9),
                (12, 0), (12, 1), (12, 2), (12, 3), (12, 8), (12, 9)])
def test_undercounted_rank_is_retried_one_or_two_higher(n, seed):
    # at separation 0.1 and D = N + 1 the rank estimate of these d=1 inputs
    # falls short of N, and only a fit one or two ranks higher passes the gate
    truth = generate_measure(1, n, seed=seed, separation=0.1)
    report = recover_atoms(moment_matrix(truth, n + 1), RecoveryConfig(seed=seed))
    assert report.retries_used >= 1
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("d, n, degree", [(1, 3, 4), (1, 5, 6), (2, 4, 4), (2, 6, 5), (3, 5, 4)])
def test_fit_one_rank_too_high_prunes_the_spurious_atom(d, n, degree, seed):
    # the pencil at rank N + 1 on an exact rank-N block gives one location
    # whose weight is at the rounding floor; the fit drops it and re-solves
    truth = generate_measure(d, n, seed=seed, separation=0.2)
    a = moment_matrix(truth, degree)
    block = int(a.basis.offsets[degree])
    assert block > n
    fitted, residual = recovery._fit(a, a, block, n + 1, RecoveryConfig(seed=seed))
    assert fitted.atom_count == n and residual <= 1e-6
    matched = match_atoms(fitted, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6


@pytest.mark.parametrize("n", [4, 6])
def test_fit_on_a_basis_above_100_solves_the_spanning_equations(monkeypatch, n):
    # d=2, degree 13: a basis of 105, so the weights and the polish use the
    # first-row, first-column and diagonal equations, 3 * 105 rather than 105^2
    used = []
    pairs = recovery._equation_pairs
    monkeypatch.setattr(recovery, "_equation_pairs",
                        lambda size: used.append(len(pairs(size)[0])) or pairs(size))
    for seed in range(5):
        truth = generate_measure(2, n, seed=seed, separation=0.2)
        a = moment_matrix(truth, 13)
        assert a.basis.size == 105
        block = int(a.basis.offsets[13])
        fitted, residual = recovery._fit(a, a, block, n, RecoveryConfig(seed=seed))
        assert residual <= 1e-6
        assert match_atoms(fitted, truth, 1e-6) is not None
    assert set(used) == {3 * 105}


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 10_000))
def test_roundtrip_property(d, n, seed):
    truth = generate_measure(d, n, seed=seed, separation=0.1)
    report = recover_atoms(moment_matrix(truth, n + 1), RecoveryConfig(seed=seed))
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6
    assert report.residual <= 1e-6


def test_recovery_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(rank_tol=0)


# -- theorem verdicts -----------------------------------------------------------------

def test_verify_theorem_two_atoms():
    truth = measure(1, ([0.9], 1), ([-0.7 + 0.2j], 2))
    verdict = verify_theorem(truth, [1, 2, 3, 4, 5])
    assert verdict.ranks == (2, 2, 2, 2, 2)
    assert verdict.passed


def test_verify_theorem_uniform_disk_rank_growth():
    dens = DensityMeasure(
        1, Polydisk(ComplexPoint((0j,)), (1.0,)), DensitySpec("uniform")
    )
    verdict = verify_theorem(dens, [1, 2, 3, 4, 5])
    assert verdict.ranks == (2, 3, 4, 5, 6)
    assert verdict.passed


def test_verify_theorem_empty_measure():
    verdict = verify_theorem(DiscreteMeasure(2, ()), [1, 2, 3])
    assert verdict.ranks == (0, 0, 0)
    assert verdict.passed


@pytest.mark.parametrize("kind", ["atomic", "density"])
def test_verify_theorem_assembles_input_moments_once(monkeypatch, kind):
    if kind == "atomic":
        m = generate_measure(2, 4, seed=1)
    else:
        m = DensityMeasure(
            2, Polydisk(ComplexPoint((0j, 0j)), (1.0, 1.0)), DensitySpec("gaussian")
        )
    degrees_seen = []
    assemble = recovery.moment_matrix

    def counting(measure, max_degree):
        if measure is m:
            degrees_seen.append(max_degree)
        return assemble(measure, max_degree)

    monkeypatch.setattr(recovery, "moment_matrix", counting)
    verdict = verify_theorem(m, [1, 2, 3, 4])
    assert verdict.passed
    if kind == "atomic":
        # 4 atoms raise the top degree to N + 1 = 5 for the recovery round-trip
        assert degrees_seen == [5]
        assert [c.name for c in verdict.checks] == [
            "rank_saturation",
            "recovery_roundtrip",
            "galerkin_rank_equality",
            "reweighting_rank_monotonicity",
            "submatrix_consistency",
        ]
    else:
        assert degrees_seen == [4]


def test_verify_theorem_rejects_bad_degrees():
    with pytest.raises(ValueError):
        verify_theorem(DiscreteMeasure(1, ()), [])
    with pytest.raises(ValueError):
        verify_theorem(DiscreteMeasure(1, ()), [3, 1])


def test_verify_theorem_rejects_repeated_degrees():
    m = generate_measure(1, 3, seed=2, separation=0.2)
    with pytest.raises(ValueError, match="strictly increasing"):
        verify_theorem(m, [2, 2, 3])
    assert verify_theorem(m, [2, 3]).ranks == (3, 3)


def test_recover_atoms_rejects_non_finite_input(monkeypatch):
    # the check runs once, before any rank or LAPACK call
    def no_rank(*args, **kwargs):
        raise AssertionError("ranked a non-finite matrix")

    monkeypatch.setattr(recovery, "numerical_rank", no_rank)
    a = moment_matrix(generate_measure(2, 3, seed=1, separation=0.2), 4)
    for bad in (np.inf, np.nan):
        entries = a.entries.copy()
        entries[-1, -1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            recover_atoms(MomentMatrix(a.basis, entries))


def test_match_atoms_rejects_count_mismatch():
    a = measure(1, ([1], 1))
    b = measure(1, ([1], 1), ([2], 1))
    assert match_atoms(a, b, 1e-6) is None


def test_match_atoms_requires_proximity():
    a = measure(1, ([1], 1))
    b = measure(1, ([1.5], 1))
    assert match_atoms(a, b, 1e-6) is None
    assert match_atoms(a, b, 1.0) is not None


def test_verify_theorem_ranks_each_matrix_once(monkeypatch):
    # N + 1 <= max(degrees): recovery reads the top-degree rank the battery
    # already holds instead of a second SVD of the same matrix
    seen = []
    real = recovery.numerical_rank

    def counting(a, rel_tol=1e-8):
        entries = a.entries if isinstance(a, MomentMatrix) else np.asarray(a)
        seen.append((entries.shape, hash(entries.tobytes())))
        return real(a, rel_tol)

    monkeypatch.setattr(recovery, "numerical_rank", counting)
    m = generate_measure(2, 3, seed=4, separation=0.2)
    verdict = verify_theorem(m, [1, 2, 3, 4, 5, 6])
    assert verdict.passed
    assert len(seen) == len(set(seen))
    # six degrees, two Galerkin kernels, one reweighted measure
    assert len(seen) == 6 + 2 + 1


# -- density verdicts through the full-rank certificate --------------------------

def _densities(verify_inputs, seeds):
    for seed in seeds:
        for name, payload in verify_inputs(seed):
            m = any_measure_from_dict(payload)
            if isinstance(m, DensityMeasure):
                yield f"{seed} {name}", m


def test_density_verdicts_do_not_depend_on_the_certificate(monkeypatch, verify_inputs):
    # the certificate only skips SVDs: with it forced to decline, every
    # truncation is ranked and the verdict must come out the same
    cases = [
        (label, m, list(range(1, degree + 1)))
        for label, m in _densities(verify_inputs, range(3))
        for degree in (6, 8)
    ]
    certified = [verify_theorem(m, degrees) for _, m, degrees in cases]
    monkeypatch.setattr(recovery, "_full_rank_certificate", lambda entries, rel_tol: False)
    for (label, m, degrees), verdict in zip(cases, certified):
        ranked = verify_theorem(m, degrees)
        assert ranked.ranks == verdict.ranks, label
        assert ranked.passed is verdict.passed is True, label
        assert [c.measured for c in ranked.checks] == [c.measured for c in verdict.checks]
    assert len(cases) == 3 * 18 * 2


def test_certified_density_verify_runs_no_svd(svd_spy, verify_inputs):
    m = dict(_densities(verify_inputs, [0]))["0 d3-gaussian-offset"]
    shapes = svd_spy()
    verdict = verify_theorem(m, list(range(1, 9)))
    assert verdict.passed
    assert verdict.ranks == (4, 10, 20, 35, 56, 84, 120, 165)
    assert shapes == []


def test_uncertified_density_ranks_every_truncation(svd_spy):
    # 1 + 1.5 z changes sign on the unit disk, so the certificate declines
    # and each degree's truncation goes to the SVD
    m = any_measure_from_dict({
        "dimension": 1,
        "domain": {"center": [[0.0, 0.0]], "radii": [1.0]},
        "density": {"type": "polynomial", "terms": [
            {"alpha": [0], "coeff": [1.0, 0.0]}, {"alpha": [1], "coeff": [1.5, 0.0]},
        ]},
    })
    shapes = svd_spy()
    verdict = verify_theorem(m, list(range(1, 9)))
    assert verdict.passed
    assert verdict.ranks == tuple(range(2, 10))
    assert shapes == [(k + 1, k + 1) for k in range(1, 9)]
