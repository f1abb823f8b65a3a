import math
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
    enclosing_kernel,
    generate_measure,
    match_atoms,
    moment_matrix,
    numerical_rank,
    perturb_weight,
    pushforward_drop_coord,
    random_linear_polynomial,
    random_unitary,
    recover_1d,
    recover_atoms,
    rotate_moments,
    rotate_unitary,
    verify_theorem,
    weight_by_g,
)
from momentrank import moments, operators, recovery
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


@pytest.mark.parametrize("d", [1, 3])
def test_degree_0_recovery_says_it_needs_degree_1(d):
    # the 1x1 matrix a_00 has no degree-1 row shifts for the pencil, so no
    # block can be searched; the error says so instead of an empty log
    a = moment_matrix(generate_measure(d, 2, seed=1), 0)
    with pytest.raises(RecoveryError) as caught:
        recover_atoms(a)
    message = str(caught.value)
    assert message.startswith("no block fits the moments; log: ")
    assert "degree 0" in message and "degree-1 row shifts" in message
    assert "degree >= 1" in message


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
    # complex weights: the gate forms, one row block at a time, the same
    # unsymmetrized Gram product as moment_matrix, each entry one dot
    # product over the atoms
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
    # whose pencil weight is at the rounding floor; the fit drops it, and
    # the polish re-fits the weights of the atoms that are left
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
    # d=2, degree 13: a basis of 105, so the polish fits the pencil's atoms
    # to the first-row, first-column and diagonal equations, 3 * 105
    # rather than 105^2.  Exact pencil atoms pass the 1e-8 gate unpolished,
    # so their locations are moved by 1e-9 to make the polish run
    used = []
    pairs = recovery._equation_pairs
    monkeypatch.setattr(recovery, "_equation_pairs",
                        lambda size: used.append(len(pairs(size)[0])) or pairs(size))
    pencil = recovery._pencil_atoms

    def moved(*args):
        locations, weights = pencil(*args)
        return locations + 1e-9, weights

    monkeypatch.setattr(recovery, "_pencil_atoms", moved)
    for seed in range(5):
        truth = generate_measure(2, n, seed=seed, separation=0.2)
        a = moment_matrix(truth, 13)
        assert a.basis.size == 105
        block = int(a.basis.offsets[13])
        fitted, residual = recovery._fit(a, a, block, n, RecoveryConfig(seed=seed))
        assert residual <= 1e-6
        assert match_atoms(fitted, truth, 1e-6) is not None
    assert set(used) == {3 * 105}


@pytest.mark.parametrize("i", range(24))
def test_pencil_weights_match_the_truth_before_prune_and_polish(i):
    # one seed per (d, N) shape of the acceptance corpus, exact data at
    # D = N + 1: the weights read off the pencil's own SVD and eigenvectors,
    # with no solve, are already within 1e-7 of the truth
    d, n, seed = [1, 2, 3][i % 3], 1 + i % 8, 1000 + i
    truth = generate_measure(d, n, seed=seed, separation=0.1)
    a = moment_matrix(truth, n + 1)
    locations, weights = recovery._pencil_atoms(a, int(a.basis.offsets[n + 1]), n, seed)
    assert weights.shape == (n,)
    for t in truth.atoms:
        k = np.argmin(np.linalg.norm(locations - np.array(t.location.coords), axis=1))
        assert np.linalg.norm(locations[k] - np.array(t.location.coords)) <= 1e-6
        assert abs(weights[k] - t.weight) <= 1e-7 * abs(t.weight)


@pytest.mark.parametrize("seed", [4, 7])
def test_d2_n24_recovers_with_the_weights_read_off_the_pencil(seed):
    # every flat block of these inputs misses the 1e-6 residual gate when
    # the weights are instead solved in least squares over the moment
    # equations and only then polished
    truth = generate_measure(2, 24, seed=seed, separation=0.1)
    report = recover_atoms(moment_matrix(truth, 25), RecoveryConfig(seed=seed))
    matched = match_atoms(report.atoms, truth, 1e-6)
    assert matched is not None
    assert matched[0] <= 1e-6 and matched[1] <= 1e-6
    assert report.residual <= 1e-6


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
    # a Galerkin check that assembled the moments again would show here
    monkeypatch.setattr(operators, "moment_matrix", counting)
    # an atomic measure's moments are the Gram product of one monomial
    # table of its atoms, which the reweighting check reads too
    tables = []
    table = recovery.monomial_table
    locations = m.locations_matrix() if kind == "atomic" else None

    def tabulating(points, basis):
        if locations is not None and np.array_equal(points, locations):
            tables.append(basis.max_degree)
        return table(points, basis)

    monkeypatch.setattr(recovery, "monomial_table", tabulating)
    verdict = verify_theorem(m, [1, 2, 3, 4])
    assert verdict.passed
    if kind == "atomic":
        # 4 atoms raise the top degree to N + 1 = 5 for the recovery round-trip
        assert tables == [5]
        assert degrees_seen == []
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


@pytest.mark.parametrize(
    "d, n, seed, expected", [(1, 3, 3, (1, 2, 3)), (2, 3, 4, (1, 3, 3)), (3, 5, 5, (1, 4, 5))]
)
def test_verify_theorem_ranks_degree_zero_as_the_1x1_block(d, n, seed, expected):
    # the 1 x 1 degree-0 block has rank 1, and degree 0 alone still gives
    # a verdict; every rank is numerical_rank's of its leading truncation
    m = generate_measure(d, n, seed=seed, separation=0.1)
    verdict = verify_theorem(m, [0, 1, 2])
    assert verdict.ranks == expected
    a = moment_matrix(m, 2)
    assert verdict.ranks == tuple(
        numerical_rank(moments.leading_truncation(a, k)).rank for k in (0, 1, 2)
    )
    assert verdict.passed
    alone = verify_theorem(m, [0])
    assert alone.ranks == (1,)
    assert alone.passed
    assert verify_theorem(m, [0, 3]).ranks == (1, n)
    with pytest.raises(ValueError, match=">= 0"):
        verify_theorem(m, [-1, 2])


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


def test_verify_theorem_ranks_each_matrix_once(monkeypatch, svd_spy):
    # N + 1 <= max(degrees): recovery reads the top-degree rank the battery
    # already holds instead of a second SVD of the same matrix.  The top
    # block (28) is below the sketch's floor, so every matrix is ranked in
    # zero-padded stacked SVDs of 28 x 28 matrices, and none on its own
    seen = []
    real = recovery.numerical_rank

    def counting(a, rel_tol=1e-8):
        seen.append(a)
        return real(a, rel_tol)

    monkeypatch.setattr(recovery, "numerical_rank", counting)
    monkeypatch.setattr(moments, "numerical_rank", counting)
    m = generate_measure(2, 3, seed=4, separation=0.2)
    shapes = svd_spy()
    verdict = verify_theorem(m, [1, 2, 3, 4, 5, 6])
    assert verdict.passed
    assert seen == []
    stacked = [shape for shape in shapes if len(shape) == 3]
    assert all(shape[1:] == (28, 28) for shape in stacked)
    # the blocks of degrees 0 .. 6, two Galerkin kernels, one reweighted matrix
    assert sum(shape[0] for shape in stacked) == 7 + 2 + 1


# -- values computed once per process ------------------------------------------

def test_cached_draws_and_normalizers_are_shared_and_read_only():
    for cached, args in ((recovery._combination, (2, 0)),
                         (operators._bargmann_log_normalizers, (2, 8))):
        value = cached(*args)
        assert cached(*args) is value
        with pytest.raises(ValueError):
            value[0] = 1.0


@pytest.mark.parametrize("input_seed", range(4))
def test_second_verdict_equals_the_first(verify_inputs, input_seed):
    # the first call fills the caches (the seeded g and pencil coefficients,
    # the Bargmann normalizers) and the second reads them
    measures = [any_measure_from_dict(payload) for _, payload in verify_inputs(input_seed)]
    for cached in (random_linear_polynomial, recovery._combination,
                   operators._bargmann_log_normalizers):
        cached.cache_clear()
    first = [repr(verify_theorem(m, list(range(1, 9)))) for m in measures]
    assert [repr(verify_theorem(m, list(range(1, 9)))) for m in measures] == first


# -- atomic verdicts through one sketch of the top matrix ------------------------

def _d3_atomic_tops(verify_inputs):
    """(label, measure, matrix): the d = 3 measures of the acceptance corpus
    whose criterion-1 matrix (degree N + 1) reaches size 64, N >= 5, and the
    six d = 3 atomic inputs of the verify benchmark at degree 8."""
    for i in range(2, 200, 3):
        n = 1 + i % 8
        if n >= 5:
            m = generate_measure(3, n, seed=1000 + i, separation=0.1)
            yield f"corpus {1000 + i}", m, moment_matrix(m, n + 1)
    for name, payload in verify_inputs(0):
        if name.startswith("d3-atoms"):
            m = any_measure_from_dict(payload)
            yield name, m, moment_matrix(m, 8)


def test_block_ranks_off_one_sketch_match_dense_svd(verify_inputs):
    # every leading block of size >= 16 and both kernels' rescalings s A s
    # are ranked off the one sketch of A: the certificate settles each, the
    # count is the dense SVD's, and the leading values lie within the
    # certified error max(s)^2 (||A - Q B||_F + n eps ||A||_F)
    tops = list(_d3_atomic_tops(verify_inputs))
    for name, payload in verify_inputs(0):
        if not name.startswith("d3-atoms"):
            m = any_measure_from_dict(payload)
            tops.append((name, m, moment_matrix(m, 8)))
    derived = 0
    for label, m, a in tops:
        sketch = moments._range_sketch(a.entries, 1e-8)
        if isinstance(m, DensityMeasure) or m.dimension == 1:
            # a density's full rank fills the sketch, and at d = 1 the
            # degree-8 matrix (size 9) lies below the sketch's floor of 32
            assert sketch is None, label
            continue
        n = a.basis.size
        err = sketch.residual + n * np.finfo(float).eps * np.hypot(sketch.residual, sketch.b_norm)
        cases = [(int(size), None) for size in a.basis.offsets[1:] if size >= 16]
        for kind in ("bargmann", "bergman"):
            scale = np.exp(operators._log_normalizers(enclosing_kernel(kind, m), a.basis))
            cases.append((n, scale))
        for size, scale in cases:
            block, bound = a.entries[:size, :size], 1.0
            if scale is not None:
                block, bound = block * np.outer(scale, scale), np.max(scale) ** 2
            sigma = np.linalg.svd(block, compute_uv=False)
            rank = int(np.count_nonzero(sigma > 1e-8 * sigma[0]))
            found, = moments._sketched_ranks(sketch, [(size, scale, None)], 1e-8)
            assert found is not None, f"{label} size {size}"
            assert found.rank == rank, f"{label} size {size}"
            assert len(found.singular_values) == size
            gap = np.max(np.abs(found.singular_values[:rank] - sigma[:rank]))
            assert gap <= bound * err, f"{label} size {size}"
            derived += 1
    # 33 corpus measures (8 of each N = 5, 7, 8, 9 of N = 6) and the six
    # d = 3 verify inputs, whose blocks of size >= 16 are those of degrees
    # 3 .. N + 1 and 3 .. 8, and the six d = 2 verify inputs, whose blocks
    # are those of degrees 5 .. 8, plus two rescalings each
    assert derived == 8 * 6 + 9 * 7 + 8 * 8 + 8 * 9 + 6 * 8 + 6 * 6


def test_verify_ranks_its_large_blocks_off_one_sketch(svd_spy, monkeypatch, verify_inputs):
    # degree 8 at d = 3 (basis 165): the top matrix's one sketch answers the
    # blocks of size >= 16, both Galerkin checks and the |g|^2-reweighted
    # matrix, and no dense SVD of size >= 16 runs, alone or in a stack
    sketched = []
    real = moments._range_sketch

    def recording(entries, rel_tol):
        if len(entries) >= 32:
            sketched.append(len(entries))
        return real(entries, rel_tol)

    monkeypatch.setattr(moments, "_range_sketch", recording)
    shapes = svd_spy()
    for label, m, _ in list(_d3_atomic_tops(verify_inputs))[-6:]:
        assert verify_theorem(m, list(range(1, 9))).passed, label
    assert sketched == [165] * 6
    assert not [shape for shape in shapes if shape[-2] == shape[-1] >= 16]


def test_a_declined_top_sketch_is_not_built_again(monkeypatch):
    # d = 3, N = 12 at degrees 1..6: the top block (84) fills the sketch's
    # cap, so its sketch declines, and every query it leaves open goes to
    # the dense SVD without a sketch of its own: the blocks of 35 and 56, the
    # top block itself, the two Galerkin rescalings and the reweighted
    # matrix.  numerical_rank builds a second sketch of the top block and
    # reaches the same rank, bit for bit
    sketched = []
    real = moments._range_sketch

    def recording(entries, rel_tol):
        sketch = real(entries, rel_tol)
        if len(entries) >= 32:
            sketched.append((len(entries), sketch is None))
        return sketch

    monkeypatch.setattr(moments, "_range_sketch", recording)
    m = generate_measure(3, 12, seed=2, separation=0.2)
    verdict = verify_theorem(m, list(range(1, 7)))
    assert verdict.passed
    assert sketched == [(84, True)]
    sketched.clear()
    top = moment_matrix(m, 6).entries
    found, = moments._BlockRanker(top, 1e-8).ranks([(84, None)])
    assert sketched == [(84, True)]
    expected = numerical_rank(top)
    assert sketched == [(84, True)] * 2
    assert found.rank == expected.rank == verdict.ranks[-1] == 12
    assert found.singular_values.tobytes() == expected.singular_values.tobytes()
    assert found.ill_conditioned is expected.ill_conditioned


@pytest.mark.parametrize("size", [100, 128])
def test_leading_rank_the_certificate_declines_goes_to_the_dense_svd(size):
    # rank 5 with row and column 99 zero: a scale of 1e5 there leaves s A s
    # = A but lifts the certified error max(s)^2 (...) past the threshold,
    # so the ranker hands the formed block to the dense SVD, while the
    # unscaled block of the same call is settled off the sketch
    rng = np.random.default_rng(5)
    x, y = (rng.standard_normal((128, 5)) + 1j * rng.standard_normal((128, 5)) for _ in "xy")
    x[99] = y[99] = 0
    entries = x @ y.conj().T
    sketch = moments._range_sketch(entries, 1e-8)
    scale = np.ones(size)
    scale[99] = 1e5
    assert moments._sketched_ranks(sketch, [(size, None, None)], 1e-8)[0].rank == 5
    assert moments._sketched_ranks(sketch, [(size, scale, None)], 1e-8) == [None]
    block = entries[:size, :size] * scale[:, np.newaxis]
    block *= scale
    expected = moments._dense_ranks([block], 1e-8)[0]
    found, plain = moments._BlockRanker(entries, 1e-8).ranks([(size, scale), (size, None)])
    assert plain.rank == 5
    assert found.rank == expected.rank == numerical_rank(block).rank == 5
    assert found.singular_values.tobytes() == expected.singular_values.tobytes()
    assert found.ill_conditioned is expected.ill_conditioned


def test_atomic_verdicts_do_not_depend_on_the_block_certificate(monkeypatch, verify_inputs):
    # the derived ranks only skip sketches and SVDs: with every certificate
    # forced to decline, each matrix is formed and ranked on its own, and the
    # verdict must come out the same.  At d = 1 (size 9) no rank is read off
    # a sketch, so those verdicts come from the padded stacked SVDs either way
    cases = [
        (name, any_measure_from_dict(payload))
        for name, payload in verify_inputs(0) if "-atoms" in name
    ]
    assert len(cases) == 18
    derived = [verify_theorem(m, list(range(1, 9))) for _, m in cases]
    monkeypatch.setattr(moments, "_sketched_ranks",
                        lambda sketch, queries, rel_tol: [None] * len(queries))
    for (label, m), verdict in zip(cases, derived):
        assert verify_theorem(m, list(range(1, 9))) == verdict, label


def test_reweighted_matrix_off_the_top_table_is_the_reweighted_measures(monkeypatch, verify_inputs):
    # the reweighting check reads the top matrix's monomial table: its
    # matrix is moment_matrix(weight_by_g(m, g), D) bit for bit, and the
    # ranker's rank of it is numerical_rank's
    others = []
    ranks = moments._BlockRanker.ranks

    def recording(self, blocks, more=()):
        others.extend(more)
        return ranks(self, blocks, more)

    monkeypatch.setattr(moments._BlockRanker, "ranks", recording)
    compared = 0
    for seed in range(4):
        for name, payload in verify_inputs(seed):
            m = any_measure_from_dict(payload)
            if isinstance(m, DensityMeasure):
                continue
            others.clear()
            verdict = verify_theorem(m, list(range(1, 9)))
            expected = moment_matrix(weight_by_g(m, random_linear_polynomial(m.dimension, 0)), 8)
            assert len(others) == 1
            assert others[0].tobytes() == expected.entries.tobytes(), f"{seed} {name}"
            check = next(c for c in verdict.checks if c.name == "reweighting_rank_monotonicity")
            assert check.measured["rank_reweighted"] == numerical_rank(expected).rank
            compared += 1
    assert compared == 4 * 18


def _fit_polishing_first(a, whole, block, rank, cfg):
    """_fit's atoms and residual as they were formed before the gate came
    first: the pruned pencil atoms are always polished, then sorted and
    gated."""
    locations, weights = recovery._pencil_atoms(a, block, rank, cfg.seed)
    keep = np.abs(weights) >= cfg.rank_tol * np.max(np.abs(weights))
    polished = recovery._polish_atoms(locations[keep], weights[keep], a)
    locations, weights = recovery._sorted_atoms(*polished)
    return locations, weights, recovery._moment_gap(locations, weights, whole)


@pytest.mark.parametrize("noise", [0.0, 1e-7])
def test_fit_polishes_only_above_the_gate_and_as_before(monkeypatch, noise):
    # exact moments: the pencil's atoms are within 1e-8 of the whole input,
    # so they are not polished, and the polish would have returned them as
    # they are.  Moments with 1e-7 noise put them above 1e-8: the polish
    # runs, iterates, and gives the atoms and residual it gave before
    polished = []
    polish = recovery._polish_atoms
    monkeypatch.setattr(recovery, "_polish_atoms",
                        lambda *args: polished.append(1) or polish(*args))
    rng = np.random.default_rng(3)
    for seed in range(4):
        truth = generate_measure(2, 4, seed=seed, separation=0.2)
        a = moment_matrix(truth, 5)
        if noise:
            shape = a.entries.shape
            jitter = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            a = MomentMatrix(a.basis, a.entries + noise * jitter)
        block, cfg = int(a.basis.offsets[5]), RecoveryConfig(seed=seed)
        polished.clear()
        fitted, residual = recovery._fit(a, a, block, 4, cfg)
        assert len(polished) == (1 if noise else 0)
        assert (residual > 1e-8) == bool(noise)
        locations, weights, before = _fit_polishing_first(a, a, block, 4, cfg)
        assert residual == before
        assert fitted.locations_matrix().tobytes() == locations.tobytes()
        assert fitted.weights_vector().tobytes() == weights.tobytes()


def test_chunked_stacks_give_the_ranks_of_single_queries(monkeypatch):
    # n = 128 at rank 40 fills the sketch's width of 16, so its 90 small
    # blocks go to zero-padded dense stacks; n = 256 at rank 10 is
    # sketched, and its 60 queries go to QR stacks of 256 x 11 factors.
    # Either way no stack holds more than 1 MB, so the queries take two
    # chunks or more, and each query ranked alone gives the same rank
    stacks = []
    for name in ("qr", "svd"):
        function = getattr(np.linalg, name)

        def spy(a, *args, _function=function, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(a.shape)
            return _function(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    rng = np.random.default_rng(7)
    for n, rank, sizes in ((128, 40, range(2, 32)), (256, 10, range(16, 256, 8))):
        x, y = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)) for _ in "xy")
        entries = x @ y.conj().T
        ranker = moments._BlockRanker(entries, 1e-8)
        assert (ranker.sketch is None) == (n == 128)
        scales = [None, np.exp(rng.uniform(-1, 1, n)), np.exp(rng.uniform(-1, 1, n))]
        scales = scales[: 3 if n == 128 else 2]
        queries = [(size, s if s is None else s[:size]) for s in scales for size in sizes]
        stacks.clear()
        together = ranker.ranks(queries)
        assert len(stacks) >= 2
        assert all(16 * math.prod(shape) <= 1 << 20 for shape in stacks)
        alone = [ranker.ranks([query])[0] for query in queries]
        for query, found, single in zip(queries, together, alone):
            assert found.rank == single.rank == min(rank, query[0]), query[0]
            assert np.allclose(found.singular_values, single.singular_values, rtol=1e-12,
                               atol=1e-12 * single.singular_values[0])


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
    # and one ranker of the top matrix (9 x 9, below the sketch's floor)
    # ranks every degree's truncation in one zero-padded stacked SVD
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
    assert shapes == [(8, 9, 9)]


def test_the_ranker_settles_every_open_query_by_the_dense_svd(monkeypatch, verify_inputs):
    # a query the ranker's own sketch leaves open has one answer, the dense
    # SVD: no call of ranks sketches a matrix again or hands it to
    # numerical_rank.  Run on the 72 atomic verify inputs, on a top sketch
    # that declines (d = 3, N = 12 at degree 6) and on the density
    # 1 + 1.5 z_1, which the certificate declines, below the sketch's floor
    # (d = 1) and past it (d = 3); every rank is numerical_rank's
    inside, calls = [], []
    ranks = moments._BlockRanker.ranks

    def guarded(self, blocks, others=()):
        inside.append(self)
        calls.append(self)
        try:
            return ranks(self, blocks, others)
        finally:
            inside.pop()

    def refused(name, real):
        def call(*args):
            assert not inside, f"_BlockRanker.ranks called {name}"
            return real(*args)

        return call

    monkeypatch.setattr(moments._BlockRanker, "ranks", guarded)
    for name in ("numerical_rank", "_range_sketch"):
        monkeypatch.setattr(moments, name, refused(name, getattr(moments, name)))
    cases = [
        (f"{seed} {name}", any_measure_from_dict(payload), list(range(1, 9)))
        for seed in range(4) for name, payload in verify_inputs(seed) if "-atoms" in name
    ]
    assert len(cases) == 72
    cases.append(("declined", generate_measure(3, 12, seed=2, separation=0.2), list(range(1, 7))))
    for d in (1, 3):
        density = any_measure_from_dict({
            "dimension": d,
            "domain": {"center": [[0.0, 0.0]] * d, "radii": [1.0] * d},
            "density": {"type": "polynomial", "terms": [
                {"alpha": [0] * d, "coeff": [1.0, 0.0]},
                {"alpha": [1] + [0] * (d - 1), "coeff": [1.5, 0.0]},
            ]},
        })
        cases.append((f"density d = {d}", density, list(range(1, 9))))
    for label, m, degrees in cases:
        calls.clear()
        verdict = verify_theorem(m, degrees)
        assert verdict.passed and calls, label
        top = moment_matrix(m, degrees[-1])
        sizes = [top.basis.offsets[d + 1] for d in degrees]
        assert verdict.ranks == tuple(
            numerical_rank(top.entries[:k, :k]).rank for k in sizes
        ), label
    assert verdict.ranks == (4, 10, 20, 35, 56, 84, 120, 165)


@pytest.mark.parametrize("degree", [4, 6, 8, 10, 14, 20])
def test_singular_pencil_is_a_failed_attempt_not_a_numerical_failure(line_moments, degree):
    # the uniform measure on a complex line is not atomic: its pencil's
    # eigenvector matrix is singular at every flat step, and the search
    # logs each such fit and goes on
    with pytest.raises(RecoveryError, match="pencil eigenproblem failed"):
        recover_atoms(line_moments(degree))
