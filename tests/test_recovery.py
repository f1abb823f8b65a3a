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
from momentrank.serialize import dump_json, report_to_dict


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


def test_verify_theorem_rejects_bad_degrees():
    with pytest.raises(ValueError):
        verify_theorem(DiscreteMeasure(1, ()), [])
    with pytest.raises(ValueError):
        verify_theorem(DiscreteMeasure(1, ()), [3, 1])


def test_match_atoms_rejects_count_mismatch():
    a = measure(1, ([1], 1))
    b = measure(1, ([1], 1), ([2], 1))
    assert match_atoms(a, b, 1e-6) is None


def test_match_atoms_requires_proximity():
    a = measure(1, ([1], 1))
    b = measure(1, ([1.5], 1))
    assert match_atoms(a, b, 1e-6) is None
    assert match_atoms(a, b, 1.0) is not None
