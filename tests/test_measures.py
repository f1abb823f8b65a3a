import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentrank import (
    Atom,
    ComplexPoint,
    DensitySpec,
    DiscreteMeasure,
    PolynomialWeight,
    UnitarityError,
    generate_measure,
    perturb_weight,
    pushforward_drop_coord,
    random_linear_polynomial,
    random_unitary,
    rotate_unitary,
    weight_by_g,
)


def atom(coords, weight):
    return Atom(ComplexPoint(tuple(coords)), weight)


def measure(d, *pairs):
    return DiscreteMeasure(d, tuple(atom(c, w) for c, w in pairs))


# -- construction invariants ---------------------------------------------------

def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        ComplexPoint((complex("nan"),))
    with pytest.raises(ValueError):
        ComplexPoint((complex(float("inf"), 0), 1))
    with pytest.raises(ValueError):
        ComplexPoint(())


def test_atom_rejects_zero_weight():
    with pytest.raises(ValueError):
        atom([1], 0)


def test_measure_merges_duplicate_locations():
    m = measure(1, ([2], 1 + 1j), ([2], 1 - 1j), ([3], 5))
    assert m.atom_count == 2
    assert m.atoms[0].weight == 2
    assert m.total_mass() == 7


def test_measure_drops_cancelled_duplicates():
    m = measure(1, ([2], 1), ([2], -1))
    assert m.atom_count == 0


def _merged_atoms(atoms) -> tuple:
    """The reference merge: every atom rebuilt from the summed weight at its
    location, zero sums dropped."""
    merged = {}
    for a in atoms:
        merged[a.location.coords] = merged.get(a.location.coords, 0j) + a.weight
    return tuple(Atom(ComplexPoint(key), w) for key, w in merged.items() if w != 0)


def test_measure_keeps_the_callers_atoms_when_nothing_merges():
    atoms = (atom([1, -0.0], 2 - 1j), atom([0, 3j], -0.5), atom([1, 1], 1e-300j))
    m = DiscreteMeasure(2, atoms)
    assert all(kept is given for kept, given in zip(m.atoms, atoms))
    assert repr(m.atoms) == repr(_merged_atoms(atoms))


@pytest.mark.parametrize("pairs", [
    [([2], 1 + 1j), ([2], 1 - 1j), ([3], 5)],            # merged
    [([2], 1), ([3], 4), ([2], -1)],                    # cancelled
    [([2], complex(-0.0, 1)), ([3], complex(2, -0.0))],  # -0.0 parts, which the sum drops
    [([-0.0], 1), ([0.0], 2j)],                          # -0.0 and 0.0 are one location
], ids=["merged", "cancelled", "negative-zero-weight", "signed-zero-location"])
def test_measure_rebuilds_merged_and_signed_zero_atoms_as_before(pairs):
    atoms = tuple(atom(c, w) for c, w in pairs)
    assert repr(DiscreteMeasure(1, atoms).atoms) == repr(_merged_atoms(atoms))


def test_measure_dimension_mismatch():
    with pytest.raises(ValueError):
        DiscreteMeasure(2, (atom([1], 1),))


# -- pushforward ---------------------------------------------------------------

def test_pushforward_single_atom():
    m = measure(2, ([1 + 1j, 2], 3))
    nu = pushforward_drop_coord(m, 0)
    assert nu.dimension == 1
    assert nu.atoms == (atom([2], 3),)


def test_pushforward_exact_cancellation():
    m = measure(2, ([1, 5], 2), ([2, 5], -2))
    nu = pushforward_drop_coord(m, 0)
    assert nu.atom_count == 0


def test_pushforward_hand_enumeration():
    m = measure(2, ([1, 5], 1), ([2, 5], 2), ([1, 7], 4))
    nu = pushforward_drop_coord(m, 0)
    got = {a.location.coords[0]: a.weight for a in nu.atoms}
    assert got == {5: 3, 7: 4}


def test_pushforward_dimension_one_rejected():
    with pytest.raises(ValueError, match="cannot project below dimension 1"):
        pushforward_drop_coord(measure(1, ([1], 1)), 0)


def test_pushforward_axis_choice():
    m = measure(2, ([1, 5], 1))
    assert pushforward_drop_coord(m, 1).atoms == (atom([1], 1),)


# -- reweighting ---------------------------------------------------------------

def test_weight_by_identity_polynomial():
    m = measure(2, ([1, 2], 1 + 2j), ([0, 1], -1))
    g = PolynomialWeight.constant(2)
    assert weight_by_g(m, g) == m


def test_weight_by_g_drops_zeros_of_g():
    m = measure(1, ([0], 1))
    g = PolynomialWeight(1, {(1,): 1})  # g(z) = z
    assert weight_by_g(m, g).atom_count == 0


def test_weight_by_g_squared_modulus():
    m = measure(1, ([2], 1 + 1j))
    g = PolynomialWeight(1, {(1,): 1})
    out = weight_by_g(m, g)
    assert out.atoms[0].weight == pytest.approx(4 * (1 + 1j))


def test_weight_by_g_dimension_mismatch():
    with pytest.raises(ValueError):
        weight_by_g(measure(1, ([1], 1)), PolynomialWeight.constant(2))


def test_polynomial_evaluation():
    g = PolynomialWeight(2, {(0, 0): 1, (2, 1): 2j})
    assert g.evaluate((1 + 1j, 3)) == 1 + 2j * (1 + 1j) ** 2 * 3
    assert g.degree == 3


# -- rotation -------------------------------------------------------------------

def test_rotate_identity():
    m = measure(2, ([1, 2j], 3))
    assert rotate_unitary(m, np.eye(2)) == m


def test_rotate_swap():
    m = measure(2, ([1 + 1j, 2], 3))
    swapped = rotate_unitary(m, np.array([[0, 1], [1, 0]]))
    assert swapped.atoms[0].location.coords == (2, 1 + 1j)


def test_rotate_phase():
    m = measure(1, ([1], 5))
    out = rotate_unitary(m, np.array([[np.exp(1j * np.pi / 2)]]))
    assert out.atoms[0].location.coords[0] == pytest.approx(1j)
    assert out.atoms[0].weight == 5


def test_rotate_rejects_non_unitary():
    m = measure(2, ([1, 2], 3))
    with pytest.raises(UnitarityError) as exc_info:
        rotate_unitary(m, np.array([[1.0, 0.1], [0.0, 1.0]]))
    assert exc_info.value.deviation > 1e-12


# -- seeded generators -----------------------------------------------------------

def test_random_unitary_is_unitary():
    for d, seed in [(1, 0), (2, 5), (3, 17)]:
        u = random_unitary(d, seed)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d), ord="fro") <= 1e-12


def test_random_unitary_dimension_one_is_phase():
    u = random_unitary(1, 9)
    assert abs(abs(u[0, 0]) - 1) <= 1e-14


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(3, 123), random_unitary(3, 123))


def test_perturb_weight_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        perturb_weight(0, 0.0, 2)
    with pytest.raises(ValueError):
        perturb_weight(0, 1.0, 2)


def test_perturb_weight_near_one_at_origin():
    for seed in range(5):
        g = perturb_weight(seed, 0.05, 2)
        assert abs(g.evaluate((0, 0)) - 1) <= 0.05 + 1e-15


def test_perturb_weight_deterministic_termwise():
    a = perturb_weight(7, 0.3, 3)
    b = perturb_weight(7, 0.3, 3)
    assert a.terms == b.terms


@pytest.mark.parametrize("far, near, expected", [
    ((1e200,), (0j,), 1e200),
    ((3e200j,), (-1e200j,), 4e200),
    ((3e200, 4e200j), (0j, 0j), 5e200),
    ((1e200 + 1e200j, -2e200), (1e200, 2e200), 1e200 * 17 ** 0.5),
])
def test_distance_between_points_past_1e154_is_finite(far, near, expected):
    # the squared distance overflows a float; the distance does not
    p, q = ComplexPoint(far), ComplexPoint(near)
    assert p.distance(q) == q.distance(p) == pytest.approx(expected, rel=1e-15)


def test_random_linear_polynomial_coefficients_bounded():
    g = random_linear_polynomial(3, 21)
    assert g.degree == 1
    assert all(abs(c) <= 1 + 1e-15 for c in g.terms.values())


def test_random_linear_polynomial_is_shared_and_read_only():
    g = random_linear_polynomial(2, 0)
    assert random_linear_polynomial(2, 0) is g
    with pytest.raises(TypeError):
        g.terms[(0, 0)] = 1
    with pytest.raises(TypeError):
        PolynomialWeight(1, {(1,): 2}).terms[(0,)] = 1


def test_generate_measure_contract():
    m = generate_measure(2, 5, seed=3, separation=0.3)
    locs = [a.location for a in m.atoms]
    assert len(locs) == 5
    for i, p in enumerate(locs):
        assert p.norm() <= 2 + 1e-12
        for q in locs[i + 1:]:
            assert p.distance(q) >= 0.3
    for a in m.atoms:
        assert 0.5 <= abs(a.weight) <= 2.0


def test_generate_measure_deterministic():
    assert generate_measure(3, 4, seed=11) == generate_measure(3, 4, seed=11)


@pytest.mark.parametrize(
    "dimension, separation, message",
    [(0, 0.1, "dimension must be >= 1"), (-1, 0.1, "dimension must be >= 1"),
     (1, float("nan"), "separation must be finite and positive"),
     (1, float("inf"), "separation must be finite and positive"),
     (1, 0.0, "separation must be finite and positive")],
)
def test_generate_measure_rejects_bad_arguments_before_drawing(dimension, separation, message):
    with pytest.raises(ValueError, match=message):
        generate_measure(dimension, 2, seed=0, separation=separation)


@pytest.mark.parametrize("terms", [{}, {(1,): 0, (0,): 0j}])
def test_polynomial_density_needs_a_nonzero_term(terms):
    with pytest.raises(ValueError, match="needs a nonzero term"):
        DensitySpec("polynomial", PolynomialWeight(1, terms))


def test_generate_measure_infeasible_separation():
    # every location lies in a disk of diameter 4, so no second atom fits
    with pytest.raises(RuntimeError, match="could not place 2 atoms"):
        generate_measure(1, 2, seed=0, separation=5.0)


# -- properties -------------------------------------------------------------------

finite_complex = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
nonzero_weight = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def measures(draw, min_dim=1, max_dim=3, max_atoms=4):
    d = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(0, max_atoms))
    atoms = tuple(
        Atom(
            ComplexPoint(tuple(draw(finite_complex) for _ in range(d))),
            draw(nonzero_weight),
        )
        for _ in range(n)
    )
    return DiscreteMeasure(d, atoms)


@settings(deadline=None, max_examples=60)
@given(measures(min_dim=2))
def test_pushforward_preserves_total_mass(m):
    nu = pushforward_drop_coord(m, 0)
    scale = 1 + sum(abs(a.weight) for a in m.atoms)
    assert abs(nu.total_mass() - m.total_mass()) <= 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(measures(), st.integers(0, 2**32 - 1))
def test_rotation_preserves_weights_and_norms(m, seed):
    # distinct atoms separated below rounding resolution can collapse after
    # a float rotation; the invariant applies to resolvable configurations
    assume(
        all(
            a.location.distance(b.location) > 1e-9
            for i, a in enumerate(m.atoms)
            for b in m.atoms[i + 1:]
        )
    )
    u = random_unitary(m.dimension, seed)
    rotated = rotate_unitary(m, u)
    assert rotated.atom_count == m.atom_count
    assert sorted(
        (a.weight.real, a.weight.imag) for a in rotated.atoms
    ) == sorted((a.weight.real, a.weight.imag) for a in m.atoms)
    before = sorted(a.location.norm() for a in m.atoms)
    after = sorted(a.location.norm() for a in rotated.atoms)
    assert np.allclose(before, after, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(measures(), st.integers(0, 2**32 - 1))
def test_weight_by_g_never_increases_atom_count(m, seed):
    g = perturb_weight(seed, 0.05, m.dimension)
    out = weight_by_g(m, g)
    assert out.atom_count <= m.atom_count
    if all(g.evaluate(a.location) != 0 for a in m.atoms):
        assert out.atom_count == m.atom_count
