import math

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
    MultiIndex,
    NumericalError,
    Polydisk,
    PolynomialWeight,
    QuadratureError,
    galerkin_matrix,
    generate_measure,
    leading_truncation,
    moment_entry,
    moment_matrix,
    numerical_rank,
    pushforward_drop_coord,
    random_linear_polynomial,
    random_unitary,
    recover_atoms,
    reweight_moments,
    rotate_moments,
    rotate_unitary,
    submatrix_drop_coord,
    submatrix_drop_first,
    verify_theorem,
    weight_by_g,
)
from momentrank import moments
from momentrank.operators import enclosing_kernel
from momentrank.serialize import any_measure_from_dict


def atom(coords, weight):
    return Atom(ComplexPoint(tuple(coords)), weight)


def measure(d, *pairs):
    return DiscreteMeasure(d, tuple(atom(c, w) for c, w in pairs))


def uniform_disk(radius=1.0, d=1):
    return DensityMeasure(
        d,
        Polydisk(ComplexPoint((0j,) * d), (radius,) * d),
        DensitySpec("uniform"),
    )


def disk_moment_oracle(j, k, radius=1.0):
    """Closed-form disk moment from polar coordinates.

    integral over |z| < r of z^j conj(z)^k dm splits into a radial power and
    the angular integral of e^{i (j - k) theta}, which vanishes off-diagonal:
    delta_jk * 2 pi * r^(2j+2) / (2j + 2).
    """
    if j != k:
        return 0.0
    return math.pi * radius ** (2 * j + 2) / (j + 1)


# -- multi-index basis ----------------------------------------------------------

def test_basis_size_is_binomial():
    for d in (1, 2, 3):
        for deg in (0, 1, 3, 5):
            assert IndexBasis(d, deg).size == math.comb(deg + d, d)


def test_basis_grlex_order_explicit():
    basis = IndexBasis(2, 2)
    assert basis.entries_array().tolist() == [
        [0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0],
    ]
    assert basis.offsets.tolist() == [0, 1, 3, 6]


def test_basis_strictly_increasing():
    basis = IndexBasis(3, 4)
    keys = [(sum(e), tuple(e)) for e in basis.entries_array().tolist()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_basis_nesting_prefix():
    small = IndexBasis(3, 3)
    large = IndexBasis(3, 4)
    assert np.array_equal(large.entries_array()[: small.size], small.entries_array())


def test_no_multi_index_objects_in_production(monkeypatch):
    # the basis is integer arrays only; MultiIndex is moment_entry's argument type
    built = []
    original = MultiIndex.__post_init__
    monkeypatch.setattr(MultiIndex, "__post_init__", lambda mi: built.append(original(mi)))
    moments._basis_tables.cache_clear()
    m = generate_measure(3, 4, seed=3, separation=0.2)
    assert recover_atoms(moment_matrix(m, 8)).detected_rank == 4
    assert verify_theorem(m, list(range(1, 9))).passed
    assert verify_theorem(uniform_disk(d=3), list(range(1, 9))).passed
    assert built == []


def test_multi_index_degree_consistency():
    mi = MultiIndex((2, 0, 3))
    assert mi.degree == 5
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))


# -- moment entries ----------------------------------------------------------------

def test_moment_entry_atom_at_origin():
    m = measure(1, ([0], 1))
    assert moment_entry(m, MultiIndex((0,)), MultiIndex((0,))) == 1
    assert moment_entry(m, MultiIndex((2,)), MultiIndex((0,))) == 0
    assert moment_entry(m, MultiIndex((1,)), MultiIndex((3,))) == 0


def test_moment_entry_single_atom_formula():
    z, w = 1.5 - 0.5j, 2j
    m = measure(2, ([z, w], 3 + 1j))
    alpha, beta = MultiIndex((2, 1)), MultiIndex((0, 3))
    expected = (3 + 1j) * z**2 * w * np.conj(w) ** 3
    assert moment_entry(m, alpha, beta) == pytest.approx(expected)


def test_moment_entry_plus_minus_one():
    m = measure(1, ([1], 1), ([-1], 1))
    for j in range(4):
        for k in range(4):
            assert moment_entry(m, MultiIndex((j,)), MultiIndex((k,))) == pytest.approx(
                1 + (-1) ** (j + k)
            )


def test_moment_entry_dimension_mismatch():
    with pytest.raises(ValueError):
        moment_entry(measure(1, ([1], 1)), MultiIndex((0, 0)), MultiIndex((0, 0)))


# -- matrix assembly -----------------------------------------------------------------

def test_empty_measure_gives_zero_matrix():
    a = moment_matrix(DiscreteMeasure(2, ()), 3)
    assert not np.any(a.entries)


def test_matrix_agrees_with_entrywise_sums():
    m = generate_measure(2, 3, seed=5)
    a = moment_matrix(m, 3)
    indices = [MultiIndex(e) for e in a.basis.entries_array().tolist()]
    for i, alpha in enumerate(indices):
        for j, beta in enumerate(indices):
            assert a.entries[i, j] == pytest.approx(
                moment_entry(m, alpha, beta), rel=1e-13, abs=1e-13
            )


def test_single_atom_outer_product_structure():
    z, lam = 0.7 + 0.2j, 2 - 1j
    a = moment_matrix(measure(1, ([z], lam)), 4)
    v = np.array([z**j for j in range(5)])
    assert np.allclose(a.entries, lam * np.outer(v, v.conj()), atol=1e-14)
    assert numerical_rank(a).rank == 1


def test_hermitian_exact_for_real_weights():
    m = generate_measure(2, 4, seed=9)
    real = DiscreteMeasure(
        2, tuple(Atom(a.location, abs(a.weight)) for a in m.atoms)
    )
    a = moment_matrix(real, 4)
    assert np.array_equal(a.entries, a.entries.conj().T)


@pytest.mark.parametrize("n, step", [(1, 4096), (10, 409), (64, 64), (128, 32), (220, 32),
                                     (2024, 32)])
def test_row_blocks_are_about_64_kb_and_at_least_32_rows(n, step):
    blocks = moments._row_blocks(n)
    assert [(b.start, b.stop) for b in blocks] == [(i, i + step) for i in range(0, n, step)]


def test_gram_symmetrized_in_row_blocks_holds_the_bits_of_the_whole_formula():
    # basis 220, seven row blocks: the reference forms (E + E^H) / 2 in full
    m = generate_measure(3, 8, seed=3, separation=0.2)
    weights = np.abs(m.weights_vector())
    table = moments.monomial_table(m.locations_matrix(), IndexBasis(3, 9))
    whole = (table * weights[:, np.newaxis]).T @ table.conj()
    whole += whole.conj().T
    whole *= 0.5
    assert moments._gram(table, weights).tobytes() == whole.tobytes()


def test_sketch_residual_in_row_blocks_is_the_norm_of_the_whole_gap():
    a = moment_matrix(generate_measure(3, 8, seed=3, separation=0.2), 9)
    sketch = moments._range_sketch(a.entries, 1e-8)
    whole = float(np.linalg.norm(sketch.q @ sketch.b - a.entries))
    assert 0 < sketch.residual == pytest.approx(whole, rel=1e-12)


# -- density quadrature ----------------------------------------------------------------

def test_uniform_unit_disk_diagonal_closed_form():
    a = moment_matrix(uniform_disk(), 6)
    expected = np.diag([disk_moment_oracle(j, j) for j in range(7)])
    assert np.max(np.abs(a.entries - expected)) <= 1e-10
    assert numerical_rank(a).rank == 7


def test_uniform_disk_radius_scaling():
    a = moment_matrix(uniform_disk(radius=1.5), 3)
    for j in range(4):
        assert a.entries[j, j] == pytest.approx(disk_moment_oracle(j, j, 1.5), rel=1e-12)


def test_uniform_polydisk_tensor_structure():
    a = moment_matrix(uniform_disk(d=2), 3)
    exps = a.basis.entries_array()
    for i, alpha in enumerate(exps):
        for j, beta in enumerate(exps):
            expected = disk_moment_oracle(alpha[0], beta[0]) * (
                disk_moment_oracle(alpha[1], beta[1])
            )
            assert abs(a.entries[i, j] - expected) <= 1e-10


def test_gaussian_density_against_quadrature_oracle():
    from scipy.integrate import quad

    radius = 2.0
    a = moment_matrix(
        DensityMeasure(
            1,
            Polydisk(ComplexPoint((0j,)), (radius,)),
            DensitySpec("gaussian"),
        ),
        4,
    )
    for j in range(5):
        # radial integrand of |z|^(2j) against the Gaussian weight on the disk
        integrand = lambda r: r ** (2 * j + 1) * math.exp(-(r**2) / 2)
        expected, _ = quad(integrand, 0.0, radius, epsabs=1e-14, epsrel=1e-13)
        assert a.entries[j, j] == pytest.approx(expected, rel=1e-10)
    off = a.entries - np.diag(np.diagonal(a.entries))
    assert np.max(np.abs(off)) <= 1e-12
    assert np.max(np.abs(a.entries - a.entries.conj().T)) <= 1e-14


def test_gaussian_bidisk_mass_closed_form():
    # per coordinate, integral over |z| < r of exp(-|z|^2 / 2) / (2 pi) dm
    # is 1 - exp(-r^2 / 2)
    radii = (0.8, 1.5)
    a = moment_matrix(
        DensityMeasure(2, Polydisk(ComplexPoint((0j, 0j)), radii), DensitySpec("gaussian")),
        4,
    )
    expected = math.prod(1 - math.exp(-r * r / 2) for r in radii)
    assert a.entries[0, 0] == pytest.approx(expected, rel=1e-12)
    assert np.array_equal(a.entries, a.entries.conj().T)


def test_offcenter_gaussian_disk_against_polar_oracle():
    from scipy.integrate import dblquad

    center, radius = 0.4 - 0.3j, 1.2
    a = moment_matrix(
        DensityMeasure(1, Polydisk(ComplexPoint((center,)), (radius,)), DensitySpec("gaussian")),
        2,
    )
    assert np.array_equal(a.entries, a.entries.conj().T)

    def integrand(theta, s, j, k, part):
        # polar coordinates around the centre, z = c + s e^{i theta}
        z = center + s * np.exp(1j * theta)
        return part(z**j * np.conj(z) ** k * np.exp(-abs(z) ** 2 / 2) / (2 * np.pi) * s)

    for j in range(3):
        for k in range(3):
            re, im = (
                dblquad(integrand, 0.0, radius, 0.0, 2 * np.pi, args=(j, k, part),
                        epsabs=1e-13, epsrel=1e-12)[0]
                for part in (np.real, np.imag)
            )
            assert abs(a.entries[j, k] - complex(re, im)) <= 1e-10 * abs(a.entries[0, 0])


def test_linear_polynomial_density_on_bidisk_shifts_uniform_moments():
    # rho = 1 + c1 z1 + c2 z2: a_ab = u_ab + c1 u_{a+e1,b} + c2 u_{a+e2,b}
    c1, c2 = 0.25 - 0.1j, -0.15j
    domain = Polydisk(ComplexPoint((0.2 + 0.1j, -0.3j)), (0.9, 1.1))
    g = PolynomialWeight(2, {(0, 0): 1.0, (1, 0): c1, (0, 1): c2})
    degree = 4
    a = moment_matrix(DensityMeasure(2, domain, DensitySpec("polynomial", g)), degree)
    u = moment_matrix(DensityMeasure(2, domain, DensitySpec("uniform")), degree + 1)
    n = a.basis.size
    up = u.basis.shifts[0][:n]
    expected = (
        u.entries[:n, :n] + c1 * u.entries[up[:, 0], :n] + c2 * u.entries[up[:, 1], :n]
    )
    assert np.max(np.abs(a.entries - expected)) <= 1e-12 * np.max(np.abs(u.entries))


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_quadrature_overflow_raises(kind):
    # the moments of a radius-1e200 disk overflow, so the uniform table
    # raises; the Gaussian's table, taken about the origin, is the whole
    # plane's, t[p, q] = 2^p p! [p = q].  A warning on the way would fail
    # the test
    dens = DensityMeasure(1, Polydisk(ComplexPoint((0j,)), (1e200,)), DensitySpec(kind))
    if kind == "gaussian":
        a = moment_matrix(dens, 2)
        assert np.max(np.abs(a.entries - np.diag([1.0, 2.0, 8.0]))) <= 1e-10 * 8
        return
    with pytest.raises(QuadratureError, match="^disk moments overflow") as caught:
        moment_matrix(dens, 2)
    assert caught.value.estimates is None


@pytest.mark.parametrize("center, radius", [(1e200, 1.0), (1e150j, 1e150)])
def test_disk_table_of_an_overflowing_centre_raises(center, radius):
    with pytest.raises(QuadratureError, match="^disk moments overflow"):
        moments._disk_table(center, radius, 3, 2)


def _density_moments_by_whole_terms(m, basis):
    """The n x n form of the density assembly: one whole term per gamma,
    each factor a 2-D gather from the disk tables; the reference that the
    row-blocked assembly must match bit for bit."""
    exps = basis.entries_array()
    g = m.density.polynomial
    if g is None:
        g = PolynomialWeight.constant(m.dimension)
    D = basis.max_degree
    tables = [moments._gaussian_disk_table(c, r, D) if m.density.kind == "gaussian"
              else moments._disk_table(c, r, D + g.degree, D)
              for c, r in zip(m.domain.center.coords, m.domain.radii)]
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for gamma, coeff in g.terms.items():
        term = np.ones((basis.size, basis.size), dtype=complex)
        for j, table in enumerate(tables):
            term *= table[exps[:, j, np.newaxis] + gamma[j], exps[np.newaxis, :, j]]
        out += coeff * term
    return out


def test_density_assembly_in_row_blocks_keeps_every_bit(verify_inputs):
    # the 18 densities of the verify benchmark at its degree 8 (basis 165 at
    # d = 3, six row blocks)
    densities = 0
    for name, payload in verify_inputs(0):
        m = any_measure_from_dict(payload)
        if isinstance(m, DensityMeasure):
            basis = IndexBasis(m.dimension, 8)
            expected = _density_moments_by_whole_terms(m, basis)
            assert moments._density_moment_matrix(m, basis).tobytes() == expected.tobytes(), name
            densities += 1
    assert densities == 18


def test_polynomial_density_shifts_uniform_moments():
    # rho(z) = 2 z over the unit disk: a_{jk} = 2 * uniform_{j+1, k}
    g = PolynomialWeight(1, {(1,): 2.0})
    a = moment_matrix(
        DensityMeasure(
            1,
            Polydisk(ComplexPoint((0j,)), (1.0,)),
            DensitySpec("polynomial", g),
        ),
        3,
    )
    for j in range(4):
        for k in range(4):
            expected = 2.0 * disk_moment_oracle(j + 1, k) if j + 1 == k else 0.0
            assert abs(a.entries[j, k] - expected) <= 1e-10


def test_offcenter_uniform_disk_mass():
    dens = DensityMeasure(
        1,
        Polydisk(ComplexPoint((1 + 1j,)), (0.5,)),
        DensitySpec("uniform"),
    )
    a = moment_matrix(dens, 2)
    assert a.entries[0, 0] == pytest.approx(math.pi * 0.25, rel=1e-12)
    # first holomorphic moment of a translated disk is center * mass
    assert a.entries[1, 0] == pytest.approx((1 + 1j) * math.pi * 0.25, rel=1e-12)


# -- submatrix and truncation -------------------------------------------------------------

def test_submatrix_single_atom():
    m = measure(2, ([1 + 1j, 2 - 1j], 3))
    sub = submatrix_drop_first(moment_matrix(m, 3))
    direct = moment_matrix(measure(1, ([2 - 1j], 3)), 3)
    assert np.allclose(sub.entries, direct.entries, atol=1e-12)


def test_submatrix_matches_pushforward():
    for seed in (1, 2, 3):
        for d in (2, 3):
            m = generate_measure(d, 4, seed=seed)
            a = moment_matrix(m, 4)
            sub = submatrix_drop_first(a)
            push = moment_matrix(pushforward_drop_coord(m, 0), 4)
            assert np.max(np.abs(sub.entries - push.entries)) <= 1e-12


def test_submatrix_of_reweighted_measure_is_pushforward_of_reweighted():
    # nu_g consistency: project after reweighting, both at measure and
    # matrix level
    m = generate_measure(2, 4, seed=6)
    g = PolynomialWeight(2, {(0, 0): 1, (1, 0): 0.5})
    mg = weight_by_g(m, g)
    sub = submatrix_drop_first(moment_matrix(mg, 4))
    push = moment_matrix(pushforward_drop_coord(mg, 0), 4)
    assert np.max(np.abs(sub.entries - push.entries)) <= 1e-12


def test_submatrix_zero_matrix():
    a = moment_matrix(DiscreteMeasure(2, ()), 3)
    assert not np.any(submatrix_drop_first(a).entries)


def test_submatrix_rejects_dimension_one():
    with pytest.raises(ValueError):
        submatrix_drop_first(moment_matrix(measure(1, ([1], 1)), 2))


def test_submatrix_last_axis():
    m = measure(2, ([1 + 1j, 2 - 1j], 3))
    sub = submatrix_drop_coord(moment_matrix(m, 3), 1)
    direct = moment_matrix(measure(1, ([1 + 1j], 3)), 3)
    assert np.allclose(sub.entries, direct.entries, atol=1e-12)


def test_leading_truncation_nested():
    m = generate_measure(2, 3, seed=4)
    a5 = moment_matrix(m, 5)
    a3 = leading_truncation(a5, 3)
    direct = moment_matrix(m, 3).entries
    scale = np.max(np.abs(direct)) + 1
    assert np.max(np.abs(a3.entries - direct)) <= 1e-13 * scale
    # density quadrature refines per degree, so truncations agree to its tolerance
    for d in (1, 2, 3):
        for kind in ("uniform", "gaussian", "polynomial"):
            for center in (0j, 0.3 - 0.2j):
                g = None
                if kind == "polynomial":
                    terms = {(0,) * d: 1.0}
                    for j in range(d):
                        terms[tuple(int(i == j) for i in range(d))] = 0.2 * (1j) ** j
                    g = PolynomialWeight(d, terms)
                dens = DensityMeasure(
                    d,
                    Polydisk(ComplexPoint((center,) * d), tuple(0.9 + 0.1 * j for j in range(d))),
                    DensitySpec(kind, g),
                )
                top = moment_matrix(dens, 8)
                for degree in range(8):
                    trunc = leading_truncation(top, degree)
                    direct = moment_matrix(dens, degree)
                    assert numerical_rank(trunc).rank == numerical_rank(direct).rank
                    gap = np.max(np.abs(trunc.entries - direct.entries))
                    assert gap <= 1e-10 * np.max(np.abs(direct.entries))


# -- numerical rank ----------------------------------------------------------------------

def test_rank_zero_matrix():
    result = numerical_rank(moment_matrix(DiscreteMeasure(1, ()), 3))
    assert result.rank == 0
    assert not result.ill_conditioned


def test_rank_equals_atom_count_with_vandermonde_oracle():
    for seed, n, d in [(1, 2, 1), (2, 3, 2), (3, 5, 2), (4, 4, 3)]:
        m = generate_measure(d, n, seed=seed)
        a = moment_matrix(m, n + 1)
        assert numerical_rank(a).rank == n
        # independent oracle: the factorization through the monomial matrix
        from momentrank.moments import monomial_table

        v = monomial_table(m.locations_matrix(), a.basis)
        assert np.linalg.matrix_rank(v) == n


def test_rank_saturates_at_minimal_degree():
    # D = N - 1 already exposes the full rank; the sigma_N margin over the
    # 1e-8 threshold gets thin there (observed down to ~1.03e-8 across a
    # 300-seed sweep), hence the fixed seeds
    for i in range(30):
        d = [1, 2, 3][i % 3]
        n = 1 + (i % 8)
        m = generate_measure(d, n, seed=7000 + i, separation=0.1)
        assert numerical_rank(moment_matrix(m, max(n - 1, 0))).rank == n


def test_rank_uniform_disk_full():
    a = moment_matrix(uniform_disk(), 6)
    assert numerical_rank(a).rank == 7


def test_rank_sorted_singular_values():
    a = moment_matrix(generate_measure(1, 3, seed=8), 4)
    sv = numerical_rank(a).singular_values
    assert np.all(np.diff(sv) <= 0)


def test_rank_rejects_bad_tolerance():
    a = moment_matrix(measure(1, ([1], 1)), 2)
    with pytest.raises(ValueError):
        numerical_rank(a, 0.0)
    with pytest.raises(ValueError):
        numerical_rank(a, 1.0)


def test_rank_ill_conditioned_flag():
    entries = np.diag([1.0, 2e-13, 0.0])
    result = numerical_rank(MomentMatrix(IndexBasis(1, 2), entries), rel_tol=1e-14)
    assert result.rank == 2
    assert result.ill_conditioned


@pytest.mark.parametrize("entries, expected", [
    (np.zeros((0, 0)), 0),
    (np.zeros((3, 0)), 0),
    (np.arange(10).reshape(2, 5) + 1j, 2),
    (np.ones(3), (NumericalError, "^SVD failed: ")),
    (np.ones((2, 3, 3)), (ValueError, r"^expected a matrix, got an array of shape \(2, 3, 3\)")),
])
def test_rank_of_empty_rectangular_and_other_shapes(entries, expected):
    # empty matrices have rank 0 and no values, a 2 x 5 matrix two values;
    # a 1-D array is no matrix to LAPACK, and a stack of matrices is refused
    if isinstance(expected, tuple):
        with pytest.raises(expected[0], match=expected[1]):
            numerical_rank(entries)
        return
    result = numerical_rank(entries)
    assert result.rank == expected and not result.ill_conditioned
    assert len(result.singular_values) == min(entries.shape)


def test_zero_size_matrices_rank_0_alone_and_stacked():
    empty = np.zeros((0, 0), dtype=complex)
    found = moments._dense_ranks([empty], 1e-8) + moments._dense_ranks([empty, empty], 1e-8)
    found += moments._BlockRanker(empty, 1e-8).ranks([(0, None)])
    assert [(r.rank, r.singular_values.size, r.ill_conditioned) for r in found] == [
        (0, 0, False)
    ] * 4


# -- moment-level transformations -----------------------------------------------------------

def test_reweight_moments_matches_measure_level():
    m = generate_measure(2, 3, seed=12)
    g = PolynomialWeight(2, {(0, 0): 1, (1, 0): 0.3j, (0, 1): -0.2})
    a = moment_matrix(m, 5)
    via_matrix = reweight_moments(a, g)
    via_measure = moment_matrix(weight_by_g(m, g), 4)
    assert np.max(np.abs(via_matrix.entries - via_measure.entries)) <= 1e-12


def test_reweight_requires_headroom():
    a = moment_matrix(measure(1, ([1], 1)), 0)
    with pytest.raises(ValueError, match="headroom"):
        reweight_moments(a, PolynomialWeight(1, {(1,): 1}))


def test_rotate_moments_matches_measure_level():
    for d, seed in [(2, 3), (3, 4)]:
        m = generate_measure(d, 3, seed=seed)
        u = random_unitary(d, seed + 100)
        a = moment_matrix(m, 4)
        via_matrix = rotate_moments(a, u)
        via_measure = moment_matrix(rotate_unitary(m, u), 4)
        scale = np.max(np.abs(via_measure.entries)) + 1
        assert np.max(np.abs(via_matrix.entries - via_measure.entries)) <= 1e-12 * scale


# -- rank properties ---------------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000))
def test_rank_bounded_by_atom_count(d, n, seed):
    m = generate_measure(d, n, seed=seed)
    for degree in (max(0, n - 2), n + 1):
        assert numerical_rank(moment_matrix(m, degree)).rank <= n


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 10_000))
def test_rank_monotone_in_degree(d, n, seed):
    m = generate_measure(d, n, seed=seed)
    a = moment_matrix(m, n + 1)
    ranks = [
        numerical_rank(leading_truncation(a, deg)).rank for deg in range(n + 2)
    ]
    assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 10_000), st.integers(0, 10_000))
def test_reweighting_never_increases_rank(d, n, seed, gseed):
    from momentrank import random_linear_polynomial

    m = generate_measure(d, n, seed=seed)
    g = random_linear_polynomial(d, gseed)
    a_rank = numerical_rank(moment_matrix(m, n + 1)).rank
    g_rank = numerical_rank(moment_matrix(weight_by_g(m, g), n + 1)).rank
    assert g_rank <= a_rank


def offcenter_disk_moment(p, q, center, radius):
    """Closed form of the integral of z^p conj(z)^q over |z - c| < r: expand
    z = c + w binomially; only the w^i conj(w)^i terms survive the angle."""
    return sum(
        math.comb(p, i) * math.comb(q, i) * center ** (p - i)
        * center.conjugate() ** (q - i) * math.pi * radius ** (2 * i + 2) / (i + 1)
        for i in range(min(p, q) + 1)
    )


def test_uniform_disk_table_is_exact_on_the_first_level():
    center, radius = 0.4 - 0.3j, 0.9
    table = moments._disk_table(center, radius, 10, 10)
    expected = np.array(
        [[offcenter_disk_moment(p, q, center, radius) for q in range(11)] for p in range(11)]
    )
    assert np.max(np.abs(table - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("center, radius", [(1e-3, 1.0), (0.4 - 0.3j, 0.9), (0.05j, 3.0)])
def test_disk_table_holds_every_entry_to_its_own_digits(center, radius):
    # every term of an entry has the phase e^{i (p - q) arg c}, so no digits
    # cancel and each entry is accurate relative to itself, down to
    # t[8, 0] = pi 1e-24 at c = 1e-3, 1e-7 of the largest entry's rounding
    center = complex(center)
    table = moments._disk_table(center, radius, 9, 8)
    expected = np.array([[offcenter_disk_moment(p, q, center, radius) for q in range(9)]
                         for p in range(10)])
    assert np.all(np.abs(table - expected) <= 1e-14 * np.abs(expected))


def test_centred_disk_table_is_exactly_diagonal():
    table = moments._disk_table(0j, 2.0, 9, 8)
    assert np.array_equal(table[:9], np.diag(table.diagonal()))
    assert not np.any(table[9])


@pytest.mark.parametrize("center, radius", [(0.3 - 0.2j, 0.9), (-2 + 1.5j, 1.0), (4j, 6.0)])
def test_disk_table_is_hermitian_bit_for_bit(center, radius):
    table = moments._disk_table(center, radius, 9, 8)[:9]
    assert np.array_equal(table, table.conj().T)
    assert np.all(table.diagonal().imag == 0)


@pytest.mark.parametrize(
    "spec, exact",
    [
        (DensitySpec("uniform"), True),
        (DensitySpec("polynomial", PolynomialWeight(2, {(0, 0): 1.0, (1, 0): 0.2j})), True),
        (DensitySpec("gaussian"), False),
    ],
)
def test_only_the_gaussian_refines(monkeypatch, spec, exact):
    # a polynomial integrand's tables are in closed form, with no rule; the
    # Gaussian's tables take no Gram product, and its radial rule needs at
    # least one refinement per disk to confirm convergence
    calls = _gram_node_counts(monkeypatch)
    rules = _gauss_legendre_sizes(monkeypatch)
    domain = Polydisk(ComplexPoint((0.3 + 0.1j, -0.2j)), (1.0, 0.8))
    moment_matrix(DensityMeasure(2, domain, spec), 4)
    if exact:
        assert rules == []
    else:
        assert calls == [] and len(rules) >= 4


def _gram_node_counts(monkeypatch) -> list[int]:
    """Installs a spy on `moments._gram` and returns the list it appends
    each call's node count to."""
    calls = []
    gram = moments._gram

    def counting(table, weights):
        calls.append(len(table))
        return gram(table, weights)

    monkeypatch.setattr(moments, "_gram", counting)
    return calls


def _gauss_legendre_sizes(monkeypatch) -> list[int]:
    """Installs a spy on `moments._gauss_legendre` and returns the list it
    appends each rule's node count to."""
    sizes = []
    gauss_legendre = moments._gauss_legendre

    def counting(n):
        sizes.append(n)
        return gauss_legendre(n)

    monkeypatch.setattr(moments, "_gauss_legendre", counting)
    return sizes


@pytest.mark.parametrize("q_max", [0, 1, 8])
def test_polynomial_disk_table_is_one_level_of_the_fewest_exact_nodes(q_max):
    # the table one row longer that a degree-1 polynomial density reads
    center, radius, p_max = 0.4 - 0.3j, 0.9, q_max + 1
    table = moments._disk_table(center, radius, p_max, q_max)
    expected = np.array([[offcenter_disk_moment(p, q, center, radius) for q in range(q_max + 1)]
                         for p in range(p_max + 1)])
    assert np.max(np.abs(table - expected)) <= 1e-13 * np.max(np.abs(expected))

    # through the assembly: entry (alpha, beta) of the density with
    # g = 1 + 0.2j z_1 is the product of the two disks' moments of
    # z^(alpha + gamma) conj(z)^beta, summed over g's terms
    domain = Polydisk(ComplexPoint((0.3 + 0.1j, -0.2j)), (1.0, 0.8))
    g = PolynomialWeight(2, {(0, 0): 1.0, (1, 0): 0.2j})
    a = moment_matrix(DensityMeasure(2, domain, DensitySpec("polynomial", g)), q_max)
    exps = a.basis.entries_array().tolist()
    expected = np.array([[sum(
        coeff * math.prod(offcenter_disk_moment(x + k, y, c, r) for x, y, k, c, r in
                          zip(alpha, beta, gamma, domain.center.coords, domain.radii))
        for gamma, coeff in g.terms.items()) for beta in exps] for alpha in exps])
    assert np.max(np.abs(a.entries - expected)) <= 1e-13 * np.max(np.abs(expected))


def _gaussian_disk_oracle(center, radius, degree):
    """scipy's adaptive quadrature of t[p, q], p, q <= degree, of the
    Gaussian factor over |z - c| < r, in polar coordinates about c."""
    from scipy.integrate import dblquad

    def integrand(theta, s, p, q, part):
        z = center + s * np.exp(1j * theta)
        return part(z**p * np.conj(z) ** q * np.exp(-abs(z) ** 2 / 2) / (2 * np.pi) * s)

    return np.array([[complex(*(
        dblquad(integrand, 0.0, radius, 0.0, 2 * np.pi, args=(p, q, part),
                epsabs=1e-14, epsrel=1e-13)[0]
        for part in (np.real, np.imag)))
        for q in range(degree + 1)] for p in range(degree + 1)])


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize(
    "center, radius",
    [
        (0.2 + 0.1j, 0.4),  # the origin inside: whole circles and arcs
        (0j, 3.0),  # centred: whole circles only
        (-3 + 0.5j, 2.5),  # the origin outside: arcs only
        # the boundary within 1e-9 of the origin, on either side of it
        (1 + 0j, 1 + 1e-9),
        (2 + 1j, abs(2 + 1j) - 1e-9),
    ],
)
def test_gaussian_disk_table_against_adaptive_quadrature(monkeypatch, degree, center, radius):
    rules = _gauss_legendre_sizes(monkeypatch)
    table = moments._gaussian_disk_table(center, radius, degree)
    assert len(rules) >= 2
    expected = _gaussian_disk_oracle(center, radius, degree)
    assert np.max(np.abs(table - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "center, radius, degree",
    [
        (5 + 5j, 20.0, 2),
        (0j, 40.0, 0),
        (15.3 + 12.9j, 30.0, 1),
        (0j, 1500.0, 0),
        # radii far past the window, which are not integrated
        (0j, 1e5, 0),
        (0j, 1e7, 2),
        (2000 + 0j, 4000.0, 0),
        (0j, 2e4, 8),
    ],
)
def test_wide_gaussian_disks_give_the_whole_plane_moments(center, radius, degree):
    # each disk holds the disk of radius 9.9 about the origin, past which
    # the factor's moments up to |z|^(2 degree) are below 1e-12 of the
    # largest, so the table is the whole plane's: t[p, q] = 2^p p! [p = q]
    table = moments._gaussian_disk_table(center, radius, degree)
    expected = np.diag([2.0**p * math.factorial(p) for p in range(degree + 1)])
    assert np.max(np.abs(table - expected)) <= 1e-10 * np.max(expected)


@pytest.mark.parametrize("center", [1e200 + 0j, 1e200 * np.exp(2.2j), -1e300j])
def test_gaussian_disk_through_the_origin_gives_the_half_plane_moments(center):
    # c = r: the disk's boundary passes through the origin, and near the
    # origin a disk this large is the half-plane Re(z conj(c)) > 0, whose
    # moments are e^{ik arg c} 2^(n/2) Gamma(n/2 + 1) S_k(pi/2) / (2 pi) for
    # n = p + q, k = p - q, S_k(pi/2) = 2 sin(k pi/2) / k and S_0 = pi;
    # through moment_matrix, whose d = 1 matrix is the table itself
    dens = DensityMeasure(1, Polydisk(ComplexPoint((center,)), (abs(center),)),
                          DensitySpec("gaussian"))
    table = moment_matrix(dens, 8).entries
    p, q = np.indices(table.shape)
    n, k = p + q, p - q
    s_k = np.where(k == 0, np.pi, 2 * np.sin(k * np.pi / 2) / np.where(k == 0, 1, k))
    gamma = np.vectorize(math.gamma)(n / 2 + 1)
    expected = np.exp(1j * k * np.angle(center)) * 2.0 ** (n / 2) * gamma * s_k / (2 * np.pi)
    assert np.max(np.abs(table - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "center, radius", [(0.3 - 0.2j, 0.9), (-2 + 1.5j, 1.0), (4j, 6.0), (1 + 1j, abs(1 + 1j))]
)
def test_gaussian_disk_table_is_hermitian_bit_for_bit(center, radius):
    table = moments._gaussian_disk_table(center, radius, 8)
    assert np.array_equal(table, table.conj().T)
    assert np.all(table.diagonal().imag == 0)


def test_gaussian_disk_table_that_never_settles_raises_within_2048_nodes(monkeypatch):
    # with no tolerance no two levels agree, so the rule doubles 16, 32, ...
    # up to its cap and raises; leggauss solves a dense n x n eigenproblem,
    # so no rule past the cap may be asked for
    rules = _gauss_legendre_sizes(monkeypatch)
    monkeypatch.setattr(moments, "_QUAD_TOL", 0.0)
    with pytest.raises(QuadratureError) as caught:
        moments._gaussian_disk_table(0.5 + 0.5j, 2.0, 0)
    assert rules == [16 * 2**i for i in range(8)]
    assert max(rules) == 2048
    assert all(math.isfinite(e) for e in caught.value.estimates)


def test_gaussian_disk_table_at_the_cap_degree_is_a_table():
    # degree 504: the first rule, 2 * 504 + 16 = 1024 nodes, leaves room
    # for the second, 2048, within the cap
    table = moments._gaussian_disk_table(0.5, 1.0, 504)
    assert table.shape == (505, 505)
    assert np.all(np.isfinite(table))


@pytest.mark.parametrize("degree", [505, 1017])
def test_gaussian_disk_table_past_the_cap_degree_says_so(monkeypatch, degree):
    # from 505 no two rules fit within 2048 nodes, and from 1017 not even
    # one: the table raises before any Gauss-Legendre rule is formed
    solved = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: solved.append(n) or leggauss(n))
    with pytest.raises(QuadratureError, match=f"degree {degree} .* cap of degree 504") as caught:
        moments._gaussian_disk_table(0.5, 1.0, degree)
    assert caught.value.estimates is None
    assert solved == []


# -- certified sketched rank ---------------------------------------------------

def test_sketched_rank_matches_dense_svd(svd_spy, verify_inputs):
    # (label, entries, atomic): the README's d = 3, degree-9 matrix (basis
    # 220), whose values `momentrank rank` writes; the criterion-1 moment
    # matrix, both Galerkin kernels and the |g|^2-reweighted matrix of the
    # acceptance corpus; and the degree-1..8 truncations of the verify
    # benchmark's 36 files
    readme = moment_matrix(generate_measure(3, 8, seed=3, separation=0.2), 9).entries
    cases = [("README", readme, True)]
    for i in range(200):
        d, n = (1, 2, 3)[i % 3], 1 + i % 8
        m = generate_measure(d, n, seed=1000 + i, separation=0.1)
        cases.append((f"moments {1000 + i}", moment_matrix(m, n + 1).entries, True))
        for kind in ("bargmann", "bergman"):
            g = galerkin_matrix(enclosing_kernel(kind, m), m, n + 1)
            cases.append((f"{kind} {1000 + i}", g.entries, True))
        weighted = weight_by_g(m, random_linear_polynomial(d, 2000 + i))
        cases.append((f"reweighted {1000 + i}", moment_matrix(weighted, n + 1).entries, True))
    for name, payload in verify_inputs(0):
        m = any_measure_from_dict(payload)
        top = moment_matrix(m, 8)
        for degree in range(1, 9):
            entries = leading_truncation(top, degree).entries
            cases.append((f"{name} D={degree}", entries, isinstance(m, DiscreteMeasure)))

    svd = np.linalg.svd
    shapes = svd_spy()
    sketched = 0
    for label, entries, atomic in cases:
        sigma = svd(entries, compute_uv=False)
        expected = int(np.count_nonzero(sigma > 1e-8 * sigma[0]))
        shapes.clear()
        result = numerical_rank(entries, 1e-8)
        assert result.rank == expected, label
        assert len(result.singular_values) == len(entries), label
        lead = slice(0, expected)
        gap = np.max(np.abs(result.singular_values[lead] - sigma[lead]), initial=0.0)
        assert gap <= 1e-12 * sigma[0], label
        size = len(entries)
        if atomic and size >= 32 and expected < max(8, size // 8):
            # Y's rank falls short of the sketch's full width, so Q keeps the
            # rank's columns and one more; the values are B's, bit for bit
            assert shapes == [(expected + 1, size)], f"{label}: reached the dense SVD"
            b_values = svd(moments._range_sketch(entries, 1e-8).b, compute_uv=False)
            padded = np.concatenate([b_values, np.zeros(size - len(b_values))])
            assert result.singular_values.tobytes() == padded.tobytes(), label
            sketched += 1
        else:
            assert shapes == [(size, size)], label
    # the README matrix, four matrices of each of the 50 corpus measures
    # with d = 3, N >= 3 and the 16 with d = 2, N in {6, 7}, the 6 atomic
    # d = 2 files at degrees 7 and 8, and the 6 atomic d = 3 files at degrees
    # 4 to 8; d = 2, N = 8 (size 55, rank 8) fills the sketch's 8 columns and
    # goes dense
    assert sketched == 1 + 4 * (50 + 16) + 6 * 2 + 6 * 5


def test_corpus_ranks_are_the_dense_ones_under_counts_included():
    # the 200 criterion-1 matrices the `corpus` benchmark ranks (seed
    # 1000 + i at degree N + 1) have rank N, and the five d = 1 measures of
    # other bases whose sigma_N / sigma_1 lies below 1e-8 keep the dense
    # SVD's count, one short of N
    cases = [(1000 + i, (1, 2, 3)[i % 3], 1 + i % 8, 1 + i % 8) for i in range(200)]
    cases += [(2063, 1, 8, 7), (3063, 1, 8, 7), (3215, 1, 8, 7), (4263, 1, 8, 7),
              (4654, 1, 7, 6)]
    for seed, d, n, rank in cases:
        a = moment_matrix(generate_measure(d, n, seed=seed, separation=0.1), n + 1)
        sigma = np.linalg.svd(a.entries, compute_uv=False)
        dense = int(np.count_nonzero(sigma > 1e-8 * sigma[0]))
        assert numerical_rank(a).rank == dense == rank, seed


def test_rank_20_is_certified_by_a_grown_sketch(svd_spy):
    # d=3, N=20, D=21 (basis 2024): Y has full rank at the widths 8 and 16,
    # so the sketch doubles twice to 32 columns, keeps the 21 that R shows
    # Y needs and certifies rank 20 without the dense 2024 x 2024 SVD
    truth = generate_measure(3, 20, 0, separation=0.1)
    a = moment_matrix(truth, 21)
    shapes = svd_spy()
    result = numerical_rank(a)
    assert shapes == [(21, 2024)]
    assert result.rank == 20 and np.all(result.singular_values[21:] == 0)
    # A = T^T diag(w) conj(T) for the 20 x 2024 monomial table T, so with
    # T^T = Q R its singular values are those of the 20 x 20 R diag(w) R^H
    r = np.linalg.qr(moments.monomial_table(truth.locations_matrix(), a.basis).T, mode="r")
    sigma = np.linalg.svd((r * truth.weights_vector()) @ r.conj().T, compute_uv=False)
    assert np.max(np.abs(result.singular_values[:20] - sigma)) <= 1e-12 * sigma[0]


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@pytest.mark.parametrize("side", [1 - 1e-13, 1 + 1e-13])
def test_rank_at_the_threshold_falls_back_to_dense_svd(svd_spy, side):
    rng = np.random.default_rng(5)
    u, v = _unitary(rng, 128), _unitary(rng, 128)

    def matrix(last):
        sigma = np.zeros(128)
        sigma[:5] = [1.0, 0.3, 1e-3, 1e-6, last]
        return (u * sigma) @ v.conj().T

    # clear of the threshold, the same matrix is ranked by the sketch
    sketch = moments._range_sketch(matrix(1e-7), 1e-8)
    assert moments._sketched_ranks(sketch, [(128, None, None)], 1e-8)[0].rank == 5
    a = matrix(1e-8 * side)
    shapes = svd_spy()
    result = numerical_rank(a, 1e-8)
    assert shapes == [(6, 128), (128, 128)]  # the sketch declined, the SVD decided
    sigma = np.sort(np.linalg.svd(a, compute_uv=False))[::-1]
    rank = int(np.count_nonzero(sigma > 1e-8 * sigma[0]))
    assert result.rank == rank
    assert result.singular_values.tobytes() == sigma.tobytes()
    assert result.ill_conditioned is bool(sigma[0] / sigma[rank - 1] > 1e12)


@pytest.mark.parametrize("size", [32, 64])
def test_rank_of_the_zero_matrix_at_the_sketch_sizes_is_0(svd_spy, size):
    # R_00 = 0, so no column of Y is needed: Q keeps one, the certificate
    # cannot settle a zero sigma_1, and the dense SVD gives rank 0
    zero = np.zeros((size, size), dtype=complex)
    assert moments._range_sketch(zero, 1e-8).q.shape == (size, 1)
    shapes = svd_spy()
    result = numerical_rank(zero)
    assert shapes == [(1, size), (size, size)]
    assert result.rank == 0 and not result.ill_conditioned
    assert np.all(result.singular_values == 0)


def test_full_rank_at_the_sketch_floor_declines_to_dense_svd(svd_spy):
    # n = 32 gives the sketch 8 columns, which a full-rank A fills
    a = _unitary(np.random.default_rng(7), 32) * np.linspace(1.0, 0.5, 32)
    assert moments._range_sketch(a, 1e-8) is None
    shapes = svd_spy()
    assert numerical_rank(a).rank == 32
    assert shapes == [(32, 32)]


@pytest.mark.parametrize("size, width", [(32, 8), (64, 8), (128, 16)])
def test_rank_equal_to_the_sketch_width_declines_to_dense_svd(svd_spy, size, width):
    # Y of rank l at Omega's full width l leaves no column to show the rank
    # is below it, so the sketch declines before any SVD of its own; one
    # rank less keeps all l columns
    rng = np.random.default_rng(8)
    x, y = (rng.standard_normal((size, width)) + 1j * rng.standard_normal((size, width))
            for _ in "xy")
    a = x @ y.conj().T
    below = x[:, 1:] @ y[:, 1:].conj().T
    assert moments._range_sketch(below, 1e-8).q.shape == (size, width)
    assert moments._range_sketch(a, 1e-8) is None
    shapes = svd_spy()
    assert numerical_rank(a).rank == width
    assert shapes == [(size, size)]


def test_rectangular_rank_goes_straight_to_svd(svd_spy):
    rng = np.random.default_rng(6)
    a = (rng.standard_normal((100, 3)) + 1j) @ rng.standard_normal((3, 80))
    shapes = svd_spy()
    result = numerical_rank(a)
    assert shapes == [(100, 80)]
    assert result.rank == 3
    assert len(result.singular_values) == 80


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rank_rejects_non_finite_entries(svd_spy, bad):
    shapes = svd_spy()
    for size in (3, 84):
        entries = np.eye(size, dtype=complex)
        entries[1, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            numerical_rank(entries)
    assert shapes == []


def test_rank_whose_largest_singular_value_overflows_is_numerical_error():
    # every entry is finite, but sigma_1 = 3 * 1.5e308 is not
    a = MomentMatrix(IndexBasis(1, 2), np.full((3, 3), 1.5e308 + 0j))
    with pytest.raises(NumericalError, match="largest singular value inf is not finite"):
        numerical_rank(a)


def test_rank_of_entries_that_overflow_the_sketch_is_the_dense_one(svd_spy):
    # ||B||_F of the rank-one 84 x 84 matrix of 1e155 overflows, sigma_1 does
    # not; an overflow warning is an error here, so the sketch must decline
    # quietly and leave the rank to the dense SVD
    shapes = svd_spy()
    result = numerical_rank(np.full((84, 84), 1e155 + 0j))
    assert shapes == [(84, 84)]
    assert result.rank == 1
    assert result.singular_values[0] == pytest.approx(84e155)


# -- full-rank certificate -----------------------------------------------------

def _svd_rank(entries, rel_tol=1e-8):
    sigma = np.linalg.svd(entries, compute_uv=False)
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


def _unit_disk_density(*coeffs):
    """The density sum_k coeffs[k] z^k on the unit disk in C."""
    terms = [{"alpha": [k], "coeff": [c, 0.0]} for k, c in enumerate(coeffs) if c]
    return any_measure_from_dict({
        "dimension": 1,
        "domain": {"center": [[0.0, 0.0]], "radii": [1.0]},
        "density": {"type": "polynomial", "terms": terms},
    })


def test_full_rank_certificate_is_sound_on_the_verify_densities(verify_inputs):
    # every density of the verify benchmark's first three input sets, at the
    # degrees 6 and 8 the benchmark and CI run: a certified matrix must have
    # every leading truncation at full SVD rank
    certified = 0
    for seed in range(3):
        for name, payload in verify_inputs(seed):
            m = any_measure_from_dict(payload)
            if isinstance(m, DiscreteMeasure):
                continue
            for top_degree in (6, 8):
                top = moment_matrix(m, top_degree)
                if not moments._full_rank_certificate(top.entries, 1e-8):
                    continue
                certified += 1
                for degree in range(1, top_degree + 1):
                    entries = leading_truncation(top, degree).entries
                    assert _svd_rank(entries) == len(entries), f"{seed} {name} D={degree}"
    # 3 input sets x 18 densities x 2 degrees, none declined
    assert certified == 108


def test_full_rank_certificate_declines_indefinite_hermitian_parts():
    # full rank, but the leading 1 x 1 block is singular
    assert not moments._full_rank_certificate(np.array([[0, 1], [1, 0]], complex), 1e-8)
    # a full-rank skew-Hermitian matrix has Hermitian part H = 0
    rng = np.random.default_rng(7)
    k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    skew = k - k.conj().T
    assert _svd_rank(skew) == 6
    assert not moments._full_rank_certificate(skew, 1e-8)


def test_full_rank_certificate_declines_below_the_threshold():
    # Hermitian positive definite with lambda_min = 0.5 rel_tol lambda_max:
    # the SVD counts one value below the threshold
    u = _unitary(np.random.default_rng(8), 12)
    sigma = np.geomspace(1.0, 1e-4, 12)
    sigma[-1] = 0.5e-8
    a = (u * sigma) @ u.conj().T
    assert _svd_rank(a) == 11
    assert not moments._full_rank_certificate(a, 1e-8)


def test_full_rank_certificate_declines_the_density_z():
    # rho = z on the unit disk: rank 1, 2, ..., D, never full
    top = moment_matrix(_unit_disk_density(0.0, 1.0), 8)
    assert not moments._full_rank_certificate(top.entries, 1e-8)
    assert [numerical_rank(leading_truncation(top, k)).rank for k in range(1, 9)] == list(
        range(1, 9)
    )


def test_full_rank_certificate_declines_a_sign_changing_density():
    # 1 + 1.5 z has full rank but Re g < 0 on part of the disk, so the
    # Hermitian part of its moment matrix is indefinite from degree 4 on
    top = moment_matrix(_unit_disk_density(1.0, 1.5), 8)
    assert [_svd_rank(leading_truncation(top, k).entries) for k in range(1, 9)] == list(
        range(2, 10)
    )
    assert not moments._full_rank_certificate(top.entries, 1e-8)
    assert moments._full_rank_certificate(leading_truncation(top, 3).entries, 1e-8)


def test_sketch_matrix_is_drawn_once_per_size():
    omega = moments._sketch_matrix(165, 20)
    assert moments._sketch_matrix(165, 20) is omega
    assert not omega.flags.writeable
    rng = np.random.default_rng(0)
    fresh = rng.standard_normal((165, 20)) + 1j * rng.standard_normal((165, 20))
    assert omega.tobytes() == fresh.tobytes()
