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
    Polydisk,
    PolynomialWeight,
    QuadratureError,
    generate_measure,
    leading_truncation,
    moment_entry,
    moment_matrix,
    numerical_rank,
    pushforward_drop_coord,
    random_unitary,
    reweight_moments,
    rotate_moments,
    rotate_unitary,
    submatrix_drop_coord,
    submatrix_drop_first,
    weight_by_g,
)


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
    assert [mi.entries for mi in basis.indices] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]


def test_basis_strictly_increasing():
    basis = IndexBasis(3, 4)
    keys = [(mi.degree, mi.entries) for mi in basis.indices]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_basis_nesting_prefix():
    small = IndexBasis(3, 3)
    large = IndexBasis(3, 4)
    assert large.indices[: small.size] == small.indices


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
    for i, alpha in enumerate(a.basis.indices):
        for j, beta in enumerate(a.basis.indices):
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
    for i, alpha in enumerate(a.basis.indices):
        for j, beta in enumerate(a.basis.indices):
            expected = disk_moment_oracle(alpha.entries[0], beta.entries[0]) * (
                disk_moment_oracle(alpha.entries[1], beta.entries[1])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_quadrature_overflow_raises(kind):
    # monomials of a radius-1e200 disk overflow, so refinement never settles
    dens = DensityMeasure(1, Polydisk(ComplexPoint((0j,)), (1e200,)), DensitySpec(kind))
    with pytest.raises(QuadratureError):
        moment_matrix(dens, 2)


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
