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
    # monomials of a radius-1e200 disk overflow, so refinement never settles;
    # an overflow warning on the way would fail the test as an error
    dens = DensityMeasure(1, Polydisk(ComplexPoint((0j,)), (1e200,)), DensitySpec(kind))
    with pytest.raises(QuadratureError):
        moment_matrix(dens, 2)


def test_quadrature_overflow_stops_refining(monkeypatch):
    # every finer level overflows too, so it must not be built: the last of
    # the 7 levels alone would hold a (nodes x (D+1)) table of ~10^6 rows
    levels = []
    gram = moments._discrete_moment_matrix

    def counting(points, weights, basis):
        levels.append(len(points))
        return gram(points, weights, basis)

    monkeypatch.setattr(moments, "_discrete_moment_matrix", counting)
    dens = DensityMeasure(1, Polydisk(ComplexPoint((0j,)), (1e200,)), DensitySpec("uniform"))
    with pytest.raises(QuadratureError):
        moment_matrix(dens, 3)
    assert 1 <= len(levels) <= 2


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
    table = moments._disk_table(center, radius, 10, 10, None)
    expected = np.array(
        [[offcenter_disk_moment(p, q, center, radius) for q in range(11)] for p in range(11)]
    )
    # relative to the largest moment: entries that cancel to ~1e-4 of it
    # lose digits in the closed form's own sum
    assert np.max(np.abs(table - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "spec, exact",
    [
        (DensitySpec("uniform"), True),
        (DensitySpec("polynomial", PolynomialWeight(2, {(0, 0): 1.0, (1, 0): 0.2j})), True),
        (DensitySpec("gaussian"), False),
    ],
)
def test_only_the_gaussian_refines(monkeypatch, spec, exact):
    # a polynomial integrand needs one level per coordinate disk; the
    # Gaussian factor needs at least one refinement to confirm convergence
    calls = []
    gram = moments._discrete_moment_matrix

    def counting(points, weights, basis):
        calls.append(len(points))
        return gram(points, weights, basis)

    monkeypatch.setattr(moments, "_discrete_moment_matrix", counting)
    domain = Polydisk(ComplexPoint((0.3 + 0.1j, -0.2j)), (1.0, 0.8))
    moment_matrix(DensityMeasure(2, domain, spec), 4)
    if exact:
        assert len(calls) == 2
    else:
        assert len(calls) >= 4


# -- certified sketched rank ---------------------------------------------------

def test_sketched_rank_matches_dense_svd(svd_spy, verify_inputs):
    # (label, entries, atomic): the criterion-1 moment matrix, both Galerkin
    # kernels and the |g|^2-reweighted matrix of the acceptance corpus, and
    # the degree-1..8 truncations of the verify benchmark's 36 files
    cases = []
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
        if atomic and size >= 64:
            assert shapes == [(size // 8, size)], f"{label}: reached the dense SVD"
            sketched += 1
        else:
            assert shapes == [(size, size)], label
    # four matrices of each of the 33 corpus measures with d = 3, N >= 5, and
    # the 6 atomic d = 3 files at degrees 6, 7 and 8
    assert sketched == 4 * 33 + 6 * 3


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
    assert moments._sketched_rank(matrix(1e-7), 1e-8).rank == 5
    a = matrix(1e-8 * side)
    shapes = svd_spy()
    result = numerical_rank(a, 1e-8)
    assert shapes == [(16, 128), (128, 128)]  # the sketch declined, the SVD decided
    sigma = np.sort(np.linalg.svd(a, compute_uv=False))[::-1]
    rank = int(np.count_nonzero(sigma > 1e-8 * sigma[0]))
    assert result.rank == rank
    assert result.singular_values.tobytes() == sigma.tobytes()
    assert result.ill_conditioned is bool(sigma[0] / sigma[rank - 1] > 1e12)


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
