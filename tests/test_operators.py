import math

import numpy as np
import pytest

from momentrank import (
    GalerkinMatrix,
    IndexBasis,
    Atom,
    ComplexPoint,
    DiscreteMeasure,
    DomainError,
    KernelSpec,
    Polydisk,
    PolynomialWeight,
    enclosing_kernel,
    galerkin_matrix,
    generate_measure,
    kernel_eval,
    moment_matrix,
    moments,
    numerical_rank,
    spectrum,
    toeplitz_apply,
)


def atom(coords, weight):
    return Atom(ComplexPoint(tuple(coords)), weight)


def measure(d, *pairs):
    return DiscreteMeasure(d, tuple(atom(c, w) for c, w in pairs))


def unit_polydisk(d, radius=1.0):
    return Polydisk(ComplexPoint((0j,) * d), (radius,) * d)


BARGMANN = KernelSpec("bargmann")


# -- kernel specs and evaluation -------------------------------------------------

def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("bergman_polydisk")
    with pytest.raises(ValueError):
        KernelSpec("bargmann", unit_polydisk(1))
    with pytest.raises(ValueError):
        KernelSpec("weird")


def test_bargmann_at_zero_is_one():
    z = ComplexPoint((0j, 0j))
    for w in [(1, 2), (3j, -1), (0.5 + 0.5j, 0)]:
        assert kernel_eval(BARGMANN, z, ComplexPoint(w)) == 1


def test_bargmann_diagonal_value():
    z = ComplexPoint((2 + 0j,))
    assert kernel_eval(BARGMANN, z, z) == pytest.approx(math.exp(2), rel=1e-12)
    assert kernel_eval(BARGMANN, z, z) == pytest.approx(7.389056, rel=1e-6)


def test_bargmann_multidim_sums_coordinates():
    z = ComplexPoint((1, 1j))
    w = ComplexPoint((1, 1j))
    # z . conj(w) = 1 + |i|^2 = 2
    assert kernel_eval(BARGMANN, z, w) == pytest.approx(math.exp(1.0))


def test_bergman_at_center():
    for d in (1, 2, 3):
        k = KernelSpec("bergman_polydisk", unit_polydisk(d))
        c = ComplexPoint((0j,) * d)
        assert kernel_eval(k, c, c) == pytest.approx(math.pi ** (-d), rel=1e-12)


def test_bergman_unit_disk_closed_form():
    k = KernelSpec("bergman_polydisk", unit_polydisk(1))
    z, w = ComplexPoint((0.3 + 0.1j,)), ComplexPoint((-0.2j,))
    expected = 1 / (math.pi * (1 - (0.3 + 0.1j) * np.conj(-0.2j)) ** 2)
    assert kernel_eval(k, z, w) == pytest.approx(expected, rel=1e-12)


def test_bergman_rejects_boundary_points():
    k = KernelSpec("bergman_polydisk", unit_polydisk(1))
    with pytest.raises(DomainError):
        kernel_eval(k, ComplexPoint((1 + 0j,)), ComplexPoint((0j,)))


# -- finite-rank operator application ---------------------------------------------

def test_toeplitz_apply_empty_measure():
    u = PolynomialWeight.constant(2)
    assert toeplitz_apply(BARGMANN, DiscreteMeasure(2, ()), u, ComplexPoint((1, 2))) == 0


def test_toeplitz_apply_single_atom_is_kernel_section():
    zeta, lam = 0.4 - 0.3j, 2 + 1j
    m = measure(1, ([zeta], lam))
    u = PolynomialWeight.constant(1)
    for z in [0j, 1 + 1j, -0.5j]:
        got = toeplitz_apply(BARGMANN, m, u, ComplexPoint((z,)))
        assert got == pytest.approx(lam * np.exp(z * np.conj(zeta) / 2))


def test_toeplitz_apply_two_atom_hand_sum():
    m = measure(2, ([1, 2j], 1.5), ([0.5j, -1], -2))
    u = PolynomialWeight(2, {(1, 0): 1})  # u(z) = z_1
    z = ComplexPoint((0.2, 0.1j))
    expected = 0j
    for loc, w in [((1, 2j), 1.5), ((0.5j, -1), -2)]:
        k = np.exp((0.2 * np.conj(loc[0]) + 0.1j * np.conj(loc[1])) / 2)
        expected += k * w * loc[0]
    assert toeplitz_apply(BARGMANN, m, u, z) == pytest.approx(expected)


def test_toeplitz_image_is_one_dimensional_for_single_atom():
    zeta = ComplexPoint((0.5 + 0.2j, -0.3j))
    m = DiscreteMeasure(2, (Atom(zeta, 1.7),))
    sample = [ComplexPoint((0.1 * t, 0.05j * t)) for t in range(10)]
    reference = np.array([kernel_eval(BARGMANN, z, zeta) for z in sample])
    for terms in [{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}, {(1, 1): 2}]:
        u = PolynomialWeight(2, terms)
        values = np.array([toeplitz_apply(BARGMANN, m, u, z) for z in sample])
        # proportional to the kernel section at the atom
        ratio = values / reference
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * (1 + abs(ratio[0]))


def test_toeplitz_apply_bergman_matches_direct_sum():
    k = KernelSpec("bergman_polydisk", unit_polydisk(2, radius=2.0))
    m = measure(2, ([0.5, -0.3j], 1 + 2j), ([-0.2 + 0.1j, 0.7], -0.5))
    u = PolynomialWeight(2, {(0, 1): 3})  # u(z) = 3 z_2
    z = ComplexPoint((0.1, 0.2j))
    expected = sum(
        kernel_eval(k, z, a.location) * a.weight * 3 * a.location.coords[1]
        for a in m.atoms
    )
    assert toeplitz_apply(k, m, u, z) == pytest.approx(expected)


def test_toeplitz_apply_requires_atoms_in_domain():
    k = KernelSpec("bergman_polydisk", unit_polydisk(1))
    m = measure(1, ([2], 1))
    with pytest.raises(DomainError):
        toeplitz_apply(k, m, PolynomialWeight.constant(1), ComplexPoint((0j,)))


# -- Galerkin matrices ---------------------------------------------------------------

def test_galerkin_atom_at_origin():
    g = galerkin_matrix(BARGMANN, measure(2, ([0, 0], 1)), 3)
    expected = np.zeros_like(g.entries)
    expected[0, 0] = 1
    assert np.allclose(g.entries, expected, atol=1e-15)


def test_bargmann_norms_against_quadrature_oracle():
    # ||z^j||^2 under the Gaussian weight: radial integral computed
    # independently, then compared with 2^j j!
    from scipy.integrate import quad

    for j in range(6):
        integrand = lambda r: r ** (2 * j + 1) * math.exp(-(r**2) / 2)
        radial, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
        assert radial == pytest.approx(2**j * math.factorial(j), rel=1e-10)


def test_galerkin_entries_are_rescaled_moments():
    m = generate_measure(1, 3, seed=2)
    degree = 4
    a = moment_matrix(m, degree)
    g = galerkin_matrix(BARGMANN, m, degree)
    for j in range(degree + 1):
        for k in range(degree + 1):
            norm = math.sqrt(2 ** (j + k) * math.factorial(j) * math.factorial(k))
            assert g.entries[j, k] == pytest.approx(
                a.entries[j, k] / norm, rel=1e-12, abs=1e-14
            )


def test_galerkin_rank_equals_moment_rank_both_kernels():
    for seed in range(8):
        d = 1 + seed % 3
        n = 1 + seed % 5
        m = generate_measure(d, n, seed=seed)
        a_rank = numerical_rank(moment_matrix(m, n + 1)).rank
        bergman = KernelSpec("bergman_polydisk", unit_polydisk(d, radius=3.0))
        for kernel in (BARGMANN, bergman):
            g = galerkin_matrix(kernel, m, n + 1)
            assert numerical_rank(g.entries).rank == a_rank


def test_galerkin_hermitian_for_real_weights():
    m = generate_measure(2, 4, seed=6)
    real = DiscreteMeasure(2, tuple(Atom(a.location, abs(a.weight)) for a in m.atoms))
    g = galerkin_matrix(BARGMANN, real, 4)
    assert np.max(np.abs(g.entries - g.entries.conj().T)) <= 1e-14 * (
        1 + np.max(np.abs(g.entries))
    )


def test_galerkin_rejects_atoms_outside_domain():
    k = KernelSpec("bergman_polydisk", unit_polydisk(2))
    with pytest.raises(DomainError):
        galerkin_matrix(k, measure(2, ([1.5, 0], 1)), 2)


def test_galerkin_degree_cap():
    with pytest.raises(ValueError, match="cap"):
        galerkin_matrix(BARGMANN, measure(1, ([1], 1)), 41)


# -- spectra -----------------------------------------------------------------------------

def test_spectrum_zero_matrix():
    g = galerkin_matrix(BARGMANN, DiscreteMeasure(1, ()), 3)
    assert np.allclose(spectrum(g), 0)


def test_spectrum_rank_one_atom_at_origin():
    g = galerkin_matrix(BARGMANN, measure(1, ([0], 2)), 4)
    values = spectrum(g)
    assert values[0] == pytest.approx(2)
    assert np.max(np.abs(values[1:])) <= 1e-12


def test_spectrum_three_atoms_three_significant_eigenvalues():
    m = generate_measure(2, 3, seed=14)
    values = spectrum(galerkin_matrix(BARGMANN, m, 6))
    significant = np.abs(values) > 1e-8 * np.max(np.abs(values))
    assert int(np.count_nonzero(significant)) == 3


def test_spectrum_descending_modulus():
    m = generate_measure(1, 4, seed=3)
    values = spectrum(galerkin_matrix(BARGMANN, m, 5))
    mods = np.abs(values)
    assert np.all(np.diff(mods) <= 1e-12)


def _dense_spectrum(entries):
    values = np.linalg.eigvals(entries)
    return values[np.lexsort((values.imag, values.real, -np.abs(values)))]


@pytest.fixture
def eigvals_spy(monkeypatch):
    """Records the shape of every matrix handed to np.linalg.eigvals."""
    shapes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return shapes


@pytest.mark.parametrize("kind", ["bargmann", "bergman"])
@pytest.mark.parametrize("seed", [3, 7, 42, 100000])
def test_spectrum_at_basis_220_from_the_sketch(kind, seed, eigvals_spy):
    # d=3, degree 9: the n x n solve becomes one on the 27 x 27 sketch
    m = generate_measure(3, 8, seed=seed, separation=0.2)
    g = galerkin_matrix(enclosing_kernel(kind, m), m, 9)
    dense = _dense_spectrum(g.entries)
    eigvals_spy.clear()
    values = spectrum(g)
    assert eigvals_spy == [(27, 27)]
    assert values.shape == (220,) and np.all(values[27:] == 0)
    np.testing.assert_allclose(values[:8], dense[:8], rtol=1e-12, atol=0)
    assert np.count_nonzero(np.abs(values) > 1e-8 * abs(values[0])) == 8


def _uncertifiable():
    """n = 84 (d=3, degree 6) matrices the width-10 sketch cannot certify:
    a random full-rank one and an atomic one of rank 12 > 10, whose sketches
    have full rank, and one of rank 4 whose sketch sees only rank 3, so its
    residual fails the certificate."""
    rng = np.random.default_rng(5)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m = generate_measure(3, 12, seed=2, separation=0.2)
    # unseen^H Omega = 0, so the last term adds nothing to A Omega
    unseen = np.linalg.svd(moments._sketch_matrix(84, 10).conj().T)[2][-1].conj()
    missed = gaussian(84, 3) @ gaussian(3, 84) + np.outer(gaussian(84), unseen.conj())
    return [GalerkinMatrix(BARGMANN, IndexBasis(3, 6), entries)
            for entries in (gaussian(84, 84), galerkin_matrix(BARGMANN, m, 6).entries, missed)]


@pytest.mark.parametrize("index", [0, 1, 2],
                         ids=["random", "atoms-past-the-width", "a-direction-the-sketch-misses"])
def test_spectrum_the_sketch_cannot_certify_is_the_dense_one(index, eigvals_spy):
    g = _uncertifiable()[index]
    values = spectrum(g)
    assert eigvals_spy == [(84, 84)]
    dense = _dense_spectrum(g.entries)
    assert values.tobytes() == dense.tobytes()
