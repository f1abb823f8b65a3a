"""Recovery of the atomic decomposition of a measure from its truncated moments.

One joint multiplication-matrix pencil serves every dimension d >= 1
(multivariate Prony / flat extension).  For a measure with N atoms at
zeta_1 .. zeta_N, the degree-(D-1) block A_0 = (a_{alpha beta}) and its row
shifts A_j = (a_{alpha + e_j, beta}) factor as V^T Lambda W and
V^T Lambda Z_j W with Z_j = diag(zeta_{k, j}).  Compressed onto the top-N
singular subspace of A_0 they give N x N matrices B_0, B_j with

    B_0^{-1} B_j = Q^{-1} Z_j Q   for every j,

so all d multiplication matrices share one eigenbasis.  One seeded random
combination sum_j c_j B_0^{-1} B_j is eigendecomposed, every coordinate is
read off its eigenvectors, the weights solve the moment equations in least
squares, and a short Gauss-Newton polish takes the fit to the rounding
floor.  For d = 1 this is the classic matrix pencil.

The SVD rank estimate can undercount by one when a singular value straddles
the threshold, so a fit that misses the residual gate is retried one and two
ranks higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import Atom, ComplexPoint, DensityMeasure, DiscreteMeasure
from .moments import (
    IndexBasis,
    MomentMatrix,
    NumericalError,
    moment_matrix,
    monomial_table,
    numerical_rank,
)

__all__ = [
    "RecoveryConfig",
    "RecoveryReport",
    "RecoveryError",
    "CheckResult",
    "TheoremVerdict",
    "recover_1d",
    "recover_atoms",
    "verify_theorem",
    "match_atoms",
]

_RESIDUAL_TOL = 1e-6
_POLISH_ITERATIONS = 3


class RecoveryError(RuntimeError):
    """Recovery failed: the degree is too low for the rank, or no rank fits."""


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables for the recovery pipeline.

    rank_tol is the relative SVD threshold (also the relative weight below
    which an atom is pruned); seed draws the coefficients of the combined
    multiplication matrix.
    """

    rank_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rank_tol < 1:
            raise ValueError("rank_tol must lie in (0, 1)")


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a recovery run.

    The residual is the largest entry of |moments(atoms) - input|; on success
    the atom count equals the detected rank.  retries_used counts the rank
    increments tried past the SVD estimate, retry_log holds one line per
    failed rank, and rotation_seed_used is the seed of the combination.
    """

    atoms: DiscreteMeasure
    residual: float
    detected_rank: int
    retries_used: int
    rotation_seed_used: int
    retry_log: tuple[str, ...] = field(default=(), compare=False)


def _sorted_atoms(atoms: list[Atom]) -> tuple[Atom, ...]:
    def key(atom: Atom):
        return tuple(x for c in atom.location.coords for x in (c.real, c.imag))

    return tuple(sorted(atoms, key=key))


def _equation_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of the moment equations used for weight fitting.

    Small bases use every pair; larger ones use the spanning subset of
    first-column, first-row, and diagonal equations, which stays
    overdetermined without materializing size^2 rows.
    """
    if n <= 100:
        grid_i, grid_j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return grid_i.ravel(), grid_j.ravel()
    idx = np.arange(n)
    zeros = np.zeros(n, dtype=np.int64)
    return np.concatenate([idx, zeros, idx]), np.concatenate([zeros, idx, idx])


def _solve_weights(a: MomentMatrix, locations: np.ndarray) -> np.ndarray:
    """Least-squares weights for sum_k lambda_k zeta_k^alpha conj(zeta_k)^beta = a_ab."""
    table = monomial_table(locations, a.basis)
    rows, cols = _equation_pairs(a.basis.size)
    design = (table[:, rows] * table.conj()[:, cols]).T
    rhs = a.entries[rows, cols]
    weights, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return weights


def _polish_atoms(
    locations: np.ndarray, weights: np.ndarray, a: MomentMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton refinement of (locations, weights) on the moment equations.

    The pencil lands within ~1e-12 of the true parameters; a few Newton
    iterations push them to the rounding floor, which matters for
    high-degree moments whose absolute scale amplifies location error.
    Derivatives are taken in Wirtinger form (z and conj(z) independent) and
    stacked into a real system.  The best iterate by max-residual is kept.
    """
    basis = a.basis
    exps = basis.entries_array()
    d = basis.dimension
    m_count = locations.shape[0]
    rows, cols = _equation_pairs(basis.size)
    lower = basis.shifts[1]

    def residual_vector(locs, lam):
        table = monomial_table(locs, basis)
        predicted = (table * lam[:, np.newaxis]).T @ table.conj()
        return (predicted - a.entries)[rows, cols]

    best_locs, best_lam = locations, weights
    best_err = float(np.max(np.abs(residual_vector(locations, weights))))
    locs, lam = locations.copy(), weights.copy()
    for _ in range(_POLISH_ITERATIONS):
        if best_err <= 0.01 * _RESIDUAL_TOL:
            break
        table = monomial_table(locs, basis)
        res = residual_vector(locs, lam)
        blocks = []
        for v in range(d):
            shifted = np.zeros_like(table)
            has = lower[:, v] >= 0
            shifted[:, has] = table[:, lower[has, v]] * exps[has, v][np.newaxis, :]
            dz = (shifted[:, rows] * table.conj()[:, cols]) * lam[:, np.newaxis]
            dzbar = (table[:, rows] * shifted.conj()[:, cols]) * lam[:, np.newaxis]
            blocks.append(((dz + dzbar).T, (1j * (dz - dzbar)).T))
        dlam = (table[:, rows] * table.conj()[:, cols]).T
        columns = [c for re_im in blocks for c in re_im] + [dlam, 1j * dlam]
        jac = np.hstack(columns)
        j_real = np.vstack([jac.real, jac.imag])
        rhs = -np.concatenate([res.real, res.imag])
        step, *_ = np.linalg.lstsq(j_real, rhs, rcond=None)
        step = step.reshape(2 * d + 2, m_count)
        for v in range(d):
            locs[:, v] = locs[:, v] + step[2 * v] + 1j * step[2 * v + 1]
        lam = lam + step[2 * d] + 1j * step[2 * d + 1]
        err = float(np.max(np.abs(residual_vector(locs, lam))))
        if err < best_err:
            best_locs, best_lam, best_err = locs.copy(), lam.copy(), err
        else:
            break
    return best_locs, best_lam


def _pencil_locations(a: MomentMatrix, block: int, rank: int, seed: int) -> np.ndarray:
    """Atom locations (rank, d) from the compressed joint pencil.

    The first `block` basis indices are those of degree <= D-1, so A_0 and
    its row shifts A_j lie inside the matrix.  On the top singular subspace
    B_0 = diag(sigma), so B_0^{-1} B_j is a row scaling; the eigenvectors Y
    of one seeded combination sum_j c_j B_0^{-1} B_j diagonalize every
    B_0^{-1} B_j, and coordinate j is diag(Y^{-1} B_0^{-1} B_j Y).
    """
    up = a.basis.shifts[0][:block]
    a0 = a.entries[:block, :block]
    shifted = np.stack([a.entries[up[:, j], :block] for j in range(a.dimension)])
    coeffs = np.random.default_rng(seed).standard_normal(a.dimension)
    try:
        u, sigma, vh = np.linalg.svd(a0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed in pencil setup: {exc}") from exc
    u_n = u[:, :rank]
    v_n = vh[:rank, :].conj().T
    mult = (u_n.conj().T @ shifted @ v_n) / sigma[:rank, np.newaxis]
    try:
        _, y = np.linalg.eig(np.tensordot(coeffs, mult, axes=1))
        locations = np.einsum("ka,jab,bk->kj", np.linalg.inv(y), mult, y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil eigenproblem failed: {exc}") from exc
    if not np.all(np.isfinite(locations)):
        raise RecoveryError("pencil produced non-finite locations")
    return locations


def _fit(
    a: MomentMatrix, block: int, rank: int, cfg: RecoveryConfig
) -> tuple[DiscreteMeasure, float]:
    """One pencil extraction at a prescribed rank, gated by the residual."""
    locations = _pencil_locations(a, block, rank, cfg.seed)
    weights = _solve_weights(a, locations)
    keep = np.abs(weights) >= cfg.rank_tol * np.max(np.abs(weights))
    locations = locations[keep]
    weights = _solve_weights(a, locations)
    locations, weights = _polish_atoms(locations, weights, a)
    atoms = [
        Atom(ComplexPoint(tuple(complex(z) for z in loc)), complex(w))
        for loc, w in zip(locations, weights)
        if w != 0
    ]
    measure = DiscreteMeasure(a.dimension, _sorted_atoms(atoms))
    predicted = moment_matrix(measure, a.max_degree).entries
    residual = float(np.max(np.abs(predicted - a.entries)))
    if residual > _RESIDUAL_TOL:
        raise RecoveryError(
            f"residual {residual:.3e} above {_RESIDUAL_TOL:.1e} "
            f"(pencil rank {rank}, {measure.atom_count} atoms)"
        )
    return measure, residual


def recover_atoms(a: MomentMatrix, cfg: RecoveryConfig = RecoveryConfig()) -> RecoveryReport:
    """Recover the atoms of a finite-rank measure from its truncated moments.

    The rank N comes from the SVD of the whole matrix; the joint pencil is
    fitted at N and, while the residual gate fails and the next singular
    value is not numerically zero, at N + 1 and N + 2.  Raises RecoveryError
    when the degree-(D-1) block is smaller than N or no rank fits.
    """
    estimate = numerical_rank(a, cfg.rank_tol)
    n = estimate.rank
    if n == 0:
        return RecoveryReport(
            atoms=DiscreteMeasure(a.dimension, ()),
            residual=float(np.max(np.abs(a.entries))),
            detected_rank=0,
            retries_used=0,
            rotation_seed_used=cfg.seed,
        )
    d, degree = a.dimension, a.max_degree
    block = math.comb(degree - 1 + d, d) if degree else 0
    if block < n:
        raise RecoveryError(
            f"degree-{degree - 1} block of size {block} is below the detected rank {n}"
        )
    sv = estimate.singular_values
    ranks = [n] + [r for r in (n + 1, n + 2) if r <= block and sv[r - 1] > 1e-13 * sv[0]]
    log: list[str] = []
    for attempt, rank in enumerate(ranks):
        try:
            measure, residual = _fit(a, block, rank, cfg)
        except RecoveryError as exc:
            log.append(f"attempt {attempt}: {exc}")
            continue
        return RecoveryReport(
            atoms=measure,
            residual=residual,
            detected_rank=measure.atom_count,
            retries_used=rank - n,
            rotation_seed_used=cfg.seed,
            retry_log=tuple(log),
        )
    raise RecoveryError("no rank fits the moments; log: " + " | ".join(log))


def recover_1d(a: MomentMatrix, cfg: RecoveryConfig = RecoveryConfig()) -> DiscreteMeasure:
    """Matrix-pencil recovery of a one-dimensional atomic measure.

    The d = 1 entry to `recover_atoms`: locations are the generalized
    eigenvalues of the compressed pencil (A_shifted, A), and the weights
    solve the moment equations in least squares.
    """
    if a.dimension != 1:
        raise ValueError("recover_1d expects a one-dimensional moment matrix")
    return recover_atoms(a, cfg).atoms


def match_atoms(
    recovered: DiscreteMeasure, truth: DiscreteMeasure, location_tol: float
) -> tuple[float, float] | None:
    """Greedy one-to-one matching of atoms by location.

    Returns (max location error, max weight error) over the matching, or
    None when no bijection within location_tol exists.
    """
    if recovered.dimension != truth.dimension:
        return None
    if recovered.atom_count != truth.atom_count:
        return None
    remaining = list(recovered.atoms)
    loc_err = 0.0
    weight_err = 0.0
    for t in truth.atoms:
        best = None
        best_dist = math.inf
        for r in remaining:
            dist = t.location.distance(r.location)
            if dist < best_dist:
                best, best_dist = r, dist
        if best is None or best_dist > location_tol:
            return None
        remaining.remove(best)
        loc_err = max(loc_err, best_dist)
        weight_err = max(weight_err, abs(best.weight - t.weight))
    return loc_err, weight_err


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict


@dataclass(frozen=True)
class TheoremVerdict:
    """Per-degree ranks plus the pass/fail checks of the finite-rank dichotomy."""

    input_kind: str
    degrees: tuple[int, ...]
    ranks: tuple[int, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_theorem(
    m: DiscreteMeasure | DensityMeasure,
    degrees: list[int],
    cfg: RecoveryConfig = RecoveryConfig(),
) -> TheoremVerdict:
    """Check the rank dichotomy on a concrete measure.

    Atomic input: the rank must saturate at the atom count N once the degree
    reaches N - 1, and recovery must round-trip at the top degree.  Density
    input: the truncation must have full rank binom(D + d, d) at every
    degree (unbounded rank growth, so no finite-rank representation exists).
    """
    if not degrees or list(degrees) != sorted(degrees):
        raise ValueError("degrees must be a nonempty increasing list")
    ranks = tuple(
        numerical_rank(moment_matrix(m, d), cfg.rank_tol).rank for d in degrees
    )
    checks: list[CheckResult] = []
    if isinstance(m, DiscreteMeasure):
        n = m.atom_count
        saturation_ok = all(
            r == n for d, r in zip(degrees, ranks) if d >= max(n - 1, 0)
        )
        checks.append(
            CheckResult(
                "rank_saturation",
                saturation_ok,
                {"atom_count": n, "degrees": list(degrees), "ranks": list(ranks)},
            )
        )
        recovery_degree = max(max(degrees), n + 1)
        try:
            report = recover_atoms(moment_matrix(m, recovery_degree), cfg)
            matched = match_atoms(report.atoms, m, 1e-6)
            ok = matched is not None and matched[1] <= 1e-6
            measured = {
                "degree": recovery_degree,
                "residual": report.residual,
                "retries_used": report.retries_used,
            }
            if matched is not None:
                measured["location_error"] = matched[0]
                measured["weight_error"] = matched[1]
        except RecoveryError as exc:
            ok = False
            measured = {"degree": recovery_degree, "error": str(exc)}
        checks.append(CheckResult("recovery_roundtrip", ok, measured))
        kind = "atomic"
    else:
        expected = [IndexBasis(m.dimension, d).size for d in degrees]
        growth_ok = list(ranks) == expected
        checks.append(
            CheckResult(
                "rank_growth",
                growth_ok,
                {
                    "degrees": list(degrees),
                    "ranks": list(ranks),
                    "expected": expected,
                },
            )
        )
        kind = "density"
    return TheoremVerdict(kind, tuple(degrees), ranks, tuple(checks))
