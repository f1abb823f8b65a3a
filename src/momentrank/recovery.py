"""Recovery of the atomic decomposition of a measure from its truncated moments.

One joint multiplication-matrix pencil serves every dimension d >= 1
(multivariate Prony / flat extension).  For a measure with N atoms at
zeta_1 .. zeta_N, the degree-(D-1) block A_0 = (a_{alpha beta}) and its row
shifts A_j = (a_{alpha + e_j, beta}) factor as V^T Lambda W and
V^T Lambda Z_j W with Z_j = diag(zeta_{k, j}).  Compressed onto the top-N
singular subspace of A_0 they give N x N matrices B_0, B_j with

    B_0^{-1} B_j = Q^{-1} Z_j Q   for every j,

so all d multiplication matrices share one eigenbasis.  One seeded random
combination sum_j c_j B_0^{-1} B_j is eigendecomposed; every coordinate, and
through row and column 0 of A_0 every weight, is read off its eigenvectors.
Atoms of negligible weight are pruned, and when the rest miss the moments
by more than 1e-8, a short Gauss-Newton polish takes the fit to the
rounding floor.  For d = 1 this is the classic matrix pencil.

The pencil runs on the smallest flat leading block, not on the whole matrix.
The leading truncations A_k (degree <= k) are ranked for k = 1, 2, ...; once
rank A_k = rank A_{k-1}, the moment matrix is a flat extension of A_{k-1}
and A_k already fixes every atom (Curto and Fialkow, "Solution of the
truncated complex moment problem for flat data", 1996; the extraction is
that of Henrion and Lasserre's GloptiPoly).  A fit on A_k is accepted only
if its moments match the *whole* input within 1e-6, because cancelling
weights or a rank that has not yet grown can make a step look flat; a
rejected or failed fit sends the search on to the next flat step, and the
whole matrix is the last block tried.

The rank estimate (`numerical_rank`: a certified sketch where one settles
the count, the dense SVD otherwise) can undercount by one when a singular
value straddles the threshold, so a fit that misses the residual gate is
retried one and two ranks higher on the same block.

`verify_theorem` is the invariant battery of the rank dichotomy, the one
that `momentrank verify` serializes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    Atom,
    ComplexPoint,
    DensityMeasure,
    DiscreteMeasure,
    pushforward_drop_coord,
    random_linear_polynomial,
)
from .moments import (
    _BlockRanker,
    IndexBasis,
    MomentMatrix,
    NumericalError,
    _RANK_TOL,
    _full_rank_certificate,
    _gram,
    _row_blocks,
    leading_truncation,
    moment_matrix,
    monomial_table,
    numerical_rank,
    submatrix_drop_first,
)
from .operators import _log_normalizers, enclosing_kernel

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
_POLISH_TOL = 0.01 * _RESIDUAL_TOL  # the residual below which a fit is not polished
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

    rank_tol: float = _RANK_TOL
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rank_tol < 1:
            raise ValueError("rank_tol must lie in (0, 1)")


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a recovery run.

    The residual is the largest entry of |moments(atoms) - input| over the
    whole input; on success the atom count equals the detected rank.
    block_degree is the degree of the leading block the pencil was fitted on,
    retries_used counts the rank increments tried there past its rank
    estimate, retry_log holds one line per failed fit, and rotation_seed_used
    is the seed of the combination.
    """

    atoms: DiscreteMeasure
    residual: float
    detected_rank: int
    retries_used: int
    rotation_seed_used: int
    block_degree: int
    retry_log: tuple[str, ...] = field(default=(), compare=False)


def _equation_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of the moment equations the polish fits.

    Small bases use every pair; larger ones use the spanning subset of
    first-column, first-row, and diagonal equations, which stays
    overdetermined without materializing size^2 rows.
    """
    if n <= 100:
        return np.divmod(np.arange(n * n), n)
    idx = np.arange(n)
    zeros = np.zeros(n, dtype=np.int64)
    return np.concatenate([idx, zeros, idx]), np.concatenate([zeros, idx, idx])


def _polish_atoms(
    locations: np.ndarray, weights: np.ndarray, a: MomentMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton refinement of (locations, weights) on the moment equations.

    The pencil lands within ~1e-12 of the true parameters; a few Newton
    iterations push them to the rounding floor, which matters for
    high-degree moments whose absolute scale amplifies location error.
    Derivatives are taken in Wirtinger form (z and conj(z) independent) and
    stacked into a real system.  One monomial table per iterate gives both
    its residual and the Jacobian of the next step; the best iterate by
    max-residual is kept.
    """
    basis = a.basis
    exps = basis.entries_array()
    d = basis.dimension
    rows, cols = _equation_pairs(basis.size)
    lower = basis.shifts[1]
    locs, lam = locations, weights
    for iteration in range(_POLISH_ITERATIONS + 1):
        table = monomial_table(locs, basis)
        res = (_gram(table, lam) - a.entries)[rows, cols]
        err = float(np.max(np.abs(res)))
        if iteration and not err < best_err:
            break
        best_locs, best_lam, best_err = locs, lam, err
        if err <= _POLISH_TOL or iteration == _POLISH_ITERATIONS:
            break
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
        step = step.reshape(2 * d + 2, len(lam))
        locs = locs + step[0 : 2 * d : 2].T + 1j * step[1 : 2 * d : 2].T
        lam = lam + step[2 * d] + 1j * step[2 * d + 1]
    return best_locs, best_lam


@functools.lru_cache(maxsize=64)
def _combination(dimension: int, seed: int) -> np.ndarray:
    """The pencil's coefficients c_1 .. c_d, read-only, drawn once per (d, seed)."""
    coeffs = np.random.default_rng(seed).standard_normal(dimension)
    coeffs.flags.writeable = False
    return coeffs


def _pencil_atoms(
    a: MomentMatrix, block: int, rank: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Atom locations (rank, d) and weights (rank,) from the joint pencil.

    The first `block` basis indices are those of degree <= D-1, so A_0 and
    its row shifts A_j lie inside the matrix.  On the top singular subspace
    B_0 = diag(sigma), so B_0^{-1} B_j is a row scaling; the eigenvectors Y
    of one seeded combination sum_j c_j B_0^{-1} B_j diagonalize every
    B_0^{-1} B_j, and coordinate j is diag(Y^{-1} B_0^{-1} B_j Y).  Row and
    column 0 of A_0 = U diag(sigma) V^H belong to the monomial 1, so the
    weights are (U[0] diag(sigma) Y) * (Y^{-1} V^H[:, 0]) (Hua-Sarkar 1990).
    """
    up = a.basis.shifts[0][:block]
    a0 = a.entries[:block, :block]
    shifted = np.stack([a.entries[up[:, j], :block] for j in range(a.dimension)])
    coeffs = _combination(a.dimension, seed)
    try:
        u, sigma, vh = np.linalg.svd(a0, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed in pencil setup: {exc}") from exc
    u_n = u[:, :rank]
    v_n = vh[:rank, :].conj().T
    mult = (u_n.conj().T @ shifted @ v_n) / sigma[:rank, np.newaxis]
    try:
        _, y = np.linalg.eig(np.tensordot(coeffs, mult, axes=1))
        y_inv = np.linalg.inv(y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil eigenproblem failed: {exc}") from exc
    locations = np.einsum("ka,jab,bk->kj", y_inv, mult, y)
    weights = ((u_n[0] * sigma[:rank]) @ y) * (y_inv @ v_n[0].conj())
    if not (np.all(np.isfinite(locations)) and np.all(np.isfinite(weights))):
        raise RecoveryError("pencil produced non-finite locations or weights")
    return locations, weights


def _moment_gap(locations: np.ndarray, weights: np.ndarray, whole: MomentMatrix) -> float:
    """max |A_fit - A| between the moments of the atoms (locations, weights)
    and the input `whole`, one row block (`moments._row_blocks`: about
    64 KB, at least 32 rows) of the unsymmetrized Gram product at a time, so
    no n x n temporary is made; NaN if any entry is NaN."""
    table = monomial_table(locations, whole.basis)
    left = (table * weights[:, np.newaxis]).T
    right = table.conj()
    gaps = []
    for rows in _row_blocks(whole.basis.size):
        block = left[rows] @ right
        block -= whole.entries[rows]
        gaps.append(np.max(np.abs(block)))
    return float(np.max(gaps))


def _sorted_atoms(locations: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms sorted by (re z_1, im z_1, ..., im z_d)."""
    # np.lexsort's last key is the primary one
    parts = (locations.real, locations.imag)
    keys = [part[:, j] for j in range(locations.shape[1]) for part in parts]
    order = np.lexsort(keys[::-1])
    return locations[order], weights[order]


def _fit(
    a: MomentMatrix, whole: MomentMatrix, block: int, rank: int, cfg: RecoveryConfig
) -> tuple[DiscreteMeasure, float]:
    """One pencil extraction on `a` at a prescribed rank, gated by the residual
    against the whole input `whole` (of which `a` is a leading truncation).
    Atoms of weight below rank_tol times the largest are pruned, and the
    rest, sorted by (re z_1, im z_1, ..., im z_d), are gated as arrays.
    The polish re-fits the pruned atoms only when that residual is above
    1e-8, 0.01 times the gate: below it, the residual on `a`'s entries is
    below it too, up to rounding (the two are formed by different
    products), so the polish would stop before its first step.  A fit whose
    two residuals straddle 1e-8 within rounding skips a step the polish
    would have taken.  Only an accepted fit becomes a measure, without zero
    weights."""
    locations, weights = _pencil_atoms(a, block, rank, cfg.seed)
    keep = np.abs(weights) >= cfg.rank_tol * np.max(np.abs(weights))
    locations, weights = locations[keep], weights[keep]
    fitted = _sorted_atoms(locations, weights)
    residual = _moment_gap(*fitted, whole)
    if not residual <= _POLISH_TOL:
        fitted = _sorted_atoms(*_polish_atoms(locations, weights, a))
        residual = _moment_gap(*fitted, whole)
    locations, weights = fitted
    if not residual <= _RESIDUAL_TOL:
        raise RecoveryError(
            f"residual {residual:.3e} above {_RESIDUAL_TOL:.1e} "
            f"(pencil rank {rank}, {np.count_nonzero(weights)} atoms)"
        )
    atoms = tuple(
        Atom(ComplexPoint(tuple(loc)), w) for loc, w in zip(locations, weights) if w != 0
    )
    return DiscreteMeasure(a.dimension, atoms), residual


def recover_atoms(a: MomentMatrix, cfg: RecoveryConfig = RecoveryConfig()) -> RecoveryReport:
    """Recover the atoms of a finite-rank measure from its truncated moments.

    The leading truncations A_1, A_2, ... are ranked in turn.  At every flat
    step, rank A_k = rank A_{k-1} = N > 0, the joint pencil is fitted on A_k
    alone (Curto-Fialkow: a flat block already fixes every atom) at N and,
    while the fit fails and the next singular value of A_k is not
    numerically zero, at N + 1 and N + 2.  A fit is accepted only if its
    residual against the whole input is at most 1e-6; otherwise the search
    goes on to the next flat step, and the whole matrix is fitted last.  A
    fit whose pencil fails numerically (a singular eigenvector matrix, a
    failed SVD) is a failed attempt like one that misses the gate.
    Raises RecoveryError when no block fits, e.g. when the degree-(D-1)
    block of the whole matrix is smaller than its rank, and NumericalError
    on non-finite input or an overflowing largest singular value.
    """
    return _recover(a, _leading_ranks(a, 1, cfg.rank_tol), cfg)


def _leading_ranks(a: MomentMatrix, degree: int, rel_tol: float):
    """`numerical_rank` of a's leading truncations of degree `degree`,
    degree + 1, ..., its top, each ranked when it is drawn."""
    sizes = a.basis.offsets[degree + 1 :]
    return (numerical_rank(a.entries[:size, :size], rel_tol) for size in sizes)


def _recover(a: MomentMatrix, estimates, cfg: RecoveryConfig) -> RecoveryReport:
    """`recover_atoms` given an iterator over the rank estimates of a's
    leading truncations of degree 1, 2, ..., its top, which the flat-block
    search draws one at a time, as far as it goes."""
    if not np.all(np.isfinite(a.entries)):
        raise NumericalError("moment matrix has non-finite entries")
    if not np.any(a.entries):
        return RecoveryReport(
            atoms=DiscreteMeasure(a.dimension, ()),
            residual=0.0,
            detected_rank=0,
            retries_used=0,
            rotation_seed_used=cfg.seed,
            block_degree=0,
        )
    top, offsets = a.max_degree, a.basis.offsets
    log: list[str] = []
    previous = 1 if a.entries[0, 0] != 0 else 0  # rank of the 1x1 degree-0 block
    for k, estimate in zip(range(1, top + 1), estimates):
        block = int(offsets[k])  # degree <= k - 1
        n = estimate.rank
        if n == previous > 0 or k == top:
            if block < n:
                log.append(f"degree-{k - 1} block of size {block} is below the detected rank {n}")
                break
            sv = estimate.singular_values
            ranks = [n] + [r for r in (n + 1, n + 2) if r <= block and sv[r - 1] > 1e-13 * sv[0]]
            for rank in ranks:
                try:
                    measure, residual = _fit(leading_truncation(a, k), a, block, rank, cfg)
                except (RecoveryError, NumericalError) as exc:
                    # a singular eigenvector matrix or a failed pencil SVD
                    # fails this attempt, not the search
                    log.append(f"degree {k} attempt {len(log)}: {exc}")
                    continue
                return RecoveryReport(
                    atoms=measure,
                    residual=residual,
                    detected_rank=measure.atom_count,
                    retries_used=rank - n,
                    rotation_seed_used=cfg.seed,
                    block_degree=k,
                    retry_log=tuple(log),
                )
        previous = n
    raise RecoveryError("no block fits the moments; log: " + " | ".join(log))


def recover_1d(a: MomentMatrix, cfg: RecoveryConfig = RecoveryConfig()) -> DiscreteMeasure:
    """Matrix-pencil recovery of a one-dimensional atomic measure.

    The d = 1 entry to `recover_atoms`: locations are the generalized
    eigenvalues of the compressed pencil (A_shifted, A), and the weights
    come from the same SVD and eigenvectors.
    """
    if a.dimension != 1:
        raise ValueError("recover_1d expects a one-dimensional moment matrix")
    return recover_atoms(a, cfg).atoms


def match_atoms(
    recovered: DiscreteMeasure, truth: DiscreteMeasure, location_tol: float
) -> tuple[float, float] | None:
    """Greedy one-to-one matching of atoms by location: each truth atom in
    turn takes the nearest recovered atom still free.

    Returns (max location error, max weight error), or None when the counts
    differ or a pick lies beyond location_tol.  Greedy may miss a bijection
    within location_tol (truth 0.5 and 0, recovered 0.4 and 0.9, tol 0.45),
    never when location_tol is below half the truth atoms' minimum separation.
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

    The moments are assembled once, at the top degree (max(degrees), raised
    to N + 1 for N atoms); every other matrix is a leading truncation of
    that one.  Density input: the truncation must have full rank
    binom(D + d, d) at every degree (unbounded rank growth, so no
    finite-rank representation exists).  One Cholesky factorization of the
    top matrix's shifted Hermitian part (`_full_rank_certificate`) proves
    that for every degree at once; when it declines, each truncation is
    ranked by `numerical_rank`, so the verdict is the same either way.

    Atomic input, with D = max(degrees) and A the degree-D block: the top
    matrix is the Gram product of one monomial table of the atoms, as
    `moment_matrix` forms it, and one `_BlockRanker` of A answers every
    rank below in one call, off A's one sketch where it settles them: A's
    leading blocks of degree 0 .. D, both Galerkin rescalings and the
    reweighted matrix.

    - rank_saturation: the rank equals N once the degree reaches N - 1;
    - recovery_roundtrip: recovery from the top-degree matrix returns the
      atoms within 1e-6; the flat-block search reads the battery's ranks
      up to degree D, and the measured degree is that of the block the
      atoms came from;
    - galerkin_rank_equality: the Galerkin matrices s A s under both
      kernels (`enclosing_kernel`) have the rank of A;
    - reweighting_rank_monotonicity: |g|^2 mu, for a linear g drawn from
      cfg.seed, has rank at most N, and exactly N when g vanishes on no
      atom; its degree-D matrix is the Gram product of the same monomial
      table's rows and columns, over the atoms where g is not 0, with the
      weights |g|^2 lambda (what `moment_matrix(weight_by_g(m, g), D)`
      forms);
    - submatrix_consistency (d >= 2): the alpha_1 = beta_1 = 0 block equals
      the moment matrix of the pushforward dropping z_1, within 1e-12 times
      max(1, its largest entry): the entries grow like |zeta|^(2D).
    """
    if not degrees or any(lo >= hi for lo, hi in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be a nonempty strictly increasing list")
    if degrees[0] < 0:
        raise ValueError("degrees must be >= 0")
    d_max = degrees[-1]
    if not isinstance(m, DiscreteMeasure):
        a_top = moment_matrix(m, d_max)
        expected = [int(a_top.basis.offsets[d + 1]) for d in degrees]
        if _full_rank_certificate(a_top.entries, cfg.rank_tol):
            ranks = tuple(expected)
        else:
            ranks = tuple(
                numerical_rank(leading_truncation(a_top, d), cfg.rank_tol).rank for d in degrees
            )
        measured = {"degrees": list(degrees), "ranks": list(ranks), "expected": expected}
        check = CheckResult("rank_growth", list(ranks) == expected, measured)
        return TheoremVerdict("density", tuple(degrees), ranks, (check,))

    n = m.atom_count
    top = max(d_max, n + 1)
    basis = IndexBasis(m.dimension, top)
    table = monomial_table(m.locations_matrix(), basis)
    a_top = MomentMatrix(basis, _gram(table, m.weights_vector()))
    a = leading_truncation(a_top, d_max)
    size = a.basis.size
    g_poly = random_linear_polynomial(m.dimension, cfg.seed)
    # g(zeta) in Python complex scalars, as `weight_by_g` forms it: numpy's
    # complex multiply rounds differently, and the ranks and the verdict's
    # min |g| must not move by an ulp
    g_values = [g_poly.evaluate(atom.location) for atom in m.atoms]
    kept = [k for k, gz in enumerate(g_values) if gz != 0]
    g_weights = np.array([abs(g_values[k]) ** 2 * m.atoms[k].weight for k in kept], dtype=complex)
    scales = [
        np.exp(_log_normalizers(enclosing_kernel(kind, m), a.basis))
        for kind in ("bargmann", "bergman")
    ]
    blocks = [(int(s), None) for s in a.basis.offsets[1:]] + [(size, s) for s in scales]
    reweighted = _gram(table[kept, :size], g_weights)
    *leading, bargmann, bergman, g_rank = _BlockRanker(a.entries, cfg.rank_tol).ranks(
        blocks, [reweighted]
    )
    ranks = tuple(leading[d].rank for d in degrees)
    saturation_ok = all(r == n for d, r in zip(degrees, ranks) if d >= max(n - 1, 0))
    checks = [
        CheckResult(
            "rank_saturation",
            saturation_ok,
            {"atom_count": n, "degrees": list(degrees), "ranks": list(ranks)},
        )
    ]
    try:
        estimates = itertools.chain(leading[1:], _leading_ranks(a_top, d_max + 1, cfg.rank_tol))
        report = _recover(a_top, estimates, cfg)
        matched = match_atoms(report.atoms, m, 1e-6)
        ok = matched is not None and matched[1] <= 1e-6
        measured = {
            "degree": report.block_degree,
            "residual": report.residual,
            "retries_used": report.retries_used,
        }
        if matched is not None:
            measured["location_error"] = matched[0]
            measured["weight_error"] = matched[1]
    except RecoveryError as exc:
        ok = False
        measured = {"degree": top, "error": str(exc)}
    checks.append(CheckResult("recovery_roundtrip", ok, measured))

    base_rank = ranks[-1]
    galerkin_measured = {
        kind: {"galerkin_rank": found.rank, "moment_rank": base_rank}
        for kind, found in (("bargmann", bargmann), ("bergman", bergman))
    }
    galerkin_ok = all(v["galerkin_rank"] == base_rank for v in galerkin_measured.values())
    checks.append(CheckResult("galerkin_rank_equality", galerkin_ok, galerkin_measured))

    rank_g = g_rank.rank
    min_g = min((abs(gz) for gz in g_values), default=1.0)
    # g vanishing on an atom (|g| <= 1e-6 there) may drop the rank
    mono_ok = rank_g <= base_rank and (min_g <= 1e-6 or rank_g == base_rank)
    checks.append(
        CheckResult(
            "reweighting_rank_monotonicity",
            mono_ok,
            {"rank": base_rank, "rank_reweighted": rank_g, "min_abs_g_on_atoms": min_g},
        )
    )

    if m.dimension >= 2:
        sub = submatrix_drop_first(a)
        push = moment_matrix(pushforward_drop_coord(m, 0), d_max)
        gap = float(np.max(np.abs(sub.entries - push.entries)))
        ok = gap <= 1e-12 * max(1.0, float(np.max(np.abs(sub.entries))))
        checks.append(CheckResult("submatrix_consistency", ok, {"max_entry_gap": gap}))
    return TheoremVerdict("atomic", tuple(degrees), ranks, tuple(checks))
