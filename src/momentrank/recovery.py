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
    weight_by_g,
)
from .moments import (
    MomentMatrix,
    NumericalError,
    RankResult,
    _RANK_TOL,
    _full_rank_certificate,
    _gram,
    leading_truncation,
    moment_matrix,
    monomial_table,
    numerical_rank,
    submatrix_drop_first,
)
from .operators import enclosing_kernel, galerkin_matrix

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
_GAP_BLOCK_BYTES = 1 << 20


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
    """Index pairs (i, j) of the moment equations used for weight fitting.

    Small bases use every pair; larger ones use the spanning subset of
    first-column, first-row, and diagonal equations, which stays
    overdetermined without materializing size^2 rows.
    """
    if n <= 100:
        return np.divmod(np.arange(n * n), n)
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
        if err <= 0.01 * _RESIDUAL_TOL or iteration == _POLISH_ITERATIONS:
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
        u, sigma, vh = np.linalg.svd(a0, full_matrices=False)
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


def _moment_gap(locations: np.ndarray, weights: np.ndarray, whole: MomentMatrix) -> float:
    """max |A_fit - A| between the moments of the atoms (locations, weights)
    and the input `whole`, one ~1 MB row block of the unsymmetrized Gram
    product at a time (inputs up to n = 256 are one block); NaN if any
    entry is NaN."""
    table = monomial_table(locations, whole.basis)
    left = (table * weights[:, np.newaxis]).T
    right = table.conj()
    n = whole.basis.size
    step = max(1, _GAP_BLOCK_BYTES // (16 * n))
    gaps = []
    for start in range(0, n, step):
        block = left[start : start + step] @ right
        block -= whole.entries[start : start + step]
        gaps.append(np.max(np.abs(block)))
    return float(np.max(gaps))


def _fit(
    a: MomentMatrix, whole: MomentMatrix, block: int, rank: int, cfg: RecoveryConfig
) -> tuple[DiscreteMeasure, float]:
    """One pencil extraction on `a` at a prescribed rank, gated by the residual
    against the whole input `whole` (of which `a` is a leading truncation).
    The atoms are sorted by (re z_1, im z_1, ..., im z_d) and gated as
    arrays; only an accepted fit becomes a measure, without zero weights."""
    locations = _pencil_locations(a, block, rank, cfg.seed)
    weights = _solve_weights(a, locations)
    keep = np.abs(weights) >= cfg.rank_tol * np.max(np.abs(weights))
    if not keep.all():
        locations = locations[keep]
        weights = _solve_weights(a, locations)
    locations, weights = _polish_atoms(locations, weights, a)
    # np.lexsort's last key is the primary one
    keys = [part[:, j] for j in range(a.dimension) for part in (locations.real, locations.imag)]
    order = np.lexsort(keys[::-1])
    locations, weights = locations[order], weights[order]
    residual = _moment_gap(locations, weights, whole)
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
    goes on to the next flat step, and the whole matrix is fitted last.
    Raises RecoveryError when no block fits, e.g. when the degree-(D-1)
    block of the whole matrix is smaller than its rank, and NumericalError
    on non-finite input.
    """
    return _recover(a, {}, cfg)


def _recover(
    a: MomentMatrix, ranked: dict[int, RankResult], cfg: RecoveryConfig
) -> RecoveryReport:
    """`recover_atoms` given the rank estimates, by degree, of leading
    truncations of `a` that the caller already holds."""
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
    for k in range(1, top + 1):
        block, size = int(offsets[k]), offsets[k + 1]  # degree <= k - 1, degree <= k
        if k in ranked:
            estimate = ranked[k]
        else:
            estimate = numerical_rank(a.entries[:size, :size], cfg.rank_tol)
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
                except RecoveryError as exc:
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

    The moments are assembled once, at the top degree (max(degrees), raised
    to N + 1 for N atoms); every other matrix is a leading truncation of
    that one.  Density input: the truncation must have full rank
    binom(D + d, d) at every degree (unbounded rank growth, so no
    finite-rank representation exists).  One Cholesky factorization of the
    top matrix's shifted Hermitian part (`_full_rank_certificate`) proves
    that for every degree at once; when it declines, each truncation is
    ranked by `numerical_rank`, so the verdict is the same either way.
    Atomic input, with D = max(degrees):

    - rank_saturation: the rank equals N once the degree reaches N - 1;
    - recovery_roundtrip: recovery from the top-degree matrix returns the
      atoms within 1e-6; the flat-block search reuses the battery's ranks,
      and the measured degree is that of the block the atoms came from;
    - galerkin_rank_equality: the degree-D Galerkin matrices under both
      kernels (`enclosing_kernel`) have the moment matrix's rank;
    - reweighting_rank_monotonicity: |g|^2 mu, for a linear g drawn from
      cfg.seed, has rank at most N, and exactly N when g vanishes on no atom;
    - submatrix_consistency (d >= 2): the alpha_1 = beta_1 = 0 block equals
      the moment matrix of the pushforward dropping z_1, within 1e-12.
    """
    if not degrees or any(lo >= hi for lo, hi in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be a nonempty strictly increasing list")
    atomic = isinstance(m, DiscreteMeasure)
    d_max = degrees[-1]
    top = max(d_max, m.atom_count + 1) if atomic else d_max
    a_top = moment_matrix(m, top)
    truncations = [leading_truncation(a_top, d) for d in degrees]
    if not atomic:
        expected = [t.basis.size for t in truncations]
        if _full_rank_certificate(a_top.entries, cfg.rank_tol):
            ranks = tuple(expected)
        else:
            ranks = tuple(numerical_rank(t, cfg.rank_tol).rank for t in truncations)
        measured = {"degrees": list(degrees), "ranks": list(ranks), "expected": expected}
        check = CheckResult("rank_growth", list(ranks) == expected, measured)
        return TheoremVerdict("density", tuple(degrees), ranks, (check,))

    estimates = [numerical_rank(t, cfg.rank_tol) for t in truncations]
    ranks = tuple(e.rank for e in estimates)
    n = m.atom_count
    saturation_ok = all(r == n for d, r in zip(degrees, ranks) if d >= max(n - 1, 0))
    checks = [
        CheckResult(
            "rank_saturation",
            saturation_ok,
            {"atom_count": n, "degrees": list(degrees), "ranks": list(ranks)},
        )
    ]
    try:
        report = _recover(a_top, dict(zip(degrees, estimates)), cfg)
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

    a, base_rank = truncations[-1], ranks[-1]
    galerkin_measured = {}
    for kind in ("bargmann", "bergman"):
        gal = galerkin_matrix(enclosing_kernel(kind, m), m, d_max)
        g_rank = numerical_rank(gal, cfg.rank_tol).rank
        galerkin_measured[kind] = {"galerkin_rank": g_rank, "moment_rank": base_rank}
    galerkin_ok = all(v["galerkin_rank"] == base_rank for v in galerkin_measured.values())
    checks.append(CheckResult("galerkin_rank_equality", galerkin_ok, galerkin_measured))

    g_poly = random_linear_polynomial(m.dimension, cfg.seed)
    rank_g = numerical_rank(moment_matrix(weight_by_g(m, g_poly), d_max), cfg.rank_tol).rank
    min_g = min((abs(g_poly.evaluate(atom.location)) for atom in m.atoms), default=1.0)
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
        checks.append(CheckResult("submatrix_consistency", gap <= 1e-12, {"max_entry_gap": gap}))
    return TheoremVerdict("atomic", tuple(degrees), ranks, tuple(checks))
