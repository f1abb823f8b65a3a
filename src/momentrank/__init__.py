"""momentrank: truncated moment matrices, Toeplitz Galerkin ranks, and
atomic-measure recovery for complex measures on C^d.

A measure built from finitely many point masses yields a finite-rank moment
matrix and finite-rank Bargmann/Bergman Toeplitz operators; an absolutely
continuous measure yields full-rank truncations at every degree.  This
package constructs both sides numerically and recovers the atoms of a
finite-rank measure from its moments alone.
"""

from .measures import (
    Atom,
    ComplexPoint,
    DensityMeasure,
    DensitySpec,
    DiscreteMeasure,
    Polydisk,
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
from .moments import (
    IndexBasis,
    MomentMatrix,
    MultiIndex,
    NumericalError,
    QuadratureError,
    RankResult,
    leading_truncation,
    moment_entry,
    moment_matrix,
    numerical_rank,
    reweight_moments,
    rotate_moments,
    submatrix_drop_coord,
    submatrix_drop_first,
)
from .operators import (
    DomainError,
    GalerkinMatrix,
    KernelSpec,
    galerkin_matrix,
    kernel_eval,
    spectrum,
    toeplitz_apply,
)
from .recovery import (
    CheckResult,
    RecoveryConfig,
    RecoveryError,
    RecoveryReport,
    TheoremVerdict,
    match_atoms,
    recover_1d,
    recover_atoms,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CheckResult",
    "ComplexPoint",
    "DensityMeasure",
    "DensitySpec",
    "DiscreteMeasure",
    "DomainError",
    "GalerkinMatrix",
    "IndexBasis",
    "KernelSpec",
    "MomentMatrix",
    "MultiIndex",
    "NumericalError",
    "Polydisk",
    "PolynomialWeight",
    "QuadratureError",
    "RankResult",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryReport",
    "TheoremVerdict",
    "UnitarityError",
    "galerkin_matrix",
    "generate_measure",
    "kernel_eval",
    "leading_truncation",
    "match_atoms",
    "moment_entry",
    "moment_matrix",
    "numerical_rank",
    "perturb_weight",
    "pushforward_drop_coord",
    "random_linear_polynomial",
    "random_unitary",
    "recover_1d",
    "recover_atoms",
    "reweight_moments",
    "rotate_moments",
    "rotate_unitary",
    "spectrum",
    "submatrix_drop_coord",
    "submatrix_drop_first",
    "toeplitz_apply",
    "verify_theorem",
    "weight_by_g",
]
