"""momentrank: truncated moment matrices, Toeplitz Galerkin ranks, and
atomic-measure recovery for complex measures on C^d.

A measure built from finitely many point masses yields a finite-rank moment
matrix and finite-rank Bargmann/Bergman Toeplitz operators; an absolutely
continuous measure yields full-rank truncations at every degree.  This
package constructs both sides numerically and recovers the atoms of a
finite-rank measure from its moments alone.
"""

from . import measures, moments, operators, recovery
from .measures import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .recovery import *  # noqa: F401,F403

__version__ = "0.1.0"

# every module's __all__ is its public surface; the package re-exports them
__all__ = measures.__all__ + moments.__all__ + operators.__all__ + recovery.__all__
