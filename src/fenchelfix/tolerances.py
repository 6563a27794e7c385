"""Centralized numerical tolerances.

The thresholds of the linear-algebra predicates and the case analysis
(symmetry, singularity, definiteness, consistency, parameter matching)
live in one record so that tests and the CLI can tighten or loosen them
uniformly (``--tol-scale``).  Fixed constants outside it: the demos' pass
gates, the grid-node snap of ``fenchel_young_check``, the ``det(B) = 1``
check of ``skew_solution`` and the eigenvector sign-fix threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    #: relative symmetry slack: |M_ij - M_ji| <= sym * max(1, max|M|)
    sym: float = 1e-9
    #: singularity cutoff: a matrix is singular when its smallest |eigenvalue|
    #: (symmetric) or singular value (general) is <= sing_rel * max(1, largest)
    sing_rel: float = 1e-10
    #: definiteness band for both the definite and the semidefinite checks:
    #: eigenvalues within pd of zero count as zero
    pd: float = 1e-10
    #: slope-system consistency, relative: in E's eigenbasis, the right side on
    #: the null directions of I + S has norm <= cons_rel * (1 + ||rhs||)
    cons_rel: float = 1e-8
    #: gate for the involution precondition ||Q^2 - I||_max
    involution: float = 1e-8
    #: exact-match slack when classifying transform parameters
    param_match: float = 1e-12

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every tolerance multiplied by ``factor``."""
        if not 0.0 < factor < float("inf"):  # NaN fails this too
            raise ValueError("tolerance scale must be positive and finite")
        return replace(
            self,
            **{name: getattr(self, name) * factor for name in self.__dataclass_fields__},
        )


DEFAULT_TOL = Tolerances()
