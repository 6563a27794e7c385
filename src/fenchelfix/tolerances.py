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
    #: eigenvalue threshold separating definite from semidefinite
    pd: float = 1e-10
    #: most negative eigenvalue tolerated in PSD checks
    psd: float = 1e-10
    #: linear-system consistency, relative: ||Mx - rhs|| <= cons_rel * (1 + ||rhs||)
    cons_rel: float = 1e-8
    #: gate for the involution precondition ||Q^2 - I||_max
    involution: float = 1e-8
    #: exact-match slack when classifying transform parameters
    param_match: float = 1e-12

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every tolerance multiplied by ``factor``."""
        if factor <= 0.0:
            raise ValueError("tolerance scale must be positive")
        return replace(
            self,
            **{name: getattr(self, name) * factor for name in self.__dataclass_fields__},
        )


DEFAULT_TOL = Tolerances()
