"""fenchelfix: fixed points of Legendre-Fenchel type transforms.

Construct the closed-form quadratic solutions of
``f(x) = tau f*(Ex + c) + <w, x> + beta``, classify when they are unique or
fail to exist, and verify candidates numerically — backed by an exact
quadratic conjugation calculus, a deterministic symmetric eigensolver, and
a discrete Legendre-Fenchel transform with a brute-force oracle.
"""

from .errors import (
    AllInfinite,
    BadDeterminant,
    DimMismatch,
    EmptyList,
    FenchelFixError,
    NotInvolution,
    NotPositiveDefinite,
    NotPSD,
    NotSymmetric,
    NumericalFailure,
    ParseError,
    Singular,
    UnknownDemo,
)
from .tolerances import DEFAULT_TOL, Tolerances
from .linalg import (
    Definiteness,
    Spectral,
    definiteness,
    eigendecompose,
    invert,
    solve_min_norm,
)
from .quadratic import (
    DirectSum,
    DualParams,
    QuadraticFn,
    TransformParams,
    apply_transform,
    conjugate_quadratic,
    direct_sum,
    dual_params,
    energy,
    is_convex,
    is_strictly_convex,
)
from .reports import ResidualReport
from .fixpoint import (
    Classification,
    Tag,
    check_involution_psd,
    classify,
    functional_differential_residual,
    functional_eq_residual,
    g_scaling_residual,
    lower_envelope,
    quarter_turn_params,
    self_adjoint_system,
    shift_equation_residual,
    skew_solution,
    solve_lql,
    solve_positive_definite,
    solve_self_adjoint,
    solve_symmetric,
    transform_residual,
    upper_envelope,
    verify_form_quadratic,
    x0_point,
)
from .discrete import (
    SampledFn,
    SampledFn2D,
    SignFlipSolution,
    biconjugate,
    brute_conjugate,
    conjugate_2d_brute,
    fast_conjugate,
    fenchel_young_check,
    grid_fixed_point_residual,
    lower_hull,
    sample,
    uniform_grid,
)
from .sampling import instance_seed, sample_points

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
