"""Solvers, classifier and residual verifiers for the fixed-point equation.

The equation under study is ``f(x) = tau f*(Ex + c) + <w, x> + beta`` with
``f*`` the Legendre-Fenchel transform.  Depending on E and the scalars it
has a unique solution, many solutions, or none.  A quadratic fixed point
obeys three relations with S = tau E^T A^{-1}: A = S E, a slope system and a
constant.  Both closed-form constructions choose A and S as functions of E,
built from E's cached spectrum, which A keeps; the slope follows in E's
eigenbasis, where the slope system is diagonal, and both share the constant.
``verify_form_quadratic`` checks all three relations.  The module also detects
the proven nonexistence patterns, classifies everything else honestly, and
provides residual checks for every identity a solution must satisfy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import linalg
from .errors import (
    BadDeterminant,
    DimMismatch,
    EmptyList,
    NotInvolution,
    NotPositiveDefinite,
    NotPSD,
    NotSymmetric,
    Singular,
)
from .quadratic import QuadraticFn, TransformParams, apply_transform
from .reports import ResidualReport, report_from_residuals
from .sampling import sample_points
from .tolerances import DEFAULT_TOL, Tolerances


class Tag(enum.Enum):
    UNIQUE_ALL_FUNCTIONS = "UniqueAllFunctions"
    UNIQUE_IN_QUADRATIC_INVERTIBLE_CLASS = "UniqueInQuadraticInvertibleClass"
    UNIQUE_IN_C2_CLASS = "UniqueInC2Class"
    QUADRATIC_SOLUTION_EXISTS = "QuadraticSolutionExists"
    NO_SOLUTION = "NoSolution"
    NO_QUADRATIC_SOLUTION_IN_CONSTRUCTION = "NoQuadraticSolutionInConstruction"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Classification:
    """Tagged outcome of the case analysis, with the constructed solution
    when the tag implies one and the distinguished point x0 for the
    C2-class uniqueness branch."""

    tag: Tag
    solution: Optional[QuadraticFn] = None
    x0: Optional[np.ndarray] = None
    note: str = ""


def _symmetric_spectrum(p: TransformParams, tol: Tolerances) -> linalg.Spectral:
    """The cached spectrum of E, behind the symmetry gate at ``tol``."""
    spec = p.symmetric_spectrum(tol)
    if spec is None:
        raise NotSymmetric("E must be symmetric for this construction")
    return spec


def _psd_spectrum(p: TransformParams, tol: Tolerances, need: str) -> linalg.Spectral:
    """The cached spectrum of E, for a result that holds for symmetric PSD E."""
    spec = p.symmetric_spectrum(tol)
    if spec is None or not spec.psd(tol):
        raise NotPSD(f"{need} requires positive semidefinite (hence symmetric) E")
    return spec


def _constant(p: TransformParams, a_inv: np.ndarray, b: np.ndarray) -> float:
    """A fixed point's constant (beta + tau/2 <c - b, A^{-1}(c - b)>) / (tau + 1)."""
    diff = p.c - b
    return (p.beta + 0.5 * p.tau * float(diff @ a_inv @ diff)) / (p.tau + 1.0)


def _fixed_point(p: TransformParams, spec: linalg.Spectral, b: np.ndarray) -> QuadraticFn:
    """The fixed point with A = ``spec``, a function of E it keeps, and slope b."""
    return QuadraticFn._from_spectrum(spec, b, _constant(p, spec.apply(lambda d: 1.0 / d), b))


def solve_positive_definite(p: TransformParams, tol: Tolerances = DEFAULT_TOL) -> QuadraticFn:
    """Closed-form strictly convex quadratic solution for positive definite E.

    A = sqrt(tau) E, so S = sqrt(tau) I and b = (w + sqrt(tau) c) / (1 + sqrt(tau)).
    """
    spec = _symmetric_spectrum(p, tol)
    if not spec.positive_definite(tol):
        raise NotPositiveDefinite("E must be positive definite")
    rt = np.sqrt(p.tau)
    b = (p.w + rt * p.c) / (1.0 + rt)
    return _fixed_point(p, linalg.Spectral(rt * spec.eigenvalues, spec.vectors), b)


def solve_self_adjoint(
    p: TransformParams, tol: Tolerances = DEFAULT_TOL
) -> Optional[QuadraticFn]:
    """Quadratic solution for symmetric invertible E of any definiteness.

    A = sqrt(tau)|E| and S = sqrt(tau) sign(E) share E's eigenvectors U, so
    the slope system is diagonal in that basis: lam b' = U^T w + sqrt(tau)
    sign(d) U^T c with lam = 1 + sqrt(tau) sign(d).  Directions where lam is
    singular (``linalg._cutoff``) get b' = 0.  The result is None when the
    right side there exceeds ``cons_rel * (1 + ||rhs||)``: the slope system is
    inconsistent and the construction produces no quadratic solution.
    """
    spec = _symmetric_spectrum(p, tol)
    if spec.singular(tol):
        raise Singular("E must be invertible")
    rt = np.sqrt(p.tau)
    u, flip = spec.vectors, rt * np.sign(spec.eigenvalues)
    lam = 1.0 + flip
    rhs = u.T @ p.w + flip * (u.T @ p.c)
    null = np.abs(lam) <= linalg._cutoff(lam, tol)
    if float(np.linalg.norm(rhs[null])) > tol.cons_rel * (1.0 + float(np.linalg.norm(rhs))):
        return None
    b = u @ np.divide(rhs, lam, out=np.zeros_like(rhs), where=~null)
    return _fixed_point(p, linalg.Spectral(rt * np.abs(spec.eigenvalues), u), b)


def verify_form_quadratic(
    p: TransformParams, q: QuadraticFn, tol: Tolerances = DEFAULT_TOL
) -> ResidualReport:
    """Residuals of the three relations a quadratic fixed point obeys, for any E.

    With S = tau E^T A^{-1}: A = S E, the slope system (I + S) b = w + S c,
    and gamma = (beta + tau/2 <c - b, A^{-1}(c - b)>) / (tau + 1).  A must
    be positive definite: ``QuadraticFn.a_inverse`` is the gate.
    """
    if p.dim != q.dim:
        raise DimMismatch("transform and quadratic dimensions differ")
    a_inv = q.a_inverse(tol)
    s = p.tau * p.E.T @ a_inv
    r1 = float(np.abs(q.A - s @ p.E).max())
    r2 = float(np.abs((s + np.eye(p.dim)) @ q.b - (p.w + s @ p.c)).max())
    r3 = abs(q.gamma - _constant(p, a_inv, q.b))
    return report_from_residuals([r1, r2, r3])


def x0_point(p: TransformParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The point (1/(1-tau)) E^{-1}(w - c) where C2 regularity is assumed."""
    if abs(p.tau - 1.0) <= tol.param_match:
        raise ValueError("x0 is defined only for tau != 1")
    e_inv = p.e_inverse(tol)
    return (e_inv @ p.w - e_inv @ p.c) / (1.0 - p.tau)


def _matches_nonexistence_pattern(p: TransformParams, eps: float) -> bool:
    minus_i = float(np.abs(p.E + np.eye(p.dim)).max()) <= eps
    if not (minus_i and abs(p.tau - 1.0) <= eps and abs(p.beta) <= eps):
        return False
    c0 = float(np.abs(p.c).max()) <= eps
    w0 = float(np.abs(p.w).max()) <= eps
    return (c0 and not w0) or (w0 and not c0)


def classify(
    p: TransformParams,
    candidate: Optional[QuadraticFn] = None,
    points: Optional[np.ndarray] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Classification:
    """Case analysis of the fixed-point equation for the given parameters.

    Branches, in order: positive definite E with tau = 1 and c = w (unique
    among all functions); positive definite E with tau != 1 (unique in the
    class with second derivative continuous at x0); positive definite E
    otherwise (unique among quadratics with invertible leading coefficient);
    the sign-flip nonexistence patterns (E = -I, tau = 1, beta = 0, exactly
    one of c, w zero); symmetric non-definite E (run the spectral
    construction); non-symmetric E (undetermined — no decision procedure is
    known, so only a best-effort residual scan of a supplied candidate).
    """
    eps = tol.param_match
    spec = p.symmetric_spectrum(tol)
    if spec is None:
        if linalg.is_singular(p.E, tol):
            raise Singular("matrix is singular within tolerance")
        note = "E is not symmetric; no decision procedure is available"
        if candidate is not None:
            pts = points if points is not None else sample_points(p.dim, 100)
            scan = transform_residual(p, candidate, pts, tol)
            note += f"; candidate residual max {scan.max_abs:.3e} over {scan.sample_points} points"
        return Classification(Tag.UNDETERMINED, note=note)

    if spec.singular(tol):
        raise Singular("E must be invertible")
    if spec.positive_definite(tol):
        solution = solve_positive_definite(p, tol)
        if abs(p.tau - 1.0) <= eps and float(np.abs(p.c - p.w).max()) <= eps:
            return Classification(
                Tag.UNIQUE_ALL_FUNCTIONS,
                solution=solution,
                note="unique among all extended-real functions",
            )
        if abs(p.tau - 1.0) > eps:
            return Classification(
                Tag.UNIQUE_IN_C2_CLASS,
                solution=solution,
                x0=x0_point(p, tol),
                note="unique among functions with second derivative continuous at x0",
            )
        return Classification(
            Tag.UNIQUE_IN_QUADRATIC_INVERTIBLE_CLASS,
            solution=solution,
            note="unique among quadratics with invertible leading coefficient",
        )
    if _matches_nonexistence_pattern(p, eps):
        return Classification(
            Tag.NO_SOLUTION,
            note="matches a proven sign-flip nonexistence pattern",
        )
    solution = solve_self_adjoint(p, tol)
    if solution is None:
        return Classification(
            Tag.NO_QUADRATIC_SOLUTION_IN_CONSTRUCTION,
            note="slope system of the spectral construction is inconsistent",
        )
    return Classification(
        Tag.QUADRATIC_SOLUTION_EXISTS,
        solution=solution,
        note="construction succeeded; solutions are non-unique in general",
    )


def _gate(dim: int, points: Iterable, *fns) -> np.ndarray:
    """The residual checks' one input gate: each quadratic in ``fns`` has dimension
    ``dim``, and the points are a nonempty, finite ``(K, dim)`` array, one per row."""
    if any(isinstance(f, QuadraticFn) and f.dim != dim for f in fns):
        raise DimMismatch("transform and quadratic dimensions differ")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyList("a residual check needs at least one point")
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimMismatch("points dimension does not match the transform")
    if not np.isfinite(pts).all():
        raise ValueError("point entries must be finite")
    return pts


def _values(f: Callable[[np.ndarray], float], pts: np.ndarray) -> np.ndarray:
    """Values of f at the rows of pts: one array pass for a quadratic, one
    call per row for any other callable, which must return one finite value
    (a float or a size-1 array) per point."""
    if isinstance(f, QuadraticFn):
        return f.values(pts)
    out = [np.asarray(f(x), dtype=float) for x in pts]
    if any(v.size != 1 for v in out):
        raise DimMismatch("a checked function must return one value per point")
    values = np.array([v.item() for v in out])
    if not np.isfinite(values).all():
        raise ValueError("a checked function must be finite at every point")
    return values


def transform_residual(
    p: TransformParams,
    q: QuadraticFn,
    points: Iterable,
    tol: Tolerances = DEFAULT_TOL,
) -> ResidualReport:
    """Pointwise gap between q and its transform: zero exactly at fixed points.

    Besides the absolute gap the report carries ``max_rel``, the largest
    ``|q - Tq| / (1 + |q| + |Tq|)``, which means the same at every scale of
    tau, E and the function values.
    """
    pts = _gate(p.dim, points, q)
    tq = apply_transform(p, q, tol)
    fq, ftq = q.values(pts), tq.values(pts)
    return report_from_residuals(fq - ftq, pts, scale=1.0 + np.abs(fq) + np.abs(ftq))


Variant = str  # "Tsquared" | "General" | "SelfAdjoint"


def functional_eq_residual(
    p: TransformParams,
    f: Callable[[np.ndarray], float],
    variant: Variant,
    points: Iterable,
    tol: Tolerances = DEFAULT_TOL,
) -> ResidualReport:
    """Residual of a functional identity every solution satisfies.

    ``Tsquared`` checks the identity obtained by applying the transform
    twice and expanding the inner conjugate:

        f(x) = tau^2 f(tau^{-1} (E^{-1})^T (Ex + c - w))
               + <w - tau E^T E^{-1} c, x>
               + tau <w, E^{-1} c> - tau <E^{-1} c, c> + beta (1 - tau).

    ``General`` checks the forward form obtained through biconjugation,
    with y = tau E^{-1} E^T x + E^{-1} w - E^{-1} c:

        f(y) = tau^2 f(x) + <w, y> - tau^2 <c, x> + beta (1 - tau).

    ``SelfAdjoint`` is the same with E^{-1} E^T = I, requiring symmetric E.
    All three are exact consequences of the fixed-point equation; the
    closed-form solutions drive every one of them to roundoff.
    """
    if variant not in ("Tsquared", "General", "SelfAdjoint"):
        raise ValueError(f"unknown variant {variant!r}")
    pts = _gate(p.dim, points, f)
    if variant == "SelfAdjoint" and p.symmetric_spectrum(tol) is None:
        raise NotSymmetric("SelfAdjoint variant requires symmetric E")
    e_inv = p.e_inverse(tol)
    tau, c, w, beta = p.tau, p.c, p.w, p.beta
    e_inv_c = e_inv @ c
    if variant == "Tsquared":
        back = e_inv.T / tau
        lin = w - tau * (p.E.T @ e_inv_c)
        const = tau * float(w @ e_inv_c) - tau * float(e_inv_c @ c) + beta * (1.0 - tau)
        inner = (pts @ p.E.T + c - w) @ back.T
        residuals = _values(f, pts) - (tau**2 * _values(f, inner) + pts @ lin + const)
    else:
        fwd = tau * np.eye(p.dim) if variant == "SelfAdjoint" else tau * (e_inv @ p.E.T)
        y = pts @ fwd.T + (e_inv @ w - e_inv_c)
        residuals = _values(f, y) - (
            tau**2 * _values(f, pts) + y @ w - tau**2 * (pts @ c) + beta * (1.0 - tau)
        )
    return report_from_residuals(residuals, pts)


def lower_envelope(p: TransformParams) -> QuadraticFn:
    """Quadratic minorant every solution dominates.

    Q = 2 tau/(tau+1) E (symmetrized, from E's cached spectrum, which Q
    keeps), q = (w + tau c)/(tau + 1),
    theta = beta/(tau + 1); a direct consequence of the Fenchel-Young
    inequality at s = Ex + c.
    """
    tau, spec = p.tau, p._spectrum
    q_mat = linalg.Spectral((2.0 * tau / (tau + 1.0)) * spec.eigenvalues, spec.vectors)
    q_vec = (p.w + tau * p.c) / (tau + 1.0)
    return QuadraticFn._from_spectrum(q_mat, q_vec, p.beta / (tau + 1.0))


def upper_envelope(p: TransformParams, tol: Tolerances = DEFAULT_TOL) -> QuadraticFn:
    """Quadratic majorant of every solution, for symmetric PSD invertible E.

    Computed compositionally: the transform reverses pointwise order, so
    applying it to the lower envelope yields an upper bound.  This route
    gives leading coefficient (tau+1)/2 E.  (An alternative closed form
    with leading coefficient (tau+1)/2 E^{-1} circulates but fails the
    bound already for E = 2I, tau = 1; the regression tests pin this down.)
    """
    if _psd_spectrum(p, tol, "the upper envelope").singular(tol):
        raise Singular("upper envelope requires invertible E")
    return apply_transform(p, lower_envelope(p), tol)


def g_scaling_residual(
    p: TransformParams,
    f: Callable[[np.ndarray], float],
    p2: Callable[[np.ndarray], float],
    points: Iterable,
    tol: Tolerances = DEFAULT_TOL,
) -> ResidualReport:
    """Scaling-law residual for the difference g = f - p2 of two solutions.

    For symmetric PSD invertible E, any two solutions differ by a
    continuous g with g(tau x + E^{-1} w - E^{-1} c) = tau^2 g(x).
    """
    pts = _gate(p.dim, points, f, p2)
    _psd_spectrum(p, tol, "the scaling law")
    e_inv = p.e_inverse(tol)
    shift = e_inv @ p.w - e_inv @ p.c
    y = p.tau * pts + shift
    g_y = _values(f, y) - _values(p2, y)
    residuals = g_y - p.tau**2 * (_values(f, pts) - _values(p2, pts))
    return report_from_residuals(residuals, pts)


def solve_lql(l_matrix, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unique monotone solution Q of L Q L = Q^{-1} for positive definite L.

    Restricted to linear operators the answer is Q = L^{-1}.
    """
    spec = linalg.eigendecompose(l_matrix, tol)
    if not spec.positive_definite(tol):
        raise NotPositiveDefinite("solve_lql requires a positive definite matrix")
    return spec.apply(lambda d: 1.0 / d)


def check_involution_psd(q_matrix, tol: Tolerances = DEFAULT_TOL) -> ResidualReport:
    """Distance of a PSD involution from the identity (it must be I).

    Requires Q PSD with ||Q^2 - I||_max within the involution gate; the
    reported max_abs is ||Q - I||_max.
    """
    q = linalg.as_symmetric(q_matrix, tol)
    if not linalg.eigendecompose(q, tol).psd(tol):
        raise NotPSD("check_involution_psd requires a PSD matrix")
    n = q.shape[0]
    if float(np.abs(q @ q - np.eye(n)).max()) > tol.involution:
        raise NotInvolution("Q^2 differs from the identity beyond tolerance")
    gap = np.abs(q - np.eye(n))
    return report_from_residuals(gap.ravel())


def functional_differential_residual(
    p: TransformParams,
    q: QuadraticFn,
    points: Iterable,
    tol: Tolerances = DEFAULT_TOL,
) -> ResidualReport:
    """Residual of the gradient-inverse form of the fixed-point equation.

    For differentiable f the conjugate satisfies
    f*(y) = <y, u> - f(u) with u = (f')^{-1}(y), so a solution obeys
    f(x) = tau (<y, u> - f(u)) + <w, x> + beta at y = Ex + c.  For a
    quadratic with positive definite A the gradient inverse is explicit:
    u = A^{-1}(y - b).
    """
    pts = _gate(p.dim, points, q)
    a_inv = q.a_inverse(tol)
    y = pts @ p.E.T + p.c
    u = (y - q.b) @ a_inv.T
    conj = np.einsum("ij,ij->i", y, u) - q.values(u)
    residuals = q.values(pts) - (p.tau * conj + pts @ p.w + p.beta)
    return report_from_residuals(residuals, pts)


def quarter_turn_params() -> TransformParams:
    """Planar rotation parameters (x1, x2) -> (x2, -x1) with tau = 1, c = w = 0, beta = 0."""
    return TransformParams(
        E=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        c=np.zeros(2),
        w=np.zeros(2),
        tau=1.0,
        beta=0.0,
    )


def skew_solution(b_matrix, tol: Tolerances = DEFAULT_TOL) -> QuadraticFn:
    """Solution 1/2 <Bx, x> of the planar rotation equation.

    Any symmetric positive semidefinite 2x2 B with det(B) = 1 works, which
    is how the rotation case acquires infinitely many quadratic solutions.
    """
    b = linalg.as_symmetric(b_matrix, tol)
    if b.shape[0] != 2:
        raise DimMismatch("skew_solution is a 2x2 construction")
    if not linalg.eigendecompose(b, tol).psd(tol):
        raise NotPSD("B must be positive semidefinite")
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise BadDeterminant(f"det(B) = {det} but must equal 1")
    return QuadraticFn(b, np.zeros(2), 0.0)
