"""Exact conjugation calculus for quadratic functions.

A quadratic ``f(x) = 1/2 <Ax, x> + <b, x> + gamma`` with positive definite
leading coefficient has the closed-form conjugate
``f*(s) = 1/2 <A^{-1}(s - b), s - b> - gamma``, and the deformed-conjugation
transform ``T[E, c, w, tau, beta](f)(x) = tau f*(Ex + c) + <w, x> + beta``
maps quadratics to quadratics.  This module implements that calculus exactly
(in working precision) together with the dual parameters of the conjugate
transform and direct sums of blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import DimMismatch, EmptyList, NotPositiveDefinite, OutOfRange
from .tolerances import DEFAULT_TOL, Tolerances


def _frozen_array(value) -> np.ndarray:
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadraticFn:
    """x -> 1/2 <Ax, x> + <b, x> + gamma with symmetric leading coefficient."""

    A: np.ndarray
    b: np.ndarray
    gamma: float = 0.0

    def __post_init__(self):
        a = linalg.as_symmetric(self.A)
        b = linalg.as_vector(self.b, a.shape[0])
        if not -np.inf < float(self.gamma) < np.inf:
            raise ValueError("gamma must be finite")
        object.__setattr__(self, "A", _frozen_array(a))
        object.__setattr__(self, "b", _frozen_array(b))
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def spectrum(self) -> linalg.Spectral:
        """Eigendecomposition of A, computed once (A is read-only)."""
        return linalg.eigendecompose(self.A)

    def __call__(self, x) -> float:
        """The value at one point, checked once.

        A point of shape ``(dim,)`` with every entry finite is evaluated
        directly; any other input goes through ``linalg.as_vector``, which
        raises its usual error (a non-finite entry is a ``ValueError``, a
        wrong shape a ``DimMismatch``).  The finiteness test runs before
        any arithmetic, so a NaN or infinite point raises and never warns.
        """
        v = np.asarray(x, dtype=float)
        if v.shape != self.b.shape or not np.isfinite(v).all():
            v = linalg.as_vector(v, self.dim)
        return float(0.5 * v @ self.A @ v + self.b @ v + self.gamma)

    def values(self, xs) -> np.ndarray:
        """Values at the rows of a ``(K, dim)`` array, in one array pass.

        The array is validated once, with the error types of ``__call__``;
        each value agrees with ``__call__`` up to rounding.  A value that is
        not finite is an overflow, which ``einsum`` does not flag: ``OutOfRange``.
        """
        x = np.asarray(xs, dtype=float)
        if x.ndim != 2:
            raise DimMismatch(f"expected a 2-D array of points, got shape {x.shape}")
        if x.shape[1] != self.dim:
            raise DimMismatch(f"expected dimension {self.dim}, got {x.shape[1]}")
        if not np.isfinite(x).all():
            raise ValueError("point entries must be finite")
        values = 0.5 * np.einsum("ij,ij->i", x @ self.A, x) + x @ self.b + self.gamma
        if not np.isfinite(values).all():
            raise OutOfRange("the input overflows the float range in a quadratic's value")
        return values


def energy(dim: int) -> QuadraticFn:
    """The normalized energy function 1/2 ||x||^2, the self-conjugate quadratic."""
    return QuadraticFn(np.eye(dim), np.zeros(dim), 0.0)


@dataclass(frozen=True)
class TransformParams:
    """Parameters (E, c, w, tau, beta) of the deformed conjugation transform."""

    E: np.ndarray
    c: np.ndarray
    w: np.ndarray
    tau: float
    beta: float = 0.0

    def __post_init__(self):
        e = linalg.as_matrix(self.E)
        c = linalg.as_vector(self.c, e.shape[0])
        w = linalg.as_vector(self.w, e.shape[0])
        if not (0.0 < float(self.tau) < np.inf and -np.inf < float(self.beta) < np.inf):
            raise ValueError("tau must be positive and finite, and beta finite")
        object.__setattr__(self, "E", _frozen_array(e))
        object.__setattr__(self, "c", _frozen_array(c))
        object.__setattr__(self, "w", _frozen_array(w))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    def symmetric_spectrum(self, tol: Tolerances = DEFAULT_TOL) -> Optional[linalg.Spectral]:
        """The one symmetry gate on E: the spectrum of its symmetric part,
        decomposed once (E is read-only), when E is symmetric within ``tol``; else None."""
        if not linalg.is_symmetric(self.E, tol):
            return None
        return self._spectrum

    @cached_property
    def _spectrum(self) -> linalg.Spectral:
        return linalg.eigendecompose(linalg.symmetric_part(self.E))

    def e_inverse(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """E^{-1}: from the cached spectrum when E is symmetric within
        ``tol``, otherwise from one SVD (``linalg.invert``)."""
        spec = self.symmetric_spectrum(tol)
        return linalg.invert(self.E, tol) if spec is None else spec.inverse(tol)


@dataclass(frozen=True)
class DualParams:
    """Parameters (H, v, z, rho) of the conjugate of a transformed function."""

    H: np.ndarray
    v: np.ndarray
    z: np.ndarray
    rho: float


def conjugate_quadratic(q: QuadraticFn, tol: Tolerances = DEFAULT_TOL) -> QuadraticFn:
    """Closed-form conjugate of a quadratic with positive definite A.

    Conjugating twice returns the original function.  Quadratics whose
    leading coefficient is merely semidefinite have conjugates that are
    +inf off a subspace and are out of scope here (use the sampled-grid
    transform instead).
    """
    spec = q.spectrum
    if not spec.positive_definite(tol):
        raise NotPositiveDefinite("conjugation needs a positive definite leading coefficient")
    a_inv = spec.apply(lambda d: 1.0 / d)
    b_star = -a_inv @ q.b
    gamma_star = 0.5 * float(q.b @ a_inv @ q.b) - q.gamma
    return QuadraticFn(a_inv, b_star, gamma_star)


def apply_transform(
    p: TransformParams, q: QuadraticFn, tol: Tolerances = DEFAULT_TOL
) -> QuadraticFn:
    """Expand x -> tau q*(Ex + c) + <w, x> + beta as a quadratic.

    The leading coefficient ``tau E^T A^{-1} E`` is symmetrized here: its
    rounding asymmetry can exceed the symmetry tolerance ``QuadraticFn``
    applies when E is ill-conditioned.
    """
    if p.dim != q.dim:
        raise DimMismatch("transform and quadratic dimensions differ")
    qs = conjugate_quadratic(q, tol)
    e, c, w, tau = p.E, p.c, p.w, p.tau
    a_t = linalg.symmetric_part(tau * (e.T @ qs.A @ e))
    b_t = tau * (e.T @ (qs.A @ c + qs.b)) + w
    gamma_t = tau * (0.5 * float(c @ qs.A @ c) + float(qs.b @ c) + qs.gamma) + p.beta
    return QuadraticFn(a_t, b_t, gamma_t)


def dual_params(p: TransformParams, tol: Tolerances = DEFAULT_TOL) -> DualParams:
    """Parameters of the conjugate of g(x) = tau h(Ex + c) + <w, x> + beta.

    For any h one has g*(s) = tau h*(Hs + v) + <z, s> + rho with
    H = tau^{-1} (E^{-1})^T, v = -tau^{-1} (E^{-1})^T w, z = -E^{-1} c and
    rho = <w, E^{-1} c> - beta.  (No tau factor on z and rho: substituting
    h = h* of a known pair and expanding the supremum directly fixes these
    coefficients, and the biconjugation tests exercise them at tau != 1.)
    """
    e_inv = p.e_inverse(tol)
    h = e_inv.T / p.tau
    v = -h @ p.w
    z = -e_inv @ p.c
    rho = float(p.w @ (e_inv @ p.c)) - p.beta
    return DualParams(H=h, v=v, z=z, rho=rho)


Evaluable1D = Callable[[float], float]
Part = Union[QuadraticFn, Evaluable1D]


class DirectSum:
    """Separable sum of blocks: g(x) = sum_i g_i(x_block_i).

    Blocks keep user order; offsets are explicit.  Parts are either
    quadratics (their ``dim`` is used) or scalar functions of one real
    variable (dimension 1).  The conjugate of a direct sum is the direct
    sum of the block conjugates; the tests verify this against a
    brute-force grid conjugation rather than assuming it.
    """

    def __init__(self, parts: Sequence[Part]):
        if len(parts) == 0:
            raise EmptyList("direct_sum needs at least one part")
        self.parts = list(parts)
        self.dims = [p.dim if isinstance(p, QuadraticFn) else 1 for p in self.parts]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self.dim = int(self.offsets[-1])

    def __call__(self, x) -> float:
        v = linalg.as_vector(x, self.dim)
        total = 0.0
        for part, d, off in zip(self.parts, self.dims, self.offsets[:-1]):
            block = v[off : off + d]
            total += part(block) if isinstance(part, QuadraticFn) else float(part(float(block[0])))
        return total

    def as_quadratic(self) -> QuadraticFn:
        """Block-diagonal quadratic, available when every part is quadratic."""
        if not all(isinstance(p, QuadraticFn) for p in self.parts):
            raise TypeError("direct sum has non-quadratic parts")
        a = np.zeros((self.dim, self.dim))
        b = np.zeros(self.dim)
        gamma = 0.0
        for part, d, off in zip(self.parts, self.dims, self.offsets[:-1]):
            a[off : off + d, off : off + d] = part.A
            b[off : off + d] = part.b
            gamma += part.gamma
        return QuadraticFn(a, b, gamma)


def direct_sum(parts: Sequence[Part]) -> DirectSum:
    return DirectSum(parts)
