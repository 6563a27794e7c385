"""Exact conjugation calculus for quadratic functions.

A quadratic ``f(x) = 1/2 <Ax, x> + <b, x> + gamma`` with positive definite
leading coefficient has the closed-form conjugate
``f*(s) = 1/2 <A^{-1}(s - b), s - b> - gamma``, and the deformed-conjugation
transform ``T[E, c, w, tau, beta](f)(x) = tau f*(Ex + c) + <w, x> + beta``
maps quadratics to quadratics.  This module implements that calculus exactly
(in working precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import DimMismatch, NotPositiveDefinite, OutOfRange
from .tolerances import DEFAULT_TOL, Tolerances


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
        object.__setattr__(self, "A", linalg.readonly(a, self.A))
        object.__setattr__(self, "b", linalg.readonly(b, self.b))
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @classmethod
    def _from_spectrum(cls, spec: linalg.Spectral, b, gamma: float) -> "QuadraticFn":
        """The quadratic with A = U diag(d) U^T for ``spec = (d, U)``, which
        it keeps as A's spectrum, so that the two cannot disagree."""
        q = cls(spec.apply(lambda d: d), b, gamma)
        q.__dict__["spectrum"] = linalg.Spectral(*map(linalg.readonly, spec))
        return q

    @cached_property
    def spectrum(self) -> linalg.Spectral:
        """Eigendecomposition of A, computed once (A is read-only), or the one A was built from."""
        return linalg.eigendecompose(self.A)

    def a_inverse(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """A^{-1}, behind the one gate on it: A positive definite within ``tol``."""
        if not self.spectrum.positive_definite(tol):
            raise NotPositiveDefinite("inverting A needs a positive definite leading coefficient")
        return self.spectrum.apply(lambda d: 1.0 / d)

    @cached_property
    def _half_a(self) -> np.ndarray:
        """0.5 * A, read-only, formed on the first call."""
        return linalg.readonly(0.5 * self.A)

    def __call__(self, x) -> float:
        """The value at one point, checked once, in three BLAS products.

        The point is made a C-contiguous float array, so the value depends
        on its entries alone, not on its strides.  A point of shape
        ``(dim,)`` whose entries are finite (tested on Python floats) goes
        straight to ``v.dot(A/2).dot(v) + b.dot(v) + gamma``, with ``A/2``
        cached read-only on the first call; any other input goes through
        ``linalg.as_vector``, which raises its usual error (a non-finite
        entry is a ``ValueError``, a wrong shape a ``DimMismatch``).  So a
        NaN or infinite point raises before any arithmetic and never warns;
        a finite point whose value overflows warns "overflow encountered in
        dot" and gives inf or NaN.

        Halving is exact outside the lowest binade, so the value has the
        bits of ``0.5 * v @ A @ v + b @ v + gamma``.  Inside it, below
        ``2**-1021`` in magnitude, an entry with its last bit set rounds
        when halved.  For an entry of ``A`` (halved here) the value moves
        from that expression by at most ``2**-1075 sum_ij |v_i| |v_j|``;
        for an entry of the point (halved in that expression) by at most
        ``2**-1075 sum_ij |A_ij| |v_j|``, beside the rounding of the sums.
        """
        v = np.asarray(x, dtype=float, order="C")
        if v.shape != self.b.shape or not all(map(math.isfinite, v.tolist())):
            v = linalg.as_vector(v, self.dim)
        return float(v.dot(self._half_a).dot(v) + self.b.dot(v) + self.gamma)

    def values(self, xs) -> np.ndarray:
        """Values at the rows of a ``(K, dim)`` array, in one array pass.

        The array is validated once, with the error types of ``__call__``;
        each value agrees with ``__call__`` up to rounding.  A value that is
        not finite is an overflow: ``OutOfRange``, with no warning.
        """
        x = np.asarray(xs, dtype=float)
        if x.ndim != 2:
            raise DimMismatch(f"expected a 2-D array of points, got shape {x.shape}")
        if x.shape[1] != self.dim:
            raise DimMismatch(f"expected dimension {self.dim}, got {x.shape[1]}")
        if not np.isfinite(x).all():
            raise ValueError("point entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test checks
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
        for name, value in (("E", e), ("c", c), ("w", w)):
            object.__setattr__(self, name, linalg.readonly(value, getattr(self, name)))
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


def _finite_quadratic(a: np.ndarray, b: np.ndarray, gamma: float, what: str) -> QuadraticFn:
    """The quadratic (a, b, gamma), or ``OutOfRange`` when finite inputs overflowed."""
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(gamma)):
        raise OutOfRange(f"the input overflows the float range in {what} of a quadratic")
    return QuadraticFn(a, b, gamma)


def conjugate_quadratic(q: QuadraticFn, tol: Tolerances = DEFAULT_TOL) -> QuadraticFn:
    """Closed-form conjugate of a quadratic with positive definite A.

    Conjugating twice returns the original function.  Quadratics whose
    leading coefficient is merely semidefinite have conjugates that are
    +inf off a subspace and are out of scope here (use the sampled-grid
    transform instead).  An overflow raises ``OutOfRange``.
    """
    a_inv = q.a_inverse(tol)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_quadratic checks
        b_star = -a_inv @ q.b
        gamma_star = 0.5 * float(q.b @ a_inv @ q.b) - q.gamma
    return _finite_quadratic(a_inv, b_star, gamma_star, "the conjugate")


def apply_transform(
    p: TransformParams, q: QuadraticFn, tol: Tolerances = DEFAULT_TOL
) -> QuadraticFn:
    """Expand x -> tau q*(Ex + c) + <w, x> + beta as a quadratic.

    The leading coefficient ``tau E^T A^{-1} E`` is symmetrized here: its
    rounding asymmetry can exceed the symmetry tolerance ``QuadraticFn``
    applies when E is ill-conditioned.  An overflow raises ``OutOfRange``.
    """
    if p.dim != q.dim:
        raise DimMismatch("transform and quadratic dimensions differ")
    qs = conjugate_quadratic(q, tol)
    e, c, w, tau = p.E, p.c, p.w, p.tau
    with np.errstate(over="ignore", invalid="ignore"):  # _finite_quadratic checks
        a_t = linalg.symmetric_part(tau * (e.T @ qs.A @ e))
        b_t = tau * (e.T @ (qs.A @ c + qs.b)) + w
        gamma_t = tau * (0.5 * float(c @ qs.A @ c) + float(qs.b @ c) + qs.gamma) + p.beta
    return _finite_quadratic(a_t, b_t, gamma_t, "the transform")
