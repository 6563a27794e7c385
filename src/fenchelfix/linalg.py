"""Dense linear algebra on LAPACK through numpy, with no Python loops.

The eigendecomposition is LAPACK's symmetric solver (``numpy.linalg.eigh``)
normalised to descending eigenvalues and sign-fixed eigenvectors, so
identical input gives identical bytes on the same numpy/BLAS build.  A
``Spectral`` carries the eigenvalue predicates the case analysis needs and
applies functions of the eigenvalues (``apply``), which is how the package
forms |E|, sign(E), inverses and pseudo-inverse solves of symmetric
matrices.  A general matrix is inverted from one SVD (``invert``).  There
is one singularity rule: the smallest |eigenvalue| or singular value is at
most ``sing_rel * max(1, largest)``.  Matrices are plain ``numpy`` arrays;
validation helpers enforce the symmetry/finiteness contracts at the entry
points.  A LAPACK failure surfaces as ``NumericalFailure``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimMismatch, NotSymmetric, NumericalFailure, Singular
from .tolerances import DEFAULT_TOL, Tolerances


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Validate and return a finite 1-D float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_matrix(m, dim: Optional[int] = None) -> np.ndarray:
    """Validate and return a finite square float matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if dim is not None and a.shape[0] != dim:
        raise DimMismatch(f"expected dimension {dim}, got {a.shape[0]}")
    return a


def is_symmetric(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    return float(np.max(np.abs(m - m.T))) <= tol.sym * scale


def as_symmetric(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrized matrix."""
    a = as_matrix(m)
    if not is_symmetric(a, tol):
        raise NotSymmetric("matrix violates the symmetry tolerance")
    return 0.5 * (a + a.T)


class Spectral(NamedTuple):
    """Eigendecomposition M = U diag(d) U^T with d sorted descending."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthogonal, eigenvectors in columns

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.T

    def apply(self, fn) -> np.ndarray:
        """Return U diag(fn(d)) U^T, symmetrized."""
        out = (self.vectors * fn(self.eigenvalues)) @ self.vectors.T
        return 0.5 * (out + out.T)

    def singular(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """Some |eigenvalue| is at most ``sing_rel * max(1, max|eigenvalue|)``."""
        return float(np.min(np.abs(self.eigenvalues))) <= _cutoff(self.eigenvalues, tol)

    def positive_definite(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return float(np.min(self.eigenvalues)) > tol.pd

    def psd(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return float(np.min(self.eigenvalues)) >= -tol.psd

    def inverse(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """U diag(1/d) U^T, for a decomposition that is not singular."""
        if self.singular(tol):
            raise Singular("matrix is singular within tolerance")
        return self.apply(lambda d: 1.0 / d)

    def definiteness(self, tol: Tolerances = DEFAULT_TOL) -> "Definiteness":
        """Classify by the signs of the extreme eigenvalues."""
        lo, hi = float(self.eigenvalues[-1]), float(self.eigenvalues[0])
        if lo > tol.pd:
            return Definiteness.POSITIVE_DEFINITE
        if hi < -tol.pd:
            return Definiteness.NEGATIVE_DEFINITE
        if lo > -tol.pd:
            return Definiteness.POSITIVE_SEMIDEFINITE
        if hi < tol.pd:
            return Definiteness.NEGATIVE_SEMIDEFINITE
        return Definiteness.INDEFINITE


def eigendecompose(m, tol: Tolerances = DEFAULT_TOL) -> Spectral:
    """Eigendecomposition of a symmetric matrix by LAPACK's ``eigh``.

    Eigenvalues are returned in descending order; each eigenvector has its
    first component of magnitude above 1e-12 made positive (a unit vector
    always has one), so identical input produces an identical decomposition.
    """
    a = as_symmetric(m, tol)
    d, u = _lapack(np.linalg.eigh, a)
    d = d[::-1].copy()
    u = u[:, ::-1]
    lead = (np.abs(u) > 1e-12).argmax(axis=0)
    flip = u[lead, np.arange(u.shape[1])] < 0.0
    return Spectral(d, np.where(flip, -u, u))


def _lapack(routine, *args, **kwargs):
    """Call a ``numpy.linalg`` routine; its failure on valid input is an
    internal numerical failure, not an input error."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{routine.__name__} failed: {exc}") from exc


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"
    NEGATIVE_SEMIDEFINITE = "NegativeSemidefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"


def definiteness(m, tol: Tolerances = DEFAULT_TOL) -> Definiteness:
    """Classify a symmetric matrix by the signs of its eigenvalues."""
    return eigendecompose(m, tol).definiteness(tol)


def _cutoff(d: np.ndarray, tol: Tolerances) -> float:
    """The singularity cutoff for |eigenvalues| or singular values ``d``."""
    return tol.sing_rel * max(1.0, float(np.max(np.abs(d))) if d.size else 1.0)


def invert(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a general square matrix from one LAPACK SVD, M = U S V^T.

    Singular when the smallest singular value is at most
    ``sing_rel * max(1, largest)``: the rule ``Spectral.singular`` applies
    to |eigenvalues|, which are the singular values of a symmetric matrix.
    """
    u, s, vt = _lapack(np.linalg.svd, as_matrix(m))
    if float(s[-1]) <= _cutoff(s, tol):
        raise Singular("matrix is singular within tolerance")
    return (vt.T / s) @ u.T


def solve_min_norm(
    m, rhs, tol: Tolerances = DEFAULT_TOL, spec: Optional[Spectral] = None
) -> Optional[np.ndarray]:
    """Minimum-norm solution of M x = rhs, or None when inconsistent.

    Symmetric matrices are solved through the spectral pseudo-inverse,
    using ``spec`` when the caller already holds the decomposition of M,
    general ones through least squares.  The candidate is accepted when
    ``||M x - rhs|| <= cons_rel * (1 + ||rhs||)``; inconsistency is a value
    (None), not an error, because callers use it as a nonexistence signal.
    """
    a = as_matrix(m)
    b = as_vector(rhs, a.shape[0])
    if spec is None and is_symmetric(a, tol):
        spec = eigendecompose(a, tol)
    if spec is not None:
        cutoff = _cutoff(spec.eigenvalues, tol)
        coeffs = spec.vectors.T @ b
        inv_d = np.where(np.abs(spec.eigenvalues) > cutoff, spec.eigenvalues, np.inf)
        x = spec.vectors @ (coeffs / inv_d)
    else:
        x = _lapack(np.linalg.lstsq, a, b, rcond=None)[0]
    residual = float(np.linalg.norm(a @ x - b))
    if residual > tol.cons_rel * (1.0 + float(np.linalg.norm(b))):
        return None
    return x
