"""Dense linear algebra on LAPACK through numpy, with no Python loops.

The eigendecomposition is LAPACK's symmetric solver (``numpy.linalg.eigh``)
normalised to descending eigenvalues and sign-fixed eigenvectors, so
identical input gives identical bytes on the same numpy/BLAS build.  A
``Spectral`` carries the eigenvalue predicates the case analysis needs and
applies functions of the eigenvalues (``apply``), which is how the package
forms |E|, inverses and the quadratics built from E, which keep E's
eigenvectors.  Every symmetric part is formed by ``symmetric_part``, which
cannot overflow on finite input.  Every array a value type keeps (a
quadratic's, a transform's, a sampled function's, a decomposition's) is
made read-only by ``readonly``, the one ownership rule, which always
copies a caller's array.  A general matrix is inverted from one SVD
(``invert``), or tested for singularity from its singular values alone
(``is_singular``).  There is one singularity rule: the smallest
|eigenvalue| or singular value is at most ``sing_rel * max(1, largest)``.
Matrices are plain ``numpy`` arrays; validation helpers enforce the
symmetry/finiteness contracts at the entry points.  A LAPACK failure
surfaces as ``NumericalFailure``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import DimMismatch, NotSymmetric, NumericalFailure, Singular
from .tolerances import DEFAULT_TOL, Tolerances


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Validate and return a finite 1-D float vector.

    The checks run in this order, and the first that fails raises: 1-D and
    nonempty (``DimMismatch``), every entry finite (``ValueError``), then
    the length ``dim`` when given (``DimMismatch``).
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_matrix(m) -> np.ndarray:
    """Validate and return a finite square float matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def readonly(a: np.ndarray, given=None) -> np.ndarray:
    """``a`` read-only, the one ownership rule: the caller's array ``given``
    (when ``a`` is it) and any view are copied first; only an array the
    library made is frozen in place."""
    if a is given or not a.flags.owndata:
        a = a.copy(order="K")
    a.flags.writeable = False
    return a


def _bitwise_symmetric(a: np.ndarray) -> bool:
    """Whether ``a`` equals its transpose bit for bit, zeros' signs included."""
    return a.tobytes() == a.T.tobytes()


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """(A + A^T)/2 of a square float matrix: ``a`` itself when it is bitwise
    symmetric, else ``0.5 * a + 0.5 * a.T``.  Halving before the sum cannot
    overflow on finite input and, outside the subnormal range, gives the
    bits of the sum halved."""
    return a if _bitwise_symmetric(a) else 0.5 * a + 0.5 * a.T


def is_symmetric(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    return float(np.abs(0.5 * m - 0.5 * m.T).max()) <= 0.5 * tol.sym * scale


def as_symmetric(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrized matrix;
    a bitwise symmetric matrix (zeros' signs included) is returned as it is."""
    a = as_matrix(m)
    if _bitwise_symmetric(a):
        return a
    if not is_symmetric(a, tol):
        raise NotSymmetric("matrix violates the symmetry tolerance")
    return symmetric_part(a)


class Spectral(NamedTuple):
    """Eigendecomposition M = U diag(d) U^T, in any order of d: only
    ``eigendecompose`` sorts it descending, and no predicate reads the order."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # orthogonal, eigenvectors in columns

    def apply(self, fn) -> np.ndarray:
        """Return U diag(fn(d)) U^T, symmetrized."""
        return symmetric_part((self.vectors * fn(self.eigenvalues)) @ self.vectors.T)

    def singular(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """Some |eigenvalue| is at most ``sing_rel * max(1, max|eigenvalue|)``."""
        return _below_cutoff(self.eigenvalues, tol)

    def positive_definite(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return float(self.eigenvalues.min()) > tol.pd

    def psd(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return float(self.eigenvalues.min()) >= -tol.pd

    def inverse(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """U diag(1/d) U^T, for a decomposition that is not singular."""
        if self.singular(tol):
            raise Singular("matrix is singular within tolerance")
        return self.apply(lambda d: 1.0 / d)


def eigendecompose(m, tol: Tolerances = DEFAULT_TOL) -> Spectral:
    """Eigendecomposition of a symmetric matrix by LAPACK's ``eigh``, read-only.

    Eigenvalues are returned in descending order; each eigenvector has its
    first component of magnitude above 1e-12 made positive (a unit vector
    always has one), so identical input produces an identical decomposition.
    """
    a = as_symmetric(m, tol)
    d, u = _lapack(np.linalg.eigh, a)
    u = u[:, ::-1]
    lead = (np.abs(u) > 1e-12).argmax(axis=0)
    flip = u[lead, np.arange(u.shape[1])] < 0.0
    return Spectral(readonly(d[::-1]), readonly(np.where(flip, -u, u)))


def _lapack(routine, *args, **kwargs):
    """Call a ``numpy.linalg`` routine; its failure on valid input is an
    internal numerical failure, not an input error."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{routine.__name__} failed: {exc}") from exc


def _cutoff(d: np.ndarray, tol: Tolerances) -> float:
    """The singularity cutoff for |eigenvalues| or singular values ``d``."""
    return tol.sing_rel * max(1.0, float(np.abs(d).max()) if d.size else 1.0)


def _below_cutoff(d: np.ndarray, tol: Tolerances) -> bool:
    """The one singularity rule: the smallest |d| is at most the cutoff."""
    return float(np.abs(d).min()) <= _cutoff(d, tol)


def is_singular(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ``invert`` would call M singular, from its singular values
    alone (no singular vectors, no inverse)."""
    return _below_cutoff(_lapack(np.linalg.svd, as_matrix(m), compute_uv=False), tol)


def invert(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a general square matrix from one LAPACK SVD, M = U S V^T.

    Singular when the smallest singular value is at most
    ``sing_rel * max(1, largest)``: the rule ``Spectral.singular`` applies
    to |eigenvalues|, which are the singular values of a symmetric matrix.
    """
    u, s, vt = _lapack(np.linalg.svd, as_matrix(m))
    if _below_cutoff(s, tol):
        raise Singular("matrix is singular within tolerance")
    return (vt.T / s) @ u.T
