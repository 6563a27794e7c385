"""Residual reports: the numeric evidence attached to every equation check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ResidualReport:
    """Summary of pointwise residuals of one functional identity.

    ``max_abs >= mean_abs >= 0`` always holds.  ``grid_h`` is set by
    grid-based checks so tolerances can scale with the spacing;
    ``min_gap`` is set by inequality checks (most negative slack seen);
    ``max_rel`` is set by checks that know the size of what they compare
    (largest residual relative to its scale).
    """

    max_abs: float
    mean_abs: float
    sample_points: int
    worst_point: Optional[np.ndarray]
    grid_h: Optional[float] = None
    min_gap: Optional[float] = None
    max_rel: Optional[float] = None


def report_from_residuals(residuals, points=None, grid_h=None, scale=None) -> ResidualReport:
    """Reduce raw residuals, at least one, to a report.

    The mean uses numpy's pairwise summation, so reports do not depend on
    evaluation order beyond floating-point associativity.  With ``scale``
    (one positive entry per residual) the report also carries
    ``max_rel = max |residual| / scale``.
    """
    r = np.abs(np.asarray(residuals, dtype=float))
    k = int(r.argmax())
    worst = None if points is None else np.atleast_1d(np.asarray(points, dtype=float)[k]).copy()
    return ResidualReport(
        max_abs=float(r[k]),
        mean_abs=float(r.mean()),
        sample_points=int(r.size),
        worst_point=worst,
        grid_h=grid_h,
        max_rel=None if scale is None else float((r / scale).max()),
    )
