"""JSON (de)serialization of the domain types.

The data model is plain JSON: objects, arrays, numbers and strings, with
the string ``"inf"`` as the sentinel for +inf in sampled values.  Matrices
travel as row-major nested arrays.  Field names are part of the report
contract: tag / solution / x0 / note for classifications and maxAbs /
meanAbs / samplePoints / worstPoint for residual reports (plus gridH,
minGap and maxRel when the check sets them).  A bool or a string is never
read as a number, at any depth of an array; the ``"inf"`` sentinel is the
one string a number field takes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .discrete import INF, SampledFn
from .errors import ParseError
from .fixpoint import Classification
from .quadratic import QuadraticFn, TransformParams
from .reports import ResidualReport
from .tolerances import Tolerances


def _matrix_out(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(m)]


def _vector_out(v: np.ndarray) -> list:
    return [float(x) for x in np.asarray(v)]


def _require(obj: dict, key: str, ctx: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing {key!r} in {ctx}")
    return obj[key]


def _numbers(raw, name: str) -> np.ndarray:
    """A JSON number, or arrays of them nested to any depth, as float64.

    A bool or a string is never a number, at any depth: ``true`` and
    ``"2"`` would otherwise read as 1.0 and 2.0.
    """
    stack = [raw]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must hold numbers only, not {v!r}")
    return np.asarray(raw, dtype=float)


def _number(raw, name: str) -> float:
    if isinstance(raw, list):
        raise ValueError(f"{name} must be a number")
    return float(_numbers(raw, name))


def params_from_json(obj: dict) -> TransformParams:
    try:
        return TransformParams(
            E=_numbers(_require(obj, "E", "params"), "E"),
            c=_numbers(_require(obj, "c", "params"), "c"),
            w=_numbers(_require(obj, "w", "params"), "w"),
            tau=_number(_require(obj, "tau", "params"), "tau"),
            beta=_number(obj.get("beta", 0.0), "beta"),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad transform parameters: {exc}") from exc


def quadratic_to_json(q: QuadraticFn) -> dict:
    return {"A": _matrix_out(q.A), "b": _vector_out(q.b), "gamma": float(q.gamma)}


def quadratic_from_json(obj: dict) -> QuadraticFn:
    try:
        return QuadraticFn(
            A=_numbers(_require(obj, "A", "quadratic"), "A"),
            b=_numbers(_require(obj, "b", "quadratic"), "b"),
            gamma=_number(obj.get("gamma", 0.0), "gamma"),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad quadratic: {exc}") from exc


def _values_out(values: np.ndarray) -> list:
    return ["inf" if np.isinf(v) else float(v) for v in values]


def _values_in(raw, ctx: str) -> np.ndarray:
    sentinel = ("inf", "+inf", "infinity")
    return _numbers(
        [INF if isinstance(v, str) and v.strip().lower() in sentinel else v for v in raw], ctx
    )


def sampled_to_json(f: SampledFn) -> dict:
    return {"points": _vector_out(f.points), "values": _values_out(f.values)}


def sampled_from_json(obj: dict) -> SampledFn:
    try:
        return SampledFn(
            points=_numbers(_require(obj, "points", "sampled"), "points"),
            values=_values_in(_require(obj, "values", "sampled"), "sampled values"),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad sampled function: {exc}") from exc


def report_to_json(r: ResidualReport) -> dict:
    out = {
        "maxAbs": float(r.max_abs),
        "meanAbs": float(r.mean_abs),
        "samplePoints": int(r.sample_points),
        "worstPoint": None if r.worst_point is None else _vector_out(r.worst_point),
    }
    if r.grid_h is not None:
        out["gridH"] = float(r.grid_h)
    if r.min_gap is not None:
        out["minGap"] = float(r.min_gap)
    if r.max_rel is not None:
        out["maxRel"] = float(r.max_rel)
    return out


def classification_to_json(c: Classification) -> dict:
    return {
        "tag": c.tag.value,
        "solution": None if c.solution is None else quadratic_to_json(c.solution),
        "x0": None if c.x0 is None else _vector_out(c.x0),
        "note": c.note,
    }


def tolerances_to_json(tol: Tolerances) -> dict:
    return {name: float(getattr(tol, name)) for name in tol.__dataclass_fields__}
