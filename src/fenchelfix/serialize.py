"""JSON (de)serialization of the domain types.

The data model is plain JSON: objects, arrays, numbers and strings, with
the string ``"inf"`` as the sentinel for +inf in sampled values.  Matrices
travel as row-major nested arrays.  Field names are part of the report
contract: tag / solution / x0 / note for classifications and maxAbs /
meanAbs / samplePoints / worstPoint for residual reports.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .discrete import INF, SampledFn, SampledFn2D
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


def params_to_json(p: TransformParams) -> dict:
    return {
        "E": _matrix_out(p.E),
        "c": _vector_out(p.c),
        "w": _vector_out(p.w),
        "tau": float(p.tau),
        "beta": float(p.beta),
    }


def params_from_json(obj: dict) -> TransformParams:
    try:
        return TransformParams(
            E=np.asarray(_require(obj, "E", "params"), dtype=float),
            c=np.asarray(_require(obj, "c", "params"), dtype=float),
            w=np.asarray(_require(obj, "w", "params"), dtype=float),
            tau=float(_require(obj, "tau", "params")),
            beta=float(obj.get("beta", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad transform parameters: {exc}") from exc


def quadratic_to_json(q: QuadraticFn) -> dict:
    return {"A": _matrix_out(q.A), "b": _vector_out(q.b), "gamma": float(q.gamma)}


def quadratic_from_json(obj: dict) -> QuadraticFn:
    try:
        return QuadraticFn(
            A=np.asarray(_require(obj, "A", "quadratic"), dtype=float),
            b=np.asarray(_require(obj, "b", "quadratic"), dtype=float),
            gamma=float(obj.get("gamma", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad quadratic: {exc}") from exc


def _values_out(values: np.ndarray) -> list:
    return ["inf" if np.isinf(v) else float(v) for v in values]


def _values_in(raw, ctx: str) -> np.ndarray:
    out = []
    for v in raw:
        if isinstance(v, str):
            if v.strip().lower() in ("inf", "+inf", "infinity"):
                out.append(INF)
            else:
                raise ParseError(f"bad value {v!r} in {ctx}")
        else:
            out.append(float(v))
    return np.asarray(out, dtype=float)


def sampled_to_json(f: SampledFn) -> dict:
    return {"points": _vector_out(f.points), "values": _values_out(f.values)}


def sampled_from_json(obj: dict) -> SampledFn:
    try:
        return SampledFn(
            points=np.asarray(_require(obj, "points", "sampled"), dtype=float),
            values=_values_in(_require(obj, "values", "sampled"), "sampled values"),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad sampled function: {exc}") from exc


def sampled2d_to_json(f: SampledFn2D) -> dict:
    return {
        "xs": _vector_out(f.xs),
        "ys": _vector_out(f.ys),
        "values": _values_out(f.values.ravel()),
    }


def sampled2d_from_json(obj: dict) -> SampledFn2D:
    try:
        xs = np.asarray(_require(obj, "xs", "sampled2d"), dtype=float)
        ys = np.asarray(_require(obj, "ys", "sampled2d"), dtype=float)
        values = _values_in(_require(obj, "values", "sampled2d"), "sampled2d values")
        return SampledFn2D(xs=xs, ys=ys, values=values.reshape(xs.size, ys.size))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad 2-D sampled function: {exc}") from exc


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
