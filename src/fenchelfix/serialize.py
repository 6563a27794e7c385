"""JSON (de)serialization of the domain types, and the reader of every config input.

The data model is plain JSON: objects, arrays, numbers and strings, with
the string ``"inf"`` as the sentinel for +inf in sampled values.  Matrices
travel as row-major nested arrays.  Field names are part of the report
contract: tag / solution / x0 / note for classifications and maxAbs /
meanAbs / samplePoints / worstPoint for residual reports (plus gridH,
minGap and maxRel when the check sets them).  A bool or a string is never
read as a number, at any depth of an array (``_is_number``); the ``"inf"``
sentinel is the one string a number field takes.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from .discrete import INF, SampledFn, check_grid
from .errors import ParseError
from .fixpoint import Classification
from .quadratic import QuadraticFn, TransformParams
from .reports import ResidualReport
from .tolerances import Tolerances

MAX_VALUES = 10**7  # the most floats the sample points or the slopes of a config may take


def _json_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number (a sampled +inf is written \"inf\")")
    return value


def load_config(path: str) -> dict:
    """The config as RFC 8259 JSON with finite numbers: Python's ``json`` would
    accept NaN, Infinity, -Infinity and a number past the float range (1e400)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=_json_float, parse_constant=_json_float)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8 or an over-long integer
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("config root must be an object")
    return obj


def _read(what: str, build: Callable, *args):
    """``build(*args)``, with a conversion error turned into an input error."""
    try:
        return build(*args)
    except (LookupError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _matrix_out(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(m)]


def _vector_out(v: np.ndarray) -> list:
    return [float(x) for x in np.asarray(v)]


def _require(obj: dict, key: str, ctx: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing {key!r} in {ctx}")
    return obj[key]


def _is_number(v) -> bool:
    """The one number rule: ``true`` and ``"2"`` would otherwise read as 1.0 and 2.0."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(raw, rule: str = "must be a number", ok: Optional[Callable] = None) -> float:
    """A JSON number (never a bool, a string or a list) that passes ``ok``."""
    if not _is_number(raw) or (ok is not None and not ok(raw)):
        raise ValueError(rule)
    return float(raw)


def _integer(raw, least: Optional[int] = None) -> int:
    """A JSON number of integer value (``3.0`` too), at least ``least``."""
    if not _is_number(raw) or int(raw) != raw:
        raise ValueError("must be an integer")
    if least is not None and raw < least:
        raise ValueError(f"must be at least {least}")
    return int(raw)


_finite = partial(_number, rule="must be a finite number", ok=math.isfinite)
_positive = partial(_number, rule="must be positive and finite", ok=lambda x: 0.0 < x < INF)
_nonnegative = partial(_number, rule="must be nonnegative and finite", ok=lambda x: 0.0 <= x < INF)


def _numbers(raw, name: str) -> np.ndarray:
    """A JSON number, or arrays of them nested to any depth, as float64."""
    stack = [raw]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif not _is_number(v):
            raise ValueError(f"{name} must hold numbers only, not {v!r}")
    return np.asarray(raw, dtype=float)


def params_from_json(obj: dict) -> TransformParams:
    return _read("transform parameters", lambda: TransformParams(
        E=_numbers(_require(obj, "E", "params"), "E"),
        c=_numbers(_require(obj, "c", "params"), "c"),
        w=_numbers(_require(obj, "w", "params"), "w"),
        tau=_number(_require(obj, "tau", "params"), "tau must be a number"),
        beta=_number(obj.get("beta", 0.0), "beta must be a number"),
    ))


def quadratic_to_json(q: QuadraticFn) -> dict:
    return {"A": _matrix_out(q.A), "b": _vector_out(q.b), "gamma": float(q.gamma)}


def quadratic_from_json(obj: dict) -> QuadraticFn:
    return _read("quadratic", lambda: QuadraticFn(
        A=_numbers(_require(obj, "A", "quadratic"), "A"),
        b=_numbers(_require(obj, "b", "quadratic"), "b"),
        gamma=_number(obj.get("gamma", 0.0), "gamma must be a number"),
    ))


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
    return _read("sampled function", lambda: SampledFn(
        points=_numbers(_require(obj, "points", "sampled"), "points"),
        values=_values_in(_require(obj, "values", "sampled"), "sampled values"),
    ))


def candidate_from_json(raw, command: str, *kinds: str):
    """A config's ``candidate``: exactly one entry, keyed by one of ``kinds``."""
    if not isinstance(raw, dict) or len(raw) != 1 or not set(raw) <= set(kinds):
        raise ParseError(f"{command} needs exactly one candidate ({' or '.join(kinds)})")
    ((kind, obj),) = raw.items()
    return (quadratic_from_json if kind == "quadratic" else sampled_from_json)(obj)


def _slopes(raw) -> np.ndarray:
    """A list of numbers, or ``{"start", "stop", "count"}`` for evenly spaced
    slopes; either way finite and strictly increasing."""
    if isinstance(raw, dict):
        start, stop, count = _finite(raw["start"]), _finite(raw["stop"]), _integer(raw["count"], 1)
        if count > MAX_VALUES:
            raise ValueError(f"count {count} is over the cap of {MAX_VALUES} slopes")
        return check_grid(np.linspace(start, stop, count))
    return check_grid(_numbers(raw, "slopes"))


def conjugate_from_json(config: dict) -> tuple[SampledFn, np.ndarray]:
    """A ``conjugate`` config's ``input`` function and its ``slopes``."""
    fn = sampled_from_json(_require(config, "input", "config"))
    return fn, _read("slopes", _slopes, _require(config, "slopes", "config"))


def _window(raw) -> Optional[tuple[float, float]]:
    if raw is None:
        return None
    if isinstance(raw, list) and len(raw) == 2:
        lo, hi = _finite(raw[0]), _finite(raw[1])
        if lo < hi:
            return lo, hi
    raise ValueError("must be [lo, hi] with lo < hi")


# run options: name -> (conversion, default)
_OPTIONS = {
    "points": (partial(_integer, least=1), 100),
    "seed": (_integer, 0),
    "tol_scale": (partial(_positive, rule="tolerance scale must be positive and finite"), 1.0),
    "radius": (_positive, 3.0),
    "window": (_window, None),
    "boundary_exclusion": (_nonnegative, 0.0),
}


def options_from_json(raw, flags: dict) -> dict:
    """The typed run options: a config's ``options``, overridden by each flag that is set."""
    if not isinstance(raw, dict):
        raise ParseError("config 'options' must be an object")
    raw = {**raw, **{k: flags[k] for k in _OPTIONS if flags.get(k) is not None}}
    for key in raw:
        if key not in _OPTIONS:
            raise ParseError(f"unknown option {key!r}")
    opts = {}
    for key, (convert, default) in _OPTIONS.items():
        opts[key] = _read(f"option {key!r}", convert, raw[key]) if key in raw else default
    return opts


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
