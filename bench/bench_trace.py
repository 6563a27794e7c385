"""Spans and counts recorded around fenchelfix's public functions.

The traced run wraps each public function in every namespace it is looked up
from (``fixpoint.apply_transform`` as well as ``quadratic.apply_transform``).
A span is ``[metric, start_ns, end_ns, parent, op, count, count2]``; counts
are taken at the same boundary.  Spans stay in memory and are written out
when the run ends.  A layer's time is self time: a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import time

# per-layer metrics and their units; BENCHMARK.json lists the same names
EIGEN_SIZES = (2, 4, 8, 16, 32)
PER_LAYER = (
    [
        ("linalg.eigendecompose.calls", "count"),
        ("linalg.eigendecompose.ms", "ms"),
    ]
    + [(f"linalg.eigendecompose.us_per_call.n{n}", "us") for n in EIGEN_SIZES]
    + [
        ("linalg.invert.calls", "count"),
        ("linalg.invert.ms", "ms"),
        ("quadratic.eval.calls", "count"),
        ("quadratic.eval.ms", "ms"),
        ("quadratic.apply_transform.calls", "count"),
        ("quadratic.apply_transform.ms", "ms"),
        ("fixpoint.classify.ms", "ms"),
        ("fixpoint.solve.ms", "ms"),
        ("fixpoint.residual.ms", "ms"),
        ("fixpoint.residual.points", "count"),
        ("fixpoint.envelope.ms", "ms"),
        ("sampling.sample_points.ms", "ms"),
        ("discrete.sample.ms", "ms"),
        ("discrete.sample.nodes", "count"),
        ("discrete.lower_hull.ms", "ms"),
        ("discrete.lower_hull.nodes", "count"),
        ("discrete.lower_hull.vertices", "count"),
        ("discrete.fast_conjugate.ms", "ms"),
        ("discrete.fast_conjugate.slopes", "count"),
        ("discrete.biconjugate.ms", "ms"),
        ("discrete.grid_residual.ms", "ms"),
        ("discrete.fenchel_young.ms", "ms"),
        ("discrete.brute_conjugate.ms", "ms"),
        ("cli.import.ms", "ms"),
        ("cli.import.numpy.ms", "ms"),
        ("cli.body.ms", "ms"),
        ("cli.interp.ms", "ms"),
        ("serialize.ms", "ms"),
        ("trace.overhead_ms.p50", "ms"),
    ]
)


class Tracer:
    """In-memory span recorder.  ``op`` tags every span with the op it
    belongs to."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = 0

    def record(self, metric: str, start: int, end: int, parent: int = -1) -> None:
        """Add a span timed elsewhere (the CLI launcher's import phases)."""
        self.spans.append([metric, start, end, parent, self.op, 0, 0])

    def wrap(self, metric: str, fn, counter=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [metric, start, end, parent, tracer.op, 0, 0]
            if counter is not None:
                spans[idx][5], spans[idx][6] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, metric: str):
        """Context manager for a benchmark-side span around several calls."""
        return _Span(self, metric)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["metric", "start_ns", "end_ns", "parent", "op", "count", "count2"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")


class _Span:
    def __init__(self, tracer: Tracer, metric: str):
        self.tracer = tracer
        self.metric = metric

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.idx)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        t.spans[self.idx] = [self.metric, self.start, end, self.parent, t.op, 0, 0]
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def no_span(metric: str):
    """The untraced stand-in for ``Tracer.span``."""
    return _NoSpan()


def _eigen_size(args, kwargs, result):
    return len(result.eigenvalues), 0


def _points_at(index):
    def count(args, kwargs, result):
        pts = kwargs["points"] if "points" in kwargs else args[index]
        return len(pts), 0

    return count


def _hull(args, kwargs, result):
    return len(args[0]), len(result)


def _second_len(args, kwargs, result):
    return len(args[1]), 0


def targets(include_cli: bool = False):
    """(namespace, attribute, metric, counter) for every wrapped function."""
    from fenchelfix import discrete, fixpoint, linalg, quadratic, sampling, serialize
    from fenchelfix.quadratic import QuadraticFn

    out = [
        (linalg, "eigendecompose", "linalg.eigendecompose", _eigen_size),
        (linalg, "invert", "linalg.invert", None),
        (QuadraticFn, "__call__", "quadratic.eval", None),
        (quadratic, "apply_transform", "quadratic.apply_transform", None),
        (fixpoint, "apply_transform", "quadratic.apply_transform", None),
        (fixpoint, "classify", "fixpoint.classify", None),
        (fixpoint, "solve_positive_definite", "fixpoint.solve", None),
        (fixpoint, "solve_self_adjoint", "fixpoint.solve", None),
        (fixpoint, "transform_residual", "fixpoint.residual", _points_at(2)),
        (fixpoint, "functional_eq_residual", "fixpoint.residual", _points_at(3)),
        (fixpoint, "functional_differential_residual", "fixpoint.residual", _points_at(2)),
        (fixpoint, "verify_form_quadratic", "fixpoint.residual", None),
        (fixpoint, "lower_envelope", "fixpoint.envelope", None),
        (fixpoint, "upper_envelope", "fixpoint.envelope", None),
        (sampling, "sample_points", "sampling.sample_points", None),
        (fixpoint, "sample_points", "sampling.sample_points", None),
        (discrete, "sample", "discrete.sample", _second_len),
        (discrete, "lower_hull", "discrete.lower_hull", _hull),
        (discrete, "fast_conjugate", "discrete.fast_conjugate", _second_len),
        (discrete, "brute_conjugate", "discrete.brute_conjugate", None),
        (discrete, "biconjugate", "discrete.biconjugate", None),
        (discrete, "grid_fixed_point_residual", "discrete.grid_residual", None),
        (discrete, "fenchel_young_check", "discrete.fenchel_young", None),
    ]
    if include_cli:
        from fenchelfix import cli

        out.append((cli, "sample_points", "sampling.sample_points", None))
        out.append((cli, "_write_report", "serialize", None))
        for name in dir(serialize):
            if name.endswith(("_to_json", "_from_json")):
                out.append((serialize, name, "serialize", None))
    return out


def install(tracer: Tracer, wrapped) -> callable:
    """Wrap every target; return a function that puts the originals back."""
    saved = []
    for owner, attr, metric, counter in wrapped:
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(metric, orig, counter))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore


class Totals:
    """Self time, calls and counts per metric, summed over traced ops."""

    def __init__(self):
        self.self_ns: dict = {}
        self.calls: dict = {}
        self.count: dict = {}
        self.count2: dict = {}
        self.eigen_ns = {n: 0 for n in EIGEN_SIZES}
        self.eigen_calls = {n: 0 for n in EIGEN_SIZES}

    def add(self, spans: list) -> None:
        """Fold in a list of spans whose parent indices point into it."""
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            metric = s[0]
            own = s[2] - s[1] - child[i]
            self.self_ns[metric] = self.self_ns.get(metric, 0) + own
            self.calls[metric] = self.calls.get(metric, 0) + 1
            self.count[metric] = self.count.get(metric, 0) + s[5]
            self.count2[metric] = self.count2.get(metric, 0) + s[6]
            if metric == "linalg.eigendecompose" and s[5] in self.eigen_ns:
                self.eigen_ns[s[5]] += own
                self.eigen_calls[s[5]] += 1

    def metrics(self, ops: int) -> dict:
        """Per-op values of every per-layer metric (0 where the layer did
        not run on this workload)."""
        out = {}

        def ms(metric):
            return self.self_ns.get(metric, 0) / 1e6 / ops

        def calls(metric):
            return self.calls.get(metric, 0) / ops

        for base in ("linalg.eigendecompose", "linalg.invert", "quadratic.eval", "quadratic.apply_transform"):
            out[f"{base}.calls"] = calls(base)
            out[f"{base}.ms"] = ms(base)
        for n in EIGEN_SIZES:
            k = self.eigen_calls[n]
            out[f"linalg.eigendecompose.us_per_call.n{n}"] = self.eigen_ns[n] / 1e3 / k if k else 0.0
        for metric in (
            "fixpoint.classify",
            "fixpoint.solve",
            "fixpoint.residual",
            "fixpoint.envelope",
            "sampling.sample_points",
            "discrete.sample",
            "discrete.lower_hull",
            "discrete.fast_conjugate",
            "discrete.biconjugate",
            "discrete.grid_residual",
            "discrete.fenchel_young",
            "discrete.brute_conjugate",
            "cli.import",
            "cli.import.numpy",
            "cli.body",
            "cli.interp",
            "serialize",
        ):
            out[f"{metric}.ms"] = ms(metric)
        out["fixpoint.residual.points"] = self.count.get("fixpoint.residual", 0) / ops
        out["discrete.sample.nodes"] = self.count.get("discrete.sample", 0) / ops
        out["discrete.lower_hull.nodes"] = self.count.get("discrete.lower_hull", 0) / ops
        out["discrete.lower_hull.vertices"] = self.count2.get("discrete.lower_hull", 0) / ops
        out["discrete.fast_conjugate.slopes"] = self.count.get("discrete.fast_conjugate", 0) / ops
        return out
