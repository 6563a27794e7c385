"""The in-process ops of solve-verify and grid-verify.

Each op calls fenchelfix through its modules' attributes (``fixpoint.classify``
rather than a name bound at import), so the traced run can wrap every public
function where it is looked up.  ``span`` opens a benchmark-side span around a
step that is not one library call; untraced runs pass a no-op.
"""

from __future__ import annotations

import numpy as np

from fenchelfix import discrete, fixpoint, linalg, sampling
from fenchelfix.errors import NotSymmetric
from fenchelfix.quadratic import QuadraticFn, TransformParams
from fenchelfix.tolerances import DEFAULT_TOL

import bench_inputs


def solve_route(p: TransformParams):
    """What ``fenchelfix solve`` does: the closed form for positive definite
    E, the spectral construction otherwise (None when inconsistent)."""
    if not linalg.is_symmetric(p.E):
        raise NotSymmetric("solve requires symmetric E")
    spec = linalg.eigendecompose(0.5 * (p.E + p.E.T))
    if float(np.min(spec.eigenvalues)) > DEFAULT_TOL.pd:
        return fixpoint.solve_positive_definite(p)
    return fixpoint.solve_self_adjoint(p)


def _quad_out(q):
    return None if q is None else (np.array(q.A), np.array(q.b), float(q.gamma))


def prepare_solve(spec: dict) -> dict:
    """Untimed: the library objects the op starts from."""
    cand = spec["candidate"]
    return {
        "params": TransformParams(spec["E"], spec["c"], spec["w"], spec["tau"], spec["beta"]),
        "candidate": None if cand is None else QuadraticFn(cand["A"], cand["b"], cand["gamma"]),
        "dim": spec["dim"],
        "points": spec["points"],
        "point_seed": spec["point_seed"],
        "variant": spec["variant"],
        "positive_definite": spec["tag"] in (bench_inputs.UAF, bench_inputs.UQIC, bench_inputs.UC2),
    }


def solve_op(inp: dict, span) -> dict:
    """classify, the solve route, and every residual of a found solution."""
    p = inp["params"]
    pts = sampling.sample_points(inp["dim"], inp["points"], seed=inp["point_seed"])
    outcome = fixpoint.classify(p, candidate=inp["candidate"], points=pts)
    out = {"tag": outcome.tag.value, "solution": _quad_out(outcome.solution)}
    try:
        out["route"] = ("solved", _quad_out(solve_route(p)))
    except NotSymmetric:
        out["route"] = ("rejected", None)
    sol = outcome.solution
    if sol is None:
        return out
    out["residuals"] = {
        "transform": fixpoint.transform_residual(p, sol, pts).max_abs,
        "functional": fixpoint.functional_eq_residual(p, sol, inp["variant"], pts).max_abs,
        "differential": fixpoint.functional_differential_residual(p, sol, pts).max_abs,
        "form": fixpoint.verify_form_quadratic(p, sol).max_abs,
    }
    if inp["positive_definite"]:
        with span("fixpoint.envelope"):
            low = fixpoint.lower_envelope(p)
            up = fixpoint.upper_envelope(p)
            sandwich = np.array([(low(x), sol(x), up(x)) for x in pts])
        out["sandwich"] = sandwich
    return out


class DoubleWell:
    """x -> (x^2 - a^2)^2 / 4: non-convex, so its hull drops the middle."""

    def __init__(self, a: float):
        self.a = a

    def __call__(self, x: float) -> float:
        return 0.25 * (x * x - self.a * self.a) ** 2


def prepare_grid(spec: dict) -> dict:
    """Untimed: the grid, the slopes -x over the window nodes, and the
    Fenchel-Young pairs."""
    x = bench_inputs.grid_points(spec)
    slopes, pairs = bench_inputs.grid_slopes_and_pairs(spec, x, bench_inputs.grid_values(spec, x))
    if spec["kind"] == "double_well":
        fn = DoubleWell(spec["a"])
    else:
        fn = discrete.SignFlipSolution(spec["kind"], lam=spec["lam"], reflected=spec["reflected"])
    return {"fn": fn, "grid": x, "slopes": slopes, "pairs": pairs, "spec": spec,
            "params": TransformParams(np.array([[-1.0]]), [0.0], [0.0], 1.0, 0.0)}


def grid_op(inp: dict, span) -> dict:
    """Sample, conjugate at the residual's slopes, residual, biconjugate and
    the Fenchel-Young check."""
    spec = inp["spec"]
    f = discrete.sample(inp["fn"], inp["grid"])
    conj = discrete.fast_conjugate(f, inp["slopes"])
    res = discrete.grid_fixed_point_residual(
        inp["params"], f, window=bench_inputs.GRID_WINDOW, boundary_exclusion=spec["exclusion"]
    )
    bic = discrete.biconjugate(f)
    fy = discrete.fenchel_young_check(f, inp["pairs"])
    return {
        "values": f.values,
        "conjugate": conj.values,
        "residual": (res.max_abs, None if res.worst_point is None else float(res.worst_point[0])),
        "biconjugate": bic.values,
        "fy_min_gap": fy.min_gap,
    }


WORKLOADS = {
    "solve-verify": (bench_inputs.solve_round, prepare_solve, solve_op),
    "grid-verify": (bench_inputs.grid_round, prepare_grid, grid_op),
}

