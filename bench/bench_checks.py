"""Checkers that do not trust the program.

Each checker takes an op's input spec and the program's output and returns a
list of problems (empty when the output is right).  It compares the output
with a computation made apart from fenchelfix, with numpy and scipy alone, or
tests a property the method must have.  Tolerances are stated where used.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.spatial import ConvexHull

import bench_inputs as bi

REL_RESIDUAL_TOL = 1e-10  # |q - Tq| / (1 + |q| + |Tq|) of a solution
A_TOL = 1e-9  # leading coefficient, relative to max(1, max|A|)
ROUTE_TOL = 1e-12  # classify's and solve's solutions, relative
SANDWICH_TOL = 1e-9  # envelope slack, relative to 1 + |f(x)|
PROJECTION_MIN = 1e-6  # |P_-(w - c)| on the inconsistent branches, relative
ENVELOPE_TOL = 1e-9  # biconjugate vs the scipy hull, relative to 1 + |value|
SAMPLE_TOL = 1e-13  # sampled values vs numpy's, relative to 1 + |value|
FY_MIN = -1e-12  # least Fenchel-Young gap
CHECK_POINTS = 64  # the checker's own residual points
CONJ_SUBSAMPLE = 64  # slopes compared bit for bit with a brute max


# ---------------------------------------------------------------------------
# solve-verify


def _sym(m):
    return 0.5 * (m + m.T)


def _abs_spectral(m):
    d, u = np.linalg.eigh(_sym(m))
    return (u * np.abs(d)) @ u.T


def relative_residual(spec: dict, a, b, gamma, x) -> np.ndarray:
    """|q - Tq| / (1 + |q| + |Tq|) at the rows of x, vectorised, with
    Tq(x) = tau q*(Ex + c) + <w, x> + beta and the conjugate of q in closed
    form through numpy's solve."""
    e, c, w, tau, beta = spec["E"], spec["c"], spec["w"], spec["tau"], spec["beta"]
    q = 0.5 * np.einsum("ki,ij,kj->k", x, a, x) + x @ b + gamma
    d = x @ e.T + c - b
    y = np.linalg.solve(a, d.T).T
    tq = tau * (0.5 * np.einsum("ki,ki->k", d, y) - gamma) + x @ w + beta
    return np.abs(q - tq) / (1.0 + np.abs(q) + np.abs(tq))


def negative_projection(spec: dict) -> float:
    """Norm of the projection of w - c onto the negative eigenspace of E."""
    d, u = np.linalg.eigh(_sym(spec["E"]))
    neg = u[:, d < 0.0]
    return float(np.linalg.norm(neg @ (neg.T @ (spec["w"] - spec["c"]))))


def check_solution_matrix(spec: dict, a) -> list:
    """A = sqrt(tau) E on positive definite E, sqrt(tau)|E| otherwise."""
    rt = np.sqrt(spec["tau"])
    if spec["tag"] == bi.QSE:
        ref = rt * _abs_spectral(spec["E"])
    else:
        ref = rt * _sym(spec["E"])
    err = float(np.max(np.abs(np.asarray(a) - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if not err <= A_TOL * scale:
        return [f"A differs from sqrt(tau)|E| by {err:.3e}"]
    return []


def check_solve(spec: dict, out: dict) -> list:
    problems = []
    tag = spec["tag"]
    if out["tag"] != tag:
        problems.append(f"tag {out['tag']} but the problem was built for {tag}")
    route_kind, route_sol = out["route"]
    if tag in bi.SOLUTION_TAGS:
        sol = out["solution"]
        if sol is None:
            return problems + ["no solution on a branch that has one"]
        a, b, gamma = sol
        problems += check_solution_matrix(spec, a)
        rng = np.random.default_rng(spec["point_seed"])
        x = rng.uniform(-bi.RADIUS, bi.RADIUS, (CHECK_POINTS, spec["dim"]))
        rel = float(np.max(relative_residual(spec, a, b, gamma, x)))
        if not rel <= REL_RESIDUAL_TOL:
            problems.append(f"relative residual {rel:.3e} above {REL_RESIDUAL_TOL:g}")
        if route_kind != "solved" or route_sol is None:
            problems.append("the solve route found no solution")
        else:
            scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))), abs(gamma))
            gap = max(
                float(np.max(np.abs(route_sol[0] - a))),
                float(np.max(np.abs(route_sol[1] - b))),
                abs(route_sol[2] - gamma),
            )
            if not gap <= ROUTE_TOL * scale:
                problems.append(f"classify and solve disagree by {gap:.3e}")
        for name, value in out["residuals"].items():
            if not np.isfinite(value):
                problems.append(f"{name} residual is not finite")
        if tag in (bi.UAF, bi.UQIC, bi.UC2):
            if "sandwich" not in out:
                problems.append("no envelope sandwich on positive definite E")
            else:
                low, f, up = out["sandwich"].T
                slack = float(np.min(np.minimum(f - low, up - f) / (1.0 + np.abs(f))))
                if not slack >= -SANDWICH_TOL:
                    problems.append(f"envelope sandwich broken, slack {slack:.3e}")
    elif tag in bi.INCONSISTENT_TAGS:
        if out["solution"] is not None:
            problems.append("a solution on an inconsistent branch")
        if route_kind != "solved" or route_sol is not None:
            problems.append("the solve route built a solution on an inconsistent branch")
        proj = negative_projection(spec)
        scale = 1.0 + float(np.linalg.norm(spec["w"] - spec["c"]))
        if not proj > PROJECTION_MIN * scale:
            problems.append(f"projection of w - c onto the negative eigenspace is {proj:.3e}")
    else:
        if out["solution"] is not None:
            problems.append("a solution for non-symmetric E")
        if route_kind != "rejected":
            problems.append("the solve route accepted non-symmetric E")
    return problems


# ---------------------------------------------------------------------------
# grid-verify


def hull_envelope(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Convex envelope of the samples at every node, from scipy's qhull.

    A point high above the set keeps qhull away from a flat input (the ray
    indicator); the lower chain runs counterclockwise from the leftmost
    vertex to the rightmost one.  Nodes outside the finite span stay +inf.
    """
    fin = np.isfinite(values)
    xs, vs = x[fin], values[fin]
    env = np.full(x.shape, np.inf)
    if xs.size == 1:
        env[fin] = vs
        return env
    top = float(np.max(vs)) + (float(np.max(vs)) - float(np.min(vs))) + 1.0
    pts = np.vstack([np.column_stack([xs, vs]), [0.5 * (xs[0] + xs[-1]), top]])
    ring = ConvexHull(pts).vertices
    ring = np.roll(ring, -int(np.argmin(pts[ring, 0])))
    right = int(np.argmax(pts[ring, 0]))
    chain = ring[: right + 1]
    inside = (x >= xs[0]) & (x <= xs[-1])
    env[inside] = np.interp(x[inside], pts[chain, 0], pts[chain, 1])
    return env


def brute_max(slope, xs, vs) -> float:
    """max over the finite nodes of slope * x - f(x): the oracle's expression."""
    return np.max(slope * xs - vs)


def check_grid(spec: dict, out: dict) -> list:
    problems = []
    x = bi.grid_points(spec)
    values = np.asarray(out["values"])
    ref = bi.grid_values(spec, x)
    fin = np.isfinite(ref)
    if values.shape != ref.shape or not np.array_equal(np.isfinite(values), fin):
        return ["sampled domain differs from the function's"]
    err = float(np.max(np.abs(values[fin] - ref[fin]) / (1.0 + np.abs(ref[fin]))))
    if not err <= SAMPLE_TOL:
        problems.append(f"sampled values off by {err:.3e}")

    xs, vs = x[fin], values[fin]
    slopes, _pairs = bi.grid_slopes_and_pairs(spec, x, values)
    conj = np.asarray(out["conjugate"])
    if conj.shape != slopes.shape:
        problems.append("conjugate has the wrong length")
    else:
        for i in np.unique(np.linspace(0, slopes.size - 1, CONJ_SUBSAMPLE).astype(int)):
            want = brute_max(slopes[i], xs, vs)
            # bit for bit, except the sign of a zero: a max over a tie of
            # +0.0 and -0.0 may return either, so both sides get + 0.0
            if (conj[i] + 0.0).tobytes() != (want + 0.0).tobytes():
                problems.append(f"fast conjugate {conj[i]!r} at slope {slopes[i]!r}, brute max {want!r}")
                break

    env = hull_envelope(x, values)
    bic = np.asarray(out["biconjugate"])
    efin = np.isfinite(env)
    if bic.shape != env.shape or not np.array_equal(np.isfinite(bic), efin):
        problems.append("biconjugate domain differs from the hull's")
    else:
        gap = float(np.max(np.abs(bic[efin] - env[efin]) / (1.0 + np.abs(env[efin]))))
        if not gap <= ENVELOPE_TOL:
            problems.append(f"biconjugate off the convex envelope by {gap:.3e}")

    max_abs, worst = out["residual"]
    if spec["kind"] != "double_well" and not max_abs <= spec["bound"]:
        problems.append(f"grid residual {max_abs:.3e} above {spec['bound']:.3e}")
    if worst is None:
        problems.append("grid residual has no worst point")
    else:
        i = int(np.argmin(np.abs(x - worst)))
        own = abs(values[i] - brute_max(-x[i], xs, vs))  # e = -1, c = w = beta = 0
        if not abs(own - max_abs) <= 1e-12 * (1.0 + max_abs):
            problems.append(f"grid residual {max_abs!r} but {own!r} at its worst point")

    if not out["fy_min_gap"] >= FY_MIN:
        problems.append(f"Fenchel-Young gap {out['fy_min_gap']:.3e} below {FY_MIN:g}")
    return problems


# ---------------------------------------------------------------------------
# cli-cold


def check_cli(kind: str, expect: dict, code: int, stdout: bytes) -> list:
    """Exit code, a parseable report, and the report's content."""
    problems = []
    if code != expect["exit"]:
        problems.append(f"{kind}: exit {code}, expected {expect['exit']}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + [f"{kind}: report is not JSON"]
    result = report.get("result", {})
    if kind.startswith("demo-"):
        if result.get("passed") is not True:
            problems.append(f"{kind}: passed is {result.get('passed')!r}")
        return problems
    if kind in ("classify", "classify-nonsymmetric"):
        spec = expect["problem"]
        tag = result.get("classification", {}).get("tag")
        if tag != spec["tag"]:
            problems.append(f"{kind}: tag {tag}, expected {spec['tag']}")
        sol = result.get("classification", {}).get("solution")
        if spec["tag"] == bi.UND:
            if sol is not None:
                problems.append(f"{kind}: a solution for non-symmetric E")
        elif sol is None:
            problems.append(f"{kind}: no solution")
        else:
            problems += _check_reported_solution(kind, spec, sol)
    elif kind == "solve":
        sol = result.get("solution")
        if sol is None:
            problems.append("solve: no solution")
        else:
            problems += _check_reported_solution(kind, expect["problem"], sol)
    elif kind == "verify-quadratic":
        spec = expect["problem"]
        cand = report["config"]["candidate"]["quadratic"]
        a, b = np.asarray(cand["A"]), np.asarray(cand["b"])
        x = np.random.default_rng(0).uniform(-bi.RADIUS, bi.RADIUS, (CHECK_POINTS, spec["dim"]))
        scale = 1.0 + float(np.max(np.abs(0.5 * np.einsum("ki,ij,kj->k", x, a, x) + x @ b)))
        for key in ("residual", "formResidual"):
            value = result.get(key, {}).get("maxAbs")
            if not (isinstance(value, float) and value <= 1e-9 * scale):
                problems.append(f"verify-quadratic: {key} {value!r} on the exact solution")
    elif kind == "verify-sampled":
        value = result.get("residual", {}).get("maxAbs")
        if not (isinstance(value, float) and value <= expect["grid"]["bound"]):
            problems.append(f"verify-sampled: residual {value!r} above {expect['grid']['bound']:.3e}")
    elif kind == "conjugate":
        if result.get("oracleCheck") != "bitwise-equal":
            problems.append(f"conjugate: oracle check {result.get('oracleCheck')!r}")
        cfg = report["config"]
        xs = np.asarray(cfg["input"]["points"], dtype=float)
        vs = np.asarray(cfg["input"]["values"], dtype=float)
        sl = cfg["slopes"]
        slopes = np.linspace(sl["start"], sl["stop"], sl["count"])
        got = np.asarray(result.get("conjugate", {}).get("values", []), dtype=float)
        want = np.array([brute_max(s, xs, vs) for s in slopes])
        if (got + 0.0).tobytes() != (want + 0.0).tobytes():
            problems.append("conjugate: values differ from a brute max")
    return problems


def _check_reported_solution(kind: str, spec: dict, sol: dict) -> list:
    a = np.asarray(sol["A"], dtype=float)
    b = np.asarray(sol["b"], dtype=float)
    problems = [f"{kind}: {p}" for p in check_solution_matrix(spec, a)]
    x = np.random.default_rng(1).uniform(-bi.RADIUS, bi.RADIUS, (CHECK_POINTS, spec["dim"]))
    rel = float(np.max(relative_residual(spec, a, b, float(sol["gamma"]), x)))
    if not rel <= REL_RESIDUAL_TOL:
        problems.append(f"{kind}: relative residual {rel:.3e}")
    return problems
