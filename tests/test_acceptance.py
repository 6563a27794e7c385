"""End-to-end acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them inline).  Criteria
that share instances (the positive definite corpus feeds the envelope and
functional-equation checks) reuse one lazily built cache so the stated
runtime budgets apply to the work actually being measured.
"""

import time

import numpy as np
import pytest

from conftest import random_indefinite_matrix, random_orthogonal, random_pd_instance
from fenchelfix import (
    QuadraticFn,
    SignFlipSolution,
    Tag,
    TransformParams,
    classify,
    eigendecompose,
    fast_conjugate,
    brute_conjugate,
    check_involution_psd,
    functional_differential_residual,
    functional_eq_residual,
    grid_fixed_point_residual,
    invert,
    lower_envelope,
    quarter_turn_params,
    sample_points,
    skew_solution,
    solve_lql,
    solve_positive_definite,
    solve_self_adjoint,
    transform_residual,
    uniform_grid,
    upper_envelope,
    verify_form_quadratic,
    SampledFn,
)

_CACHE = {}


def _emit(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number:02d} [{name}]: {state}" + (f" ({detail})" if detail else ""))


def pd_corpus():
    """200 positive definite instances with their solutions (criteria 2, 8, 10)."""
    if "pd" not in _CACHE:
        rng = np.random.default_rng(1001)
        corpus = []
        for _ in range(200):
            p = random_pd_instance(rng, max_dim=6)
            corpus.append((p, solve_positive_definite(p)))
        _CACHE["pd"] = corpus
    return _CACHE["pd"]


def indefinite_corpus():
    """100 indefinite instances with w forced onto the solvable ray (criteria 4, 10)."""
    if "indef" not in _CACHE:
        rng = np.random.default_rng(2002)
        corpus = []
        for _ in range(100):
            n = int(rng.integers(2, 7))
            e = random_indefinite_matrix(rng, n)
            tau = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            c = rng.uniform(-3.0, 3.0, n)
            spec = eigendecompose(e)
            flip = spec.apply(lambda d: np.sqrt(tau) * np.sign(d))  # tau E A^{-1}
            w = -flip @ c
            p = TransformParams(e, c, w, tau, float(rng.uniform(-3.0, 3.0)))
            corpus.append((p, spec))
        _CACHE["indef"] = corpus
    return _CACHE["indef"]


def test_criterion_01_self_conjugacy():
    started = time.monotonic()
    p = TransformParams(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 0.0)
    outcome = classify(p)
    solved = solve_positive_definite(p)
    pts = sample_points(2, 100, seed=0)
    residuals = [
        transform_residual(p, outcome.solution, pts).max_abs,
        transform_residual(p, solved, pts).max_abs,
    ]
    elapsed = time.monotonic() - started
    ok = (
        outcome.tag is Tag.UNIQUE_ALL_FUNCTIONS
        and np.allclose(solved.A, np.eye(2))
        and np.allclose(solved.b, 0.0)
        and solved.gamma == 0.0
        and max(residuals) <= 1e-12
        and elapsed < 1.0
    )
    _emit(1, "self-conjugacy", ok, f"residual {max(residuals):.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_positive_definite_soundness():
    started = time.monotonic()
    worst_resid = worst_form = 0.0
    all_convex = True
    for p, sol in pd_corpus():
        pts = sample_points(p.dim, 100, seed=1)
        worst_resid = max(worst_resid, transform_residual(p, sol, pts).max_abs)
        form = verify_form_quadratic(p, sol)  # all three coefficient relations
        worst_form = max(worst_form, form.max_abs)
        all_convex = all_convex and sol.spectrum.positive_definite()
    elapsed = time.monotonic() - started
    ok = worst_resid <= 1e-8 and worst_form <= 1e-8 and all_convex and elapsed < 10.0
    _emit(
        2,
        "positive definite construction",
        ok,
        f"residual {worst_resid:.2e}, form {worst_form:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_nonexistence_detection():
    rng = np.random.default_rng(3003)
    ok = True
    for case in range(20):
        n = int(rng.integers(1, 5))
        vec = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
        if case % 2 == 0:
            p = TransformParams(-np.eye(n), np.zeros(n), vec, 1.0, 0.0)
        else:
            p = TransformParams(-np.eye(n), vec, np.zeros(n), 1.0, 0.0)
        ok = ok and classify(p).tag is Tag.NO_SOLUTION
        ok = ok and solve_self_adjoint(p) is None
    _emit(3, "sign-flip nonexistence", ok)
    assert ok


def test_criterion_04_indefinite_construction():
    worst = 0.0
    ok = True
    for p, spec in indefinite_corpus():
        sol = solve_self_adjoint(p)
        if sol is None:
            ok = False
            continue
        rt = np.sqrt(p.tau)
        a_expect = spec.apply(lambda d: rt * np.abs(d))
        a_inv = spec.apply(lambda d: 1.0 / (rt * np.abs(d)))
        gamma_expect = (p.beta + 0.5 * p.tau * float(p.c @ a_inv @ p.c)) / (p.tau + 1.0)
        ok = ok and np.max(np.abs(sol.A - a_expect)) <= 1e-9
        ok = ok and np.max(np.abs(sol.b)) <= 1e-8
        ok = ok and abs(sol.gamma - gamma_expect) <= 1e-9
        pts = sample_points(p.dim, 100, seed=2)
        worst = max(worst, transform_residual(p, sol, pts).max_abs)
    ok = ok and worst <= 1e-8
    _emit(4, "indefinite spectral construction", ok, f"residual {worst:.2e}")
    assert ok


def test_criterion_05_planar_rotation_solutions():
    rng = np.random.default_rng(5005)
    params = quarter_turn_params()
    pts = sample_points(2, 100, seed=3)
    worst = 0.0
    for _ in range(50):
        m = rng.standard_normal((2, 2))
        b = m @ m.T + 0.2 * np.eye(2)
        b /= np.sqrt(np.linalg.det(b))
        sol = skew_solution(b)
        worst = max(worst, transform_residual(params, sol, pts).max_abs)
    # two planar blocks stacked into dimension four
    m1 = np.array([[1.3, 0.2], [0.2, 0.9]])
    m2 = np.array([[2.0, 1.0], [1.0, 1.0]])
    b1, b2 = [skew_solution(b / np.sqrt(np.linalg.det(b))).A for b in (m1, m2)]
    zero = np.zeros((2, 2))
    stacked = QuadraticFn(np.block([[b1, zero], [zero, b2]]), np.zeros(4), 0.0)
    rot = params.E
    e4 = np.block([[rot, zero], [zero, rot]])
    p4 = TransformParams(e4, np.zeros(4), np.zeros(4), 1.0, 0.0)
    pts4 = sample_points(4, 100, seed=4)
    stacked_resid = transform_residual(p4, stacked, pts4).max_abs
    ok = worst <= 1e-9 and stacked_resid <= 1e-9
    _emit(5, "planar rotation family", ok, f"residual {worst:.2e}, stacked {stacked_resid:.2e}")
    assert ok


def test_criterion_06_sign_flip_grids():
    h = 0.005
    flip = TransformParams([[-1.0]], [0.0], [0.0], 1.0, 0.0)
    window = (-5.0, 5.0)
    checks = []
    for member in (
        SignFlipSolution("half_square"),
        SignFlipSolution("ray_indicator"),
        SignFlipSolution("ray_indicator", reflected=True),
    ):
        fn = member.sample(uniform_grid(-5.0, 5.0, h))
        checks.append((grid_fixed_point_residual(flip, fn, window=window).max_abs, 2 * h))
    for lam in (0.5, 1.0, 2.0, 7.0):
        lo = min(-5.0, -5.0 / lam) - 1.0
        hi = max(5.0, 5.0 * lam) + 1.0
        fn = SignFlipSolution("split_quadratic", lam=lam).sample(uniform_grid(lo, hi, h))
        checks.append((grid_fixed_point_residual(flip, fn, window=window).max_abs, 2 * h))
    reach = 1.0 / (10 * h)
    fn = SignFlipSolution("neg_log").sample(uniform_grid(h, reach, h))
    checks.append(
        (
            grid_fixed_point_residual(
                flip, fn, window=window, boundary_exclusion=10 * h
            ).max_abs,
            4 * h,
        )
    )
    fn = SignFlipSolution("neg_log", reflected=True).sample(uniform_grid(-reach, -h, h))
    checks.append(
        (
            grid_fixed_point_residual(
                flip, fn, window=window, boundary_exclusion=10 * h
            ).max_abs,
            4 * h,
        )
    )
    ok = all(seen <= bound for seen, bound in checks)
    worst = max(seen / bound for seen, bound in checks)
    _emit(6, "sign-flip equation on grids", ok, f"worst residual at {worst:.1%} of bound")
    assert ok


def test_criterion_07_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(7007)
    mismatches = 0
    for case in range(1000):
        n = int(rng.integers(2, 401))
        pts = np.unique(rng.uniform(-50.0, 50.0, n))
        vals = rng.uniform(-20.0, 20.0, pts.size)
        if case % 3 == 0:
            vals[rng.random(pts.size) < 0.3] = np.inf
            if not np.any(np.isfinite(vals)):
                vals[0] = 0.0
        f = SampledFn(pts, vals)
        m = int(rng.integers(1, 401))
        slopes = np.unique(rng.uniform(-60.0, 60.0, m))
        fast = fast_conjugate(f, slopes)
        brute = brute_conjugate(f, slopes)
        if fast.values.tobytes() != brute.values.tobytes():
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 30.0
    _emit(7, "conjugate oracle equivalence", ok, f"{mismatches} mismatches, {elapsed:.2f}s")
    assert ok


def test_criterion_08_envelope_sandwich():
    worst_slack = 0.0
    for p, sol in pd_corpus():
        low = lower_envelope(p)
        up = upper_envelope(p)
        pts = sample_points(p.dim, 500, seed=5)
        mid = sol.values(pts)
        worst_slack = min(
            worst_slack, float(np.min(mid - low.values(pts))), float(np.min(up.values(pts) - mid))
        )
    sandwich_ok = worst_slack >= -1e-9

    # regression: the inverse-coefficient closed form is NOT an upper bound.
    # For E = 2, tau = 1 the solution is x^2 while that form caps it at
    # x^2/4, so it must be violated; the compositional envelope holds.
    p = TransformParams([[2.0]], [0.0], [0.0], 1.0, 0.0)
    sol = solve_positive_definite(p)
    printed = QuadraticFn([[0.5 * (p.tau + 1.0) * 0.5]], [0.0], 0.0)
    x = np.array([1.0])
    printed_violated = sol(x) > printed(x) + 0.5
    compositional_holds = sol(x) <= upper_envelope(p)(x) + 1e-12

    ok = sandwich_ok and printed_violated and compositional_holds
    _emit(8, "envelope sandwich", ok, f"min slack {worst_slack:.2e}")
    assert ok


def test_criterion_09_operator_equations():
    rng = np.random.default_rng(9009)
    worst_lql = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        u = random_orthogonal(rng, n)
        l_matrix = (u * rng.uniform(0.4, 2.5, n)) @ u.T
        l_matrix = 0.5 * (l_matrix + l_matrix.T)
        q = solve_lql(l_matrix)
        worst_lql = max(worst_lql, float(np.max(np.abs(l_matrix @ q @ l_matrix - invert(q)))))
    worst_inv = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = random_orthogonal(rng, n)
        q = u @ np.eye(n) @ u.T
        worst_inv = max(worst_inv, check_involution_psd(q).max_abs)
    ok = worst_lql <= 1e-9 and worst_inv <= 1e-7
    _emit(9, "operator equations", ok, f"lql {worst_lql:.2e}, involution {worst_inv:.2e}")
    assert ok


def test_criterion_10_functional_equations():
    worst = 0.0
    for p, sol in pd_corpus():
        pts = sample_points(p.dim, 100, seed=6)
        for variant in ("Tsquared", "General", "SelfAdjoint"):
            worst = max(worst, functional_eq_residual(p, sol, variant, pts).max_abs)
        worst = max(worst, functional_differential_residual(p, sol, pts).max_abs)
    for p, _spec in indefinite_corpus():
        sol = solve_self_adjoint(p)
        assert sol is not None
        pts = sample_points(p.dim, 100, seed=7)
        for variant in ("Tsquared", "General", "SelfAdjoint"):
            worst = max(worst, functional_eq_residual(p, sol, variant, pts).max_abs)
    ok = worst <= 1e-8
    _emit(10, "functional equations", ok, f"worst residual {worst:.2e}")
    assert ok
