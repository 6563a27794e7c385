"""Self-tests of the benchmark's checkers: real outputs pass, corrupted ones
are rejected.

Kept outside the repository's test suite (the name does not match
``test_*.py``).  Run from the repository root with either of

    PYTHONPATH=src python bench/selftest_checks.py
    PYTHONPATH=src python -m pytest -q bench/selftest_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_checks  # noqa: E402
import bench_inputs as bi  # noqa: E402
import bench_ops  # noqa: E402
import bench_trace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _solve_case(tag, n=3, seed=7):
    spec = bi.make_problem(np.random.default_rng(seed), tag, n, variant_index=1)
    spec.update(variant="General", points=20, point_seed=5)
    return spec, bench_ops.solve_op(bench_ops.prepare_solve(spec), bench_trace.no_span)


def _grid_case(kind, reflected=False, nodes=2000, seed=3):
    spec = bi.make_grid_spec(np.random.default_rng(seed), kind, reflected, nodes)
    return spec, bench_ops.grid_op(bench_ops.prepare_grid(spec), bench_trace.no_span)


def test_solve_checker_accepts_every_tag():
    for tag in bi.SOLVE_TAG_ORDER:
        for n in (2, 5):
            spec, out = _solve_case(tag, n)
            assert bench_checks.check_solve(spec, out) == [], tag


def test_solve_checker_rejects_perturbed_a():
    spec, out = _solve_case(bi.UC2)
    a, b, gamma = out["solution"]
    bad = dict(out, solution=(a + 1e-6 * np.eye(len(b)), b, gamma))
    problems = bench_checks.check_solve(spec, bad)
    assert any("A differs" in p for p in problems), problems
    spec, out = _solve_case(bi.QSE, 4)
    a, b, gamma = out["solution"]
    flipped = a.copy()
    flipped[0, 1] += 1e-5
    flipped[1, 0] += 1e-5
    assert bench_checks.check_solve(spec, dict(out, solution=(flipped, b, gamma)))


def test_solve_checker_rejects_wrong_tag():
    for tag, wrong in ((bi.UQIC, bi.UAF), (bi.NQSC, bi.QSE), (bi.UND, bi.NS)):
        spec, out = _solve_case(tag)
        problems = bench_checks.check_solve(spec, dict(out, tag=wrong))
        assert any("tag" in p for p in problems), problems


def test_solve_checker_rejects_consistent_system_called_inconsistent():
    # a problem whose w - c has no component on the negative eigenspace
    # cannot be inconsistent, whatever the program says
    spec, out = _solve_case(bi.QSE, 4)
    spec = dict(spec, tag=bi.NQSC, tau=1.0, w=spec["c"].copy())
    problems = bench_checks.check_solve(spec, dict(out, tag=bi.NQSC, solution=None, route=("solved", None)))
    assert any("projection" in p for p in problems), problems


def test_solve_checker_rejects_broken_sandwich():
    spec, out = _solve_case(bi.UAF)
    bad = dict(out, sandwich=out["sandwich"] * np.array([1.0, 1.0, 0.5]))
    assert any("sandwich" in p for p in bench_checks.check_solve(spec, bad))


def test_grid_checker_accepts_every_kind():
    for kind, reflected in bi.GRID_KINDS:
        spec, out = _grid_case(kind, reflected)
        assert bench_checks.check_grid(spec, out) == [], (kind, reflected)


def test_grid_checker_rejects_one_altered_conjugate_value():
    spec, out = _grid_case("half_square")
    conj = out["conjugate"].copy()
    conj[0] = np.nextafter(conj[0], np.inf)  # index 0 is always compared
    problems = bench_checks.check_grid(spec, dict(out, conjugate=conj))
    assert any("fast conjugate" in p for p in problems), problems


def test_grid_checker_rejects_non_convex_biconjugate():
    spec, out = _grid_case("double_well")
    problems = bench_checks.check_grid(spec, dict(out, biconjugate=out["values"]))
    assert any("convex envelope" in p for p in problems), problems


def test_grid_checker_rejects_large_residual_and_negative_gap():
    spec, out = _grid_case("split_quadratic")
    max_abs, worst = out["residual"]
    problems = bench_checks.check_grid(spec, dict(out, residual=(3.0 * spec["h"], worst)))
    assert any("grid residual" in p for p in problems), problems
    problems = bench_checks.check_grid(spec, dict(out, fy_min_gap=-1e-9))
    assert any("Fenchel-Young" in p for p in problems), problems


def test_hull_envelope_matches_brute_chords():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(-3.0, 3.0, 40))
    v = np.sin(3.0 * x) + 0.2 * x * x
    v[:3] = np.inf
    env = bench_checks.hull_envelope(x, v)
    fin = np.nonzero(np.isfinite(v))[0]
    for i in fin:
        best = v[i]
        for j in fin[fin < i]:
            for k in fin[fin > i]:
                t = (x[i] - x[j]) / (x[k] - x[j])
                best = min(best, v[j] + t * (v[k] - v[j]))
        assert abs(env[i] - best) <= 1e-12 * (1.0 + abs(best))
    assert np.all(np.isinf(env[:3]))


def _cli(seed=2, index=0):
    """Run every op of one CLI set in process; return (kind, expect, code,
    stdout) tuples."""
    from fenchelfix import cli

    out = []
    folder = os.path.join(ROOT, "bench", "runs", "selftest")
    os.makedirs(folder, exist_ok=True)
    for k, (kind, argv, config, expect) in enumerate(bi.cli_set(seed, index)):
        if config is not None:
            path = os.path.join(folder, f"{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = argv[:1] + ["--config", path] + argv[1:]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append((kind, expect, code, buf.getvalue().encode()))
    return out


def test_cli_checker_accepts_real_reports():
    for kind, expect, code, stdout in _cli():
        assert bench_checks.check_cli(kind, expect, code, stdout) == [], kind


def test_cli_checker_rejects_corrupted_reports():
    for kind, expect, code, stdout in _cli():
        assert bench_checks.check_cli(kind, expect, code + 1, stdout), kind
        assert bench_checks.check_cli(kind, expect, code, stdout[:-5]), kind
        report = json.loads(stdout)
        bad = copy.deepcopy(report)
        result = bad["result"]
        if kind.startswith("demo-"):
            result["passed"] = False
        elif kind == "conjugate":
            result["oracleCheck"] = "MISMATCH"
            assert bench_checks.check_cli(kind, expect, code, json.dumps(bad).encode()), kind
            bad = copy.deepcopy(report)
            bad["result"]["conjugate"]["values"][7] += 1e-9
        elif kind == "classify-nonsymmetric":
            result["classification"]["tag"] = bi.NS
        elif kind == "classify":
            result["classification"]["solution"]["A"][0][0] *= 1.0 + 1e-6
        elif kind == "solve":
            result["solution"]["A"][0][0] *= 1.0 + 1e-6
        else:
            result["residual"]["maxAbs"] = 1.0
        assert bench_checks.check_cli(kind, expect, code, json.dumps(bad).encode()), kind


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == dict(bench_trace.PER_LAYER)


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
