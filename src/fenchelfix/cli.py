"""Batch front door: classify / solve / verify / conjugate / demo.

One process per invocation, config in, JSON report out.  Reports are byte
identical for identical config and seed; wall time goes to stderr so it
never perturbs the report stream.  Exit codes: 0 determinate outcome,
2 input error, 3 undetermined classification, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np

from . import discrete, fixpoint, linalg, serialize
from .errors import FenchelFixError, NumericalFailure, ParseError, UnknownDemo
from .fixpoint import Tag
from .quadratic import TransformParams
from .sampling import sample_points
from .tolerances import DEFAULT_TOL, Tolerances

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3
EXIT_INTERNAL = 4


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("config root must be an object")
    return obj


def _options(config: dict, args) -> dict:
    opts = dict(config.get("options", {}))
    if args.points is not None:
        opts["points"] = args.points
    if args.seed is not None:
        opts["seed"] = args.seed
    if args.tol_scale is not None:
        opts["tol_scale"] = args.tol_scale
    opts.setdefault("points", 100)
    opts.setdefault("seed", 0)
    opts.setdefault("tol_scale", 1.0)
    opts.setdefault("radius", 3.0)
    return opts


def _tol(opts: dict) -> Tolerances:
    scale = float(opts.get("tol_scale", 1.0))
    return DEFAULT_TOL if scale == 1.0 else DEFAULT_TOL.scaled(scale)


def _scan_points(p: TransformParams, opts: dict) -> np.ndarray:
    return sample_points(
        p.dim, int(opts["points"]), radius=float(opts["radius"]), seed=int(opts["seed"])
    )


def _write_report(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_shell(command: str, config: dict, opts: dict, tol: Tolerances) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": int(opts["seed"]),
        "points": int(opts["points"]),
        "tolerances": serialize.tolerances_to_json(tol),
        "result": {},
    }


def cmd_classify(args) -> int:
    config = _load_config(args.config)
    opts = _options(config, args)
    tol = _tol(opts)
    params = serialize.params_from_json(config.get("params", {}))
    candidate = None
    cand_cfg = config.get("candidate")
    if isinstance(cand_cfg, dict) and "quadratic" in cand_cfg:
        candidate = serialize.quadratic_from_json(cand_cfg["quadratic"])
    pts = _scan_points(params, opts)
    outcome = fixpoint.classify(params, candidate=candidate, points=pts, tol=tol)
    report = _report_shell("classify", config, opts, tol)
    report["result"]["classification"] = serialize.classification_to_json(outcome)
    if outcome.solution is not None:
        residual = fixpoint.transform_residual(params, outcome.solution, pts, tol)
        report["result"]["residual"] = serialize.report_to_json(residual)
    _write_report(report, args.out)
    return EXIT_UNDETERMINED if outcome.tag is Tag.UNDETERMINED else EXIT_OK


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    opts = _options(config, args)
    tol = _tol(opts)
    params = serialize.params_from_json(config.get("params", {}))
    report = _report_shell("solve", config, opts, tol)
    solution = fixpoint.solve_symmetric(params, tol)
    if solution is None:
        report["result"]["solution"] = None
        report["result"]["tag"] = Tag.NO_QUADRATIC_SOLUTION_IN_CONSTRUCTION.value
        report["result"]["note"] = "slope system of the spectral construction is inconsistent"
    else:
        pts = _scan_points(params, opts)
        residual = fixpoint.transform_residual(params, solution, pts, tol)
        report["result"]["solution"] = serialize.quadratic_to_json(solution)
        report["result"]["residual"] = serialize.report_to_json(residual)
    _write_report(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    opts = _options(config, args)
    tol = _tol(opts)
    params = serialize.params_from_json(config.get("params", {}))
    cand_cfg = config.get("candidate")
    if not isinstance(cand_cfg, dict) or len(cand_cfg) != 1:
        raise ParseError("verify needs exactly one candidate (quadratic or sampled)")
    report = _report_shell("verify", config, opts, tol)
    if "quadratic" in cand_cfg:
        q = serialize.quadratic_from_json(cand_cfg["quadratic"])
        pts = _scan_points(params, opts)
        residual = fixpoint.transform_residual(params, q, pts, tol)
        report["result"]["residual"] = serialize.report_to_json(residual)
        form = fixpoint.verify_form_quadratic(params, q, tol)
        report["result"]["formResidual"] = serialize.report_to_json(form)
    elif "sampled" in cand_cfg:
        f = serialize.sampled_from_json(cand_cfg["sampled"])
        window = opts.get("window")
        residual = discrete.grid_fixed_point_residual(
            params,
            f,
            window=None if window is None else (float(window[0]), float(window[1])),
            boundary_exclusion=float(opts.get("boundary_exclusion", 0.0)),
        )
        report["result"]["residual"] = serialize.report_to_json(residual)
    else:
        raise ParseError("candidate must be 'quadratic' or 'sampled'")
    _write_report(report, args.out)
    return EXIT_OK


def cmd_conjugate(args) -> int:
    config = _load_config(args.config)
    opts = _options(config, args)
    tol = _tol(opts)
    fn = serialize.sampled_from_json(_ensure(config, "input"))
    slopes_cfg = _ensure(config, "slopes")
    if isinstance(slopes_cfg, dict):
        try:
            start = float(slopes_cfg["start"])
            stop = float(slopes_cfg["stop"])
            count = int(slopes_cfg["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad slopes entry: {exc}") from exc
        slopes = np.linspace(start, stop, count)
    else:
        slopes = np.asarray(slopes_cfg, dtype=float)
    conj = discrete.fast_conjugate(fn, slopes)
    report = _report_shell("conjugate", config, opts, tol)
    report["result"]["conjugate"] = serialize.sampled_to_json(conj)
    if args.check:
        oracle = discrete.brute_conjugate(fn, slopes)
        same = conj.values.tobytes() == oracle.values.tobytes()
        report["result"]["oracleCheck"] = "bitwise-equal" if same else "MISMATCH"
        if not same:
            _write_report(report, args.out)
            print("conjugate: oracle mismatch", file=sys.stderr)
            return EXIT_INTERNAL
    _write_report(report, args.out)
    return EXIT_OK


def _ensure(config: dict, key: str):
    if key not in config:
        raise ParseError(f"config is missing {key!r}")
    return config[key]


# ---------------------------------------------------------------------------
# Demo scenarios: run a named construction end to end and assert its outcome.


def _demo_energy(opts: dict, tol: Tolerances) -> tuple[dict, bool]:
    params = TransformParams(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 0.0)
    outcome = fixpoint.classify(params, tol=tol)
    pts = _scan_points(params, opts)
    residual = fixpoint.transform_residual(params, outcome.solution, pts, tol)
    ok = outcome.tag is Tag.UNIQUE_ALL_FUNCTIONS and residual.max_abs <= 1e-12
    return {
        "classification": serialize.classification_to_json(outcome),
        "residual": serialize.report_to_json(residual),
    }, ok


def _demo_skew(opts: dict, tol: Tolerances) -> tuple[dict, bool]:
    params = fixpoint.quarter_turn_params()
    pts = _scan_points(params, opts)
    cases = {
        "identity": np.eye(2),
        "diag": np.diag([2.0, 0.5]),
        "coupled": np.array([[2.0, 1.0], [1.0, 1.0]]),
    }
    out = {}
    ok = True
    for name, b in cases.items():
        q = fixpoint.skew_solution(b, tol)
        residual = fixpoint.transform_residual(params, q, pts, tol)
        out[name] = serialize.report_to_json(residual)
        ok = ok and residual.max_abs <= 1e-9
    return {"residuals": out}, ok


def _demo_log(opts: dict, tol: Tolerances) -> tuple[dict, bool]:
    h = 0.01
    flip = TransformParams(np.array([[-1.0]]), [0.0], [0.0], 1.0, 0.0)
    members = {
        "half_square": (discrete.SignFlipSolution("half_square"), (-5.0, 5.0), 0.0, 2 * h),
        "ray_indicator": (discrete.SignFlipSolution("ray_indicator"), (-5.0, 5.0), 0.0, 2 * h),
        "ray_indicator_reflected": (
            discrete.SignFlipSolution("ray_indicator", reflected=True),
            (-5.0, 5.0),
            0.0,
            2 * h,
        ),
        "split_quadratic_2": (
            discrete.SignFlipSolution("split_quadratic", lam=2.0),
            (-11.0, 11.0),
            0.0,
            2 * h,
        ),
        "neg_log": (discrete.SignFlipSolution("neg_log"), (h, 1.0 / (10 * h)), 10 * h, 4 * h),
        "neg_log_reflected": (
            discrete.SignFlipSolution("neg_log", reflected=True),
            (-1.0 / (10 * h), -h),
            10 * h,
            4 * h,
        ),
    }
    out = {}
    ok = True
    for name, (member, (lo, hi), exclusion, bound) in members.items():
        grid = discrete.uniform_grid(lo, hi, h)
        fn = member.sample(grid)
        residual = discrete.grid_fixed_point_residual(
            flip, fn, window=(-5.0, 5.0), boundary_exclusion=exclusion
        )
        out[name] = serialize.report_to_json(residual)
        ok = ok and residual.max_abs <= bound
    return {"residuals": out}, ok


def _demo_nonexistence(opts: dict, tol: Tolerances) -> tuple[dict, bool]:
    cases = {
        "linear_term": TransformParams(-np.eye(2), np.zeros(2), [1.0, 0.0], 1.0, 0.0),
        "offset": TransformParams(-np.eye(2), [0.5, -1.0], np.zeros(2), 1.0, 0.0),
    }
    out = {}
    ok = True
    for name, params in cases.items():
        outcome = fixpoint.classify(params, tol=tol)
        constructed = fixpoint.solve_self_adjoint(params, tol)
        agrees = outcome.tag is Tag.NO_SOLUTION and constructed is None
        out[name] = {
            "classification": serialize.classification_to_json(outcome),
            "constructionFailed": constructed is None,
        }
        ok = ok and agrees
    return {"cases": out}, ok


def _demo_lql(opts: dict, tol: Tolerances) -> tuple[dict, bool]:
    rng = np.random.default_rng(int(opts["seed"]) + 20240)
    n = 4
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    l_matrix = (basis * rng.uniform(0.5, 2.0, n)) @ basis.T
    l_matrix = 0.5 * (l_matrix + l_matrix.T)
    q = fixpoint.solve_lql(l_matrix, tol)
    lql_gap = float(np.max(np.abs(l_matrix @ q @ l_matrix - linalg.invert(q, tol))))
    involution = fixpoint.check_involution_psd(basis @ np.eye(n) @ basis.T, tol)
    ok = lql_gap <= 1e-9 and involution.max_abs <= 1e-7
    return {
        "lqlResidual": lql_gap,
        "involution": serialize.report_to_json(involution),
    }, ok


_DEMOS = {
    "energy": _demo_energy,
    "skew": _demo_skew,
    "log": _demo_log,
    "nonexistence": _demo_nonexistence,
    "lql": _demo_lql,
}


def cmd_demo(args) -> int:
    if args.name not in _DEMOS:
        raise UnknownDemo(f"unknown demo {args.name!r} (choose from {sorted(_DEMOS)})")
    opts = _options({}, args)
    tol = _tol(opts)
    result, ok = _DEMOS[args.name](opts, tol)
    report = _report_shell(f"demo {args.name}", {}, opts, tol)
    report["result"] = result
    report["result"]["passed"] = ok
    _write_report(report, args.out)
    if not ok:
        print(f"demo {args.name}: assertion failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    if config_required:
        parser.add_argument("--config", required=True, help="path to the JSON problem config")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--seed", type=int, help="seed for the sample-point sequence")
    parser.add_argument("--points", type=int, help="number of residual sample points")
    parser.add_argument("--tol-scale", type=float, dest="tol_scale", help="scale all tolerances")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fenchelfix",
        description="Classify, solve and verify fixed points of Legendre-Fenchel type transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the case analysis on a transform config")
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("solve", help="construct the quadratic solution for symmetric E")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="residual-check a candidate against a config")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conjugate", help="discrete Legendre-Fenchel transform of a sampled file")
    _add_common(p)
    p.add_argument("--check", action="store_true", help="cross-check against the brute oracle")
    p.set_defaults(fn=cmd_conjugate)

    p = sub.add_parser("demo", help="run a named end-to-end scenario")
    p.add_argument("name", help=f"one of {sorted(_DEMOS)}")
    _add_common(p, config_required=False)
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = args.fn(args)
    except NumericalFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FenchelFixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        elapsed_ms = 1000.0 * (time.monotonic() - started)
        print(f"wall-time: {elapsed_ms:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
