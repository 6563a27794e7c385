"""Batch front door: classify / solve / verify / conjugate / demo.

One process per invocation, config in, JSON report out.  Every command runs
through one pipeline, ``_run``: check that ``--out`` can be written, load the
config (``demo`` has none), parse the options and tolerances once, call the
command's handler from ``_COMMANDS``, and write the report shell with the
handler's result; ``serialize`` reads every config input.  ``solve``
reports what ``classify``'s case analysis constructs.  Reports are byte
identical for identical config and seed; wall time goes to stderr so it
never perturbs the report stream.  Exit codes: 0 determinate outcome, 2
input error (overflow on finite input too), 3 undetermined classification,
4 internal failure (a failed demo or oracle check included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import discrete, fixpoint, linalg, serialize
from .errors import FenchelFixError, NumericalFailure, OutOfRange, ParseError, UnknownDemo
from .fixpoint import Classification, Tag
from .quadratic import QuadraticFn, TransformParams
from .sampling import sample_points
from .tolerances import DEFAULT_TOL, Tolerances

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3
EXIT_INTERNAL = 4


def _scan_points(p: TransformParams, opts: dict) -> np.ndarray:
    cap = serialize.MAX_VALUES
    if opts["points"] * p.dim > cap:
        raise ParseError(f"option 'points' times dimension {p.dim} is over the cap of {cap} values")
    return sample_points(p.dim, opts["points"], radius=opts["radius"], seed=opts["seed"])


def _check_writable(out: Optional[str]) -> None:
    """Fail before any work when the report could not be written to ``out``."""
    if not out:
        return
    folder = os.path.dirname(os.path.abspath(out))
    target = out if os.path.exists(out) else folder
    if os.path.isdir(out) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ParseError(f"cannot write the report to {out}")


def _write_report(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_shell(command: str, config: dict, opts: dict, tol: Tolerances, result: dict) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": opts["seed"],
        "points": opts["points"],
        "tolerances": serialize.tolerances_to_json(tol),
        "result": result,
    }


def _outcome_exit(outcome: Classification) -> int:
    return EXIT_UNDETERMINED if outcome.tag is Tag.UNDETERMINED else EXIT_OK


def cmd_classify(args, config: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    params = serialize.params_from_json(config.get("params", {}))
    candidate = None
    if "candidate" in config:
        candidate = serialize.candidate_from_json(config["candidate"], "classify", "quadratic")
    pts = _scan_points(params, opts)
    outcome = fixpoint.classify(params, candidate=candidate, points=pts, tol=tol)
    result = {"classification": serialize.classification_to_json(outcome)}
    if outcome.solution is not None:
        residual = fixpoint.transform_residual(params, outcome.solution, pts, tol)
        result["residual"] = serialize.report_to_json(residual)
    return result, _outcome_exit(outcome)


def cmd_solve(args, config: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    params = serialize.params_from_json(config.get("params", {}))
    outcome = fixpoint.classify(params, tol=tol)
    if outcome.solution is None:
        result = {"solution": None, "tag": outcome.tag.value, "note": outcome.note}
    else:
        pts = _scan_points(params, opts)
        residual = fixpoint.transform_residual(params, outcome.solution, pts, tol)
        result = {
            "solution": serialize.quadratic_to_json(outcome.solution),
            "residual": serialize.report_to_json(residual),
        }
    return result, _outcome_exit(outcome)


def cmd_verify(args, config: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    params = serialize.params_from_json(config.get("params", {}))
    cand = serialize.candidate_from_json(config.get("candidate"), "verify", "quadratic", "sampled")
    if isinstance(cand, QuadraticFn):
        residual = fixpoint.transform_residual(params, cand, _scan_points(params, opts), tol)
        form = fixpoint.verify_form_quadratic(params, cand, tol)
        result = {
            "residual": serialize.report_to_json(residual),
            "formResidual": serialize.report_to_json(form),
        }
    else:
        residual = discrete.grid_fixed_point_residual(
            params, cand, window=opts["window"], boundary_exclusion=opts["boundary_exclusion"]
        )
        result = {"residual": serialize.report_to_json(residual)}
    return result, EXIT_OK


def cmd_conjugate(args, config: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    fn, slopes = serialize.conjugate_from_json(config)
    conj = discrete.fast_conjugate(fn, slopes)
    result = {"conjugate": serialize.sampled_to_json(conj)}
    if not args.check:
        return result, EXIT_OK
    oracle = discrete.brute_conjugate(fn, slopes)
    same = conj.values.tobytes() == oracle.values.tobytes()
    result["oracleCheck"] = "bitwise-equal" if same else "MISMATCH"
    return result, EXIT_OK if same else EXIT_INTERNAL


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
    rng = np.random.default_rng((opts["seed"] + 20240) % 2**64)  # any integer seed
    n = 4
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    l_matrix = linalg.symmetric_part((basis * rng.uniform(0.5, 2.0, n)) @ basis.T)
    q = fixpoint.solve_lql(l_matrix, tol)
    lql_gap = float(np.abs(l_matrix @ q @ l_matrix - linalg.invert(q, tol)).max())
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


def cmd_demo(args, config: dict, opts: dict, tol: Tolerances) -> tuple[dict, int]:
    if args.name not in _DEMOS:
        raise UnknownDemo(f"unknown demo {args.name!r} (choose from {sorted(_DEMOS)})")
    result, ok = _DEMOS[args.name](opts, tol)
    result["passed"] = ok
    return result, EXIT_OK if ok else EXIT_INTERNAL


class _Command(NamedTuple):
    """A subcommand: handler ``(args, config, opts, tol) -> (result, exit
    code)``, help, whether it reads ``--config``, its own argument (name and
    ``add_argument`` keywords) and the stderr reason of its exit 4."""

    handler: Callable[..., tuple[dict, int]]
    help: str
    needs_config: bool = True
    argument: Optional[tuple[str, dict]] = None
    failure: str = ""


_COMMANDS = {
    "classify": _Command(cmd_classify, "run the case analysis on a transform config"),
    "solve": _Command(cmd_solve, "report the quadratic solution the case analysis constructs"),
    "verify": _Command(cmd_verify, "residual-check a candidate against a config"),
    "conjugate": _Command(
        cmd_conjugate,
        "discrete Legendre-Fenchel transform of a sampled file",
        argument=(
            "--check", {"action": "store_true", "help": "cross-check against the brute oracle"}
        ),
        failure="oracle mismatch",
    ),
    "demo": _Command(
        cmd_demo,
        "run a named end-to-end scenario",
        needs_config=False,
        argument=("name", {"help": f"one of {sorted(_DEMOS)}"}),
        failure="assertion failed",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fenchelfix",
        description="Classify, solve and verify fixed points of Legendre-Fenchel type transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.needs_config:
            p.add_argument("--config", required=True, help="path to the JSON problem config")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, help="seed for the sample-point sequence")
        p.add_argument("--points", type=int, help="number of residual sample points")
        p.add_argument("--tol-scale", type=float, dest="tol_scale", help="scale all tolerances")
        if command.argument:
            p.add_argument(command.argument[0], **command.argument[1])
    return parser


def _run(args) -> int:
    """Load, parse options and tolerances, run the handler, write the report."""
    command = _COMMANDS[args.command]
    _check_writable(args.out)
    config = serialize.load_config(args.config) if command.needs_config else {}
    opts = serialize.options_from_json(config.get("options", {}), vars(args))
    tol = DEFAULT_TOL.scaled(opts["tol_scale"])
    try:  # overflow on finite input, or the NaN it makes, is an input error, not a warning
        with np.errstate(over="raise", invalid="raise"):
            result, code = command.handler(args, config, opts, tol)
    except FloatingPointError as exc:
        raise OutOfRange(f"the input overflows the float range ({exc})") from exc
    title = f"demo {args.name}" if args.command == "demo" else args.command
    _write_report(_report_shell(title, config, opts, tol, result), args.out)
    if code == EXIT_INTERNAL:
        print(f"{title}: {command.failure}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = _run(args)
    except NumericalFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FenchelFixError as exc:
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
