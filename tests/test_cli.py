import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fenchelfix
from fenchelfix import cli, discrete, fixpoint
from fenchelfix.cli import main


def run(tmp_path, *argv):
    return main(list(argv))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_config(n=2, tau=1.0, beta=0.0, c=None, w=None, e=None):
    e = np.eye(n).tolist() if e is None else e
    return {
        "params": {
            "E": e,
            "c": [0.0] * n if c is None else c,
            "w": [0.0] * n if w is None else w,
            "tau": tau,
            "beta": beta,
        }
    }


class TestClassifyCommand:
    def test_energy_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["schemaVersion"] == 1
        assert report["result"]["classification"]["tag"] == "UniqueAllFunctions"
        assert report["result"]["residual"]["maxAbs"] <= 1e-12

    def test_nonexistence_pattern_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            identity_config(n=2, e=(-np.eye(2)).tolist(), w=[1.0, 0.0]),
        )
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out)) == 0
        assert json.loads(out.read_text())["result"]["classification"]["tag"] == "NoSolution"

    def test_non_symmetric_exit_three(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", identity_config(e=[[0.0, 1.0], [-1.0, 0.0]])
        )
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 3

    def test_tol_scale_moves_the_singularity_cutoff(self, tmp_path, capsys):
        # singular values about 1.118 and 8.9e-12: under the default cutoff
        # 1e-10 * 1.118 the non-symmetric E is singular, under 1e-12 * 1.118 not
        cfg = write_config(tmp_path, "cfg.json", identity_config(e=[[1.0, 0.5], [0.0, 1e-11]]))
        out = str(tmp_path / "r.json")
        assert run(tmp_path, "classify", "--config", cfg, "--out", out) == 2
        assert "singular" in capsys.readouterr().err
        assert run(tmp_path, "classify", "--config", cfg, "--out", out, "--tol-scale", "0.01") == 3

    @pytest.mark.parametrize(
        "candidate",
        [
            {"sampled": {"points": [0.0, 1.0], "values": [0.0, 0.5]}},
            {"quadratic": {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}, "sampled": {}},
            [1.0],
        ],
        ids=["sampled", "two_entries", "not_object"],
    )
    def test_unusable_candidate_exit_two(self, tmp_path, capsys, candidate):
        # the candidate was silently dropped on a positive definite E
        payload = identity_config()
        payload["candidate"] = candidate
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 2
        assert "classify needs exactly one candidate (quadratic)" in capsys.readouterr().err

    def test_bad_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(tmp_path, "classify", "--config", str(path)) == 2

    def test_dim_mismatch_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"params": {"E": [[1.0]], "c": [0.0, 1.0], "w": [0.0], "tau": 1.0}},
        )
        assert run(tmp_path, "classify", "--config", cfg) == 2

    def test_forty_dims_classify(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config(n=40, tau=1.0))
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert result["classification"]["tag"] == "UniqueAllFunctions"
        assert result["residual"]["samplePoints"] == 100
        assert result["residual"]["maxAbs"] <= 1e-12

    def test_lapack_failure_exit_four(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 4
        assert "internal error" in capsys.readouterr().err

    def test_internal_value_error_exit_four(self, tmp_path, monkeypatch, capsys):
        # a ValueError from inside the library is not an input error
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(fixpoint, "classify", boom)
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 4
        assert "internal error: ValueError('boom')" in capsys.readouterr().err

    def test_undecodable_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"params": "\xff"}')
        assert run(tmp_path, "classify", "--config", str(path)) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config(tau=2.0))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(tmp_path, "classify", "--config", cfg, "--out", str(a), "--seed", "5")
        run(tmp_path, "classify", "--config", cfg, "--out", str(b), "--seed", "5")
        assert a.read_bytes() == b.read_bytes()


class TestSolveCommand:
    def test_energy(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        out = tmp_path / "report.json"
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        np.testing.assert_allclose(result["solution"]["A"], np.eye(2))
        assert result["residual"]["maxAbs"] <= 1e-12

    def test_indefinite_spectral_construction(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", identity_config(e=[[1.0, 0.0], [0.0, -1.0]])
        )
        out = tmp_path / "report.json"
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        np.testing.assert_allclose(result["solution"]["A"], np.eye(2), atol=1e-12)

    def test_decomposes_e_once(self, tmp_path, decompose_counter):
        e = [[2.0, 1.0], [1.0, -1.0]]
        cfg = write_config(tmp_path, "cfg.json", identity_config(e=e, tau=2.0))
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(tmp_path / "r.json")) == 0
        assert decompose_counter.of(e) == 1

    def test_construction_failure_reported(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config(n=1, e=[[-1.0]], w=[1.0]))
        out = tmp_path / "report.json"
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert result["solution"] is None
        assert result["tag"] == "NoSolution"
        assert result["note"] == "matches a proven sign-flip nonexistence pattern"

    def test_non_symmetric_e_is_undetermined(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config(e=[[0.0, 1.0], [-1.0, 0.0]]))
        out = tmp_path / "report.json"
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(out)) == 3
        result = json.loads(out.read_text())["result"]
        assert result["solution"] is None
        assert result["tag"] == "Undetermined"

    def test_follows_the_singularity_rule_of_classify(self, tmp_path, capsys):
        # condition number 1e12: singular under the default sing_rel = 1e-10
        graded = identity_config(n=3, e=np.diag([1e-6, 1.0, 1e6]).tolist())
        cfg = write_config(tmp_path, "cfg.json", graded)
        out = str(tmp_path / "r.json")
        for command in ("classify", "solve"):
            assert run(tmp_path, command, "--config", cfg, "--out", out) == 2
            assert "E must be invertible" in capsys.readouterr().err
            scaled = ("--tol-scale", "0.001")
            assert run(tmp_path, command, "--config", cfg, "--out", out, *scaled) == 0

    def test_relative_residual_reported_and_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config(n=3, tau=1e12, beta=0.7))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(a), "--seed", "3") == 0
        assert run(tmp_path, "solve", "--config", cfg, "--out", str(b), "--seed", "3") == 0
        assert a.read_bytes() == b.read_bytes()
        residual = json.loads(a.read_text())["result"]["residual"]
        assert 0.0 <= residual["maxRel"] <= 1e-12
        assert residual["maxRel"] <= residual["maxAbs"]


class TestVerifyCommand:
    def test_quadratic_candidate(self, tmp_path):
        payload = identity_config()
        payload["candidate"] = {
            "quadratic": {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "gamma": 0.0}
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "report.json"
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert result["residual"]["maxAbs"] <= 1e-12
        assert result["formResidual"]["maxAbs"] <= 1e-12

    def test_quarter_turn_candidate(self, tmp_path):
        # a rotation E is not symmetric; A = diag(2, 0.5) is one of its many
        # exact quadratic fixed points
        payload = identity_config(e=[[0.0, 1.0], [-1.0, 0.0]])
        payload["candidate"] = {"quadratic": {"A": [[2.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}}
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "report.json"
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(out)) == 0
        form = json.loads(out.read_text())["result"]["formResidual"]
        assert form["maxAbs"] <= 1e-12 and form["samplePoints"] == 3

    def test_sampled_candidate(self, tmp_path):
        xs = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.01), 10)
        payload = {
            "params": {"E": [[-1.0]], "c": [0.0], "w": [0.0], "tau": 1.0, "beta": 0.0},
            "candidate": {
                "sampled": {"points": xs.tolist(), "values": (0.5 * xs * xs).tolist()}
            },
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "report.json"
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert result["residual"]["maxAbs"] <= 0.02
        assert result["residual"]["gridH"] == pytest.approx(0.01)

    def test_sampled_candidate_ignores_tol_scale(self, tmp_path):
        xs = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.01), 10)
        payload = {
            "params": {"E": [[-1.0]], "c": [0.0], "w": [0.0], "tau": 1.0, "beta": 0.0},
            "candidate": {"sampled": {"points": xs.tolist(), "values": (0.5 * xs**2).tolist()}},
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(a)) == 0
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(b), "--tol-scale", "100") == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["result"] == rb["result"]
        assert "maxRel" not in ra["result"]["residual"]

    def test_sampled_candidate_with_repeated_slopes(self, tmp_path):
        payload = {
            "params": {"E": [[1e-300]], "c": [0.5], "w": [0.0], "tau": 1.0, "beta": 0.0},
            "candidate": {"sampled": {"points": [-1.0, 0.0, 1.0, 2.0], "values": [0.5] * 4}},
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "report.json"
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(out)) == 0
        assert json.loads(out.read_text())["result"]["residual"]["maxAbs"] == 0.0

    def test_sampled_candidate_zero_e_exit_two(self, tmp_path, capsys):
        payload = {
            "params": {"E": [[0.0]], "c": [0.0], "w": [0.0], "tau": 1.0},
            "candidate": {"sampled": {"points": [0.0, 1.0], "values": [0.0, 0.5]}},
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 2
        assert "error: e must be nonzero" in capsys.readouterr().err

    def test_sampled_candidate_with_overflowing_slopes_exit_two(self, tmp_path, capsys):
        payload = {
            "params": {"E": [[-1e308]], "c": [0], "w": [0], "tau": 1},
            "candidate": {
                "sampled": {"points": [-5, -2.5, 0, 2.5, 5], "values": [12.5, 3.125, 0, 3.125, 12.5]}
            },
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert "error: slopes e x + c overflow the float range" in err
        assert "Warning" not in err and "internal error" not in err

    def test_missing_candidate_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        assert run(tmp_path, "verify", "--config", cfg) == 2

    @pytest.mark.parametrize(
        "options, key",
        [
            (5, "'options' must be an object"),
            ({"points": None}, "bad option 'points'"),
            ({"points": 0}, "bad option 'points': must be at least 1"),
            ({"windw": [-4.0, 4.0]}, "unknown option 'windw'"),
            ({"radius": 0}, "bad option 'radius': must be positive and finite"),
            ({"radius": -2}, "bad option 'radius': must be positive and finite"),
            ({"points": 2.7}, "bad option 'points': must be an integer"),
            ({"points": True}, "bad option 'points': must be an integer"),
            ({"seed": 1.5}, "bad option 'seed': must be an integer"),
            ({"radius": True}, "bad option 'radius': must be positive and finite"),
            ({"radius": "3"}, "bad option 'radius': must be positive and finite"),
            ({"tol_scale": True}, "bad option 'tol_scale': tolerance scale must be positive"),
            ({"tol_scale": 0}, "bad option 'tol_scale': tolerance scale must be positive"),
            ({"boundary_exclusion": -1}, "bad option 'boundary_exclusion': must be nonnegative"),
            ({"boundary_exclusion": False}, "bad option 'boundary_exclusion': must be nonnegative"),
            ({"window": [-1, 1, 7]}, "bad option 'window': must be [lo, hi] with lo < hi"),
            ({"window": [1, -1]}, "bad option 'window': must be [lo, hi] with lo < hi"),
            ({"window": 1}, "bad option 'window': must be [lo, hi] with lo < hi"),
            ({"window": [-1, True]}, "bad option 'window': must be a finite number"),
            ({"window": [-float("inf"), 1]}, "-Infinity is not a finite JSON number"),
        ],
        ids=[
            "options_not_object",
            "points_null",
            "points_zero",
            "unknown_key",
            "radius_zero",
            "radius_negative",
            "points_fractional",
            "points_bool",
            "seed_fractional",
            "radius_bool",
            "radius_string",
            "tol_scale_bool",
            "tol_scale_zero",
            "exclusion_negative",
            "exclusion_bool",
            "window_three",
            "window_reversed",
            "window_number",
            "window_bool",
            "window_infinite",
        ],
    )
    def test_bad_options_exit_two(self, tmp_path, capsys, options, key):
        payload = identity_config()
        payload["candidate"] = {"quadratic": {"A": np.eye(2).tolist(), "b": [0.0, 0.0]}}
        payload["options"] = options
        cfg = write_config(tmp_path, "cfg.json", payload)
        assert run(tmp_path, "verify", "--config", cfg, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "internal error" not in err


class TestConjugateCommand:
    def test_parabola_with_oracle_check(self, tmp_path):
        xs = np.linspace(-5.0, 5.0, 201)
        cfg = write_config(
            tmp_path,
            "conj.json",
            {
                "input": {"points": xs.tolist(), "values": (0.5 * xs * xs).tolist()},
                "slopes": {"start": -4.0, "stop": 4.0, "count": 81},
            },
        )
        out = tmp_path / "out.json"
        assert run(tmp_path, "conjugate", "--config", cfg, "--check", "--out", str(out)) == 0
        result = json.loads(out.read_text())["result"]
        assert result["oracleCheck"] == "bitwise-equal"
        values = np.asarray(result["conjugate"]["values"], dtype=float)
        slopes = np.linspace(-4.0, 4.0, 81)
        np.testing.assert_allclose(values, 0.5 * slopes * slopes, atol=1e-3)

    def test_zero_maximum_passes_oracle_check(self, tmp_path):
        xs = np.arange(-5.0, 6.0)
        cfg = write_config(
            tmp_path,
            "conj.json",
            {
                "input": {"points": xs.tolist(), "values": (0.5 * xs * xs).tolist()},
                "slopes": [-0.5, 0.25, 0.5],
            },
        )
        out = tmp_path / "out.json"
        assert run(tmp_path, "conjugate", "--config", cfg, "--check", "--out", str(out)) == 0
        assert json.loads(out.read_text())["result"]["oracleCheck"] == "bitwise-equal"

    def test_single_point_constant_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "conj.json",
            {"input": {"points": [0.0], "values": [0.0]}, "slopes": [-1.0, 0.5, 2.0]},
        )
        out = tmp_path / "out.json"
        assert run(tmp_path, "conjugate", "--config", cfg, "--out", str(out)) == 0
        values = json.loads(out.read_text())["result"]["conjugate"]["values"]
        assert values == [0.0, 0.0, 0.0]

    def test_inf_sentinel_roundtrip(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "conj.json",
            {
                "input": {"points": [-1.0, 0.0, 1.0], "values": ["inf", 0.0, 1.0]},
                "slopes": [0.0, 1.0],
            },
        )
        out = tmp_path / "out.json"
        assert run(tmp_path, "conjugate", "--config", cfg, "--out", str(out)) == 0

    def test_missing_input_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "conj.json", {"slopes": [0.0]})
        assert run(tmp_path, "conjugate", "--config", cfg) == 2
        assert "missing 'input' in config" in capsys.readouterr().err

    def test_oracle_mismatch_exit_four(self, tmp_path, monkeypatch, capsys):
        brute = discrete.brute_conjugate

        def off_by_one(fn, slopes):
            out = brute(fn, slopes)
            return discrete.SampledFn(out.points, out.values + 1.0)

        monkeypatch.setattr(discrete, "brute_conjugate", off_by_one)
        payload = {"input": {"points": [0.0, 1.0], "values": [0.0, 1.0]}, "slopes": [0.5]}
        cfg = write_config(tmp_path, "conj.json", payload)
        out = tmp_path / "out.json"
        assert run(tmp_path, "conjugate", "--config", cfg, "--check", "--out", str(out)) == 4
        assert json.loads(out.read_text())["result"]["oracleCheck"] == "MISMATCH"
        assert "conjugate: oracle mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "slopes, key",
        [
            ({"start": -1.0, "stop": 1.0, "count": 2.7}, "must be an integer"),
            ({"start": -1.0, "stop": 1.0, "count": True}, "must be an integer"),
            ({"start": -1.0, "stop": 1.0, "count": 0}, "must be at least 1"),
            ({"start": "-1", "stop": 1.0, "count": 3}, "must be a finite number"),
            ({"start": -1.0, "stop": 1.0}, "'count'"),
            ({"start": 1.0, "stop": -1.0, "count": 3}, "strictly increasing"),
            ([1.0, 0.0], "strictly increasing"),
            (["a"], "slopes must hold numbers only, not 'a'"),
            ([True, 2.0], "slopes must hold numbers only, not True"),
            ([1.0, "2"], "slopes must hold numbers only, not '2'"),
        ],
        ids=[
            "count_fractional",
            "count_bool",
            "count_zero",
            "start_string",
            "count_missing",
            "start_after_stop",
            "decreasing_list",
            "string_list",
            "bool_in_list",
            "numeric_string_in_list",
        ],
    )
    def test_bad_slopes_exit_two(self, tmp_path, capsys, slopes, key):
        # a fractional or boolean count was truncated (2 slopes, 1 slope),
        # decreasing slopes reached main as a bare ValueError, and a bool or a
        # numeric string in a list read as a number
        payload = {"input": {"points": [0.0, 1.0], "values": [0.0, 1.0]}, "slopes": slopes}
        cfg = write_config(tmp_path, "conj.json", payload)
        assert run(tmp_path, "conjugate", "--config", cfg, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert "error: bad slopes: " in err and key in err
        assert "internal error" not in err

    def test_all_infinite_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "conj.json",
            {"input": {"points": [0.0, 1.0], "values": ["inf", "inf"]}, "slopes": [0.0]},
        )
        assert run(tmp_path, "conjugate", "--config", cfg) == 2


class TestDemoCommand:
    @pytest.mark.parametrize("name", ["energy", "skew", "log", "nonexistence", "lql"])
    def test_demos_pass(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        assert run(tmp_path, "demo", name, "--out", str(out)) == 0
        assert json.loads(out.read_text())["result"]["passed"] is True

    def test_log_demo_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(tmp_path, "demo", "log", "--out", str(a)) == 0
        assert run(tmp_path, "demo", "log", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lql_demo_takes_a_negative_seed(self, tmp_path):
        # numpy's generator rejects negative seeds; the demo reduces its seed
        out = tmp_path / "lql.json"
        assert run(tmp_path, "demo", "lql", "--seed", "-30000", "--out", str(out)) == 0
        assert json.loads(out.read_text())["result"]["passed"] is True

    def test_unknown_demo_exit_two(self, tmp_path):
        assert run(tmp_path, "demo", "bogus") == 2

    def test_failed_demo_exit_four(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli._DEMOS, "energy", lambda opts, tol: ({"detail": 1.0}, False))
        out = tmp_path / "energy.json"
        assert run(tmp_path, "demo", "energy", "--out", str(out)) == 4
        report = json.loads(out.read_text())
        assert report["command"] == "demo energy"
        assert report["result"] == {"detail": 1.0, "passed": False}
        assert "demo energy: assertion failed" in capsys.readouterr().err


class TestToleranceScaling:
    def test_tol_scale_flag_is_echoed(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out), "--tol-scale", "10") == 0
        report = json.loads(out.read_text())
        assert report["tolerances"]["pd"] == pytest.approx(1e-9)

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_tol_scale_exit_two(self, tmp_path, capsys, scale):
        # a NaN scale made every tolerance comparison false, so a symmetric
        # positive definite E was reported Undetermined with exit 3
        cfg = write_config(tmp_path, "cfg.json", identity_config(tau=2.0))
        out = str(tmp_path / "r.json")
        assert run(tmp_path, "classify", "--config", cfg, "--out", out, "--tol-scale", scale) == 2
        assert "tolerance scale must be positive and finite" in capsys.readouterr().err

    def test_zero_points_flag_exit_two(self, tmp_path, capsys):
        # a scan over no points reported maxAbs 0.0 with exit 0
        cfg = write_config(tmp_path, "cfg.json", identity_config(tau=2.0))
        out = str(tmp_path / "r.json")
        assert run(tmp_path, "classify", "--config", cfg, "--out", out, "--points", "0") == 2
        assert "bad option 'points': must be at least 1" in capsys.readouterr().err

    def test_tolerance_keys(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out)) == 0
        assert sorted(json.loads(out.read_text())["tolerances"]) == [
            "cons_rel",
            "involution",
            "param_match",
            "pd",
            "sing_rel",
            "sym",
        ]


# one config per tag of the case analysis, both sign-flip patterns included
TAG_CONFIGS = {
    "UniqueAllFunctions": identity_config(e=[[2.0, 0.5], [0.5, 1.0]], c=[1.0, -1.0], w=[1.0, -1.0]),
    "UniqueInQuadraticInvertibleClass": identity_config(
        e=[[2.0, 0.5], [0.5, 1.0]], c=[1.0, -1.0], w=[0.0, 2.0], beta=0.3
    ),
    "UniqueInC2Class": identity_config(
        e=[[2.0, 0.5], [0.5, 1.0]], c=[1.0, -1.0], w=[0.0, 2.0], tau=2.5, beta=0.3
    ),
    "QuadraticSolutionExists": identity_config(
        e=[[1.0, 0.0], [0.0, -1.0]], c=[0.3, 0.2], w=[0.1, -0.4], tau=2.0, beta=0.5
    ),
    "NoSolution-w": identity_config(e=(-np.eye(2)).tolist(), w=[1.0, 0.0]),
    "NoSolution-c": identity_config(e=(-np.eye(2)).tolist(), c=[0.5, -1.0]),
    "NoQuadraticSolutionInConstruction": identity_config(n=1, e=[[-1.0]], w=[1.0], beta=1.0),
    "Undetermined": identity_config(e=[[0.0, 1.0], [-1.0, 0.0]]),
}


@pytest.mark.parametrize("name", list(TAG_CONFIGS))
def test_solve_reports_what_classify_decides(tmp_path, name):
    cfg = write_config(tmp_path, "cfg.json", TAG_CONFIGS[name])
    a, b = tmp_path / "classify.json", tmp_path / "solve.json"
    classify_code = run(tmp_path, "classify", "--config", cfg, "--out", str(a))
    solve_code = run(tmp_path, "solve", "--config", cfg, "--out", str(b))
    decided = json.loads(a.read_text())["result"]["classification"]
    solved = json.loads(b.read_text())["result"]
    assert decided["tag"] == name.split("-")[0]
    assert solve_code == classify_code
    assert solved["solution"] == decided["solution"]
    if decided["solution"] is None:
        assert (solved["tag"], solved["note"]) == (decided["tag"], decided["note"])


HELP = (("-h", "--help"), "help", False, argparse.SUPPRESS)
COMMON = {
    (("--out",), "out", False, None),
    (("--seed",), "seed", False, None),
    (("--points",), "points", False, None),
    (("--tol-scale",), "tol_scale", False, None),
}
CONFIG = (("--config",), "config", True, None)
SURFACE = {
    "classify": COMMON | {HELP, CONFIG},
    "solve": COMMON | {HELP, CONFIG},
    "verify": COMMON | {HELP, CONFIG},
    "conjugate": COMMON | {HELP, CONFIG, (("--check",), "check", False, False)},
    "demo": COMMON | {HELP, ((), "name", True, None)},
}


def test_cli_surface():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(SURFACE)
    for name, subparser in sub.choices.items():
        actions = {
            (tuple(a.option_strings), a.dest, a.required, a.default) for a in subparser._actions
        }
        assert actions == SURFACE[name], name
        types = {a.dest: a.type for a in subparser._actions}
        assert (types["seed"], types["points"], types["tol_scale"]) == (int, int, float)


@pytest.mark.parametrize("module", ["hashlib", "scipy", "mpmath", "fractions"])
def test_cli_import_does_not_load_hashlib(module):
    # scipy and mpmath are for tests and the bench only; Fraction is imported
    # lazily, by the hull's last-resort predicate
    code = f"import sys, fenchelfix.cli; print({module!r} in sys.modules)"
    src = os.path.dirname(os.path.dirname(fenchelfix.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_conjugate_check_on_subnormal_spacing(tmp_path, capsys):
    # an edge slope of -1 / 2.2e-311 overflows; it must not warn or mismatch
    payload = {
        "input": {"points": [0.0, 2.2e-311, 0.26, 2.97, 3.0], "values": [1.0, 0.0, 0.5, 1.0, 3.0]},
        "slopes": {"start": -5.0, "stop": 5.0, "count": 41},
    }
    cfg = write_config(tmp_path, "conj.json", payload)
    out = tmp_path / "out.json"
    assert run(tmp_path, "conjugate", "--config", cfg, "--check", "--out", str(out)) == 0
    assert json.loads(out.read_text())["result"]["oracleCheck"] == "bitwise-equal"
    assert "Warning" not in capsys.readouterr().err


def test_unwritable_out_exit_two_before_any_work(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._DEMOS, "energy", never)
    out = tmp_path / "missing" / "x.json"
    assert run(tmp_path, "demo", "energy", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"cannot write the report to {out}" in err
    assert not out.parent.exists()


NOT_NUMBERS = {
    "tau_string": ("params", "tau", "1e0"),
    "tau_bool": ("params", "tau", True),
    "beta_bool": ("params", "beta", False),
    "beta_list": ("params", "beta", [0.0]),
    "E_bool_and_string": ("params", "E", [[True, 0], [0, "2"]]),
    "E_string": ("params", "E", [[1.0, 0.0], [0.0, "2"]]),
    "c_bool": ("params", "c", [0.0, True]),
    "w_string": ("params", "w", ["0", 0.0]),
    "A_bool": ("quadratic", "A", [[True, 0.0], [0.0, 1.0]]),
    "b_string": ("quadratic", "b", [0.0, "0"]),
    "gamma_string": ("quadratic", "gamma", "0"),
    "gamma_bool": ("quadratic", "gamma", True),
}


@pytest.mark.parametrize("where, key, value", NOT_NUMBERS.values(), ids=list(NOT_NUMBERS))
def test_bools_and_strings_are_not_numbers(tmp_path, capsys, where, key, value):
    payload = identity_config()
    payload["candidate"] = {"quadratic": {"A": np.eye(2).tolist(), "b": [0.0, 0.0], "gamma": 0.0}}
    target = payload["params"] if where == "params" else payload["candidate"]["quadratic"]
    target[key] = value
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run(tmp_path, "classify", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert f"error: bad {'transform parameters' if where == 'params' else 'quadratic'}: {key}" in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "sampled",
    [
        {"points": [0.0, True], "values": [0.0, 1.0]},
        {"points": [0.0, "1"], "values": [0.0, 1.0]},
        {"points": [0.0, 1.0], "values": [0.0, True]},
        {"points": [0.0, 1.0], "values": [0.0, "1"]},
    ],
    ids=["point_bool", "point_string", "value_bool", "value_string"],
)
def test_sampled_bools_and_strings_exit_two(tmp_path, capsys, sampled):
    cfg = write_config(tmp_path, "conj.json", {"input": sampled, "slopes": [0.0]})
    assert run(tmp_path, "conjugate", "--config", cfg) == 2
    assert "error: bad" in capsys.readouterr().err


def test_integer_too_large_for_a_float_exit_two(tmp_path, capsys):
    # was an OverflowError from numpy, reported as an internal error
    cfg = write_config(tmp_path, "cfg.json", identity_config(n=1, e=[[10**400]]))
    assert run(tmp_path, "classify", "--config", cfg) == 2
    assert "bad transform parameters: int too large to convert to float" in capsys.readouterr().err


NON_FINITE_AT = {
    "value": {"value": "%s"},
    "note": {"note": "%s"},
    "slope_list": {"slopes": "[0.0, %s]"},
    "slope_count": {"slopes": '{"start": -1.0, "stop": 1.0, "count": %s}'},
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", NON_FINITE_AT)
def test_non_finite_json_number_exit_two(tmp_path, capsys, literal, field):
    # json.load read these as floats: a sampled Infinity as +inf, non-finite
    # slopes reached the slope checks, and a NaN in a free field was echoed
    # into the report as a bare NaN, with exit 0
    parts = {"value": "0.5", "slopes": "[0.0]", "note": "0"}
    parts.update({k: v % literal for k, v in NON_FINITE_AT[field].items()})
    cfg = tmp_path / "conj.json"
    cfg.write_text(
        '{"input": {"points": [0.0, 1.0], "values": [0.0, %(value)s]},'
        ' "slopes": %(slopes)s, "note": %(note)s}' % parts
    )
    out = tmp_path / "r.json"
    assert run(tmp_path, "conjugate", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{literal} is not a finite JSON number" in err and '"inf"' in err
    assert not out.exists()


ONE_LINE = {"points": [0.0, 1.0], "values": [0.0, 1.0]}
OVER_THE_CAP = {
    "points_flag": (["classify", "--points", str(10**18)], identity_config(n=1), "'points'"),
    "points_option": (
        ["classify"], {**identity_config(n=1), "options": {"points": 1e18}}, "'points'"
    ),
    "points_times_dim": (["solve", "--points", "5000001"], identity_config(n=2), "dimension 2"),
    "slope_count": (
        ["conjugate"],
        {"input": ONE_LINE, "slopes": {"start": -1.0, "stop": 1.0, "count": 1e18}},
        "bad slopes: count",
    ),
}


@pytest.mark.parametrize("argv, payload, key", OVER_THE_CAP.values(), ids=list(OVER_THE_CAP))
def test_counts_over_the_cap_exit_two(tmp_path, capsys, argv, payload, key):
    # 1e18 values failed the allocation (exit 4, internal error MemoryError);
    # the cap is on points times dimension, so 5e6 points at dim 2 are over it
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "r.json"
    assert run(tmp_path, argv[0], "--config", cfg, *argv[1:], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert key in err and "over the cap of 10000000" in err
    assert "Traceback" not in err and "internal error" not in err
    assert not out.exists()


HALF_SQUARE = {"points": [-5, -2.5, 0, 2.5, 5], "values": [12.5, 3.125, 0, 3.125, 12.5]}
ENERGY_1D = {"quadratic": {"A": [[1.0]], "b": [0.0], "gamma": 0.0}}


@pytest.mark.parametrize(
    "command, params, candidate",
    [
        ("classify", {"E": [[1e308]]}, None),
        ("solve", {"E": [[1e308]]}, None),
        ("verify", {"E": [[1e308]]}, ENERGY_1D),
        ("verify", {}, {"quadratic": {"A": [[1e308]], "b": [0.0], "gamma": 0.0}}),
        ("verify", {"E": [[2e307]]}, {"sampled": HALF_SQUARE}),
        ("verify", {"tau": 1e308}, {"sampled": HALF_SQUARE}),
    ],
    ids=["classify_e", "solve_e", "verify_e", "verify_candidate_a", "sampled_e", "sampled_tau"],
)
def test_overflow_on_finite_input_exit_two(tmp_path, capsys, command, params, candidate):
    # finite entries whose arithmetic overflows: an input error, with no
    # warning and no report (they were exit 4, or exit 0 with maxAbs inf)
    payload = {"params": {"E": [[1.0]], "c": [0.0], "w": [0.0], "tau": 1.0, **params}}
    if candidate is not None:
        payload["candidate"] = candidate
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "r.json"
    assert run(tmp_path, command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: the input overflows the float range" in err
    assert "Warning" not in err and "internal error" not in err
    assert not out.exists()
