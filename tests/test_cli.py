import json

import numpy as np
import pytest

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
        assert result["tag"] == "NoQuadraticSolutionInConstruction"

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

    def test_missing_candidate_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        assert run(tmp_path, "verify", "--config", cfg) == 2


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

    def test_unknown_demo_exit_two(self, tmp_path):
        assert run(tmp_path, "demo", "bogus") == 2


class TestToleranceScaling:
    def test_tol_scale_flag_is_echoed(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out), "--tol-scale", "10") == 0
        report = json.loads(out.read_text())
        assert report["tolerances"]["pd"] == pytest.approx(1e-9)

    def test_tolerance_keys(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", identity_config())
        out = tmp_path / "report.json"
        assert run(tmp_path, "classify", "--config", cfg, "--out", str(out)) == 0
        assert sorted(json.loads(out.read_text())["tolerances"]) == [
            "cons_rel",
            "involution",
            "param_match",
            "pd",
            "psd",
            "sing_rel",
            "sym",
        ]
