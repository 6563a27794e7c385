import numpy as np
import pytest

from fenchelfix import ParseError, QuadraticFn, SampledFn, fenchel_young_check
from fenchelfix.serialize import (
    params_from_json,
    quadratic_from_json,
    quadratic_to_json,
    report_to_json,
    sampled_from_json,
    sampled_to_json,
)


def test_params_roundtrip():
    back = params_from_json(
        {"E": [[2.0, 0.5], [0.5, 1.0]], "c": [1.0, -2.0], "w": [0.0, 3.0], "tau": 2.0, "beta": -1.5}
    )
    np.testing.assert_array_equal(back.E, [[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_array_equal(back.c, [1.0, -2.0])
    np.testing.assert_array_equal(back.w, [0.0, 3.0])
    assert back.tau == 2.0 and back.beta == -1.5


def test_quadratic_roundtrip():
    q = QuadraticFn([[3.0, 1.0], [1.0, 2.0]], [0.5, -0.5], 0.25)
    back = quadratic_from_json(quadratic_to_json(q))
    np.testing.assert_array_equal(back.A, q.A)
    np.testing.assert_array_equal(back.b, q.b)
    assert back.gamma == q.gamma


def test_sampled_roundtrip_with_inf_sentinel():
    f = SampledFn([-1.0, 0.0, 2.0], [np.inf, 1.5, np.inf])
    blob = sampled_to_json(f)
    assert blob["values"] == ["inf", 1.5, "inf"]
    back = sampled_from_json(blob)
    np.testing.assert_array_equal(back.points, f.points)
    np.testing.assert_array_equal(back.values, f.values)


def test_bad_inputs_raise_parse_error():
    with pytest.raises(ParseError):
        params_from_json({"E": [[1.0]], "c": [0.0]})
    with pytest.raises(ParseError):
        sampled_from_json({"points": [0.0, 1.0], "values": ["oops", 1.0]})


ONE_DIM = {"E": [[1.0]], "c": [0.0], "w": [0.0]}


@pytest.mark.parametrize(
    "parse, obj, message",
    [
        (params_from_json, {**ONE_DIM, "tau": float("inf")}, "tau must be positive and finite"),
        (params_from_json, {**ONE_DIM, "tau": 1.0, "beta": float("nan")}, "beta finite"),
        (quadratic_from_json, {"A": [[1.0]], "b": [0.0], "gamma": float("inf")}, "gamma must be"),
    ],
    ids=["tau_infinite", "beta_nan", "gamma_infinite"],
)
def test_non_finite_scalars_raise_parse_error(parse, obj, message):
    # each ran: an infinite tau failed inside the construction, and an
    # infinite beta or gamma gave NaN residuals with exit 0
    with pytest.raises(ParseError, match=message):
        parse(obj)


def test_fenchel_young_report_carries_min_gap():
    f = SampledFn([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5])
    rep = fenchel_young_check(f, [(0.0, 0.5), (1.0, -1.0)])
    out = report_to_json(rep)
    assert out["minGap"] == rep.min_gap == 0.0
    assert "maxRel" not in out and "gridH" not in out
