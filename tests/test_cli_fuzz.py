"""Fuzz test of the CLI input layer.

Configs for ``classify``, ``solve``, ``verify`` and ``conjugate`` are built
from valid and malformed parts (booleans, strings, NaN, wrong sizes, ragged
matrices, missing keys, bad options, counts over the cap) and run through
``cli.main`` in process.  Every run must end in a determinate outcome (0), an input error
(2) or an undetermined classification (3): never an internal error, and
never an exception that escapes ``main``.  A bool or a string anywhere in
the params, a quadratic candidate or a slope list is an input error, and
every report is strict (RFC 8259) JSON.  Valid numbers are
mostly moderate, so that most configs reach a determinate branch; one in
thirty-two is a magnitude whose arithmetic overflows, which is an input
error too.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fenchelfix.cli import main

HUGE = st.sampled_from([1.7e308, -1e308, 5e307, -3e250, 1e200])
REALS = st.integers(0, 31).flatmap(
    lambda k: HUGE if k == 5 else st.integers(-400, 400).map(lambda j: j / 100)
)
MALFORMED = st.sampled_from(
    [True, False, None, "1e0", "abc", [], {}, float("nan"), float("inf"), -1, 0, 2.7]
)
# counts over the cap of 1e7 values at any dimension; without it, 1e18 fails
# the allocation (an internal error) and 1e7 + 1 allocates 80 MB or more
OVER_CAP = st.sampled_from([10**7 + 1, 10**18, 1e18])


# true one time in eight; not at a bound of the range, which hypothesis
# draws far more often than its share
RARELY = st.integers(0, 7).map(lambda k: k == 5)


def mostly(good, bad=MALFORMED):
    """``good`` seven times in eight, else ``bad``: one malformed part in a
    config is common, and an all-valid config still reaches the library."""
    return RARELY.flatmap(lambda rare: bad if rare else good)


NUMBERS = mostly(REALS)


def vectors(n):
    return mostly(st.lists(REALS, min_size=n, max_size=n), st.lists(NUMBERS, max_size=n + 1))


def symmetric(m):
    a = np.asarray(m)
    with np.errstate(over="ignore"):  # an infinite entry is one more malformed part
        return (0.5 * (a + a.T)).tolist()


def matrices(n):
    square = st.lists(st.lists(REALS, min_size=n, max_size=n), min_size=n, max_size=n)
    ragged = st.lists(st.lists(NUMBERS, max_size=n + 1), max_size=n + 1)
    return mostly(st.one_of(square.map(symmetric), square), st.one_of(ragged, MALFORMED))


def positive_definite(n):
    square = st.lists(st.lists(REALS, min_size=n, max_size=n), min_size=n, max_size=n)

    def gram(m):
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(m) @ np.asarray(m).T + np.eye(n)).tolist()

    return square.map(gram)


def drop_one_sometimes(draw, obj):
    """``obj``, or one time in eight ``obj`` with one key removed."""
    if not draw(RARELY):
        return obj
    gone = draw(st.sampled_from(sorted(obj)))
    return {k: v for k, v in obj.items() if k != gone}


@st.composite
def params(draw, n):
    out = {
        "E": draw(matrices(n)),
        "c": draw(vectors(n)),
        "w": draw(vectors(n)),
        "tau": draw(mostly(st.floats(0.1, 4.0))),
        "beta": draw(NUMBERS),
    }
    return drop_one_sometimes(draw, out)


@st.composite
def sampled(draw):
    points = draw(st.lists(REALS, min_size=1, max_size=12, unique=True).map(sorted))
    value = mostly(st.one_of(REALS, REALS, st.just("inf")))
    values = draw(st.lists(value, min_size=len(points), max_size=len(points)))
    points = draw(mostly(st.just(points), st.one_of(st.just(points[::-1]), MALFORMED)))
    return drop_one_sometimes(draw, {"points": points, "values": values})


@st.composite
def candidates(draw, n):
    a = draw(st.one_of(positive_definite(n), matrices(n)))
    quadratic = {"A": a, "b": draw(vectors(n)), "gamma": draw(NUMBERS)}
    kinds = {"quadratic": drop_one_sometimes(draw, quadratic), "sampled": draw(sampled())}
    one = st.sampled_from(sorted(kinds)).map(lambda k: {k: kinds[k]})
    return draw(mostly(one, st.one_of(st.just(kinds), st.just({}), MALFORMED)))


OPTIONS = mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "points": mostly(st.integers(1, 40), st.one_of(MALFORMED, OVER_CAP)),
            "seed": mostly(st.integers(-50_000, 50)),
            "tol_scale": mostly(st.floats(0.01, 100.0)),
            "radius": mostly(st.floats(0.1, 5.0)),
            "window": mostly(
                st.one_of(st.none(), st.tuples(REALS, REALS).map(sorted)),
                st.lists(NUMBERS, max_size=3),
            ),
            "boundary_exclusion": mostly(st.floats(0.0, 1.0)),
        },
    ),
    st.one_of(st.just({"windw": [-1.0, 1.0]}), MALFORMED),
)


@st.composite
def slope_ranges(draw):
    count = draw(mostly(st.integers(1, 12), st.one_of(MALFORMED, OVER_CAP)))
    return drop_one_sometimes(draw, {"start": draw(NUMBERS), "stop": draw(NUMBERS), "count": count})


@st.composite
def slope_lists_with_non_number(draw):
    """Increasing slopes with one entry a bool or its own numeric string,
    which a reader of bools and strings as numbers would accept."""
    slopes = draw(st.lists(REALS, min_size=1, max_size=8, unique=True).map(sorted))
    i = draw(st.integers(0, len(slopes) - 1))
    slopes[i] = draw(st.sampled_from([True, False, str(slopes[i])]))
    return slopes


SLOPES = mostly(
    st.one_of(st.lists(REALS, min_size=1, max_size=8, unique=True).map(sorted), slope_ranges()),
    st.one_of(st.lists(NUMBERS, max_size=4), slope_lists_with_non_number(), MALFORMED),
)


@st.composite
def runs(draw):
    """(argv, config) for one command."""
    command = draw(st.sampled_from(["classify", "solve", "verify", "conjugate"]))
    if command == "conjugate":
        config = {"input": draw(sampled()), "slopes": draw(SLOPES)}
        argv = [command, *draw(st.sampled_from([[], ["--check"]]))]
    else:
        n = draw(st.integers(1, 3))
        config = {"params": draw(params(n))}
        if command == "verify" or (command == "classify" and draw(st.booleans())):
            config["candidate"] = draw(candidates(n))
        argv = [command]
    if draw(st.booleans()):
        config["options"] = draw(OPTIONS)
    return argv, drop_one_sometimes(draw, config)


def holds_non_number(value) -> bool:
    """Whether a JSON value holds a bool or a string at any depth."""
    if isinstance(value, list):
        return any(holds_non_number(v) for v in value)
    return isinstance(value, (bool, str))


def number_fields(config) -> list:
    """The values of the params and of a quadratic candidate, and a slope
    list, which must hold numbers only."""
    params = config.get("params")
    fields = list(params.values()) if isinstance(params, dict) else []
    cand = config.get("candidate")
    if isinstance(cand, dict) and isinstance(cand.get("quadratic"), dict):
        fields += cand["quadratic"].values()
    if isinstance(config.get("slopes"), list):
        fields.append(config["slopes"])
    return fields


def not_json(literal):
    raise AssertionError(f"the report holds {literal}, which is not JSON")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_cli_input_layer_never_fails_internally(config_path, run):
    argv, config = run
    config_path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(config_path)])
    assert code in (0, 2, 3), (code, err.getvalue())
    if any(holds_non_number(v) for v in number_fields(config)):
        assert code == 2, err.getvalue()
    assert "internal error" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 2:
        json.loads(out.getvalue(), parse_constant=not_json)
