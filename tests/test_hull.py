"""The vectorised lower hull against the per-node loop it replaced.

The loop is kept here as the oracle, with its orientation test made exact
in integer arithmetic; with exact tests the vertex set is unique, so the
hull must reproduce the loop's index array exactly.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fenchelfix
from fenchelfix import discrete
from fenchelfix.discrete import lower_hull
from test_discrete import STRESS_KINDS, stress_sampled


def _exact_ints(a):
    """The values of ``a`` as integers, all scaled by one power of two."""
    ratios = [float(t).as_integer_ratio() for t in a]
    shift = max(q.bit_length() for _, q in ratios)
    return [p << (shift - q.bit_length()) for p, q in ratios]


def loop_hull(xs, vs):
    """The monotone-chain loop: pop the last vertex while it lies on or
    above the chord from the one before it to the new node."""
    X, V = _exact_ints(xs), _exact_ints(vs)
    keep = []
    for i in range(len(X)):
        while len(keep) >= 2:
            j, k = keep[-2], keep[-1]
            if (X[k] - X[j]) * (V[i] - V[j]) <= (X[i] - X[j]) * (V[k] - V[j]):
                keep.pop()
            else:
                break
        keep.append(i)
    return np.asarray(keep, dtype=np.intp)


def _centred(n, half):
    """The grid-verify layout: n + 1 nodes of spacing 2 half / n, one at 0."""
    return (2.0 * half / n) * (np.arange(n + 1) - n // 2)


def _half_square(rng, n):
    x = _centred(n, 6.0)
    return x, 0.5 * x * x


def _split_quadratic(rng, n, sign=1.0):
    lam = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    x = _centred(n, 11.0)
    t = sign * x
    return x, np.where(t <= 0.0, 0.5 * lam * t * t, t * t / (2.0 * lam))


def _neg_log(rng, n, sign=1.0):
    # nodes h .. 1/(10 h), as the sign-flip demo lays them out
    t = math.sqrt(1.0 / (10.0 * n)) * np.arange(1, n + 2)
    x = np.sort(sign * t)
    return x, -0.5 - np.log(sign * x)


def _ray_indicator(rng, n, sign=1.0):
    x = _centred(n, 6.0)
    x = x[sign * x >= 0.0]
    return x, np.zeros(x.size)


def _double_well(rng, n):
    x = _centred(n, 6.0)
    return x, 0.25 * (x * x - rng.uniform(1.1, 1.3) ** 2) ** 2


def _reflected(make):
    return lambda rng, n: make(rng, n, -1.0)


def _near_collinear(rng, n):
    x = np.unique(rng.uniform(-10.0, 10.0, n))
    return x, 3.0 * x + 1e-13 * x * x


def _large(rng, n):
    x = np.unique(1e6 + rng.uniform(-50.0, 50.0, n))
    return x, rng.uniform(-8.0, 8.0, x.size) + 0.5 * (x - 1e6) ** 2


def _cos(k):
    def make(rng, n):
        x = np.linspace(-10.0, 10.0, n)
        return x, np.cos(np.pi * k * x / 10.0) + 1e-4 * x * x

    return make


def _exp_grid_square(rng, n):
    x = np.unique(np.cumsum(np.exp(rng.uniform(-30.0, 3.0, n))))
    return x, x * x


def _integer_collinear(rng, n):
    x = np.arange(n, dtype=float) - n // 2
    return x, 3.0 * x + 7.0


def _integer_piecewise_linear(rng, n):
    x = np.arange(n, dtype=float) - n // 2
    pieces = rng.integers(-4, 5, 5).astype(float)
    breaks = np.sort(rng.choice(x, 4, replace=False))
    return x, pieces[0] * x + np.clip(x[:, None] - breaks, 0.0, None) @ np.diff(pieces)


def _noise(rng, n):
    return np.linspace(-10.0, 10.0, n), rng.uniform(-1.0, 1.0, n)


# name -> (rng, nodes) -> (xs, vs): the eight grid-verify kinds, the
# near-collinear and large stress kinds of test_discrete at any size, and
# data built to need many rounds
FAMILIES = {
    "half_square": _half_square,
    "split_quadratic": _split_quadratic,
    "split_quadratic_reflected": _reflected(_split_quadratic),
    "neg_log": _neg_log,
    "neg_log_reflected": _reflected(_neg_log),
    "ray_indicator": _ray_indicator,
    "ray_indicator_reflected": _reflected(_ray_indicator),
    "double_well": _double_well,
    "near_collinear": _near_collinear,
    "large": _large,
    **{f"cos_{k}": _cos(k) for k in (16, 40, 100, 300, 1000)},
    "exp_grid_square": _exp_grid_square,
    "integer_collinear": _integer_collinear,
    "integer_piecewise_linear": _integer_piecewise_linear,
    "noise": _noise,
}


def _scaled(xs, vs, s):
    x, first = np.unique(xs * s, return_index=True)
    return x, vs[first] * s


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_matches_the_loop_on_each_family(name):
    rng = np.random.default_rng(sorted(FAMILIES).index(name))
    for n in (1_000, 10_000):
        xs, vs = FAMILIES[name](rng, n)
        np.testing.assert_array_equal(lower_hull(xs, vs), loop_hull(xs, vs))


@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_matches_the_loop_on_scaled_copies(scale, exact_counter):
    # 1e-160 makes every product underflow and 1e150 makes the exp grid's
    # overflow, so the exact branch decides those triples
    rng = np.random.default_rng(7)
    for name in sorted(FAMILIES):
        xs, vs = _scaled(*FAMILIES[name](rng, 200), scale)
        np.testing.assert_array_equal(lower_hull(xs, vs), loop_hull(xs, vs), err_msg=name)
    xs, vs = _scaled(*_exp_grid_square(rng, 2_000), scale)
    np.testing.assert_array_equal(lower_hull(xs, vs), loop_hull(xs, vs))
    assert exact_counter.calls > 0


@pytest.mark.parametrize(
    "scale", [1.0, 1e-160, 2.0**-518, 1e150], ids=["1", "1e-160", "2**-518", "1e150"]
)
def test_predicate_is_exact_on_near_degenerate_triples(scale):
    # m is the rounded point of the chord j-k at a random fraction; the
    # float sign of the cross product is wrong on a fifth to a half of them.
    # At 2**-518 the products fall just below the normal range, where two of
    # these wrong signs would pass Shewchuk's bound without the underflow guard
    rng = np.random.default_rng(5)
    n = 3_000
    xj = rng.uniform(-1.0, 1.0, n)
    xk = xj + rng.uniform(0.5, 2.0, n)
    vj = rng.uniform(-1e3, 1e3, n)
    vk = rng.uniform(-1e3, 1e3, n)
    t = rng.uniform(0.05, 0.95, n)
    xm = xj + t * (xk - xj)
    vm = vj + t * (vk - vj)
    xj, vj, xm, vm, xk, vk = (scale * a for a in (xj, vj, xm, vm, xk, vk))
    got = discrete._on_or_above(xj, vj, xm, vm, xk, vk)
    X = _exact_ints(np.concatenate((xj, xm, xk)))
    V = _exact_ints(np.concatenate((vj, vm, vk)))
    want = [
        (X[n + i] - X[i]) * (V[2 * n + i] - V[i]) <= (X[2 * n + i] - X[i]) * (V[n + i] - V[i])
        for i in range(n)
    ]
    np.testing.assert_array_equal(got, want)


def test_matches_the_loop_on_stress_draws():
    rng = np.random.default_rng(11)
    for k in range(400):
        f, _ = stress_sampled(rng, STRESS_KINDS[k % len(STRESS_KINDS)])
        fin = np.isfinite(f.values)
        xs, vs = f.points[fin], f.values[fin]
        np.testing.assert_array_equal(lower_hull(xs, vs), loop_hull(xs, vs))


def _check_property(xs, vs):
    x, first = np.unique(np.asarray(xs, dtype=float), return_index=True)
    v = np.asarray(vs, dtype=float)[first]
    np.testing.assert_array_equal(lower_hull(x, v), loop_hull(x, v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1,
        max_size=40,
    )
)
def test_matches_the_loop_on_small_float_inputs(pairs):
    _check_property([p[0] for p in pairs], [p[1] for p in pairs])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-6, 6)),
        min_size=1,
        max_size=40,
    )
)
def test_matches_the_loop_on_small_integer_inputs(pairs):
    _check_property([p[0] for p in pairs], [p[1] for p in pairs])


# A round costs one predicate call for its junctions and a few batched
# tangent searches of a few calls each, and the rounds grow with log N: at
# N = 1e5 the families need 1 to 69 calls (noise), under the bound of 83.
# Peeling junctions alone, one call per pass, needs 627 passes on cos_40,
# 1,564 on cos_16 and over 3,000 on the double well.
CALLS_PER_LOG2_N = 5


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_predicate_calls_grow_with_log_n(name, orient_counter):
    rng = np.random.default_rng(sorted(FAMILIES).index(name))
    xs, vs = FAMILIES[name](rng, 100_000)
    lower_hull(xs, vs)
    assert orient_counter.calls <= CALLS_PER_LOG2_N * math.log2(xs.size)


@pytest.mark.parametrize("name", ["integer_collinear", "integer_piecewise_linear"])
def test_integer_data_stays_off_the_rational_path(name, exact_counter):
    xs, vs = FAMILIES[name](np.random.default_rng(3), 10_000)
    assert lower_hull(xs, vs).size < 7
    assert exact_counter.calls == 0


def test_cli_import_does_not_load_fractions():
    code = "import sys, fenchelfix.cli; print('fractions' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fenchelfix.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
