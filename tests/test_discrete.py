import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fenchelfix import (
    AllInfinite,
    DimMismatch,
    FenchelFixError,
    OutOfRange,
    SampledFn,
    SignFlipSolution,
    Singular,
    TransformParams,
    biconjugate,
    brute_conjugate,
    conjugate_quadratic,
    direct_sum,
    energy,
    fast_conjugate,
    fenchel_young_check,
    grid_fixed_point_residual,
    sample,
    uniform_grid,
)
from fenchelfix import discrete
from fenchelfix.quadratic import QuadraticFn

FLIP = TransformParams([[-1.0]], [0.0], [0.0], 1.0, 0.0)


def random_sampled(rng, max_nodes=120, inf_fraction=0.0):
    n = int(rng.integers(2, max_nodes))
    pts = np.unique(rng.uniform(-10, 10, n))
    while pts.size < 2:
        pts = np.unique(rng.uniform(-10, 10, n))
    vals = rng.uniform(-8, 8, pts.size)
    if inf_fraction > 0.0:
        vals[rng.random(pts.size) < inf_fraction] = np.inf
        if not np.any(np.isfinite(vals)):
            vals[int(rng.integers(0, pts.size))] = float(rng.uniform(-1, 1))
    return SampledFn(pts, vals)


STRESS_KINDS = ("near_collinear", "large", "collinear", "zero_tie")


def stress_sampled(rng, kind):
    """A sampled function and ascending slopes at which rounding makes the
    hull route's choice of maximizing vertex hardest to get exactly right."""
    if kind == "near_collinear":
        # strictly convex, but its edge slopes differ from 3 by about 1e-12
        pts = np.unique(rng.uniform(-10.0, 10.0, int(rng.integers(3, 200))))
        vals = 3.0 * pts + 1e-13 * pts * pts
        slopes = np.concatenate([3.0 + rng.uniform(-1e-11, 1e-11, 40), rng.uniform(-12, 12, 20)])
    elif kind == "large":
        centre = float(rng.choice([-1e6, 1e6]))
        pts = np.unique(centre + rng.uniform(-50.0, 50.0, int(rng.integers(2, 150))))
        vals = rng.uniform(-8, 8, pts.size)
        if rng.random() < 0.5:
            vals += 0.5 * (pts - centre) ** 2
        slopes = rng.uniform(-12, 12, 60)
    elif kind == "collinear":
        # piecewise linear with integer breakpoints and slopes, so every
        # collinear run ties exactly at its own slope
        pts = np.unique(rng.integers(-30, 31, int(rng.integers(2, 50)))).astype(float)
        pieces = rng.integers(-4, 5, 4).astype(float)
        breaks = np.sort(rng.integers(-30, 31, 3)).astype(float)
        vals = pieces[0] * pts + np.clip(pts[:, None] - breaks, 0.0, None) @ np.diff(pieces)
        slopes = np.concatenate([pieces, 0.5 * rng.integers(-10, 11, 10), rng.uniform(-6, 6, 10)])
    else:
        # integer data through (0, 0): at slopes -0.5, 0 and 0.5 the max of
        # s*x - f(x) is often a zero tie between x = 0 and another node, one
        # of which evaluates to -0.0
        m = int(rng.integers(1, 20))
        pts = np.arange(-m, m + 1, dtype=float)
        shape = int(rng.integers(0, 3))
        if shape == 0:
            vals = 0.5 * pts * pts
        elif shape == 1:
            vals = np.clip(np.abs(pts) - float(rng.integers(0, m + 1)), 0.0, None)
        else:
            vals = np.where(pts * float(rng.choice([-1, 1])) >= 0.0, 0.0, np.inf)
        slopes = np.concatenate([[-0.5, 0.0, 0.5], 0.5 * rng.integers(-6, 7, 6)])
    return SampledFn(pts, vals), np.unique(slopes)


class TestBruteConjugate:
    def test_vee_at_slope_zero(self):
        f = SampledFn([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        assert brute_conjugate(f, [0.0]).values[0] == 0.0

    def test_vee_at_slope_two(self):
        f = SampledFn([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        assert brute_conjugate(f, [2.0]).values[0] == 1.0

    def test_all_infinite_rejected(self):
        with pytest.raises(AllInfinite):
            SampledFn([-1.0, 1.0], [np.inf, np.inf])


class TestFastConjugate:
    def test_single_finite_node(self):
        f = SampledFn([-1.0, 0.0, 1.0], [np.inf, 0.0, np.inf])
        out = fast_conjugate(f, [-3.0, 0.5, 7.0])
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])

    def test_parabola_matches_oracle_bitwise(self):
        xs = np.linspace(-5.0, 5.0, 201)
        f = SampledFn(xs, 0.5 * xs * xs)
        slopes = np.linspace(-8.0, 8.0, 257)
        fast = fast_conjugate(f, slopes)
        brute = brute_conjugate(f, slopes)
        assert fast.values.tobytes() == brute.values.tobytes()

    def test_dominated_interior_node_is_dropped(self):
        f = SampledFn([-1.0, 0.0, 1.0], [0.0, 5.0, 0.0])
        slopes = np.linspace(-3.0, 3.0, 13)
        fast = fast_conjugate(f, slopes)
        brute = brute_conjugate(f, slopes)
        assert fast.values.tobytes() == brute.values.tobytes()
        np.testing.assert_allclose(fast.values, np.abs(slopes))

    def test_oracle_equivalence_randomized(self, rng):
        for k in range(200):
            f = random_sampled(rng, inf_fraction=0.3 if k % 2 else 0.0)
            m = int(rng.integers(1, 80))
            slopes = np.unique(rng.uniform(-12, 12, m))
            fast = fast_conjugate(f, slopes)
            brute = brute_conjugate(f, slopes)
            assert fast.values.tobytes() == brute.values.tobytes()
        for k in range(200):
            f, slopes = stress_sampled(rng, STRESS_KINDS[k % len(STRESS_KINDS)])
            fast = fast_conjugate(f, slopes)
            brute = brute_conjugate(f, slopes)
            assert fast.values.tobytes() == brute.values.tobytes()

    def test_near_collinear_draws_match_the_oracle_bitwise(self):
        # data convex only by about one rounding error: a floating-point
        # orientation test drops true hull vertices of 3 of these draws
        rng = np.random.default_rng(1)
        for _ in range(2000):
            f, slopes = stress_sampled(rng, "near_collinear")
            fast = fast_conjugate(f, slopes)
            brute = brute_conjugate(f, slopes)
            assert fast.values.tobytes() == brute.values.tobytes()

    def test_zero_maximum_is_positive_zero(self):
        # at slopes +-0.5 the maximum 0 is attained at x = 0 and x = +-1; the
        # node x = 0 evaluates to -0.0 at slope -0.5
        xs = np.arange(-5.0, 6.0)
        f = SampledFn(xs, 0.5 * xs * xs)
        slopes = np.array([-0.5, 0.25, 0.5])
        fast = fast_conjugate(f, slopes)
        brute = brute_conjugate(f, slopes)
        assert fast.values.tobytes() == brute.values.tobytes()
        assert fast.values[0] == 0.0 and not np.signbit(fast.values[0])
        assert fast.values[2] == 0.0 and not np.signbit(fast.values[2])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.one_of(st.floats(-30, 30, allow_nan=False), st.just(float("inf"))),
            ),
            min_size=2,
            max_size=40,
        ),
        slopes=st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=20),
    )
    def test_oracle_equivalence_hypothesis(self, data, slopes):
        pts = np.unique(np.asarray([d[0] for d in data]))
        if pts.size < 2:
            return
        vals = np.asarray([d[1] for d in data][: pts.size])
        if vals.size < pts.size or not np.any(np.isfinite(vals)):
            return
        f = SampledFn(pts, vals)
        s = np.unique(np.asarray(slopes))
        fast = fast_conjugate(f, s)
        brute = brute_conjugate(f, s)
        assert fast.values.tobytes() == brute.values.tobytes()

    def test_conjugate_output_is_convex(self, rng):
        # chord slopes of any conjugate are nondecreasing; slopes are kept
        # well separated so divided differences do not amplify roundoff
        for _ in range(25):
            f = random_sampled(rng, inf_fraction=0.2)
            slopes = np.unique(np.round(rng.uniform(-10, 10, 40), 1))
            if slopes.size < 3:
                continue
            out = fast_conjugate(f, slopes).values
            d1 = np.diff(out) / np.diff(slopes)
            assert np.all(np.diff(d1) >= -1e-12 * max(1.0, np.max(np.abs(out))))

    def test_order_reversal_on_grids(self, rng):
        for _ in range(20):
            f = random_sampled(rng)
            g = SampledFn(f.points, f.values + rng.uniform(0.0, 3.0, f.points.size))
            slopes = np.unique(rng.uniform(-10, 10, 30))
            fs = fast_conjugate(f, slopes).values
            gs = fast_conjugate(g, slopes).values
            assert np.all(fs >= gs - 1e-12)


# sha256 over biconjugate(f).values for the corpus below, recorded from the
# per-node chord walk the vectorised biconjugate replaced.
BICONJUGATE_DIGEST = "aff12c42a6f6408178ad5732452cc50aec4d75e54f28ae4fa5fcc7cc0b766ad8"


def biconjugate_corpus():
    rng = np.random.default_rng(31337)
    for k in range(120):
        kind = k % (2 + len(STRESS_KINDS))
        if kind < 2:
            yield random_sampled(rng, inf_fraction=0.3 * kind)
        else:
            yield stress_sampled(rng, STRESS_KINDS[kind - 2])[0]


class TestBiconjugate:
    def test_bytes_match_the_recorded_digest(self):
        h = hashlib.sha256()
        for f in biconjugate_corpus():
            h.update(biconjugate(f).values.tobytes())
        assert h.hexdigest() == BICONJUGATE_DIGEST

    def test_convex_data_unchanged(self):
        xs = np.linspace(-4.0, 4.0, 81)
        f = SampledFn(xs, 0.5 * xs * xs)
        out = biconjugate(f)
        np.testing.assert_array_equal(out.values, f.values)

    def test_single_finite_point_unchanged(self):
        f = SampledFn([-1.0, 0.0, 2.0], [np.inf, 3.0, np.inf])
        out = biconjugate(f)
        assert out.values[1] == 3.0
        assert np.isinf(out.values[0]) and np.isinf(out.values[2])

    @pytest.mark.parametrize(
        "f",
        [
            SignFlipSolution("half_square").sample(uniform_grid(-4.0, 4.0, 0.01)),
            # +inf on x <= 0, and every finite node is a hull vertex
            SignFlipSolution("neg_log").sample(uniform_grid(-2.0, 6.0, 0.01)),
            SampledFn([-1.0, 0.0, 2.0], [np.inf, 3.0, np.inf]),
        ],
        ids=["half_square", "neg_log", "single_node"],
    )
    def test_contiguous_hull_returns_the_function(self, f):
        assert f.hull.size == f.hull[-1] - f.hull[0] + 1
        out = biconjugate(f)
        assert out.values.tobytes() == f.values.tobytes()
        assert out is f

    def test_non_convex_sample_still_interpolates(self):
        xs = uniform_grid(-2.0, 2.0, 0.25)
        vals = 0.25 * (xs * xs - 1.0) ** 2
        vals[0] = np.inf
        f = SampledFn(xs, vals)
        out = biconjugate(f)
        assert out is not f
        middle = np.abs(xs) < 1.0
        assert np.all(out.values[middle] < f.values[middle])
        np.testing.assert_array_equal(out.values[f.hull], f.values[f.hull])
        assert np.isinf(out.values[0])

    def test_interior_value_replaced_by_chord(self):
        f = SampledFn([-1.0, 0.0, 1.0], [0.0, 5.0, 0.0])
        np.testing.assert_array_equal(biconjugate(f).values, [0.0, 0.0, 0.0])

    def test_below_original_and_idempotent(self, rng):
        for _ in range(25):
            f = random_sampled(rng, inf_fraction=0.15)
            once = biconjugate(f)
            assert np.all(once.values <= f.values + 1e-12)
            twice = biconjugate(once)
            np.testing.assert_allclose(twice.values, once.values, atol=1e-12, rtol=0.0)

    def test_third_conjugate_equals_first(self, rng):
        for _ in range(20):
            f = random_sampled(rng)
            slopes = np.unique(rng.uniform(-10, 10, 50))
            if slopes.size < 2:
                continue
            first = fast_conjugate(f, slopes)
            second = fast_conjugate(first, f.points)
            third = fast_conjugate(second, slopes)
            np.testing.assert_allclose(third.values, first.values, atol=1e-10, rtol=0.0)


class TestSignFlipFamily:
    def test_pointwise_values(self):
        assert SignFlipSolution("neg_log")(1.0) == pytest.approx(-0.5)
        assert SignFlipSolution("ray_indicator")(-1.0) == np.inf
        assert SignFlipSolution("split_quadratic", lam=2.0)(-1.0) == pytest.approx(1.0)
        assert SignFlipSolution("split_quadratic", lam=2.0)(1.0) == pytest.approx(0.25)

    def test_half_square_grid_residual(self):
        h = 0.01
        f = SignFlipSolution("half_square").sample(uniform_grid(-5.0, 5.0, h))
        rep = grid_fixed_point_residual(FLIP, f)
        assert rep.max_abs <= 2 * h
        assert rep.grid_h == pytest.approx(h)

    def test_grid_residual_needs_nonzero_e(self):
        f = SignFlipSolution("half_square").sample(uniform_grid(-1.0, 1.0, 0.5))
        with pytest.raises(Singular, match="e must be nonzero"):
            grid_fixed_point_residual(TransformParams([[0.0]], [0.0], [0.0], 1.0), f)

    def test_split_quadratic_point_values(self):
        # conjugate of the lam=2 split quadratic at slope -1 equals 1/4,
        # attained at x = -1/2; matches the sample value at x = 1
        h = 0.005
        f = SignFlipSolution("split_quadratic", lam=2.0).sample(uniform_grid(-11.0, 11.0, h))
        star = fast_conjugate(f, np.array([-1.0]))
        assert star.values[0] == pytest.approx(0.25, abs=h)
        assert SignFlipSolution("split_quadratic", lam=2.0)(1.0) == pytest.approx(0.25)

    def test_neg_log_point_values(self):
        h = 0.005
        f = SignFlipSolution("neg_log").sample(uniform_grid(h, 20.0, h))
        star = fast_conjugate(f, np.array([-1.0]))
        assert star.values[0] == pytest.approx(-0.5, abs=2 * h)
        assert SignFlipSolution("neg_log")(1.0) == pytest.approx(-0.5)

    def test_reflection_closure(self):
        # if f passes the sign-flip residual check, so does x -> f(-x)
        h = 0.005
        for member, grid, excl, bound in [
            (SignFlipSolution("ray_indicator"), uniform_grid(-5.0, 5.0, h), 0.0, 2 * h),
            (SignFlipSolution("split_quadratic", lam=0.5), uniform_grid(-11.0, 11.0, h), 0.0, 2 * h),
            (SignFlipSolution("neg_log"), uniform_grid(h, 20.0, h), 10 * h, 4 * h),
        ]:
            rep = grid_fixed_point_residual(
                FLIP, member.sample(grid), window=(-5.0, 5.0), boundary_exclusion=excl
            )
            assert rep.max_abs <= bound
            mirrored = SignFlipSolution(member.kind, lam=member.lam, reflected=True)
            rep_m = grid_fixed_point_residual(
                FLIP, mirrored.sample(-grid[::-1]), window=(-5.0, 5.0), boundary_exclusion=excl
            )
            assert rep_m.max_abs <= bound


FAMILY = [
    SignFlipSolution(kind, lam=lam, reflected=reflected)
    for kind, lam in [
        ("half_square", None),
        ("neg_log", None),
        ("ray_indicator", None),
        ("split_quadratic", 0.3),
    ]
    for reflected in (False, True)
]
EDGES = [-1e300, -1e-300, -5e-324, 5e-324, 1e-300, 1e300]


def scalar_reference(member, x):
    """The family's per-node Python float formulas, with math.log."""
    t = -float(x) if member.reflected else float(x)
    if member.kind == "half_square":
        return 0.5 * t * t
    if member.kind == "neg_log":
        return -0.5 - math.log(t) if t > 0.0 else math.inf
    if member.kind == "ray_indicator":
        return 0.0 if t >= 0.0 else math.inf
    lam = member.lam
    return 0.5 * lam * t * t if t <= 0.0 else t * t / (2.0 * lam)


def family_grids():
    rng = np.random.default_rng(8)
    return {
        "uniform": uniform_grid(-20.0, 20.0, 4e-3),
        "random": np.unique(rng.uniform(-20.0, 20.0, 50_000)),
        "edges_plus_zero": np.array(EDGES[:3] + [0.0] + EDGES[3:]),
        "edges_minus_zero": np.array(EDGES[:3] + [-0.0] + EDGES[3:]),
    }


class TestArraySampling:
    @pytest.mark.parametrize("member", FAMILY, ids=repr)
    @pytest.mark.parametrize("grid", list(family_grids()))
    def test_sample_matches_the_scalar_call_bitwise(self, member, grid):
        points = family_grids()[grid]
        f = sample(member, points)
        assert f.values.tobytes() == np.array([member(x) for x in points]).tobytes()
        assert f.values.tobytes() == member.values(points).tobytes()

    @pytest.mark.parametrize("member", FAMILY, ids=repr)
    def test_array_pass_matches_the_python_float_formulas(self, member):
        # the same IEEE expressions, so bit for bit, except that np.log may
        # differ from math.log by one ulp of log t, which moves -1/2 - log t
        # by at most that ulp plus one rounding: 2 ulp(1/2 + |f|) in all
        for points in family_grids().values():
            got = member.values(points)
            want = np.array([scalar_reference(member, x) for x in points])
            if member.kind == "neg_log":
                np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
                fin = np.isfinite(want)
                gap = np.abs(got[fin] - want[fin])
                assert np.all(gap <= 2.0 * np.spacing(0.5 + np.abs(want[fin])))
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("member", FAMILY + [SignFlipSolution("split_quadratic", lam=7.0)], ids=repr)
    def test_scalar_call_is_bitwise_the_array_pass(self, member):
        # more than 1e5 points: every scale from subnormal to the largest
        # float, uniform and raw-bit draws, +-0, +-inf and each kind's
        # branch point 0 with its neighbours
        rng = np.random.default_rng(15)
        bits = rng.integers(-(2**62), 2**62, 30_000).view(np.float64)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
        special += [1.3407807929942596e154, 1.3407807929942597e154, 1.7976931348623157e308]
        special += [-1.7976931348623157e308, np.inf, -np.inf]
        points = np.concatenate([
            np.ldexp(rng.uniform(-1.0, 1.0, 40_000), rng.integers(-1073, 1025, 40_000)),
            rng.uniform(-20.0, 20.0, 30_000),
            rng.uniform(-1e-12, 1e-12, 2_000),
            bits[np.isfinite(bits)],
            special,
        ])
        assert points.size > 100_000
        want = member.values(points)
        got = np.array([member(x) for x in points.tolist()])
        assert got.tobytes() == want.tobytes()
        # a numpy scalar or a size-1 array takes the same route
        some = points[::997]
        for wrap in (np.float64, lambda x: np.array([x]), lambda x: np.array(x)):
            assert np.array([member(wrap(x)) for x in some]).tobytes() == member.values(some).tobytes()

    def test_values_takes_a_1d_array(self):
        with pytest.raises(DimMismatch):
            SignFlipSolution("half_square").values(np.zeros((2, 2)))

    def test_sign_flip_members_make_no_scalar_calls(self, flip_call_counter):
        grid = uniform_grid(-5.0, 5.0, 0.01)
        for member in FAMILY:
            sample(member, grid)
            member.sample(grid)
        assert flip_call_counter.calls == 0

    def test_other_callables_are_called_once_per_node(self):
        grid = uniform_grid(-2.0, 2.0, 0.25)
        seen = []
        f = sample(lambda x: seen.append(x) or abs(x), grid)
        assert seen == list(grid)
        np.testing.assert_array_equal(f.values, np.abs(grid))

        class ScalarOnly:
            """Like the benchmark's double well: defined on floats only."""

            def __init__(self):
                self.calls = 0

            def __call__(self, x):
                self.calls += 1
                return 0.25 * (float(x) ** 2 - 1.0) ** 2

        well = ScalarOnly()
        sample(well, grid)
        assert well.calls == grid.size


class TestSampledFnOwnsItsArrays:
    def test_caller_arrays_stay_writeable_and_detached(self):
        xs = np.linspace(-2.0, 2.0, 9)
        vals = np.abs(xs) + 1.0
        f = SampledFn(xs, vals)
        hull = f.hull.copy()
        assert xs.flags.writeable and vals.flags.writeable
        assert f.points is not xs and f.values is not vals
        xs[4] = 0.01
        vals[:] = 5.0
        assert f.points[4] == 0.0
        np.testing.assert_array_equal(f.values, np.abs(f.points) + 1.0)
        np.testing.assert_array_equal(f.hull, hull)

    def test_sample_and_fast_conjugate_leave_inputs_alone(self):
        grid = uniform_grid(-1.0, 1.0, 0.5)
        f = sample(SignFlipSolution("half_square"), grid)
        assert grid.flags.writeable and f.points is not grid
        slopes = np.array([-1.0, 0.0, 1.0])
        conj = fast_conjugate(f, slopes)
        assert slopes.flags.writeable and conj.points is not slopes
        grid[0] = -7.0
        slopes[0] = -7.0
        assert f.points[0] == -1.0 and conj.points[0] == -1.0

    def test_library_outputs_are_shared_not_copied(self):
        f = SampledFn(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 5.0, 0.0]))
        assert not f.points.flags.writeable and not f.hull.flags.writeable
        assert biconjugate(f).points is f.points
        assert SampledFn(f.points, f.values).points is f.points


class TestGridCheckedOnce:
    def test_each_grid_is_checked_once(self, monkeypatch):
        checked = []
        original = discrete.check_grid

        def counting(points):
            checked.append(len(points))
            return original(points)

        monkeypatch.setattr(discrete, "check_grid", counting)
        f = sample(SignFlipSolution("half_square"), uniform_grid(-1.0, 1.0, 0.5))
        assert checked == [5]
        fast_conjugate(f, [-1.0, 0.0, 1.0])
        assert checked == [5, 3]
        brute_conjugate(f, [-1.0, 1.0])
        assert checked == [5, 3, 2]
        g = sample(lambda x: abs(x) if x else 1.0, f.points)
        assert checked == [5, 3, 2, 5]
        biconjugate(g)
        SampledFn(g.points, g.values)
        assert checked == [5, 3, 2, 5, 5]

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            ([0.0, 2.0, 1.0], ValueError, "grid points must be strictly increasing"),
            ([0.0, 0.0], ValueError, "grid points must be strictly increasing"),
            ([0.0, np.nan], ValueError, "grid points must be finite"),
            ([[0.0, 1.0]], DimMismatch, "grid must be 1-D with at least 1 point"),
            ([], DimMismatch, "grid must be 1-D with at least 1 point"),
        ],
    )
    def test_bad_grids_fail_the_one_check_even_read_only(self, grid, error, message):
        arr = np.array(grid, dtype=float)
        arr.flags.writeable = False
        f = SampledFn([0.0, 1.0], [0.0, 1.0])
        for g in (grid, arr):
            for build in (
                lambda: SampledFn(g, np.zeros(np.shape(g))),
                lambda: sample(abs, g),
                lambda: sample(SignFlipSolution("half_square"), g),
                lambda: fast_conjugate(f, g),
                lambda: brute_conjugate(f, g),
            ):
                with pytest.raises(error) as info:
                    build()
                assert info.type is error and str(info.value) == message


class TestHullOnce:
    def test_one_hull_per_sampled_function(self, hull_counter):
        h = 0.01
        f = SignFlipSolution("split_quadratic", lam=2.0).sample(uniform_grid(-11.0, 11.0, h))
        fast_conjugate(f, np.linspace(-2.0, 2.0, 41))
        grid_fixed_point_residual(FLIP, f, window=(-5.0, 5.0))
        biconjugate(f)
        fenchel_young_check(f, [(0.0, 0.5), (1.0, -1.0)])
        assert hull_counter.sizes == [f.points.size]

    def test_one_hull_and_one_table_for_a_non_convex_function(self, hull_counter):
        xs = uniform_grid(-3.0, 3.0, 0.01)
        f = SampledFn(xs, 0.25 * (xs * xs - 1.0) ** 2)
        fast_conjugate(f, np.linspace(-2.0, 2.0, 41))
        table = f._table
        grid_fixed_point_residual(FLIP, f, window=(-1.0, 1.0))
        assert biconjugate(f) is not f
        fenchel_young_check(f, [(0.0, 0.5), (1.0, -1.0)])
        assert hull_counter.sizes == [f.points.size]
        assert f._table is table

    def test_table_and_finite_mask_are_read_only_and_cached(self):
        f = SampledFn([-2.0, -1.0, 0.0, 1.0, 2.0], [np.inf, 1.0, 3.0, 0.0, np.inf])
        hx, hv, edges = f._table
        np.testing.assert_array_equal(hx, [-1.0, 1.0])
        np.testing.assert_array_equal(hv, [1.0, 0.0])
        np.testing.assert_array_equal(edges, [-0.5])
        assert f.finite_mask is f.finite_mask
        np.testing.assert_array_equal(f.finite_mask, [False, True, True, True, False])
        for a in (hx, hv, edges, f.finite_mask):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_hull_of_finite_nodes(self):
        f = SampledFn([-2.0, -1.0, 0.0, 1.0, 2.0], [np.inf, 1.0, 3.0, 0.0, np.inf])
        np.testing.assert_array_equal(f.hull, [1, 3])


def brute_conjugate_2d(xs, ys, vals, slopes_x, slopes_y):
    """max of sx x + sy y - v over the finite nodes of the tensor grid
    xs x ys (v = vals[i, j] at (xs[i], ys[j])), one row per sx."""
    finite = np.isfinite(vals)
    x = np.broadcast_to(xs[:, None], vals.shape)[finite]
    y = np.broadcast_to(ys[None, :], vals.shape)[finite]
    v = vals[finite]
    return np.array([np.max(sx * x + slopes_y[:, None] * y - v, axis=1) for sx in slopes_x])


class TestConjugate2D:
    def test_quadratic_against_closed_form(self):
        b = np.diag([2.0, 0.5])
        q = QuadraticFn(b, np.zeros(2), 0.0)
        qs = conjugate_quadratic(q)
        h = 0.05
        xs = uniform_grid(-4.0, 4.0, h)
        vals = 0.5 * (2.0 * xs[:, None] ** 2 + 0.5 * xs[None, :] ** 2)
        interior = uniform_grid(-1.5, 1.5, 0.25)
        star = brute_conjugate_2d(xs, xs, vals, interior, interior)
        for i, sx in enumerate(interior):
            for j, sy in enumerate(interior):
                assert star[i, j] == pytest.approx(qs(np.array([sx, sy])), abs=3 * h)

    def test_direct_sum_solves_planar_sign_flip(self):
        # half_square on one axis, split quadratic on the other: the sum
        # solves f(x) = f*(-x) in the plane; checked by brute conjugation
        h = 0.1
        member = SignFlipSolution("split_quadratic", lam=2.0)
        ds = direct_sum([energy(1), member])
        xs = uniform_grid(-3.5, 3.5, h)
        ys = uniform_grid(-3.5, 6.5, h)
        vals = 0.5 * xs[:, None] ** 2 + np.array([member(y) for y in ys])[None, :]
        window = uniform_grid(-3.0, 3.0, h)
        star = brute_conjugate_2d(xs, ys, vals, window, window)
        worst = 0.0
        for i, x1 in enumerate(window):
            for j, x2 in enumerate(window):
                direct = ds(np.array([x1, x2]))
                flipped = star[window.size - 1 - i, window.size - 1 - j]
                worst = max(worst, abs(direct - flipped))
        assert worst <= 2 * h


class TestFenchelYoung:
    def test_energy_grid_pairs(self, rng):
        xs = np.linspace(-4.0, 4.0, 161)
        f = SampledFn(xs, 0.5 * xs * xs)
        idx = rng.integers(0, xs.size, 100)
        pairs = [(xs[i], float(rng.uniform(-3, 3))) for i in idx]
        rep = fenchel_young_check(f, pairs)
        assert rep.min_gap >= 0.0
        assert rep.max_abs == 0.0

    def test_neg_log_pairs(self, rng):
        h = 0.005
        f = SignFlipSolution("neg_log").sample(uniform_grid(h, 10.0, h))
        xs = f.points[f.finite_mask]
        idx = rng.integers(0, xs.size, 50)
        pairs = [(xs[i], float(rng.uniform(-4, -0.1))) for i in idx]
        rep = fenchel_young_check(f, pairs)
        assert rep.min_gap >= -1e-12

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_abscissa_is_not_a_grid_node(self, x):
        f = SampledFn(np.linspace(-1.0, 1.0, 5), np.zeros(5))
        with pytest.raises(ValueError, match="pair abscissae must be grid nodes"):
            fenchel_young_check(f, [(0.5, 0.5), (x, 1.0)])

    def test_near_equality_at_subgradient_pairs(self):
        # forward-difference slopes are near-subgradients of convex data,
        # so the inequality is close to tight: every gap stays within O(h)
        h = 0.05
        xs = uniform_grid(-3.0, 3.0, h)
        f = SampledFn(xs, 0.5 * xs * xs)
        pairs = [(xs[i], (f.values[i + 1] - f.values[i]) / h) for i in range(xs.size - 1)]
        rep = fenchel_young_check(f, pairs)
        assert rep.min_gap >= -1e-12
        for x, s in pairs:
            star = fast_conjugate(f, np.array([s])).values[0]
            gap = star + f.values[np.searchsorted(xs, x)] - s * x
            assert -1e-12 <= gap <= 2 * h


def brute_grid_residual(p, f, window, exclusion):
    """The grid residual's selected nodes and values from an all-node max,
    with the library's roundings: ((v - tau f*) - w x) - beta."""
    e, c, w = float(p.E[0, 0]), float(p.c[0]), float(p.w[0])
    fin = np.isfinite(f.values)
    xf, vf = f.points[fin], f.values[fin]
    keep = fin & (f.points >= window[0]) & (f.points <= window[1])
    keep &= (f.points - xf[0] >= exclusion) & (xf[-1] - f.points >= exclusion)
    x, v = f.points[keep], f.values[keep]
    star = np.max((e * x + c)[:, None] * xf[None, :] - vf[None, :], axis=1) + 0.0
    return x, ((v - star * p.tau) - w * x) - p.beta


class TestGridResidualWindowing:
    @pytest.mark.parametrize("e", [-0.7, -1.0, 1.3])
    def test_matches_a_brute_max_bitwise(self, rng, e):
        p = TransformParams([[e]], [0.25], [0.3], 1.7, -0.2)
        for _ in range(20):
            xs = np.unique(rng.uniform(-6.0, 6.0, int(rng.integers(20, 400))))
            vals = 0.5 * xs * xs + rng.uniform(-0.5, 0.5, xs.size)
            vals[rng.random(xs.size) < 0.1] = np.inf
            vals[np.argmin(np.abs(xs))] = 0.0  # a finite node inside the window
            f = SampledFn(xs, vals)
            window, exclusion = (-4.0, 4.0), 0.5
            rep = grid_fixed_point_residual(p, f, window=window, boundary_exclusion=exclusion)
            x, r = brute_grid_residual(p, f, window, exclusion)
            k = int(np.argmax(np.abs(r)))
            assert rep.sample_points == x.size
            assert rep.max_abs == abs(r[k])
            assert rep.worst_point.tobytes() == np.array([x[k]]).tobytes()
            assert rep.mean_abs == float(np.mean(np.abs(r)))

    def test_window_restricts_reported_nodes(self):
        h = 0.01
        f = SignFlipSolution("half_square").sample(uniform_grid(-5.0, 5.0, h))
        rep = grid_fixed_point_residual(FLIP, f, window=(-1.0, 1.0))
        assert rep.sample_points == 201

    def test_repeated_slopes_are_accepted(self):
        # e = 1e-300 rounds every slope e*x + c to c; the constant xmax/4
        # solves f(x) = f*(c) with c = 1/2
        p = TransformParams([[1e-300]], [0.5], [0.0], 1.0, 0.0)
        f = SampledFn([-1.0, 0.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5])
        rep = grid_fixed_point_residual(p, f)
        assert rep.max_abs == 0.0
        assert rep.sample_points == 4

    @pytest.mark.parametrize(
        "e, c", [(-1e308, 0.0), (1e308, 0.0), (1e307, 1.7e308), (-4e307, -1.7e308)]
    )
    def test_overflowing_slopes_are_out_of_range(self, e, c):
        # finite e, c and nodes whose slopes e x + c overflow: an input error
        # naming the overflow, and no RuntimeWarning (the suite makes every
        # warning an error)
        f = SampledFn([-5.0, -2.5, 0.0, 2.5, 5.0], [12.5, 3.125, 0.0, 3.125, 12.5])
        with pytest.raises(OutOfRange, match="slopes e x \\+ c overflow") as info:
            grid_fixed_point_residual(TransformParams([[e]], [c], [0.0], 1.0), f)
        assert isinstance(info.value, FenchelFixError)

    @pytest.mark.parametrize("e, tau", [(2e307, 1.0), (-2e307, 1.0), (1.0, 1e308)])
    def test_overflowing_conjugate_values_are_out_of_range(self, e, tau):
        # finite slopes whose conjugate values, or their product with tau,
        # overflow: an input error with no RuntimeWarning, not maxAbs inf
        f = SampledFn([-5.0, -2.5, 0.0, 2.5, 5.0], [12.5, 3.125, 0.0, 3.125, 12.5])
        with pytest.raises(OutOfRange, match="the input overflows the float range"):
            grid_fixed_point_residual(TransformParams([[e]], [0.0], [0.0], tau), f)

    def test_scalar_parameters_required(self):
        f = SignFlipSolution("half_square").sample(uniform_grid(-1.0, 1.0, 0.1))
        p2 = TransformParams(-np.eye(2), np.zeros(2), np.zeros(2), 1.0, 0.0)
        with pytest.raises(Exception):
            grid_fixed_point_residual(p2, f)


class TestSortedChunkedCore:
    """``_conjugate_at`` visits its slopes ``_CHUNK`` at a time, in the
    order it is given, and writes each value back to its slope's position."""

    def test_shuffled_repeated_slopes_over_several_chunks(self, rng):
        xs = np.linspace(-3.0, 3.0, 200)
        f = SampledFn(xs, 0.25 * (xs * xs - 1.0) ** 2 + rng.uniform(-0.05, 0.05, xs.size))
        slopes = np.unique(rng.uniform(-12.0, 12.0, 40_000))
        at = rng.integers(0, slopes.size, 100_000)  # shuffled, with repeats
        assert at.size > 3 * discrete._CHUNK
        shuffled = discrete._conjugate_at(f, slopes[at], np.argsort(slopes[at]))
        assert shuffled.tobytes() == fast_conjugate(f, slopes).values[at].tobytes()
        assert shuffled.tobytes() == brute_conjugate(f, slopes).values[at].tobytes()

    def test_fenchel_young_tie_break_is_the_first_pair(self, rng, monkeypatch):
        # gaps of exactly 0 at every (x, x) pair of x^2/2 on integers, and
        # positive elsewhere: the worst point is the first tied pair
        monkeypatch.setattr(discrete, "_CHUNK", 97)
        xs = np.arange(-20.0, 21.0)
        f = SampledFn(xs, 0.5 * xs * xs)
        x = rng.choice(xs, 3_000)
        s = np.where(rng.random(x.size) < 0.1, x, rng.uniform(-15.0, 15.0, x.size))
        pairs = np.column_stack((x, s))
        rep = fenchel_young_check(f, pairs)
        one_at_a_time = np.array([discrete._conjugate_at(f, np.array([v]))[0] for v in s])
        gaps = one_at_a_time + 0.5 * x * x - s * x
        k = int(np.argmin(gaps))
        assert np.count_nonzero(gaps == gaps[k]) > 1
        assert rep.min_gap == gaps[k]
        np.testing.assert_array_equal(rep.worst_point, pairs[k])

    def test_peak_memory_is_bounded_by_the_chunks(self, rng):
        xs = np.linspace(-2.0, 2.0, 101)
        f = SampledFn(xs, 0.25 * (xs * xs - 1.0) ** 2)
        f.hull  # built before tracing: its cost is the function's, once
        s = rng.uniform(-3.0, 3.0, 1_000_000)
        tracemalloc.start()
        try:
            discrete._conjugate_at(f, s, np.argsort(s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and the argsort permutation, plus chunk-sized temporaries
        assert peak <= 2.5 * s.nbytes

    def test_ascending_slopes_need_no_permutation(self, rng):
        xs = np.linspace(-2.0, 2.0, 101)
        f = SampledFn(xs, 0.25 * (xs * xs - 1.0) ** 2)
        f._table  # built before tracing: its cost is the function's, once
        s = np.sort(rng.uniform(-3.0, 3.0, 1_000_000))
        tracemalloc.start()
        try:
            discrete._conjugate_at(f, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus chunk-sized temporaries
        assert peak <= 1.5 * s.nbytes

    def test_shuffled_slopes_with_no_order(self, rng, monkeypatch):
        monkeypatch.setattr(discrete, "_CHUNK", 97)
        xs = np.linspace(-3.0, 3.0, 200)
        f = SampledFn(xs, 0.25 * (xs * xs - 1.0) ** 2 + rng.uniform(-0.05, 0.05, xs.size))
        slopes = np.unique(rng.uniform(-12.0, 12.0, 2_000))
        at = rng.integers(0, slopes.size, 5_000)
        shuffled = discrete._conjugate_at(f, slopes[at])
        assert shuffled.tobytes() == brute_conjugate(f, slopes).values[at].tobytes()

    def test_subnormal_spacing_gives_no_overflow_warning(self):
        # the edge slope -1 / 2.2e-311 overflows to -inf, which only moves
        # the search by one vertex inside the three-vertex max
        f = SampledFn([0.0, 2.2e-311, 0.26, 2.97, 3.0], [1.0, 0.0, 0.5, 1.0, 3.0])
        slopes = np.linspace(-5.0, 5.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = fast_conjugate(f, slopes)
        assert fast.values.tobytes() == brute_conjugate(f, slopes).values.tobytes()


def test_sample_passes_python_floats_to_a_scalar_callable():
    seen = []
    sample(lambda x: seen.append(type(x)) or x, uniform_grid(-1.0, 1.0, 0.5))
    assert seen == [float] * 5
