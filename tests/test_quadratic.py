import warnings

import numpy as np
import pytest

from conftest import random_pd_instance, random_pd_matrix
from test_acceptance import indefinite_corpus, pd_corpus
from fenchelfix import (
    DEFAULT_TOL,
    DimMismatch,
    EmptyList,
    NotPositiveDefinite,
    OutOfRange,
    QuadraticFn,
    SampledFn,
    TransformParams,
    apply_transform,
    brute_conjugate,
    conjugate_quadratic,
    direct_sum,
    dual_params,
    energy,
    invert,
    linalg,
    sample_points,
)


def q1d(a, b, gamma=0.0):
    return QuadraticFn(np.array([[float(a)]]), np.array([float(b)]), gamma)


class TestEval:
    def test_energy_at_3_4(self):
        q = energy(2)
        assert q(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_constant_only(self):
        q = QuadraticFn(np.zeros((2, 2)), np.zeros(2), 7.0)
        assert q(np.array([5.0, -2.0])) == 7.0

    def test_scalar(self):
        assert q1d(2.0, 1.0)(np.array([1.0])) == pytest.approx(2.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            energy(2)(np.array([1.0]))


def call_reference(q, x):
    """``QuadraticFn.__call__`` as it was: validate through ``as_vector``,
    then the one expression."""
    v = linalg.as_vector(x, q.dim)
    return float(0.5 * v @ q.A @ v + q.b @ v + q.gamma)


def direct_sum_reference(ds, x):
    """``DirectSum.__call__`` as it was: every quadratic block validated again."""
    v = linalg.as_vector(x, ds.dim)
    total = 0.0
    for part, d, off in zip(ds.parts, ds.dims, ds.offsets[:-1]):
        block = v[off : off + d]
        total += call_reference(part, block) if isinstance(part, QuadraticFn) else float(part(float(block[0])))
    return total


def bad_points(dim):
    """One input of each class the point check rejects, for a ``dim``-point."""
    nan = np.zeros(dim)
    nan[-1] = np.nan
    return {
        "nan": nan,
        "inf": np.full(dim, np.inf),
        "-inf": np.full(dim, -np.inf),
        "nan_and_wrong_length": np.full(dim + 1, np.nan),
        "wrong_length": np.ones(dim + 1),
        "0-D": np.array(1.0),
        "2-D": np.ones((1, dim)),
        "empty": np.array([]),
        "list": [np.inf] + [0.0] * (dim - 1),
        "tuple": (1.0,) * (dim + 2),
        "overflowing_int": [10**400] * dim,
        "string": ["a"] * dim,
    }


def raised(fn, x):
    with pytest.raises(Exception) as info:
        fn(x)
    return info.type, str(info.value)


class TestCallChecksOnce:
    # __call__ checks its point once: a finite point of shape (dim,) goes
    # straight to the expression, anything else through as_vector
    def test_call_is_bitwise_the_old_call(self, rng):
        for d in range(1, 33):
            a = rng.standard_normal((d, d))
            for mat in (random_pd_matrix(rng, d), a + a.T):
                q = QuadraticFn(mat, rng.uniform(-3, 3, d), rng.uniform(-3, 3))
                for scale in (1e-300, 1e-3, 1.0, 1e3, 1e150):
                    for x in scale * rng.standard_normal((8, d)):
                        points = [x, list(x), tuple(x)]
                        if 1e-3 <= scale <= 1e3:
                            points.append(x.astype(np.float32))
                        for point in points:
                            got, want = q(point), call_reference(q, point)
                            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_direct_sum_is_bitwise_the_old_call(self, rng):
        for d in range(1, 33):
            parts = [
                QuadraticFn(random_pd_matrix(rng, k), rng.uniform(-3, 3, k), rng.uniform(-3, 3))
                for k in (d, 1, max(1, d // 2))
            ]
            for ds in (direct_sum(parts), direct_sum(parts + [lambda t: abs(t) ** 1.5])):
                for x in rng.uniform(-5, 5, (8, ds.dim)):
                    got, want = ds(x), direct_sum_reference(ds, x)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_bad_points_raise_what_as_vector_raises(self, dim):
        q = energy(dim)
        ds = direct_sum([energy(1)] * dim)
        for name, x in bad_points(dim).items():
            want = raised(lambda y: linalg.as_vector(y, dim), x)
            assert raised(q, x) == want, name
            assert raised(ds, x) == want, name

    def test_non_finite_point_raises_value_error_and_never_warns(self):
        q = QuadraticFn(np.array([[1.0, 2.0], [2.0, -3.0]]), np.ones(2), 1.0)
        ds = direct_sum([q, energy(1)])
        for bad in (np.nan, np.inf, -np.inf):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="vector entries must be finite"):
                    q(np.array([1.0, bad]))
                with pytest.raises(ValueError, match="vector entries must be finite"):
                    ds(np.array([bad, 0.0, 1.0]))
            assert caught == []

    def test_overflowing_finite_point_behaves_as_before(self):
        q = QuadraticFn(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, -1.0]), 0.0)
        for x in ([1e200, 1.0], [1.0, 1e200], [1e200, 1e200], [1e308, -1e308]):
            outcomes = []
            for fn in (q, lambda y: call_reference(q, y)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    value = np.float64(fn(np.array(x))).tobytes()
                outcomes.append((value, [(w.category, str(w.message)) for w in caught]))
            assert outcomes[0] == outcomes[1]
            with pytest.raises(RuntimeWarning):  # the suite's filter turns it into an error
                q(np.array(x))


EPS = np.finfo(float).eps


def _term_scale(q, xs):
    """1 + the sum of the absolute terms of q at each row: the size of the
    rounding error any evaluation order can make."""
    quad = 0.5 * np.einsum("ij,ij->i", np.abs(xs) @ np.abs(q.A), np.abs(xs))
    return 1.0 + quad + np.abs(xs) @ np.abs(q.b) + abs(q.gamma)


class TestValues:
    # values sums in another order than __call__, so the two agree to
    # rounding, not bitwise.  On positive definite quadratics (the solutions
    # and envelopes the residual checks evaluate) the gap stays within
    # 64 ulps of 1 + |value| (34 measured at dims 1-40); on indefinite ones,
    # where the terms cancel, within 2 dim ulps of the term scale.
    def test_agrees_with_call_positive_definite(self, rng):
        for d in range(1, 41):
            q = QuadraticFn(random_pd_matrix(rng, d), rng.uniform(-3, 3, d), rng.uniform(-3, 3))
            xs = rng.uniform(-3.0, 3.0, (25, d))
            ref = np.array([q(x) for x in xs])
            got = q.values(xs)
            assert got.shape == (25,)
            assert np.all(np.abs(got - ref) <= 64 * EPS * (1.0 + np.abs(ref)))

    def test_agrees_with_call_indefinite(self, rng):
        for d in range(1, 41):
            a = rng.standard_normal((d, d))
            q = QuadraticFn(5.0 * (a + a.T), rng.uniform(-3, 3, d), rng.uniform(-3, 3))
            xs = rng.uniform(-3.0, 3.0, (25, d))
            ref = np.array([q(x) for x in xs])
            assert np.all(np.abs(q.values(xs) - ref) <= 2 * d * EPS * _term_scale(q, xs))

    def test_examples(self):
        q = energy(2)
        np.testing.assert_array_equal(q.values([[3.0, 4.0], [0.0, 0.0]]), [12.5, 0.0])
        const = QuadraticFn(np.zeros((2, 2)), np.zeros(2), 7.0)
        np.testing.assert_array_equal(const.values([[5.0, -2.0]]), [7.0])
        assert q.values(np.zeros((0, 2))).shape == (0,)

    def test_rejects_what_call_rejects(self):
        q = energy(2)
        with pytest.raises(DimMismatch):
            q.values(np.array([1.0, 2.0]))  # one point, not a (K, 2) array
        with pytest.raises(DimMismatch):
            q.values(np.ones((3, 3)))
        with pytest.raises(DimMismatch):
            q(np.ones(3))
        for bad in (np.nan, np.inf, -np.inf):
            xs = np.zeros((3, 2))
            xs[1, 0] = bad
            with pytest.raises(ValueError) as batched:
                q.values(xs)
            with pytest.raises(ValueError) as single:
                q(xs[1])
            assert batched.type is single.type is ValueError

    @pytest.mark.parametrize(
        "a, b, x", [([[5e307]], [0.0], [[3.0]]), ([[5e307]], [-1e308], [[3.0]])], ids=["inf", "nan"]
    )
    def test_overflow_is_out_of_range(self, a, b, x):
        # einsum sets no floating-point flag: the value was inf (or, with a
        # slope term of the other sign, NaN) with no warning
        with np.errstate(all="ignore"), pytest.raises(OutOfRange, match="overflows the float range"):
            QuadraticFn(a, b).values(x)


class TestConjugate:
    def test_energy_is_self_conjugate(self):
        q = energy(3)
        qs = conjugate_quadratic(q)
        np.testing.assert_allclose(qs.A, q.A, atol=1e-14)
        np.testing.assert_allclose(qs.b, q.b, atol=1e-14)
        assert qs.gamma == pytest.approx(0.0, abs=1e-14)

    def test_scalar_reciprocal(self):
        qs = conjugate_quadratic(q1d(2.0, 0.0))
        assert qs.A[0, 0] == pytest.approx(0.5)

    def test_affine_shift(self):
        qs = conjugate_quadratic(q1d(1.0, 1.0))
        assert qs.A[0, 0] == pytest.approx(1.0)
        assert qs.b[0] == pytest.approx(-1.0)
        assert qs.gamma == pytest.approx(0.5)

    def test_affine_shift_against_grid_oracle(self):
        # brute-force discrete conjugation of samples of x^2/2 + x
        q = q1d(1.0, 1.0)
        xs = np.arange(-8.0, 8.0 + 1e-12, 0.01)
        f = SampledFn(xs, 0.5 * xs**2 + xs)
        slopes = np.linspace(-5.0, 5.0, 41)
        star = brute_conjugate(f, slopes)
        exact = conjugate_quadratic(q)
        for s, v in zip(star.points, star.values):
            assert v == pytest.approx(exact(np.array([s])), abs=1e-4)

    def test_biconjugation_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            q = QuadraticFn(random_pd_matrix(rng, n), rng.uniform(-2, 2, n), rng.uniform(-2, 2))
            back = conjugate_quadratic(conjugate_quadratic(q))
            assert np.max(np.abs(back.A - q.A)) <= 1e-10
            assert np.max(np.abs(back.b - q.b)) <= 1e-10
            assert abs(back.gamma - q.gamma) <= 1e-10

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefinite):
            conjugate_quadratic(QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), 0.0))


class TestApplyTransform:
    def test_identity_params_fix_energy(self):
        p = TransformParams(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 0.0)
        out = apply_transform(p, energy(2))
        np.testing.assert_allclose(out.A, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(out.b, np.zeros(2), atol=1e-14)
        assert out.gamma == pytest.approx(0.0, abs=1e-14)

    def test_tau_4_scalar_fixed_point(self):
        p = TransformParams(np.eye(1), np.zeros(1), np.zeros(1), 4.0, 0.0)
        out = apply_transform(p, q1d(2.0, 0.0))
        assert out.A[0, 0] == pytest.approx(2.0)
        assert out.b[0] == pytest.approx(0.0)
        assert out.gamma == pytest.approx(0.0)

    def test_affine_params_fixed_point(self):
        # tau f*(x + 1) + x reproduces x^2/2 + x: hand expansion (x+1-1)^2/2 + x
        p = TransformParams(np.eye(1), np.ones(1), np.ones(1), 1.0, 0.0)
        q = q1d(1.0, 1.0)
        out = apply_transform(p, q)
        assert out.A[0, 0] == pytest.approx(1.0)
        assert out.b[0] == pytest.approx(1.0)
        assert out.gamma == pytest.approx(0.0, abs=1e-14)
        # second code path: conjugate then evaluate pointwise
        qs = conjugate_quadratic(q)
        for x in sample_points(1, 10, seed=3):
            direct = p.tau * qs(p.E @ x + p.c) + float(p.w @ x) + p.beta
            assert out(x) == pytest.approx(direct, abs=1e-12)

    def test_agrees_with_pointwise_substitution(self, rng):
        for _ in range(15):
            p = random_pd_instance(rng, max_dim=5)
            q = QuadraticFn(
                random_pd_matrix(rng, p.dim), rng.uniform(-2, 2, p.dim), rng.uniform(-2, 2)
            )
            out = apply_transform(p, q)
            qs = conjugate_quadratic(q)
            for x in sample_points(p.dim, 20, seed=11):
                direct = p.tau * qs(p.E @ x + p.c) + float(p.w @ x) + p.beta
                assert abs(out(x) - direct) <= 1e-10 * max(1.0, abs(direct))


class TestDualParams:
    def test_identity(self):
        d = dual_params(TransformParams(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 0.0))
        np.testing.assert_allclose(d.H, np.eye(2))
        np.testing.assert_allclose(d.v, np.zeros(2))
        np.testing.assert_allclose(d.z, np.zeros(2))
        assert d.rho == 0.0

    def test_tau_scaling(self):
        d = dual_params(TransformParams(np.eye(2), np.zeros(2), np.zeros(2), 2.0, 0.0))
        np.testing.assert_allclose(d.H, 0.5 * np.eye(2))
        np.testing.assert_allclose(d.v, np.zeros(2))
        np.testing.assert_allclose(d.z, np.zeros(2))
        assert d.rho == 0.0

    def test_scalar_example(self):
        d = dual_params(TransformParams([[2.0]], [1.0], [3.0], 1.0, 5.0))
        assert d.H[0, 0] == pytest.approx(0.5)
        assert d.v[0] == pytest.approx(-1.5)
        assert d.z[0] == pytest.approx(-0.5)
        assert d.rho == pytest.approx(-3.5)

    def test_conjugate_of_transformed_computed_two_ways(self, rng):
        # (T q)* via closed-form conjugation must equal tau q(H s + v) + <z, s> + rho,
        # including at tau != 1 where the scalar factors on z and rho matter.
        for tau in (0.5, 1.0, 2.0, 4.0):
            p = TransformParams(
                random_pd_matrix(rng, 2), rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2), tau, 1.3
            )
            q = QuadraticFn(random_pd_matrix(rng, 2), rng.uniform(-2, 2, 2), 0.7)
            lhs = conjugate_quadratic(apply_transform(p, q))
            d = dual_params(p)
            for s in sample_points(2, 25, seed=5):
                rhs = tau * q(d.H @ s + d.v) + float(d.z @ s) + d.rho
                assert lhs(s) == pytest.approx(rhs, abs=1e-9)

    def test_symmetric_e_is_inverted_from_its_spectrum(self, invert_counter):
        dual_params(TransformParams(np.diag([2.0, -1.0, 3.0]), [1.0, 0, 0], [0, 2.0, 0], 2.5, 0.5))
        assert invert_counter.calls == 0

    def test_non_symmetric_e_keeps_the_svd_inverse(self, invert_counter):
        dual_params(TransformParams([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0], [0.0, 2.0], 2.0, 0.5))
        assert invert_counter.calls == 1

    def test_spectral_route_agrees_with_the_svd_route(self, monkeypatch):
        # On the 300 positive definite and indefinite acceptance instances each
        # coefficient from the cached spectrum is within 4 cond(E) n eps of the
        # SVD route's, relative to max|E^{-1}|/tau for H, that times ||w||_1
        # for v, max|E^{-1}| ||c||_1 for z and that times max|w| for rho
        # (measured: at most 2.4 cond(E) n eps)
        eps = np.finfo(float).eps
        instances = [p for p, _sol in pd_corpus() + indefinite_corpus()]
        spectral = [dual_params(p) for p in instances]
        monkeypatch.setattr(TransformParams, "e_inverse", lambda p, tol: invert(p.E, tol))
        for p, d in zip(instances, spectral):
            ref = dual_params(p)
            bound = 4.0 * np.linalg.cond(p.E) * p.dim * eps
            e_inv = np.max(np.abs(invert(p.E)))
            c1, w1, w_max = np.sum(np.abs(p.c)), np.sum(np.abs(p.w)), np.max(np.abs(p.w))
            assert np.max(np.abs(d.H - ref.H)) <= bound * e_inv / p.tau
            assert np.max(np.abs(d.v - ref.v)) <= bound * e_inv / p.tau * w1
            assert np.max(np.abs(d.z - ref.z)) <= bound * e_inv * c1
            assert abs(d.rho - ref.rho) <= bound * e_inv * c1 * w_max


class TestConvexity:
    # a quadratic is convex iff its leading coefficient is PSD, and strictly
    # convex iff it is positive definite
    def test_examples(self):
        assert energy(2).spectrum.positive_definite()
        flat = QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), 0.0)
        assert flat.spectrum.psd() and not flat.spectrum.positive_definite()
        saddle = QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0)
        assert not saddle.spectrum.psd()

    def test_band_edge_is_convex_as_psd_says(self):
        # an eigenvalue exactly at -pd counts as zero: convex, not strictly
        edge = QuadraticFn(np.diag([1.0, -DEFAULT_TOL.pd]), np.zeros(2), 0.0)
        assert edge.spectrum.psd()
        assert not edge.spectrum.positive_definite()


class TestDirectSum:
    def test_two_energies_make_energy(self):
        ds = direct_sum([energy(1), energy(1)])
        q = ds.as_quadratic()
        np.testing.assert_allclose(q.A, np.eye(2))
        assert ds(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_blockwise_conjugation(self):
        ds = direct_sum([q1d(2.0, 0.0), q1d(0.5, 0.0)])
        qs = conjugate_quadratic(ds.as_quadratic())
        np.testing.assert_allclose(qs.A, np.diag([0.5, 2.0]), atol=1e-14)

    def test_scalar_callable_parts(self):
        ds = direct_sum([energy(1), lambda t: abs(t)])
        assert ds(np.array([2.0, -3.0])) == pytest.approx(2.0 + 3.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyList):
            direct_sum([])


class TestOrderAndInequalities:
    def test_order_reversal(self, rng):
        # if q1 <= q2 pointwise then q1* >= q2* pointwise
        for _ in range(10):
            n = int(rng.integers(1, 5))
            q1 = QuadraticFn(random_pd_matrix(rng, n), rng.uniform(-1, 1, n), rng.uniform(-1, 1))
            bump_a = random_pd_matrix(rng, n, lo=0.2, hi=1.0)
            bump_b = rng.uniform(-0.5, 0.5, n)
            bump_floor = 0.5 * float(bump_b @ np.linalg.solve(bump_a, bump_b))
            q2 = QuadraticFn(q1.A + bump_a, q1.b + bump_b, q1.gamma + bump_floor + rng.uniform(0, 1))
            pts = sample_points(n, 100, seed=7)
            assert all(q1(x) <= q2(x) + 1e-9 for x in pts)
            s1, s2 = conjugate_quadratic(q1), conjugate_quadratic(q2)
            assert all(s1(x) >= s2(x) - 1e-9 for x in pts)

    def test_fenchel_young(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            q = QuadraticFn(random_pd_matrix(rng, n), rng.uniform(-2, 2, n), rng.uniform(-2, 2))
            qs = conjugate_quadratic(q)
            xs = sample_points(n, 50, seed=13)
            ss = sample_points(n, 50, seed=17)
            for x, s in zip(xs, ss):
                assert q(x) + qs(s) >= float(s @ x) - 1e-9
