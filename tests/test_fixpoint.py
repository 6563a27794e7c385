import numpy as np
import pytest

from conftest import random_indefinite_matrix, random_orthogonal, random_pd_instance
from fenchelfix import (
    BadDeterminant,
    DimMismatch,
    NotInvolution,
    NotPSD,
    NotSymmetric,
    QuadraticFn,
    Singular,
    Tag,
    TransformParams,
    apply_transform,
    check_involution_psd,
    classify,
    eigendecompose,
    energy,
    functional_differential_residual,
    functional_eq_residual,
    g_scaling_residual,
    invert,
    is_strictly_convex,
    lower_envelope,
    quarter_turn_params,
    sample_points,
    self_adjoint_system,
    shift_equation_residual,
    skew_solution,
    solve_lql,
    solve_positive_definite,
    solve_self_adjoint,
    solve_symmetric,
    transform_residual,
    upper_envelope,
    verify_form_quadratic,
    x0_point,
)
from fenchelfix import linalg
from fenchelfix.reports import report_from_residuals


def forbid_invert(monkeypatch):
    def invert(*args, **kwargs):
        raise AssertionError("linalg.invert must not be called")

    monkeypatch.setattr(linalg, "invert", invert)


def identity_params(n=2, tau=1.0, beta=0.0):
    return TransformParams(np.eye(n), np.zeros(n), np.zeros(n), tau, beta)


class TestSolvePositiveDefinite:
    def test_energy_fixed_point(self):
        sol = solve_positive_definite(identity_params())
        np.testing.assert_allclose(sol.A, np.eye(2))
        np.testing.assert_allclose(sol.b, np.zeros(2))
        assert sol.gamma == 0.0

    def test_tau_4_scalar(self):
        sol = solve_positive_definite(TransformParams(np.eye(1), [0.0], [0.0], 4.0, 0.0))
        assert sol.A[0, 0] == pytest.approx(2.0)

    def test_equal_offsets_give_b_equal_c(self):
        p = TransformParams(np.eye(2), [1.0, 0.0], [1.0, 0.0], 1.0, 0.0)
        sol = solve_positive_definite(p)
        np.testing.assert_allclose(sol.b, [1.0, 0.0])
        assert sol.gamma == pytest.approx(0.0, abs=1e-15)

    def test_soundness_on_random_instances(self, rng):
        for _ in range(40):
            p = random_pd_instance(rng)
            sol = solve_positive_definite(p)
            pts = sample_points(p.dim, 100, seed=1)
            assert transform_residual(p, sol, pts).max_abs <= 1e-8
            assert is_strictly_convex(sol)


class TestSolveSelfAdjoint:
    def test_mixed_signs_give_energy(self):
        p = TransformParams(np.diag([1.0, -1.0]), np.zeros(2), np.zeros(2), 1.0, 0.0)
        sol = solve_self_adjoint(p)
        np.testing.assert_allclose(sol.A, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sol.b, np.zeros(2), atol=1e-12)
        assert sol.gamma == pytest.approx(0.0, abs=1e-14)

    def test_inconsistent_slope_system(self):
        p = TransformParams([[-1.0]], [0.0], [1.0], 1.0, 0.0)
        assert solve_self_adjoint(p) is None
        _, m, rhs = self_adjoint_system(p)
        assert np.allclose(m, 0.0) and rhs[0] == pytest.approx(1.0)

    def test_sign_flip_without_linear_term(self):
        p = TransformParams([[-1.0]], [0.0], [0.0], 1.0, 0.0)
        sol = solve_self_adjoint(p)
        assert sol.A[0, 0] == pytest.approx(1.0)
        assert sol.b[0] == pytest.approx(0.0)
        assert sol.gamma == pytest.approx(0.0)

    def test_indefinite_soundness(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            e = random_indefinite_matrix(rng, n)
            tau = float(rng.choice([0.5, 2.0, 5.0]))
            p = TransformParams(e, rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), tau, 0.5)
            sol = solve_self_adjoint(p)
            assert sol is not None  # tau != 1 keeps the slope system invertible
            pts = sample_points(n, 100, seed=2)
            assert transform_residual(p, sol, pts).max_abs <= 1e-8


class TestVerifyFormQuadratic:
    def test_solved_instance_is_clean(self, rng):
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        assert verify_form_quadratic(p, sol).max_abs <= 1e-9

    def test_energy_identity_is_exact(self):
        assert verify_form_quadratic(identity_params(), energy(2)).max_abs == 0.0

    def test_perturbed_leading_coefficient_is_flagged(self, rng):
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        spoiled = QuadraticFn(sol.A + 0.1 * np.eye(p.dim), sol.b, sol.gamma)
        assert verify_form_quadratic(p, spoiled).max_abs > 0.05


class TestClassify:
    def test_energy_is_unique_everywhere(self):
        out = classify(identity_params())
        assert out.tag is Tag.UNIQUE_ALL_FUNCTIONS
        np.testing.assert_allclose(out.solution.A, np.eye(2))

    def test_tau_2_is_c2_unique_with_x0(self):
        out = classify(identity_params(tau=2.0))
        assert out.tag is Tag.UNIQUE_IN_C2_CLASS
        np.testing.assert_allclose(out.x0, np.zeros(2), atol=1e-14)

    def test_x0_formula(self):
        p = TransformParams(np.diag([2.0, 1.0]), [1.0, 0.0], [3.0, 2.0], 3.0, 0.0)
        expected = (invert(p.E) @ p.w - invert(p.E) @ p.c) / (1.0 - p.tau)
        np.testing.assert_allclose(x0_point(p), expected)

    def test_unequal_offsets_quadratic_class(self):
        out = classify(TransformParams(np.eye(2), [1.0, 0.0], [0.0, 1.0], 1.0, 0.0))
        assert out.tag is Tag.UNIQUE_IN_QUADRATIC_INVERTIBLE_CLASS

    def test_nonexistence_patterns(self):
        out = classify(TransformParams(-np.eye(1), [0.0], [1.0], 1.0, 0.0))
        assert out.tag is Tag.NO_SOLUTION
        out = classify(TransformParams(-np.eye(2), [0.5, 0.0], np.zeros(2), 1.0, 0.0))
        assert out.tag is Tag.NO_SOLUTION

    def test_indefinite_constructions(self):
        out = classify(TransformParams(np.diag([1.0, -1.0]), np.zeros(2), np.zeros(2), 1.0, 0.0))
        assert out.tag is Tag.QUADRATIC_SOLUTION_EXISTS
        out = classify(TransformParams([[-1.0]], [0.0], [1.0], 1.0, 0.0))
        assert out.tag is Tag.NO_SOLUTION  # pattern beats the construction probe
        out = classify(TransformParams([[-1.0]], [0.0], [1.0], 1.0, 1.0))
        assert out.tag is Tag.NO_QUADRATIC_SOLUTION_IN_CONSTRUCTION  # beta breaks the pattern

    def test_non_symmetric_is_undetermined(self):
        out = classify(quarter_turn_params())
        assert out.tag is Tag.UNDETERMINED

    def test_undetermined_candidate_scan_hook(self):
        out = classify(quarter_turn_params(), candidate=energy(2))
        assert "candidate residual" in out.note

    def test_singular_e_raises(self):
        with pytest.raises(Singular):
            classify(TransformParams(np.diag([1.0, 0.0]), np.zeros(2), np.zeros(2), 1.0, 0.0))

    def test_no_solution_agrees_with_construction(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            w = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
            p = TransformParams(-np.eye(n), np.zeros(n), w, 1.0, 0.0)
            assert classify(p).tag is Tag.NO_SOLUTION
            assert solve_self_adjoint(p) is None


# fresh parameters per call: the spectrum is cached on each object
BRANCHES = {
    Tag.UNIQUE_ALL_FUNCTIONS: lambda: TransformParams(
        np.diag([3.0, 1.0, 2.0]), [1.0, 0, 0], [1.0, 0, 0], 1.0, 0.5
    ),
    Tag.UNIQUE_IN_C2_CLASS: lambda: TransformParams(
        np.diag([3.0, 1.0, 2.0]), [1.0, 0, 0], [0, 2.0, 0], 2.5, 0.5
    ),
    Tag.UNIQUE_IN_QUADRATIC_INVERTIBLE_CLASS: lambda: TransformParams(
        [[2.0, 0.5], [0.5, 1.0]], [1.0, 0.0], [0.0, 1.0], 1.0, 0.0
    ),
    Tag.QUADRATIC_SOLUTION_EXISTS: lambda: TransformParams(
        np.diag([1.0, -2.0, 3.0]), [1.0, 0, 0], [0, 1.0, 0], 2.0, 0.0
    ),
    Tag.NO_SOLUTION: lambda: TransformParams(-np.eye(2), np.zeros(2), [1.0, 0.0], 1.0, 0.0),
    Tag.NO_QUADRATIC_SOLUTION_IN_CONSTRUCTION: lambda: TransformParams([[-1.0]], [0.0], [1.0], 1.0, 1.0),
    Tag.UNDETERMINED: quarter_turn_params,
}


class TestOneSpectrumPerProblem:
    @pytest.mark.parametrize("tag", list(BRANCHES), ids=lambda t: t.value)
    def test_classify_decomposes_e_at_most_once(self, decompose_counter, tag):
        p = BRANCHES[tag]()
        assert classify(p).tag is tag
        assert decompose_counter.of(p.E) <= 1
        assert len(decompose_counter.seen) <= 1  # nothing else is decomposed either
        classify(p)
        assert len(decompose_counter.seen) <= 1  # the spectrum is cached on p

    @pytest.mark.parametrize(
        "tag", [t for t in BRANCHES if t is not Tag.UNDETERMINED], ids=lambda t: t.value
    )
    def test_solve_after_classify_reuses_the_spectrum(self, decompose_counter, tag):
        p = BRANCHES[tag]()
        outcome = classify(p)
        solution = solve_symmetric(p)
        assert decompose_counter.of(p.E) == 1
        assert len(decompose_counter.seen) == 1
        if outcome.solution is not None:
            np.testing.assert_array_equal(solution.A, outcome.solution.A)
            np.testing.assert_array_equal(solution.b, outcome.solution.b)
            assert solution.gamma == outcome.solution.gamma

    def test_residual_checks_reuse_the_spectra(self, decompose_counter):
        p = BRANCHES[Tag.UNIQUE_IN_C2_CLASS]()
        sol = classify(p).solution
        pts = sample_points(3, 20, seed=1)
        transform_residual(p, sol, pts)
        functional_differential_residual(p, sol, pts)
        verify_form_quadratic(p, sol)
        upper_envelope(p)
        g_scaling_residual(p, sol, sol, pts)
        assert decompose_counter.of(p.E) == 1
        assert decompose_counter.of(sol.A) == 1
        # the only other decomposition is that of the lower envelope's
        # leading coefficient, a new quadratic built by upper_envelope
        assert len(decompose_counter.seen) == 3

    def test_solve_symmetric_rejects_asymmetric_e(self):
        with pytest.raises(NotSymmetric):
            solve_symmetric(quarter_turn_params())


class TestResiduals:
    def test_energy_residual_zero(self):
        pts = sample_points(2, 100, seed=4)
        assert transform_residual(identity_params(), energy(2), pts).max_abs == 0.0

    def test_skew_identity_residual(self):
        pts = sample_points(2, 100, seed=5)
        rep = transform_residual(quarter_turn_params(), energy(2), pts)
        assert rep.max_abs <= 1e-12

    def test_functional_eq_zero_for_energy(self):
        pts = sample_points(2, 50, seed=6)
        for variant in ("Tsquared", "General", "SelfAdjoint"):
            rep = functional_eq_residual(identity_params(), energy(2), variant, pts)
            assert rep.max_abs == 0.0

    def test_functional_eq_on_solved_tau2(self, rng):
        p = TransformParams(
            np.eye(3) + 0.2 * np.diag([1.0, 0.5, 0.0]), [1.0, -0.5, 0.2], [0.3, 0.1, -1.0], 2.0, 0.7
        )
        sol = solve_positive_definite(p)
        pts = sample_points(3, 100, seed=7)
        for variant in ("Tsquared", "General", "SelfAdjoint"):
            assert functional_eq_residual(p, sol, variant, pts).max_abs <= 1e-8

    def test_functional_eq_detects_non_solution(self):
        # the energy function with beta = 1, tau = 2 is not a fixed point;
        # the forward identity then misses by exactly |beta (1 - tau)| = 1
        p = identity_params(tau=2.0, beta=1.0)
        pts = sample_points(2, 50, seed=8)
        rep = functional_eq_residual(p, energy(2), "SelfAdjoint", pts)
        assert rep.max_abs == pytest.approx(1.0, abs=1e-12)
        assert rep.mean_abs == pytest.approx(1.0, abs=1e-12)

    def test_functional_eq_rejects_unknown_variant_before_inverting(self, monkeypatch):
        p = TransformParams(np.diag([1.0, 0.0]), np.zeros(2), np.zeros(2), 2.0, 0.0)
        pts = sample_points(2, 10, seed=8)
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            functional_eq_residual(p, energy(2), "bogus", pts)
        forbid_invert(monkeypatch)
        with pytest.raises(ValueError, match="unknown variant"):
            functional_eq_residual(identity_params(), energy(2), "bogus", pts)

    def test_functional_eq_self_adjoint_rejects_asymmetric_before_inverting(self, monkeypatch):
        p = TransformParams([[1.0, 1.0], [0.0, 0.0]], np.zeros(2), np.zeros(2), 2.0, 0.0)
        pts = sample_points(2, 10, seed=8)
        with pytest.raises(NotSymmetric):
            functional_eq_residual(p, energy(2), "SelfAdjoint", pts)
        forbid_invert(monkeypatch)
        with pytest.raises(NotSymmetric):
            functional_eq_residual(quarter_turn_params(), energy(2), "SelfAdjoint", pts)

    def test_shift_equation(self):
        pts = np.linspace(-2.0, 2.0, 9)
        rep = shift_equation_residual(lambda x: 0.5 * x * x, 1.0, [0.0])
        assert rep.max_abs == pytest.approx(0.5)
        rep = shift_equation_residual(lambda x: 0.5 * x * x, 0.0, pts)
        assert rep.max_abs == 0.0
        rep = shift_equation_residual(lambda x: x, 1.0, pts)
        np.testing.assert_allclose(rep.max_abs, np.max(np.abs(-1.0 - pts)))

    def test_functional_differential(self, rng):
        pts = sample_points(2, 50, seed=9)
        assert functional_differential_residual(identity_params(), energy(2), pts).max_abs == 0.0
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        pts = sample_points(p.dim, 100, seed=10)
        assert functional_differential_residual(p, sol, pts).max_abs <= 1e-9
        bogus = QuadraticFn(3.0 * np.eye(2), np.zeros(2), 0.0)
        unit = sample_points(2, 50, seed=11, radius=1.0)
        assert functional_differential_residual(identity_params(), bogus, unit).max_abs > 0.1


def _pointwise_transform_residuals(p, q, pts):
    tq = apply_transform(p, q)
    return np.array([q(x) - tq(x) for x in pts])


def _pointwise_differential_residuals(p, q, pts):
    a_inv = invert(q.A)
    out = []
    for x in pts:
        y = p.E @ x + p.c
        u = a_inv @ (y - q.b)
        out.append(q(x) - (p.tau * (float(y @ u) - q(u)) + float(p.w @ x) + p.beta))
    return np.array(out)


def _off_solution(p):
    """A quadratic near the solution that is not one, so residuals are O(1)."""
    sol = solve_positive_definite(p)
    return QuadraticFn(1.1 * sol.A, sol.b + 0.25, sol.gamma - 0.5)


# The batched residuals evaluate in another order than the per-point
# formulas, so reports agree to rounding, not bitwise.  On these instances
# (tau up to 5, points within radius 3) every compared value stays below
# about 3e3, so 1e-11 is some 16 ulps of the largest; the measured gaps
# stay below 5e-13 over 200 instances.
AGREE = 1e-11


def _agree(rep, ref):
    assert rep.sample_points == ref.sample_points
    assert abs(rep.max_abs - ref.max_abs) <= AGREE
    assert abs(rep.mean_abs - ref.mean_abs) <= AGREE


class TestBatchedResiduals:
    def test_transform_residual_matches_pointwise(self, rng):
        for _ in range(20):
            p = random_pd_instance(rng)
            pts = sample_points(p.dim, 60, seed=40)
            for q in (solve_positive_definite(p), _off_solution(p)):
                ref = _pointwise_transform_residuals(p, q, pts)
                _agree(transform_residual(p, q, pts), report_from_residuals(ref, pts))

    def test_differential_residual_matches_pointwise(self, rng):
        for _ in range(20):
            p = random_pd_instance(rng)
            pts = sample_points(p.dim, 60, seed=41)
            for q in (solve_positive_definite(p), _off_solution(p)):
                ref = _pointwise_differential_residuals(p, q, pts)
                _agree(functional_differential_residual(p, q, pts), report_from_residuals(ref, pts))

    def test_functional_eq_quadratic_and_callable_agree(self, rng):
        for _ in range(20):
            p = random_pd_instance(rng)
            pts = sample_points(p.dim, 60, seed=42)
            for q in (solve_positive_definite(p), _off_solution(p)):
                for variant in ("Tsquared", "General", "SelfAdjoint"):
                    _agree(
                        functional_eq_residual(p, q, variant, pts),
                        functional_eq_residual(p, lambda x: q(x), variant, pts),
                    )

    def test_g_scaling_quadratic_and_callable_agree(self, rng):
        for _ in range(20):
            p = random_pd_instance(rng)
            sol, other = solve_positive_definite(p), _off_solution(p)
            pts = sample_points(p.dim, 60, seed=43)
            _agree(
                g_scaling_residual(p, other, sol, pts),
                g_scaling_residual(p, lambda x: other(x), lambda x: sol(x), pts),
            )

    def test_callable_is_called_once_per_row(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return 0.5 * float(x @ x)

        pts = sample_points(2, 30, seed=44)
        functional_eq_residual(identity_params(), f, "General", pts)
        assert calls == [(2,)] * 60

    def test_quadratic_residuals_make_no_pointwise_calls(self, rng, eval_counter):
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        pts = sample_points(p.dim, 100, seed=45)
        transform_residual(p, sol, pts)
        for variant in ("Tsquared", "General", "SelfAdjoint"):
            functional_eq_residual(p, sol, variant, pts)
        functional_differential_residual(p, sol, pts)
        g_scaling_residual(p, sol, sol, pts)
        assert eval_counter.calls == 0
        functional_eq_residual(p, lambda x: sol(x), "General", pts)
        assert eval_counter.calls == 200

    def test_rejects_bad_points(self):
        p = identity_params()
        with pytest.raises(DimMismatch):
            transform_residual(p, energy(2), np.ones((4, 3)))
        with pytest.raises(DimMismatch):
            functional_differential_residual(p, energy(2), np.ones((4, 3)))
        with pytest.raises(ValueError):
            transform_residual(p, energy(2), [[0.0, np.nan]])


class TestRelativeResidual:
    C = [0.5, -1.0, 2.0]
    W = [1.0, 0.3, -0.2]

    def test_only_the_transform_residual_is_relative(self):
        pts = sample_points(2, 20, seed=46)
        p = identity_params(tau=2.0)
        sol = solve_positive_definite(p)
        assert transform_residual(p, sol, pts).max_rel is not None
        assert functional_eq_residual(p, sol, "General", pts).max_rel is None
        assert functional_differential_residual(p, sol, pts).max_rel is None

    def test_off_solution_value(self):
        # for E = I, tau = 1, beta = 1 the transform of the energy is the
        # energy plus 1, so the gap is 1 everywhere: relative to
        # 1 + |q| + |Tq| it is 1/2 at the origin and 1/27 at (3, 4)
        rep = transform_residual(identity_params(beta=1.0), energy(2), [[3.0, 4.0], [0.0, 0.0]])
        assert rep.max_abs == 1.0
        assert rep.max_rel == 0.5

    @pytest.mark.parametrize(
        "e, tau",
        [
            (np.eye(3), 1e12),
            (1e-6 * np.eye(3), 2.0),
            (np.diag([1e-6, 1.0, 1e6]), 2.0),
            (np.diag([1e-6, 1.0, 1e6]), 1e12),
            (np.diag([1e-3, -1.0, 1e3]), 2.0),
            (np.diag([2.0, -1.0, 0.5]), 1e12),
        ],
        ids=["tau1e12", "E1e-6", "graded", "graded_tau1e12", "graded_indefinite", "indefinite_tau1e12"],
    )
    def test_extreme_scales(self, e, tau):
        # the absolute residual of these exact solutions grows with the scale
        # of tau, E and the values (up to about 6e-5 here); the relative one
        # stays near 1e-15, except 5.8e-13 for the graded E at tau = 1e12,
        # whose transform inverts a 1e12-conditioned A
        p = TransformParams(e, self.C, self.W, tau, 0.7)
        sol = solve_symmetric(p)
        rep = transform_residual(p, sol, sample_points(3, 100, seed=31))
        assert rep.max_rel <= 1e-12

    def test_large_values(self):
        p = TransformParams(np.eye(3), [1e6, -1e6, 0.0], [1e6, 0.0, 3e5], 2.0, 1e9)
        rep = transform_residual(p, solve_symmetric(p), sample_points(3, 100, seed=31))
        assert rep.max_abs > 1e-9  # the absolute gate would fail this exact solution
        assert rep.max_rel <= 1e-12


class TestEnvelopes:
    def test_lower_identity(self):
        env = lower_envelope(identity_params())
        np.testing.assert_allclose(env.A, np.eye(2))
        np.testing.assert_allclose(env.b, np.zeros(2))
        assert env.gamma == 0.0

    def test_lower_beta_offset(self):
        assert lower_envelope(identity_params(beta=2.0)).gamma == pytest.approx(1.0)

    def test_lower_scalar_example(self):
        env = lower_envelope(TransformParams([[1.0]], [1.0], [2.0], 3.0, 0.0))
        assert env.A[0, 0] == pytest.approx(1.5)
        assert env.b[0] == pytest.approx(1.25)
        assert env.gamma == 0.0

    def test_upper_identity(self):
        env = upper_envelope(identity_params())
        np.testing.assert_allclose(env.A, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(env.b, np.zeros(2), atol=1e-14)
        assert env.gamma == pytest.approx(0.0, abs=1e-14)

    def test_upper_beta_offset(self):
        assert upper_envelope(identity_params(beta=2.0)).gamma == pytest.approx(1.0)

    def test_upper_attained_by_solution_for_scaled_e(self):
        p = TransformParams([[2.0]], [0.0], [0.0], 1.0, 0.0)
        env = upper_envelope(p)
        assert env.A[0, 0] == pytest.approx(2.0)  # matches the solution x^2

    def test_sandwich(self, rng):
        for _ in range(20):
            p = random_pd_instance(rng)
            sol = solve_positive_definite(p)
            low, up = lower_envelope(p), upper_envelope(p)
            for x in sample_points(p.dim, 100, seed=12):
                assert low(x) <= sol(x) + 1e-9
                assert sol(x) <= up(x) + 1e-9

    def test_upper_rejects_rotation(self):
        with pytest.raises((NotPSD, Singular)):
            upper_envelope(quarter_turn_params())


class TestScalingLaw:
    def test_zero_for_equal_solutions(self, rng):
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        pts = sample_points(p.dim, 50, seed=13)
        assert g_scaling_residual(p, sol, sol, pts).max_abs == 0.0

    def test_rotation_rejected(self):
        with pytest.raises(NotPSD):
            g_scaling_residual(quarter_turn_params(), energy(2), energy(2), np.zeros((1, 2)))

    def test_singular_psd_rejected(self):
        # E = diag(1, 0) is PSD but not invertible: E^{-1} w has no meaning
        p = TransformParams(np.diag([1.0, 0.0]), [0.3, 0.0], [0.1, -0.2], 2.0, 0.0)
        with pytest.raises(Singular):
            g_scaling_residual(p, energy(2), energy(2), sample_points(2, 10, seed=13))

    def test_constant_offset_law(self, rng):
        # adding kappa to a solution leaves a constant difference, whose
        # scaling residual is |kappa| |tau^2 - 1| at every point
        for tau in (0.5, 2.0, 5.0):
            p = TransformParams(np.eye(2), [0.3, 0.0], [0.1, -0.2], tau, 0.4)
            sol = solve_positive_definite(p)
            kappa = 0.7
            pts = sample_points(2, 40, seed=14)
            rep = g_scaling_residual(p, lambda x: sol(x) + kappa, sol, pts)
            assert rep.max_abs == pytest.approx(kappa * abs(tau**2 - 1.0), rel=1e-12)


class TestOperatorEquations:
    def test_lql_identity(self):
        np.testing.assert_allclose(solve_lql(np.eye(3)), np.eye(3))

    def test_lql_diagonal(self):
        np.testing.assert_allclose(solve_lql(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_lql_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            u = random_orthogonal(rng, n)
            l_matrix = (u * rng.uniform(0.5, 2.0, n)) @ u.T
            l_matrix = 0.5 * (l_matrix + l_matrix.T)
            q = solve_lql(l_matrix)
            assert np.max(np.abs(l_matrix @ q @ l_matrix - invert(q))) <= 1e-9

    def test_involution_identity(self):
        assert check_involution_psd(np.eye(4)).max_abs == 0.0

    def test_involution_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            check_involution_psd(np.diag([1.0, -1.0]))

    def test_involution_rejects_non_involution(self):
        with pytest.raises(NotInvolution):
            check_involution_psd(np.diag([2.0, 1.0]))

    def test_rotated_identity_is_identity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            u = random_orthogonal(rng, n)
            q = u @ np.eye(n) @ u.T
            assert check_involution_psd(q).max_abs <= 1e-12


class TestSkewSolutions:
    def test_identity_block(self):
        q = skew_solution(np.eye(2))
        pts = sample_points(2, 100, seed=15)
        assert transform_residual(quarter_turn_params(), q, pts).max_abs == 0.0

    def test_diagonal_block(self):
        q = skew_solution(np.diag([2.0, 0.5]))
        pts = sample_points(2, 100, seed=16)
        assert transform_residual(quarter_turn_params(), q, pts).max_abs <= 1e-10

    def test_coupled_block(self):
        q = skew_solution(np.array([[2.0, 1.0], [1.0, 1.0]]))
        pts = sample_points(2, 100, seed=17)
        assert transform_residual(quarter_turn_params(), q, pts).max_abs <= 1e-10

    def test_bad_determinant(self):
        with pytest.raises(BadDeterminant):
            skew_solution(2.0 * np.eye(2))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            skew_solution(np.array([[2.0, 3.0], [3.0, 2.0]]))  # det -5, indefinite


class TestUniquenessWitness:
    def test_single_component_perturbations_are_flagged(self, rng):
        p = random_pd_instance(rng, max_dim=4)
        sol = solve_positive_definite(p)
        n = p.dim
        spoiled = []
        a = sol.A.copy()
        a[0, 0] += 0.01
        spoiled.append(QuadraticFn(a, sol.b, sol.gamma))
        b = sol.b.copy()
        b[n - 1] += 0.01
        spoiled.append(QuadraticFn(sol.A, b, sol.gamma))
        spoiled.append(QuadraticFn(sol.A, sol.b, sol.gamma + 0.01))
        for cand in spoiled:
            assert verify_form_quadratic(p, cand).max_abs > 1e-3
