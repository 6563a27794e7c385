import numpy as np
import pytest

from conftest import random_indefinite_matrix, random_orthogonal, random_pd_instance
from test_acceptance import pd_corpus
from fenchelfix import (
    DEFAULT_TOL,
    SignFlipSolution,
    BadDeterminant,
    DimMismatch,
    EmptyList,
    NotInvolution,
    NotPositiveDefinite,
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
    lower_envelope,
    quarter_turn_params,
    sample_points,
    skew_solution,
    solve_lql,
    solve_positive_definite,
    solve_self_adjoint,
    transform_residual,
    upper_envelope,
    verify_form_quadratic,
    x0_point,
)
from fenchelfix import linalg
from fenchelfix.errors import OutOfRange
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
            assert sol.spectrum.positive_definite()

    def test_constant_against_mpmath(self):
        # gamma of the closed form at 50 digits, from A = sqrt(tau) E and
        # b = (w + sqrt(tau) c) / (1 + sqrt(tau)) in exact arithmetic
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for p, sol in pd_corpus():
                rt, tau = mpmath.sqrt(p.tau), mpmath.mpf(p.tau)
                c, w = mpmath.matrix(p.c.tolist()), mpmath.matrix(p.w.tolist())
                diff = c - (w + rt * c) / (1 + rt)
                a = rt * (mpmath.matrix(p.E.tolist()) + mpmath.matrix(p.E.T.tolist())) / 2
                quad = (diff.T * mpmath.lu_solve(a, diff))[0]
                gamma = (p.beta + tau / 2 * quad) / (1 + tau)
                worst = max(worst, float(abs(sol.gamma - gamma) / (1 + abs(gamma))))
        assert worst <= 6 * np.finfo(float).eps


class TestSolveSelfAdjoint:
    def test_mixed_signs_give_energy(self):
        p = TransformParams(np.diag([1.0, -1.0]), np.zeros(2), np.zeros(2), 1.0, 0.0)
        sol = solve_self_adjoint(p)
        np.testing.assert_allclose(sol.A, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sol.b, np.zeros(2), atol=1e-12)
        assert sol.gamma == pytest.approx(0.0, abs=1e-14)

    def test_inconsistent_slope_system(self):
        # at tau = 1 the slope system (I + S) b = w + S c is singular on E's
        # negative eigenspace U_-, where it reads 0 = U_-^T (w - c)
        for e, c, w in (([[-1.0]], [0.0], [1.0]), (np.diag([2.0, -3.0]), [1.0, 0.0], [1.0, 1.0])):
            assert solve_self_adjoint(TransformParams(e, c, w, 1.0, 0.0)) is None

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

    def test_zero_slope_system_gives_zero_slope(self):
        for e in ([[-1.0]], np.diag([2.0, -3.0])):
            n = len(e)
            sol = solve_self_adjoint(TransformParams(e, np.zeros(n), np.zeros(n), 1.0))
            np.testing.assert_array_equal(sol.b, np.zeros(n))

    def test_diagonal_slope_system(self):
        # U = I, lam = (2, 0), rhs = (4 + 1, 5 - 5): b = (5/2, 0)
        p = TransformParams(np.diag([2.0, -3.0]), [1.0, 5.0], [4.0, 5.0], 1.0)
        np.testing.assert_allclose(solve_self_adjoint(p).b, [2.5, 0.0], rtol=0, atol=1e-15)

    def test_slope_has_no_component_on_the_negative_eigenspace(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            u = random_orthogonal(rng, n)
            d = np.concatenate([rng.uniform(0.5, 2.0, k), -rng.uniform(0.5, 2.0, n - k)])
            e = (u * d) @ u.T
            c, w = rng.uniform(-2, 2, (2, n))
            neg = u[:, k:]
            w = w - neg @ (neg.T @ (w - c))  # consistent by construction
            sol = solve_self_adjoint(TransformParams(0.5 * (e + e.T), c, w, 1.0))
            assert sol is not None
            assert np.max(np.abs(neg.T @ sol.b)) <= 1e-12 * (1.0 + np.max(np.abs(sol.b)))

    def test_slope_agrees_with_dense_lstsq(self, rng):
        # Oracle: numpy's lstsq on the formed I + S for E of random signs
        # (mixed, definite and negative definite), with the library's
        # singularity rule (singular values at most 1e-10 max(1, largest)
        # count as zero) and consistency rule.  Over 300 draws the verdicts
        # agree, and b is within 16 n eps cond (1 + max|b|) of the oracle,
        # where cond = (1 + sqrt(tau)) / min|lam| over the non-null lam,
        # since I + S is formed by cancellation from parts of norms 1 and
        # sqrt(tau) (measured over 2000 draws: 4.4 n eps cond).
        eps = np.finfo(float).eps
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            d = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
            u = random_orthogonal(rng, n)
            tau = float(rng.choice([1.0, 1.0 + 1e-3, 1.0 - 1e-3, rng.uniform(0.1, 10.0)]))
            c, w = rng.uniform(-2, 2, (2, n))
            if tau == 1.0 and rng.random() < 0.5:
                neg = u[:, d < 0]
                w = w - neg @ (neg.T @ (w - c))
            e = (u * d) @ u.T
            s = (u * (np.sqrt(tau) * np.sign(d))) @ u.T
            m, rhs = np.eye(n) + s, w + s @ c
            s_max = np.linalg.norm(m, 2)
            cutoff = DEFAULT_TOL.sing_rel * max(1.0, s_max)
            ref = np.zeros(n)
            if s_max > cutoff:
                ref = np.linalg.lstsq(m, rhs, rcond=cutoff / s_max)[0]
            gap = np.linalg.norm(m @ ref - rhs)
            ref_none = gap > DEFAULT_TOL.cons_rel * (1 + np.linalg.norm(rhs))
            sol = solve_self_adjoint(TransformParams(0.5 * (e + e.T), c, w, tau))
            assert (sol is None) == ref_none
            verdicts.add(ref_none)
            if sol is None:
                continue
            lam = np.abs(1.0 + np.sqrt(tau) * np.sign(d))
            lam = lam[lam > cutoff]
            cond = (1.0 + np.sqrt(tau)) / lam.min() if lam.size else 1.0
            bound = 16 * n * eps * cond * (1.0 + np.max(np.abs(ref)))
            assert np.max(np.abs(sol.b - ref)) <= bound
        assert verdicts == {True, False}


class TestKeptSpectrum:
    def test_quadratics_built_from_e_keep_a_true_spectrum(self, rng):
        # A = U diag(d) U^T and its kept (d, U) agree with numpy's own
        # decomposition and inverse of A: eigenvalues within 8 n eps max|A|
        # (measured: 4.1), A^{-1} within 4 n eps cond(A) max|A^{-1}|
        # (measured: 1.6), over 1500 draws with |d| in e^[-4, 4]
        eps = np.finfo(float).eps
        for _ in range(200):
            n = int(rng.integers(1, 9))
            definite = rng.random() < 0.5
            d = np.exp(rng.uniform(-4, 4, n)) * (1.0 if definite else rng.choice([-1.0, 1.0], n))
            u = random_orthogonal(rng, n)
            e = (u * d) @ u.T
            c, w = rng.uniform(-2, 2, (2, n))
            p = TransformParams(0.5 * (e + e.T), c, w, np.exp(rng.uniform(-3, 3)), 0.3)
            built = [lower_envelope(p), solve_self_adjoint(p)]
            if definite:
                built.append(solve_positive_definite(p))
            for q in filter(None, built):
                got = np.sort(q.spectrum.eigenvalues)
                want = np.linalg.eigvalsh(q.A)
                assert np.max(np.abs(got - want)) <= 8 * n * eps * np.max(np.abs(q.A))
                if q.spectrum.positive_definite():
                    inv = np.linalg.inv(q.A)
                    bound = 4 * n * eps * np.linalg.cond(q.A) * np.max(np.abs(inv))
                    assert np.max(np.abs(q.a_inverse() - inv)) <= bound


class TestVerifyFormQuadratic:
    def test_solved_instance_is_clean(self, rng):
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        assert verify_form_quadratic(p, sol).max_abs <= 1e-9

    def test_energy_identity_is_exact(self):
        assert verify_form_quadratic(identity_params(), energy(2)).max_abs == 0.0

    def test_quadratic_of_another_dimension(self):
        with pytest.raises(DimMismatch, match="transform and quadratic dimensions differ"):
            verify_form_quadratic(identity_params(), energy(3))

    @pytest.mark.parametrize("coefficient", ["A", "b", "gamma"])
    def test_perturbed_leading_coefficient_is_flagged(self, rng, coefficient):
        p = random_pd_instance(rng)
        sol = solve_positive_definite(p)
        spoiled = QuadraticFn(
            sol.A + 0.1 * np.eye(p.dim) if coefficient == "A" else sol.A,
            sol.b + 0.1 if coefficient == "b" else sol.b,
            sol.gamma + 0.1 if coefficient == "gamma" else sol.gamma,
        )
        assert verify_form_quadratic(p, spoiled).max_abs > 0.05

    @pytest.mark.parametrize(
        "b_matrix",
        [np.eye(2), np.diag([2.0, 0.5]), np.array([[2.0, 1.0], [1.0, 1.0]])],
        ids=["identity", "diag", "coupled"],
    )
    def test_quarter_turn_solutions_are_clean(self, b_matrix):
        # non-symmetric E: (sqrt(tau) A^{-1} E)^2 = -I here, so a relation
        # that holds only for symmetric E would read 2
        form = verify_form_quadratic(quarter_turn_params(), skew_solution(b_matrix))
        assert form.max_abs <= 1e-12 and form.sample_points == 3

    @pytest.mark.parametrize("check", [verify_form_quadratic, functional_differential_residual])
    def test_a_not_positive_definite_is_refused(self, check):
        # the conjugate's gate, QuadraticFn.a_inverse
        p = TransformParams(np.diag([1.0, -1.0]), np.zeros(2), np.zeros(2), 1.0)
        q = QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2))
        args = (p, q) if check is verify_form_quadratic else (p, q, sample_points(2, 5))
        with pytest.raises(NotPositiveDefinite):
            check(*args)

    def test_ill_conditioned_exact_solution_is_clean(self):
        # A = sqrt(2) E has condition 1e12, which the relative singularity
        # rule of Spectral.inverse calls singular
        p = TransformParams(np.diag([1e-6, 1.0, 1e6]), [0.5, -1.0, 2.0], [1.0, 0.3, -0.2], 2.0, 0.7)
        assert verify_form_quadratic(p, solve_positive_definite(p)).max_abs <= 1e-9

    def test_scaled_rotation_solution_is_clean(self):
        # E = r R(theta) has the fixed point A = sqrt(tau) r I
        t = 0.7
        e = 2.0 * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        p = TransformParams(e, np.zeros(2), np.zeros(2), 1.5, 0.0)
        q = QuadraticFn(np.sqrt(6.0) * np.eye(2), np.zeros(2), 0.0)
        assert transform_residual(p, q, sample_points(2, 100)).max_rel <= 1e-14
        assert verify_form_quadratic(p, q).max_abs <= 1e-12


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

# the tags whose classification carries a quadratic solution
SOLUTION_TAGS = [
    Tag.UNIQUE_ALL_FUNCTIONS,
    Tag.UNIQUE_IN_QUADRATIC_INVERTIBLE_CLASS,
    Tag.UNIQUE_IN_C2_CLASS,
    Tag.QUADRATIC_SOLUTION_EXISTS,
]

# the construction each symmetric branch of classify runs
CONSTRUCTIONS = {
    Tag.UNIQUE_ALL_FUNCTIONS: solve_positive_definite,
    Tag.UNIQUE_IN_C2_CLASS: solve_positive_definite,
    Tag.UNIQUE_IN_QUADRATIC_INVERTIBLE_CLASS: solve_positive_definite,
    Tag.QUADRATIC_SOLUTION_EXISTS: solve_self_adjoint,
    Tag.NO_SOLUTION: solve_self_adjoint,
    Tag.NO_QUADRATIC_SOLUTION_IN_CONSTRUCTION: solve_self_adjoint,
}


class TestOneSpectrumPerProblem:
    @pytest.mark.parametrize("tag", list(BRANCHES), ids=lambda t: t.value)
    def test_classify_decomposes_symmetric_e_once(self, decompose_counter, tag):
        p = BRANCHES[tag]()
        expected = 0 if tag is Tag.UNDETERMINED else 1
        assert classify(p).tag is tag
        assert decompose_counter.of(p.E) == expected
        assert len(decompose_counter.seen) == expected  # nothing else is decomposed either
        classify(p)
        assert len(decompose_counter.seen) == expected  # the spectrum is cached on p

    @pytest.mark.parametrize("tag", list(CONSTRUCTIONS), ids=lambda t: t.value)
    def test_solve_after_classify_reuses_the_spectrum(self, decompose_counter, tag):
        p = BRANCHES[tag]()
        outcome = classify(p)
        solution = CONSTRUCTIONS[tag](p)
        assert decompose_counter.of(p.E) == 1
        assert len(decompose_counter.seen) == 1
        if outcome.solution is not None:
            np.testing.assert_array_equal(solution.A, outcome.solution.A)
            np.testing.assert_array_equal(solution.b, outcome.solution.b)
            assert solution.gamma == outcome.solution.gamma

    @pytest.mark.parametrize("tag", SOLUTION_TAGS, ids=lambda t: t.value)
    def test_only_e_is_ever_decomposed(self, decompose_counter, tag):
        # the constructions' solutions and the lower envelope are functions
        # of E that keep E's eigenvectors and carry their own spectra, so no
        # residual check or envelope decomposes anything else
        p = BRANCHES[tag]()
        pts = sample_points(p.dim, 20, seed=1)
        solutions = [classify(p).solution, solve_self_adjoint(p)]
        psd = tag is not Tag.QUADRATIC_SOLUTION_EXISTS
        if psd:
            solutions.append(solve_positive_definite(p))
        else:
            with pytest.raises(NotPositiveDefinite):
                solve_positive_definite(p)
        for sol in solutions:
            transform_residual(p, sol, pts)
            for variant in ("Tsquared", "General", "SelfAdjoint"):
                functional_eq_residual(p, sol, variant, pts)
            functional_differential_residual(p, sol, pts)
            verify_form_quadratic(p, sol)
            if psd:
                g_scaling_residual(p, sol, solutions[0], pts)
        lower_envelope(p)
        if psd:
            upper_envelope(p)
        else:
            with pytest.raises(NotPSD):
                upper_envelope(p)
        assert decompose_counter.of(p.E) == 1
        assert len(decompose_counter.seen) == 1

    @pytest.mark.parametrize("construction", [solve_positive_definite, solve_self_adjoint])
    def test_constructions_reject_asymmetric_e(self, construction):
        with pytest.raises(NotSymmetric):
            construction(quarter_turn_params())

    @pytest.mark.parametrize("tag", list(BRANCHES), ids=lambda t: t.value)
    def test_classify_forms_no_svd_inverse(self, invert_counter, tag):
        # symmetric E is inverted from its spectrum; non-symmetric E only
        # needs its singular values to settle invertibility
        assert classify(BRANCHES[tag]()).tag is tag
        assert invert_counter.calls == 0

    def test_symmetric_e_is_inverted_from_its_spectrum(self, invert_counter, decompose_counter):
        p = TransformParams(np.diag([2.0, 1.0, 3.0]), [1.0, 0, 0], [0, 2.0, 0], 2.5, 0.5)
        outcome = classify(p)
        assert outcome.tag is Tag.UNIQUE_IN_C2_CLASS
        pts = sample_points(3, 20, seed=1)
        for variant in ("Tsquared", "General", "SelfAdjoint"):
            functional_eq_residual(p, outcome.solution, variant, pts)
        assert invert_counter.calls == 0
        assert decompose_counter.of(p.E) == 1

    def test_non_symmetric_e_keeps_the_svd_inverse(self, invert_counter):
        p = quarter_turn_params()
        functional_eq_residual(p, energy(2), "General", sample_points(2, 10, seed=1))
        assert invert_counter.calls == 1


GATE_POINTS = sample_points(2, 5, seed=3)

# every public entry point that needs a symmetric E, called at a tolerance,
# with its documented outcome for a non-symmetric E: a tag, an error, or
# (for e_inverse) the SVD route
GATED = {
    "classify": (lambda p, tol: classify(p, tol=tol).tag, Tag.UNDETERMINED),
    "solve_positive_definite": (solve_positive_definite, NotSymmetric),
    "solve_self_adjoint": (solve_self_adjoint, NotSymmetric),
    "upper_envelope": (upper_envelope, NotPSD),
    "g_scaling_residual": (
        lambda p, tol: g_scaling_residual(p, energy(2), energy(2), GATE_POINTS, tol),
        NotPSD,
    ),
    "functional_eq_residual": (
        lambda p, tol: functional_eq_residual(p, energy(2), "SelfAdjoint", GATE_POINTS, tol),
        NotSymmetric,
    ),
    "e_inverse": (lambda p, tol: p.e_inverse(tol), invert),
}


def near_symmetric_params():
    """Positive definite E whose off-diagonal pair differs by 1e-7 of max|E|."""
    e = np.array([[2.0, 0.5 + 2e-7], [0.5, 1.0]])
    return TransformParams(e, [0.5, -0.25], [0.1, 0.3], 2.0, 0.5)


class TestSymmetryGate:
    @pytest.mark.parametrize("name", list(GATED))
    @pytest.mark.parametrize("make", [quarter_turn_params, near_symmetric_params])
    def test_non_symmetric_e_gets_its_documented_outcome(
        self, decompose_counter, invert_counter, name, make
    ):
        call, outcome = GATED[name]
        p = make()
        if outcome is invert:
            e_inv = call(p, DEFAULT_TOL)
            assert invert_counter.calls == 1
            np.testing.assert_array_equal(e_inv, invert(p.E))
        elif isinstance(outcome, Tag):
            assert call(p, DEFAULT_TOL) is outcome
        else:
            with pytest.raises(outcome):
                call(p, DEFAULT_TOL)
        assert p.symmetric_spectrum() is None
        assert decompose_counter.seen == []

    @pytest.mark.parametrize("name", list(GATED))
    def test_looser_symmetry_tolerance_admits_near_symmetric_e(
        self, decompose_counter, invert_counter, name
    ):
        call, outcome = GATED[name]
        p = near_symmetric_params()
        loose = DEFAULT_TOL.scaled(1e3)
        result = call(p, loose)
        if isinstance(outcome, Tag):
            assert result is Tag.UNIQUE_IN_C2_CLASS
        assert invert_counter.calls == 0
        assert decompose_counter.of(p.E) == 1
        spec = p.symmetric_spectrum(loose)
        reference = eigendecompose(0.5 * (p.E + p.E.T))
        np.testing.assert_array_equal(spec.eigenvalues, reference.eigenvalues)
        np.testing.assert_array_equal(spec.vectors, reference.vectors)
        if outcome is invert:
            np.testing.assert_array_equal(result, spec.inverse(loose))


def test_spectral_inverse_agrees_with_the_svd_route(monkeypatch):
    # On the 200 positive definite acceptance instances, E^{-1} from the
    # cached spectrum and from linalg.invert's SVD differ by at most
    # 4 cond(E) n eps of max|E^{-1}| (measured: 2.4), x0 by at most
    # 4 cond(E) n eps (1 + max|x0|) (measured: 2.1), and every functional
    # residual's max_abs by at most 1e-11 (measured: 4.3e-12), each below 1e-10.
    eps = np.finfo(float).eps
    variants = ("Tsquared", "General", "SelfAdjoint")

    def run():
        out = []
        for p, sol in pd_corpus():
            pts = sample_points(p.dim, 100, seed=1)
            x0 = x0_point(p) if p.tau != 1.0 else None
            out.append((x0, [functional_eq_residual(p, sol, v, pts).max_abs for v in variants]))
        return out

    spectral = run()
    monkeypatch.setattr(TransformParams, "e_inverse", lambda p, tol: invert(p.E, tol))
    svd = run()
    for (p, _sol), (x0_s, res_s), (x0_v, res_v) in zip(pd_corpus(), spectral, svd):
        bound = 4.0 * np.linalg.cond(p.E) * p.dim * eps
        inv_s, inv_v = p.symmetric_spectrum().inverse(), invert(p.E)
        assert np.max(np.abs(inv_s - inv_v)) <= bound * np.max(np.abs(inv_v))
        if x0_s is not None:
            assert np.max(np.abs(x0_s - x0_v)) <= bound * (1.0 + np.max(np.abs(x0_v)))
        for a, b in zip(res_s, res_v):
            assert abs(a - b) <= 1e-11
            assert max(a, b) <= 1e-10


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

    @pytest.mark.parametrize("variant", ["Tsquared", "General"])
    @pytest.mark.parametrize(
        "f",
        [SignFlipSolution("half_square"), lambda x: 0.5 * x * x],
        ids=["sign_flip", "lambda"],
    )
    def test_functional_eq_one_dim_callables(self, f, variant):
        # both evaluate the (1,) rows of a 1-D scan: the first raised
        # TypeError, the second returned (1,) arrays that broadcast to K x K
        p = TransformParams([[-1.0]], [0.0], [0.0], 1.0, 0.0)
        rep = functional_eq_residual(p, f, variant, sample_points(1, 5, seed=2))
        assert (rep.max_abs, rep.sample_points) == (0.0, 5)

    def test_functional_eq_rejects_two_values_per_point(self):
        p = TransformParams([[-1.0]], [0.0], [0.0], 1.0, 0.0)
        with pytest.raises(DimMismatch, match="one value per point"):
            functional_eq_residual(p, lambda x: np.array([1.0, 2.0]), "General", [[0.5]])

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
        # f(x) - f(x + w) - w x: no proper convex lsc f zeroes it for w != 0
        def shift_gap(f, w, x):
            return float(np.max(np.abs(f(x) - f(x + w) - w * x)))

        pts = np.linspace(-2.0, 2.0, 9)
        assert shift_gap(lambda x: 0.5 * x * x, 1.0, np.array([0.0])) == pytest.approx(0.5)
        assert shift_gap(lambda x: 0.5 * x * x, 0.0, pts) == 0.0
        np.testing.assert_allclose(shift_gap(lambda x: x, 1.0, pts), np.max(np.abs(-1.0 - pts)))

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

    @pytest.mark.parametrize(
        "e, tau, x",
        [
            (1e308, 1.0, 10.0),  # y = e x overflows
            (1e200, 1.0, 1e200),  # y = e x overflows in the matrix product
            (1e154, 1.0, 1e2),  # y and u are finite; <y, u> overflows
            (1.0, 1e308, 1e2),  # finite conjugate; tau times it overflows
        ],
    )
    def test_functional_differential_overflow_is_out_of_range(self, e, tau, x):
        # an input error naming the overflow, and no RuntimeWarning (the
        # suite makes every warning an error)
        p = TransformParams([[e]], [0.0], [0.0], tau)
        with pytest.raises(OutOfRange, match="overflows the float range"):
            functional_differential_residual(p, energy(1), [[x]])


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


# the residual checks over 2-D points, each through the one input gate,
# with the checked quadratic q in every function slot
GATED_CHECKS = {
    "transform": lambda p, q, pts: transform_residual(p, q, pts),
    "functional_eq": lambda p, q, pts: functional_eq_residual(p, q, "General", pts),
    "differential": lambda p, q, pts: functional_differential_residual(p, q, pts),
    "g_scaling": lambda p, q, pts: g_scaling_residual(p, q, q, pts),
    "g_scaling_second": lambda p, q, pts: g_scaling_residual(p, energy(2), q, pts),
}


class TestInputGate:
    @pytest.mark.parametrize("name", list(GATED_CHECKS))
    @pytest.mark.parametrize("points", [np.empty((0, 2)), []], ids=["empty_rows", "empty_list"])
    def test_no_points_is_an_empty_list(self, name, points):
        with pytest.raises(EmptyList):
            GATED_CHECKS[name](identity_params(), energy(2), points)

    def test_the_candidate_scan_over_no_points_is_an_empty_list(self):
        with pytest.raises(EmptyList):
            classify(quarter_turn_params(), candidate=energy(2), points=np.empty((0, 2)))

    @pytest.mark.parametrize("name", list(GATED_CHECKS))
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_point_is_a_value_error(self, name, bad):
        # the suite makes every warning an error: the gate raises before any arithmetic
        with pytest.raises(ValueError, match="point entries must be finite"):
            GATED_CHECKS[name](identity_params(), energy(2), [[bad, 0.0], [1.0, 1.0]])

    def test_a_non_finite_point_fails_a_callable_check(self):
        with pytest.raises(ValueError, match="point entries must be finite"):
            functional_eq_residual(
                identity_params(),
                lambda x: 0.5 * float(x @ x),
                "General",
                [[np.inf, 0.0], [1.0, 1.0]],
            )

    @pytest.mark.parametrize("variant", ["Tsquared", "General", "SelfAdjoint"])
    def test_a_callable_infinite_at_a_point_fails_the_functional_check(self, variant):
        # this reported max_abs = nan, which passes a gate on max_abs > tol
        flip = TransformParams([[-1.0]], [0.0], [0.0], 1.0)
        ray = SignFlipSolution("ray_indicator")
        with pytest.raises(ValueError, match="a checked function must be finite at every point"):
            functional_eq_residual(flip, ray, variant, [[1.0], [-1.0], [2.0]])

    @pytest.mark.parametrize(
        "kinds",
        [("ray_indicator", "ray_indicator"), ("ray_indicator", "half_square"), ("half_square", "ray_indicator")],
        ids=["both", "f", "p2"],
    )
    def test_a_callable_infinite_at_a_point_fails_the_scaling_check(self, kinds):
        p = TransformParams([[1.0]], [0.0], [0.0], 2.0)
        f, p2 = (SignFlipSolution(kind) for kind in kinds)
        with pytest.raises(ValueError, match="a checked function must be finite at every point"):
            g_scaling_residual(p, f, p2, [[1.0], [-1.0]])

    @pytest.mark.parametrize("name", list(GATED_CHECKS))
    @pytest.mark.parametrize(
        "q, pts, message",
        [
            (energy(3), np.ones((3, 2)), "transform and quadratic dimensions differ"),
            (energy(2), np.ones((3, 3)), "points dimension does not match the transform"),
            (energy(2), np.ones((2, 2, 1)), "points dimension does not match the transform"),
        ],
        ids=["quadratic", "points", "three_axes"],
    )
    def test_a_dimension_mismatch_has_one_message(self, name, q, pts, message):
        with pytest.raises(DimMismatch) as info:
            GATED_CHECKS[name](identity_params(), q, pts)
        assert str(info.value) == message


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
        # whose transform inverts a 1e12-conditioned A.  That graded E is
        # singular under the default sing_rel = 1e-10, so classify runs with
        # the tolerances scaled by 1e-3 (as `--tol-scale 0.001` would)
        p = TransformParams(e, self.C, self.W, tau, 0.7)
        sol = classify(p, tol=DEFAULT_TOL.scaled(1e-3)).solution
        rep = transform_residual(p, sol, sample_points(3, 100, seed=31))
        assert rep.max_rel <= 1e-12

    def test_large_values(self):
        p = TransformParams(np.eye(3), [1e6, -1e6, 0.0], [1e6, 0.0, 3e5], 2.0, 1e9)
        rep = transform_residual(p, classify(p).solution, sample_points(3, 100, seed=31))
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
        with pytest.raises(NotPSD):
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


SCOPE_ERRORS = {
    "pd_closed_form_on_indefinite_e": (
        lambda: solve_positive_definite(TransformParams(np.diag([1.0, -1.0]), [0, 0], [0, 0], 2.0)),
        NotPositiveDefinite,
        "E must be positive definite",
    ),
    "x0_at_tau_one": (
        lambda: x0_point(identity_params()), ValueError, "x0 is defined only for tau != 1"
    ),
    "upper_envelope_of_singular_psd_e": (
        lambda: upper_envelope(TransformParams(np.diag([1.0, 0.0]), [0, 0], [0, 0], 1.0)),
        Singular,
        "upper envelope requires invertible E",
    ),
    "lql_of_indefinite_l": (
        lambda: solve_lql(np.diag([1.0, -1.0])),
        NotPositiveDefinite,
        "solve_lql requires a positive definite matrix",
    ),
    "skew_solution_3x3": (
        lambda: skew_solution(np.eye(3)), DimMismatch, "skew_solution is a 2x2 construction"
    ),
}


@pytest.mark.parametrize("name", list(SCOPE_ERRORS))
def test_constructions_refuse_input_out_of_their_scope(name):
    build, error, message = SCOPE_ERRORS[name]
    with pytest.raises(error) as info:
        build()
    assert info.type is error and str(info.value) == message


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
