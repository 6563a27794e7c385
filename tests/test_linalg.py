import numpy as np
import pytest

from conftest import random_orthogonal, random_pd_matrix, symmetric_from_eigs
from fenchelfix import (
    DEFAULT_TOL,
    NotSymmetric,
    NumericalFailure,
    Singular,
    TransformParams,
    eigendecompose,
    invert,
    solve_self_adjoint,
)
from fenchelfix import linalg
from fenchelfix.linalg import as_symmetric, is_singular, symmetric_part


def reconstruct(spec):
    """U diag(d) U^T of a decomposition."""
    return (spec.vectors * spec.eigenvalues) @ spec.vectors.T


def eig2x2(m):
    """Characteristic-polynomial eigenvalues of a symmetric 2x2 matrix."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


class TestEigendecompose:
    def test_identity(self):
        spec = eigendecompose(np.eye(2))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(spec.vectors.T @ spec.vectors, np.eye(2), atol=1e-12)

    def test_already_diagonal(self):
        spec = eigendecompose(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, -1.0])

    def test_coupled_2x2_against_characteristic_polynomial(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = eigendecompose(m)
        np.testing.assert_allclose(spec.eigenvalues, eig2x2(m), atol=1e-12)
        assert np.max(np.abs(reconstruct(spec) - m)) <= 1e-12

    def test_reconstruction_up_to_dim_16(self, rng):
        for n in range(1, 17):
            m = rng.uniform(-10.0, 10.0, (n, n))
            m = 0.5 * (m + m.T)
            spec = eigendecompose(m)
            scale = max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(reconstruct(spec) - m)) <= 1e-10 * scale
            assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(n))) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_deterministic_for_identical_input(self, rng):
        m = rng.uniform(-5, 5, (5, 5))
        m = 0.5 * (m + m.T)
        a = eigendecompose(m.copy())
        b = eigendecompose(m.copy())
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestAsSymmetric:
    def test_exactly_symmetric_matrix_is_returned_as_it_is(self, monkeypatch):
        # one comparison, no tolerance test and no symmetrized copy
        def forbidden(*args, **kwargs):
            raise AssertionError("is_symmetric must not be called")

        monkeypatch.setattr(linalg, "is_symmetric", forbidden)
        m = np.array([[2.0, -0.0, 1.5], [-0.0, 1.0, 0.25], [1.5, 0.25, -3.0]])
        assert as_symmetric(m) is m

    def test_near_symmetric_matrix_is_symmetrized(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 1.0]])
        out = as_symmetric(m)
        np.testing.assert_array_equal(out, 0.5 * (m + m.T))
        assert out.tobytes() == out.T.tobytes()

    def test_zeros_of_opposite_sign_are_symmetrized(self):
        # equal under ==, but not bitwise: the result is +0.0 in both places
        out = as_symmetric(np.array([[1.0, 0.0], [-0.0, 1.0]]))
        assert not np.signbit(out).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_matrix_refuses_a_non_finite_entry(bad):
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        linalg.as_matrix([[1.0, 0.0], [bad, 1.0]])


class TestSymmetricPart:
    def test_is_the_halved_sum_bitwise(self, rng):
        for n in range(1, 9):
            for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
                a = scale * rng.standard_normal((n, n))
                want = 0.5 * (a + a.T)
                assert symmetric_part(a).tobytes() == want.tobytes()

    def test_bitwise_symmetric_matrix_is_returned_as_it_is(self, rng):
        m = rng.standard_normal((4, 4))
        m = m + m.T
        m[0, 1] = m[1, 0] = -0.0
        assert symmetric_part(m) is m

    def test_zeros_of_opposite_sign_give_plus_zero(self):
        out = symmetric_part(np.array([[1.0, 0.0], [-0.0, 1.0]]))
        assert not np.signbit(out).any()


# finite E whose entries, summed with their transposes, overflow
HUGE_E = {
    "1x1": [[1e308]],
    "2x2": [[1.5e308, 1.0], [1.0 + 1e-15, -1.5e308]],
}


@pytest.mark.parametrize("e", HUGE_E.values(), ids=HUGE_E.keys())
def test_symmetric_part_of_huge_e_is_finite_without_warning(e):
    # (E + E^T)/2 overflowed to inf with a RuntimeWarning, and then was
    # rejected as non-finite input (the suite makes every warning an error)
    from fenchelfix import classify, lower_envelope

    p = TransformParams(e, [0.0] * len(e), [0.0] * len(e), 1.0)
    assert np.isfinite(p.symmetric_spectrum().eigenvalues).all()
    assert np.isfinite(lower_envelope(p).A).all()
    outcome = classify(p)
    assert outcome.solution is not None and np.isfinite(outcome.solution.A).all()


def test_symmetry_test_of_huge_nonsymmetric_e_does_not_overflow():
    # E - E^T overflowed to inf with a RuntimeWarning before the test said no
    from fenchelfix import Tag, classify

    e = np.array([[0.0, 1e308], [-1e308, 0.0]])
    assert not linalg.is_symmetric(e)
    assert classify(TransformParams(e, [0.0, 0.0], [0.0, 0.0], 1.0)).tag is Tag.UNDETERMINED


def assert_spectral_contract(m, spec, tol=1e-12):
    """Descending order, the sign rule, orthogonality and reconstruction."""
    n = m.shape[0]
    scale = max(1.0, float(np.max(np.abs(m))))
    assert spec.eigenvalues.shape == (n,) and spec.vectors.shape == (n, n)
    assert np.all(np.diff(spec.eigenvalues) <= 0.0)
    for j in range(n):
        col = spec.vectors[:, j]
        lead = np.nonzero(np.abs(col) > 1e-12)[0][0]
        assert col[lead] > 0.0
    assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(n))) <= 100 * n * tol
    assert np.max(np.abs(reconstruct(spec) - m)) <= 100 * n * tol * scale


def block_multiplicity_matrix(rng, n):
    """U diag(d) U^T with every eigenvalue repeated 2 or 3 times."""
    eigs = []
    while len(eigs) < n:
        eigs += [float(rng.uniform(-3.0, 3.0))] * int(rng.integers(2, 4))
    return symmetric_from_eigs(rng, eigs[:n])


class TestSpectralContract:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 32, 40])
    def test_plus_minus_identity(self, n):
        for sign in (1.0, -1.0):
            m = sign * np.eye(n)
            spec = eigendecompose(m)
            assert_spectral_contract(m, spec)
            assert np.all(spec.eigenvalues == sign)

    @pytest.mark.parametrize("n", [2, 5, 9, 17, 33, 40])
    def test_repeated_eigenvalues(self, rng, n):
        for _ in range(3):
            m = block_multiplicity_matrix(rng, n)
            assert_spectral_contract(m, eigendecompose(m))

    def test_block_diagonal_repeats_without_rotation(self):
        m = np.zeros((7, 7))
        m[:3, :3] = 2.0 * np.eye(3)
        m[3:5, 3:5] = [[0.0, -1.0], [-1.0, 0.0]]  # eigenvalues -1 and 1
        m[5:, 5:] = -np.eye(2)
        spec = eigendecompose(m)
        assert_spectral_contract(m, spec)
        np.testing.assert_allclose(spec.eigenvalues, [2, 2, 2, 1, -1, -1, -1], atol=1e-15)

    def test_sign_rule_skips_negligible_leading_components(self):
        # eigenvector of 2 is e2, whose first component is exactly zero
        spec = eigendecompose(np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(spec.vectors, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n", [3, 16, 40])
    def test_byte_identical_repeats(self, rng, n):
        for m in (block_multiplicity_matrix(rng, n), symmetric_from_eigs(rng, rng.uniform(-5, 5, n))):
            first = eigendecompose(m.copy())
            for _ in range(3):
                again = eigendecompose(m.copy())
                assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()
                assert again.vectors.tobytes() == first.vectors.tobytes()

    def test_lapack_failure_is_a_numerical_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailure) as info:
            eigendecompose(np.eye(2))
        assert not isinstance(info.value, ValueError)


def mp_eigenvalues(m):
    """Eigenvalues of a symmetric matrix at 50 digits, descending."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        evals, _ = mpmath.eigsy(mpmath.matrix(m.tolist()))
        return np.array(sorted((float(e) for e in evals), reverse=True))


class TestGradedAccuracy:
    """LAPACK against a 50-digit oracle on graded matrices, where Jacobi's
    relative accuracy (Demmel & Veselic, SIMAX 1992) would be the reason to
    prefer it.  Every cutoff in the library is relative to max|eigenvalue|,
    so that is the accuracy required."""

    CASES = [
        np.diag([1e12, 1.0, 1e-12]),
        np.array([[1e12, 1e6, 0.0], [1e6, 1.0, 1e-6], [0.0, 1e-6, 1e-12]]),
        np.array([[1e12, 1e5, 1.0], [1e5, 1.0, 1e-7], [1.0, 1e-7, 1e-12]]),
        np.array([[1e-12, 1e-7, 0.0], [1e-7, 1.0, -1e5], [0.0, -1e5, 1e12]]),
    ]

    @pytest.mark.parametrize("m", CASES)
    def test_fixed_graded_cases(self, m):
        got = eigendecompose(m).eigenvalues
        want = mp_eigenvalues(m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scaled_graded_family(self, rng):
        # D H D with H well conditioned and D spanning twelve decades
        for n in (3, 5, 8):
            h = symmetric_from_eigs(rng, rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n))
            d = np.logspace(6, -6, n)
            m = (d[:, None] * h) * d[None, :]
            m = 0.5 * (m + m.T)
            got = eigendecompose(m).eigenvalues
            want = mp_eigenvalues(m)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def abs_and_sign(e, tau=1.0):
    """(sqrt(tau)|E|, sqrt(tau) sign(E)) as the self-adjoint construction
    builds them with c = w = 0: its A and S = tau E A^{-1}."""
    e = np.asarray(e, dtype=float)
    n = e.shape[0]
    a = solve_self_adjoint(TransformParams(e, np.zeros(n), np.zeros(n), tau, 0.0)).A
    return a, tau * e @ invert(a)


class TestMatrixFunctions:
    """The spectral absolute value and sign of a symmetric invertible E, read
    off ``solve_self_adjoint``: A = sqrt(tau)|E| and, with M = I + S the matrix
    of its slope system, M - I = S = tau E A^{-1} = sqrt(tau) sign(E)."""

    def test_abs_diagonal(self):
        a, _ = abs_and_sign(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(a, np.diag([2.0, 3.0]), atol=1e-12)

    def test_abs_identity(self):
        a, _ = abs_and_sign(np.eye(2))
        np.testing.assert_allclose(a, np.eye(2), atol=1e-12)

    def test_abs_swap(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, _ = abs_and_sign(m)
        np.testing.assert_allclose(a, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(a @ a, m @ m, atol=1e-12)

    def test_sign_diagonal(self):
        _, s = abs_and_sign(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(s, np.diag([1.0, -1.0]), atol=1e-12)

    def test_sign_identity(self):
        _, s = abs_and_sign(np.eye(2))
        np.testing.assert_allclose(s, np.eye(2), atol=1e-12)

    def test_sign_swap_and_polar_recovery(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, s = abs_and_sign(m)
        np.testing.assert_allclose(s, m, atol=1e-12)
        np.testing.assert_allclose(s @ a, m, atol=1e-12)

    def test_sign_times_abs_and_involution(self, rng):
        # polar identity sign(E)|E| = E and involution sign(E)^2 = I, scaled:
        # (M - I) A = tau E and (M - I)^2 = tau I
        for _ in range(25):
            n = int(rng.integers(1, 7))
            eigs = rng.uniform(0.3, 3.0, n) * rng.choice([-1.0, 1.0], n)
            m = symmetric_from_eigs(rng, eigs)
            tau = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            a, s = abs_and_sign(m, tau)
            assert np.max(np.abs(s @ a - tau * m)) <= 1e-10 * tau
            assert np.max(np.abs(s @ s - tau * np.eye(n))) <= 1e-10 * tau

    def test_sign_singular_raises(self):
        with pytest.raises(Singular):
            abs_and_sign(np.diag([1.0, 0.0]))

    def test_sqrt_diagonal(self):
        # A is the positive semidefinite square root of tau E^2
        a, _ = abs_and_sign(np.diag([2.0, -3.0]), tau=4.0)
        np.testing.assert_allclose(a, np.diag([4.0, 6.0]), atol=1e-12)

    def test_sqrt_identity(self):
        a, _ = abs_and_sign(-np.eye(3))
        np.testing.assert_allclose(a, np.eye(3), atol=1e-12)

    def test_sqrt_coupled(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        a, _ = abs_and_sign(m, tau=2.0)
        assert np.max(np.abs(a @ a - 2.0 * m @ m)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(a)) >= 0.0


def with_singular_values(rng, sigma, symmetric):
    """A random matrix with the given singular values: U diag(sigma) V^T,
    or U diag(+-sigma) U^T when symmetric."""
    n = len(sigma)
    u = random_orthogonal(rng, n)
    if symmetric:
        m = (u * (np.asarray(sigma) * rng.choice([-1.0, 1.0], n))) @ u.T
        return 0.5 * (m + m.T)
    return (u * np.asarray(sigma)) @ random_orthogonal(rng, n).T


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_rotation(self):
        r = np.array([[0.0, 1.0], [-1.0, 0.0]])
        inv = invert(r)
        np.testing.assert_allclose(inv, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-14)
        np.testing.assert_allclose(r @ inv, np.eye(2), atol=1e-14)

    def test_random_product_is_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            m = rng.uniform(-5, 5, (n, n)) + 2.0 * np.eye(n)
            np.testing.assert_allclose(m @ invert(m), np.eye(n), atol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(Singular):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_agrees_with_numpy_inv(self, rng):
        # both are backward stable, so they differ by at most about
        # cond(M) n eps relative to max|M^{-1}| (measured: under 0.21 of that)
        eps = np.finfo(float).eps
        for n in range(1, 65):
            m = rng.standard_normal((n, n))
            want = np.linalg.inv(m)
            gap = np.max(np.abs(invert(m) - want)) / np.max(np.abs(want))
            assert gap <= np.linalg.cond(m) * n * eps

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_singular_value_ratio_criterion(self, rng, symmetric, scale):
        # singular when sigma_min <= sing_rel * max(1, sigma_max), sing_rel = 1e-10
        for n in (2, 5, 12):
            for ratio, singular in ((1e-9, False), (1e-11, True)):
                sigma = scale * np.logspace(0.0, np.log10(ratio), n)
                m = with_singular_values(rng, sigma, symmetric)
                assert is_singular(m) is singular
                if singular:
                    with pytest.raises(Singular):
                        invert(m)
                else:
                    assert np.all(np.isfinite(invert(m)))

    def test_tol_scale_moves_the_cutoff(self, rng):
        m = with_singular_values(rng, np.logspace(0.0, -11.0, 4), symmetric=False)
        with pytest.raises(Singular):
            invert(m)
        assert is_singular(m)
        assert np.all(np.isfinite(invert(m, DEFAULT_TOL.scaled(0.01))))
        assert not is_singular(m, DEFAULT_TOL.scaled(0.01))

    def test_matches_spectral_singular_on_symmetric(self, rng):
        outcomes = set()
        for scale in (1e-3, 1.0, 1e3):
            for ratio in (1e-3, 1e-9, 1e-11, 0.0):
                for n in (2, 3, 8):
                    sigma = scale * np.linspace(1.0, 0.5, n)
                    sigma[-1] = scale * ratio
                    m = with_singular_values(rng, sigma, symmetric=True)
                    singular = eigendecompose(m).singular()
                    outcomes.add(singular)
                    assert is_singular(m) is singular
                    if singular:
                        with pytest.raises(Singular):
                            invert(m)
                    else:
                        invert(m)
        assert outcomes == {True, False}


class TestDefiniteness:
    def test_examples(self):
        def psd_pd(m):
            spec = eigendecompose(m)
            return spec.psd(), spec.positive_definite()

        assert psd_pd(np.eye(2)) == (True, True)
        assert psd_pd(np.diag([1.0, 0.0])) == (True, False)
        assert psd_pd(np.array([[2.0, 1.0], [1.0, 2.0]])) == (True, True)
        assert psd_pd(np.diag([1.0, -1.0])) == (False, False)
        assert psd_pd(-np.eye(3)) == (False, False)
        assert psd_pd(np.diag([0.0, -2.0])) == (False, False)

    def test_invertible_psd_is_positive_definite(self, rng):
        # an invertible PSD operator has no zero eigenvalue, hence is PD
        for _ in range(30):
            n = int(rng.integers(1, 7))
            m = random_pd_matrix(rng, n, lo=0.05, hi=4.0)
            assert eigendecompose(m).positive_definite()

    @pytest.mark.parametrize("edge, psd", [(-1.0, True), (1.0, True), (-1.5, False)])
    def test_band_edge_follows_psd(self, edge, psd):
        # an eigenvalue exactly at -pd or +pd counts as zero; one just
        # outside the band does not
        spec = eigendecompose(np.diag([1.0, edge * DEFAULT_TOL.pd]))
        assert spec.eigenvalues[-1] == edge * DEFAULT_TOL.pd
        assert spec.psd() is psd
        assert not spec.positive_definite()
        neg = eigendecompose(np.diag([-1.0, -edge * DEFAULT_TOL.pd]))
        assert not neg.psd() and not neg.positive_definite()


class TestReadonly:
    def test_library_array_is_frozen_in_place(self):
        a = np.arange(3.0)
        assert linalg.readonly(a) is a and not a.flags.writeable

    def test_writeable_caller_array_is_copied(self):
        a = np.arange(3.0)
        r = linalg.readonly(a, a)
        assert r is not a and a.flags.writeable and not r.flags.writeable
        a[0] = 7.0
        assert r[0] == 0.0

    def test_read_only_caller_array_that_owns_its_data_is_copied(self):
        # the flag is advisory: a caller can turn it back on and write
        a = np.arange(3.0)
        a.flags.writeable = False
        r = linalg.readonly(a, a)
        assert r is not a and not r.flags.writeable
        a.flags.writeable = True
        a[0] = 7.0
        assert r[0] == 0.0

    @pytest.mark.parametrize("caller", [True, False], ids=["caller", "library"])
    def test_read_only_view_is_copied(self, caller):
        base = np.arange(4.0)
        view = base[1:]
        view.flags.writeable = False
        r = linalg.readonly(view, view if caller else None)
        base[1] = 9.0
        assert r is not view and r[0] == 1.0 and not r.flags.writeable

    def test_decomposition_is_read_only(self, rng):
        spec = eigendecompose(random_pd_matrix(rng, 4))
        for a in spec:
            assert not a.flags.writeable and a.flags.owndata
            with pytest.raises(ValueError):
                a[0] = 0.0
