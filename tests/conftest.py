import numpy as np
import pytest

from fenchelfix import TransformParams

TAUS = (0.5, 1.0, 2.0, 5.0)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def symmetric_from_eigs(rng, eigs):
    n = len(eigs)
    u = random_orthogonal(rng, n)
    m = (u * np.asarray(eigs)) @ u.T
    return 0.5 * (m + m.T)


def random_pd_matrix(rng, n, lo=0.4, hi=3.0):
    return symmetric_from_eigs(rng, rng.uniform(lo, hi, n))


def random_indefinite_matrix(rng, n, lo=0.4, hi=3.0):
    mags = rng.uniform(lo, hi, n)
    signs = rng.choice([-1.0, 1.0], n)
    if np.all(signs > 0):
        signs[0] = -1.0
    if np.all(signs < 0):
        signs[0] = 1.0
    return symmetric_from_eigs(rng, mags * signs)


def random_pd_instance(rng, max_dim=6):
    n = int(rng.integers(1, max_dim + 1))
    return TransformParams(
        E=random_pd_matrix(rng, n),
        c=rng.uniform(-3.0, 3.0, n),
        w=rng.uniform(-3.0, 3.0, n),
        tau=float(rng.choice(TAUS)),
        beta=float(rng.uniform(-3.0, 3.0)),
    )


class DecomposeCounter:
    """Wraps ``linalg.eigendecompose`` and records every matrix it is given."""

    def __init__(self, monkeypatch):
        from fenchelfix import linalg

        self.seen = []
        original = linalg.eigendecompose

        def counting(m, *args, **kwargs):
            self.seen.append(np.array(m, dtype=float))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "eigendecompose", counting)

    def of(self, matrix) -> int:
        """How many recorded matrices equal the symmetric part of ``matrix``."""
        sym = 0.5 * (np.asarray(matrix) + np.asarray(matrix).T)
        return sum(m.shape == sym.shape and np.array_equal(m, sym) for m in self.seen)


@pytest.fixture
def decompose_counter(monkeypatch):
    return DecomposeCounter(monkeypatch)


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
