"""Deterministic low-discrepancy sample points for residual scans.

A Weyl (Kronecker) sequence with square-root-of-prime increments: cheap,
platform-stable, and reproducible from (dim, count, seed) alone.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import takewhile

import numpy as np


@lru_cache(maxsize=None)
def _primes(count: int) -> tuple:
    """The first ``count`` primes, by trial division."""
    found, k = [], 2
    while len(found) < count:
        if all(k % p for p in takewhile(lambda p: p * p <= k, found)):
            found.append(k)
        k += 1
    return tuple(found)


def sample_points(dim: int, count: int, radius: float = 3.0, seed: int = 0) -> np.ndarray:
    """Return ``count`` points in [-radius, radius]^dim as a (count, dim) array."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    alphas = np.sqrt(np.asarray(_primes(dim), dtype=float))
    alphas -= np.floor(alphas)
    k = np.arange(1, count + 1, dtype=float)[:, None] + float(seed % 1_000_003)
    frac = np.mod(k * alphas[None, :], 1.0)
    return (2.0 * frac - 1.0) * radius
