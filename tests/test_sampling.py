import hashlib

import numpy as np
import pytest

from fenchelfix import sample_points

# The literal prime table the scan points were built from when they stopped
# at 32 dimensions; the generated primes must reproduce it exactly.
FIRST_32_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
)
NEXT_8_PRIMES = (137, 139, 149, 151, 157, 163, 167, 173)

# sha256 over sample_points(dim, 17, radius=2.5, seed) for dim 1..32 and the
# seeds below, recorded from the fixed 32-entry table.
FIRST_32_DIGEST = "3351000ba94cf42e6971e6d5ab303e564402d8cbec01cfe04c6454f87be601b5"
SEEDS = (0, 7, 123456789)


def weyl_reference(primes, count, radius, seed):
    alphas = np.sqrt(np.asarray(primes, dtype=float))
    alphas -= np.floor(alphas)
    k = np.arange(1, count + 1, dtype=float)[:, None] + float(seed % 1_000_003)
    return (2.0 * np.mod(k * alphas[None, :], 1.0) - 1.0) * radius


def test_first_32_dims_are_byte_identical_to_the_fixed_table():
    for dim in range(1, 33):
        for seed in SEEDS:
            got = sample_points(dim, 17, radius=2.5, seed=seed)
            want = weyl_reference(FIRST_32_PRIMES[:dim], 17, 2.5, seed)
            assert got.tobytes() == want.tobytes()


def test_first_32_dims_digest():
    h = hashlib.sha256()
    for dim in range(1, 33):
        for seed in SEEDS:
            h.update(sample_points(dim, 17, radius=2.5, seed=seed).tobytes())
    assert h.hexdigest() == FIRST_32_DIGEST


def test_dims_past_32_continue_the_prime_sequence():
    pts = sample_points(40, 25, radius=3.0, seed=4)
    assert pts.shape == (25, 40)
    assert np.all(np.abs(pts) <= 3.0)
    want = weyl_reference(FIRST_32_PRIMES + NEXT_8_PRIMES, 25, 3.0, 4)
    assert pts.tobytes() == want.tobytes()
    assert sample_points(200, 3).shape == (3, 200)


def test_rejects_nonpositive_dim_and_negative_count():
    with pytest.raises(ValueError):
        sample_points(0, 5)
    with pytest.raises(ValueError):
        sample_points(2, -1)
