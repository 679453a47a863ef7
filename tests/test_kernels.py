"""Determinant kernel: exact Bareiss elimination against a cofactor oracle."""

import random

import pytest

from detvol.kernels import bareiss_det


def permanent_free_det(m):
    """Cofactor-expansion oracle for tiny matrices."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * permanent_free_det(minor)
    return total


def test_small_known():
    assert bareiss_det([[2, -1], [-1, 2]]) == 3
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1]]) == 1
    assert bareiss_det([]) == 1


def test_singular():
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[0, 0], [0, 0]]) == 0


def test_matches_cofactor_oracle():
    rng = random.Random(4)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 5)
        cases.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
    # entries and intermediates far beyond 64 bits: exactness must not depend
    # on the size of the integers
    cases.append([[2 ** 70, 0], [0, 2 ** 70]])
    for _ in range(20):
        n = rng.randint(2, 5)
        cases.append([
            [rng.choice((-1, 1)) * rng.randint(10 ** 8, 2 ** 70) for _ in range(n)]
            for _ in range(n)
        ])
    for m in cases:
        assert bareiss_det(m) == permanent_free_det(m)


def test_rejects_ragged():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2], [3]])
