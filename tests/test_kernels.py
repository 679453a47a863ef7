"""The determinant kernel, sparse symmetric Bareiss, and its dense reference against oracles."""

import random
from fractions import Fraction

import pytest

from detvol.kernels import bareiss_det
from oracles import dense_bareiss_det


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
    assert dense_bareiss_det([[2, -1], [-1, 2]]) == 3
    assert dense_bareiss_det([[0, 1], [1, 0]]) == -1
    assert dense_bareiss_det([[1]]) == 1
    assert dense_bareiss_det([]) == 1
    assert bareiss_det([{0: 2, 1: -1}, {0: -1, 1: 2}]) == 3
    assert bareiss_det([{0: 1}]) == 1
    assert bareiss_det([]) == 1


def test_singular():
    assert dense_bareiss_det([[1, 2], [2, 4]]) == 0
    assert dense_bareiss_det([[0, 0], [0, 0]]) == 0
    assert bareiss_det([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 0
    assert bareiss_det([{0: 0}, {1: 0}]) == 0


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
        assert dense_bareiss_det(m) == permanent_free_det(m)


def test_rejects_ragged():
    with pytest.raises(ValueError):
        dense_bareiss_det([[1, 2], [3]])


def fraction_det(m):
    """Gaussian elimination over the rationals; returns (det, row swaps)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det, swaps = Fraction(1), 0
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0, swaps
        if p != k:
            a[k], a[p] = a[p], a[k]
            det, swaps = -det, swaps + 1
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return int(det), swaps


def test_sparse_matches_fraction_oracle():
    # sparse rows are skipped and catch up later, at a stage of their own;
    # a row swap has to carry that stage along with the row
    rng = random.Random(11)
    swapped = singular = 0
    for trial in range(300):
        n = rng.randint(1, 16)
        density = (0.1, 0.2, 0.3, 0.4, 0.5)[trial % 5]
        m = [
            [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
             for _ in range(n)]
            for _ in range(n)
        ]
        if n >= 3 and trial % 7 == 0:
            # a dependent row: singular, whatever the zero pattern
            i, j, r = rng.sample(range(n), 3)
            m[r] = [2 * x - y for x, y in zip(m[i], m[j])]
        det, swaps = fraction_det(m)
        swapped += det != 0 and swaps > 0
        singular += det == 0
        assert dense_bareiss_det(m) == det
    assert swapped >= 50 and singular >= 50


def test_symmetric_psd_matches_fraction_oracle():
    # Gram matrices B^T B of sparse integer B: symmetric positive
    # semidefinite, singular whenever B has fewer rows than columns or
    # dependent ones; each passed as {column: entry} rows
    rng = random.Random(12)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        k = rng.randint(max(1, n - 3), n + 3)
        density = (0.15, 0.3, 0.5)[trial % 3]
        b = [
            [rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(k)
        ]
        m = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        det, _ = fraction_det(m)
        singular += det == 0
        assert bareiss_det(rows) == det == dense_bareiss_det(m)
    assert singular >= 50
    # entries far beyond 64 bits
    big = [{0: 2 ** 70, 1: 2 ** 69}, {0: 2 ** 69, 1: 2 ** 70}]
    assert bareiss_det(big) == 2 ** 140 - 2 ** 138
