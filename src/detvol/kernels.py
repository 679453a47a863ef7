"""Integer determinant kernel.

The hot kernel of the whole package is the determinant of a Laplacian minor,
computed by fraction-free Bareiss elimination: every intermediate value stays
an integer and Python integers have arbitrary precision, so the result is
always exact.
"""

from __future__ import annotations

# There is no compiled kernel; the flag stays for code that reports it.
HAVE_COMPILED = False


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, arbitrary precision."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * piv - f * mk[j]) // prev
            mi[k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]
