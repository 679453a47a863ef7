"""Integer determinant kernel.

The hot kernel of the whole package is the determinant of a Laplacian minor,
computed by fraction-free Bareiss elimination: every intermediate value stays
an integer and Python integers have arbitrary precision, so the result is
always exact.

Laplacian minors are sparse, so a row whose entry in the pivot column is zero
is skipped rather than rescaled.  It keeps the stage it last reached and is
brought to the current stage only when a later step reads it: a row at stage s
becomes a pivot row as ``x * d[k] // d[s]``, where ``d[k]`` is the pivot of
step k - 1, and an eliminated row divides by ``d[s]`` in place of ``d[k]``.
Every Bareiss value is a minor of the input (Sylvester's identity), so each of
these divisions is exact.  ``spanning_tree_count`` hands the kernel a minor
ordered by ascending degree, so a row is rarely touched before its own step.
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
    stage = [0] * n  # elimination steps row i has taken
    d = [1] * n  # d[k]: the pivot of step k - 1
    sign = 1
    for k in range(n - 1):
        # a stale entry is a nonzero multiple of its current value
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    stage[k], stage[i] = stage[i], stage[k]
                    sign = -sign
                    break
            else:
                return 0
        mk = m[k]
        s = stage[k]
        if s != k:
            dk, ds = d[k], d[s]
            for j in range(k, n):
                mk[j] = mk[j] * dk // ds
        piv = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            if f:
                # the stage-k update of a row still at stage s, in one step
                ds = d[stage[i]]
                for j in range(k + 1, n):
                    mi[j] = (mi[j] * piv - f * mk[j]) // ds
                stage[i] = k + 1
        d[k + 1] = piv
    return sign * (m[n - 1][n - 1] * d[n - 1] // d[stage[n - 1]])
