"""Integer determinant kernels: dense Bareiss and sparse symmetric elimination.

Both compute the determinant of a Laplacian minor, the matrix-tree oracle's
tree count, by fraction-free Bareiss elimination: every intermediate value
stays an integer and Python integers have arbitrary precision, so the result
is always exact.  ``spanning_tree_count`` sends graphs of at most 40 vertices
to ``bareiss_det``, the general kernel for any square matrix, and larger ones
to ``symmetric_psd_det``; ``multigraph.DENSE_MAX_VERTICES`` gives the
measured crossover behind that limit.

Laplacian minors are sparse, so a row whose entry in the pivot column is zero
is skipped rather than rescaled.  It keeps the stage it last reached and is
brought to the current stage only when a later step reads it: a row at stage s
becomes a pivot row as ``x * d[k] // d[s]``, where ``d[k]`` is the pivot of
step k - 1, and an eliminated row divides by ``d[s]`` in place of ``d[k]``.
Every Bareiss value is a minor of the input (Sylvester's identity), so each of
these divisions is exact.  ``spanning_tree_count`` hands the kernels a minor
ordered by ascending degree, so a row is rarely touched before its own step.

``bareiss_det`` updates a row over every column right of the pivot.
``symmetric_psd_det`` holds each row as ``{column: entry}`` and
touches only what is nonzero.  For a symmetric matrix the stage-k value at
(i, j) is a bordered minor equal to the one at (j, i), and a staged row
differs from its current stage by a nonzero factor, so the zero pattern stays
symmetric: the rows step k must update are the pivot row's own columns, and
each update runs over the union of the two rows' columns.  A positive
semidefinite matrix with a singular leading block is singular, so a zero
pivot ends the elimination with 0 and no rows are swapped.  On the 159x159
minor of W(80)'s larger Tait graph ``bareiss_det`` makes 37,836 entry
updates and ``symmetric_psd_det`` 1,958, one per nonzero of either row.
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


def symmetric_psd_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a symmetric positive semidefinite integer matrix.

    ``rows[i]`` maps a column to the entry of row i there; absent entries
    are zero.  The input is not modified.  For a matrix that is not
    symmetric positive semidefinite the result is meaningless.
    """
    n = len(rows)
    if n == 0:
        return 1
    # a row holds only its nonzero entries in the columns not yet eliminated
    m = [{j: x for j, x in row.items() if x} for row in rows]
    stage = [0] * n  # elimination steps row i has taken
    d = [1] * n  # d[k]: the pivot of step k - 1
    for k in range(n - 1):
        mk = m[k]
        s = stage[k]
        if s != k:
            dk, ds = d[k], d[s]
            for j, x in mk.items():
                mk[j] = x * dk // ds
        piv = mk.pop(k, 0)
        if not piv:
            # a singular leading block of a PSD matrix makes it singular
            return 0
        # the zero pattern is symmetric, so the rows with a nonzero in
        # column k are the pivot row's own columns
        for i in mk:
            mi = m[i]
            f = mi.pop(k)
            for j, x in mi.items():
                mi[j] = x * piv
            get = mi.get
            for j, y in mk.items():
                mi[j] = get(j, 0) - f * y
            ds = d[stage[i]]
            if ds != 1:
                for j, x in mi.items():
                    mi[j] = x // ds
            if 0 in mi.values():
                m[i] = {j: x for j, x in mi.items() if x}
            stage[i] = k + 1
        m[k] = None
        d[k + 1] = piv
    return m[n - 1].get(n - 1, 0) * d[n - 1] // d[stage[n - 1]]
