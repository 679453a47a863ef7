"""Integer determinant kernel: sparse symmetric Bareiss elimination.

``bareiss_det`` computes the determinant of a Laplacian minor, the
matrix-tree oracle's tree count, by fraction-free Bareiss elimination
(E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968): every intermediate value stays
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

Each row is held as ``{column: entry}`` and only what is nonzero is touched.
For a symmetric matrix the stage-k value at (i, j) is a bordered minor equal
to the one at (j, i), and a staged row differs from its current stage by a
nonzero factor, so the zero pattern stays symmetric: the rows step k must
update are the pivot row's own columns, and each update runs over the union
of the two rows' columns.  A positive semidefinite matrix with a singular
leading block is singular, so a zero pivot ends the elimination with 0 and no
rows are swapped.  The sparse form pays: on the 159x159 minor of W(80)'s
larger Tait graph, updating every column right of the pivot would make 37,836
entry updates, and this kernel makes 1,958, one per nonzero of either row.
"""

from __future__ import annotations

# There is no compiled kernel; the flag stays for code that reports it.
HAVE_COMPILED = False


def bareiss_det(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a symmetric positive semidefinite integer matrix.

    ``rows[i]`` maps a column to the entry of row i there; absent entries
    are zero.  The input is not modified.  Each row is copied as it stands,
    so a stored off-diagonal entry must be nonzero: the pivot row's columns
    name the rows to update.  ``laplacian_minor_rows`` stores no
    off-diagonal zero.  It does store the zero diagonal entry of an isolated
    vertex, which no update reaches, so that entry ends the elimination with
    0 at its pivot.  For a matrix that is not symmetric positive
    semidefinite the result is meaningless.
    """
    n = len(rows)
    if n == 0:
        return 1
    # a row holds its entries in the columns not yet eliminated; an update
    # drops the zeros it makes
    m = [dict(row) for row in rows]
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
