"""Exact spanning-tree counting on multigraphs.

Graphs may carry loops and parallel edges.  Trees are counted by
Kirchhoff's matrix-tree theorem: the determinant of a principal minor of the
Laplacian, evaluated with fraction-free integer elimination (never floating
point).  The test suite checks this count against brute-force subset
enumeration and deletion-contraction, which live with the tests.

A loop is cancelled on the Laplacian diagonal, so loops are representable
but inert.
"""

from __future__ import annotations

from .kernels import bareiss_det, symmetric_psd_det

# Graphs up to this many vertices take the dense route.  The sparse route
# breaks even with it at 20-40 vertices, earlier on sparser graphs (two cores,
# interleaved timings of one tree count): at about 20 on R, B and P Tait
# graphs and on the 2n-vertex Tait graph of W(n), at 30-40 on the denser
# (n + 2)-vertex one.  Above that it wins, 2x at 60-80 vertices.  The total
# over both Tait graphs of W(1..80) moves by under 5% for any constant from
# 20 to 50.  The two Tait graphs of a c-crossing diagram have c + 2 vertices
# together, so at the default oracle cap of 40 crossings a Tait graph has at
# most 40 vertices unless the other has one (a diagram that is not reduced).
DENSE_MAX_VERTICES = 40


class Multigraph:
    """Undirected multigraph: a vertex count and a list of endpoint pairs."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        self.vertex_count = vertex_count
        self.edges = [(int(u), int(v)) for (u, v) in edges]
        for (u, v) in self.edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")

    def __repr__(self):
        return f"Multigraph({self.vertex_count}, {self.edges})"


def laplacian(g: Multigraph) -> list[list[int]]:
    """Integer Laplacian: diagonal deg(v) - 2*loops(v), off-diagonal -#edges."""
    n = g.vertex_count
    L = [[0] * n for _ in range(n)]
    for (u, v) in g.edges:
        if u == v:
            continue
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    return L


def laplacian_minor_rows(g: Multigraph) -> list[dict[int, int]]:
    """The minor ``spanning_tree_count`` takes, as ``{column: entry}`` rows.

    Built straight from the edges, with no dense matrix: the vertices in
    ascending order of degree (loops left out, ties by label), the last one
    dropped.
    """
    n = g.vertex_count
    deg = [0] * n
    for (u, v) in g.edges:
        if u != v:
            deg[u] += 1
            deg[v] += 1
    order = sorted(range(n), key=deg.__getitem__)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    rows = [{i: deg[v]} for i, v in enumerate(order[:-1])]
    dropped = n - 1
    for (u, v) in g.edges:
        a, b = pos[u], pos[v]
        if a != b and a != dropped and b != dropped:
            ra, rb = rows[a], rows[b]
            ra[b] = ra.get(b, 0) - 1
            rb[a] = rb.get(a, 0) - 1
    return rows


def spanning_tree_count(g: Multigraph) -> int:
    """Number of spanning trees: a principal minor of the Laplacian.

    The minor drops a vertex of highest degree and orders the rest by
    ascending degree, so elimination meets the sparse rows first.  The two
    hubs of a weaving or pretzel Tait graph then create no fill: one is
    dropped and the other is eliminated last.

    Both routes take that minor.  A graph of at most ``DENSE_MAX_VERTICES``
    vertices copies it out of the dense ``laplacian`` for ``bareiss_det``.  A
    larger one builds it as sparse rows (``laplacian_minor_rows``) for
    ``symmetric_psd_det``, which updates only the rows a pivot reaches, over
    only their nonzero columns: about twice as fast as the dense route at
    60-80 vertices, slower below 20-40 (see the constant).
    """
    n = g.vertex_count
    if n > DENSE_MAX_VERTICES:
        return symmetric_psd_det(laplacian_minor_rows(g))
    L = laplacian(g)
    order = sorted(range(n), key=lambda v: L[v][v])[:-1]
    return bareiss_det([[L[i][j] for j in order] for i in order])
