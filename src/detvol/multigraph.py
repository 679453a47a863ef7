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

from .kernels import bareiss_det


class Multigraph:
    """Undirected multigraph: a vertex count and a list of endpoint pairs.

    Every endpoint is an int below ``vertex_count``.  The edges are stored
    as given, unchecked: no graph is built from outside input, and the Tait
    graphs' endpoints are face numbers their own traversal gave out.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        self.vertex_count = vertex_count
        self.edges = list(edges)

    def __repr__(self):
        return f"Multigraph({self.vertex_count}, {self.edges})"


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
    dropped and the other is eliminated last.  ``bareiss_det`` eliminates
    the minor's sparse rows (``laplacian_minor_rows``), updating only the
    rows a pivot reaches, over only their nonzero columns.
    """
    return bareiss_det(laplacian_minor_rows(g))
