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


def spanning_tree_count(g: Multigraph) -> int:
    """Number of spanning trees: a principal minor of the Laplacian.

    The minor drops a vertex of highest degree and orders the rest by
    ascending degree, so elimination meets the sparse rows first.  The two
    hubs of a weaving or pretzel Tait graph then create no fill: one is
    dropped and the other is eliminated last.
    """
    L = laplacian(g)
    order = sorted(range(g.vertex_count), key=lambda v: L[v][v])[:-1]
    return bareiss_det([[L[i][j] for j in order] for i in order])
