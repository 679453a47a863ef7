"""Exact spanning-tree counting on multigraphs.

Graphs may carry loops and parallel edges.  Edges are identified by their
index in the edge list, which is what deletion and contraction operate on.
Spanning trees are counted three independent ways:

* Kirchhoff/matrix-tree: determinant of any principal minor of the Laplacian,
  evaluated with fraction-free integer elimination (never floating point);
* deletion-contraction recursion;
* brute-force enumeration of edge subsets (small graphs only, the oracle).

A loop contributes 2 to the degree of its vertex and is cancelled on the
Laplacian diagonal, so loops are representable but inert.
"""

from __future__ import annotations

from itertools import combinations

from .kernels import bareiss_det

BRUTE_FORCE_EDGE_LIMIT = 24


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

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.vertex_count == other.vertex_count
            and sorted(map(sorted, self.edges)) == sorted(map(sorted, other.edges))
        )

    def degree(self, v: int) -> int:
        """Degree with loops counted twice."""
        return sum((u == v) + (w == v) for (u, w) in self.edges)


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


def spanning_tree_count_bruteforce(g: Multigraph) -> int:
    """Oracle: count spanning edge subsets directly.  Small graphs only."""
    if len(g.edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(
            f"graph has {len(g.edges)} edges; brute force is capped at "
            f"{BRUTE_FORCE_EDGE_LIMIT}"
        )
    n = g.vertex_count
    if n == 1:
        return 1
    nonloops = [e for e in g.edges if e[0] != e[1]]
    count = 0
    for subset in combinations(nonloops, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v) in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            count += 1
    return count


def delete(g: Multigraph, edge_index: int) -> Multigraph:
    """Remove exactly one copy of the edge at ``edge_index``."""
    edges = list(g.edges)
    del edges[edge_index]
    return Multigraph(g.vertex_count, edges)


def contract(g: Multigraph, edge_index: int) -> Multigraph:
    """Contract the (non-loop) edge at ``edge_index``, merging its endpoints.

    Other parallel copies of the edge become loops, which are retained.
    """
    u, v = g.edges[edge_index]
    if u == v:
        raise ValueError("cannot contract a loop")
    lo, hi = min(u, v), max(u, v)

    def relabel(x: int) -> int:
        if x == hi:
            x = lo
        return x - 1 if x > hi else x

    edges = [
        (relabel(a), relabel(b))
        for i, (a, b) in enumerate(g.edges)
        if i != edge_index
    ]
    return Multigraph(g.vertex_count - 1, edges)


def spanning_tree_count_deletion_contraction(g: Multigraph) -> int:
    """Spanning trees via the recursion tau(G) = tau(G-e) + tau(G/e).

    Parallel copies of the pivot edge are handled in one step (deleting the
    whole bundle versus contracting one copy, which turns the rest into
    discardable loops), and loops are dropped up front.
    """

    def rec(n: int, edges: list[tuple[int, int]]) -> int:
        edges = [e for e in edges if e[0] != e[1]]
        if len(edges) < n - 1:
            return 0
        if n == 1:
            return 1
        # an isolated vertex leaves the graph disconnected: no spanning trees
        deg = [0] * n
        for (u, v) in edges:
            deg[u] += 1
            deg[v] += 1
        if 0 in deg:
            return 0
        u, v = edges[-1]
        mult = 0
        rest = []
        for (a, b) in edges:
            if (a, b) == (u, v) or (a, b) == (v, u):
                mult += 1
            else:
                rest.append((a, b))
        # tau = tau(without the whole bundle) + mult * tau(bundle contracted)
        without = rec(n, rest)
        lo, hi = min(u, v), max(u, v)
        merged = [
            (lo if a == hi else (a - 1 if a > hi else a),
             lo if b == hi else (b - 1 if b > hi else b))
            for (a, b) in rest
        ]
        contracted = rec(n - 1, merged)
        return without + mult * contracted

    return rec(g.vertex_count, list(g.edges))
