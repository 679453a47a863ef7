"""Test helpers: independent spanning-tree counts, arrangements, a closed form, writers.

``detvol`` counts spanning trees by matrix-tree, with sparse symmetric
Bareiss elimination of ``{column: entry}`` rows.  The tests check that count
against routines that share no code with it:

* brute-force enumeration of edge subsets (small graphs only);
* series-parallel reduction in exact ``Fraction`` weights, with
  deletion-contraction only where no reduction applies;
* ``spanning_tree_count_dense``: the dense ``laplacian`` and the same minor,
  by ``dense_bareiss_det``, fraction-free elimination of any square integer
  matrix over every column right of the pivot, with row swaps.

``detvol`` takes the 3-braid trace product as a balanced tree; the tests
check it against ``threebraid_det_sequential``, the left-to-right fold.

``detvol`` walks the distinct orderings of a multiset and keeps the least of
each bracelet; the tests check it against ``canonical_arrangements_by_necklaces``,
which generates the necklaces of fixed content directly by Sawada's algorithm.

``detvol`` walks the multisets below the pretzel frontier in one flat loop;
the tests check it against ``pretzel_walk_by_recursion``, which recurses once
per twist region and evaluates a corner again at every deeper level.

Edges are identified by their index in the edge list, which is what
``delete`` and ``contract`` operate on.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from detvol.families import _lucas_v, pretzel_det
from detvol.hypvol import TWO_PI, montesinos_bound
from detvol.multigraph import Multigraph

BRUTE_FORCE_EDGE_LIMIT = 24


def compositions_upto(total_max, min_len=1, max_len=None):
    """Every tuple of positive integers with sum <= total_max, in DFS order."""
    out = []

    def rec(budget, cur):
        if len(cur) >= min_len:
            out.append(tuple(cur))
        if max_len is not None and len(cur) >= max_len:
            return
        for x in range(1, budget + 1):
            cur.append(x)
            rec(budget - x, cur)
            cur.pop()

    rec(total_max, [])
    return out


def format_pd_text(pd) -> str:
    """PD text writer: the inverse of ``diagram.parse_pd_text``."""
    return "\n".join("X " + " ".join(map(str, t)) for t in pd.crossings) + "\n"


def degree(g: Multigraph, v: int) -> int:
    """Degree with loops counted twice."""
    return sum((u == v) + (w == v) for (u, w) in g.edges)


def threebraid_allones_det(n: int) -> int:
    """Closed form for B(1,1,...,1) with 2n ones: u_n - 2 with
    u_0=2, u_1=3, u_{k+1} = 3u_k - u_{k-1}.

    Equals ((3+sqrt5)/2)^n + ((3-sqrt5)/2)^n - 2, computed exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _lucas_v(3, n) - 2


def threebraid_det_sequential(pairs) -> int:
    """tr(prod_i [[1+a_i b_i, a_i],[b_i, 1]]) - 2, the product folded left to right.

    Each step multiplies the growing matrix by small entries, so it costs
    O(n^2) bit work; ``threebraid_det`` takes the same product as a balanced
    tree.
    """
    pairs = [(int(x), int(y)) for (x, y) in pairs]
    if not pairs:
        raise ValueError("need at least one pair")
    m00, m01, m10, m11 = 1, 0, 0, 1
    for (x, y) in pairs:
        if x < 1 or y < 1:
            raise ValueError("all twist counts must be >= 1")
        # M <- M [[1,x],[0,1]] [[1,0],[y,1]] = M [[1+xy, x],[y, 1]]
        p, q = m00 * x + m01, m10 * x + m11
        m00, m01, m10, m11 = m00 + p * y, p, m10 + q * y, q
    return m00 + m11 - 2


def dense_bareiss_det(rows: list[list[int]]) -> int:
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


def dense_minor(g: Multigraph) -> list[list[int]]:
    """The minor ``spanning_tree_count`` takes, copied out of the dense Laplacian."""
    L = laplacian(g)
    order = sorted(range(g.vertex_count), key=lambda v: L[v][v])[:-1]
    return [[L[i][j] for j in order] for i in order]


def spanning_tree_count_dense(g: Multigraph) -> int:
    """Oracle: matrix-tree by dense Bareiss elimination of that minor."""
    return dense_bareiss_det(dense_minor(g))


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
    """Spanning trees by series-parallel reduction, branching only when stuck.

    The graph is held as ``{v: {u: weight}}`` with exact ``Fraction``
    weights, and tau counts each spanning tree by the product of its edge
    weights.  Loops are dropped and parallel edges merged by adding their
    weights.  Then, while a vertex has at most two neighbours:

    * a pendant edge of weight w multiplies tau by w and leaves with its leaf;
    * a degree-2 vertex with edge weights w1, w2 multiplies tau by w1 + w2
      and leaves one edge of weight w1*w2/(w1 + w2) between its neighbours;
    * an isolated vertex, with other vertices left, makes tau 0.

    Only a graph with every vertex of degree >= 3 branches, on an edge e, as
    tau(G) = tau(G - e) + w_e * tau(G/e).  2-bridge and pretzel Tait graphs
    are series-parallel, so they reduce with no branching.
    """
    adj = {v: {} for v in range(g.vertex_count)}
    for (u, v) in g.edges:
        if u != v:
            adj[u][v] = adj[v][u] = adj[u].get(v, 0) + Fraction(1)
    tau = _weighted_tree_count(adj)
    assert tau.denominator == 1, tau
    return tau.numerator


def _weighted_tree_count(adj: dict[int, dict[int, Fraction]]) -> Fraction:
    """Weighted spanning-tree count of ``adj``, which it consumes."""
    factor = Fraction(1)
    todo = list(adj)
    while todo and len(adj) > 1:
        v = todo.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = adj.pop(v)
        if not nbrs:
            return Fraction(0)
        for x in nbrs:
            del adj[x][v]
            todo.append(x)
        if len(nbrs) == 1:
            (w,) = nbrs.values()
            factor *= w
        else:
            (x, w1), (y, w2) = nbrs.items()
            factor *= w1 + w2
            adj[x][y] = adj[y][x] = adj[x].get(y, 0) + w1 * w2 / (w1 + w2)
    if len(adj) == 1:
        return factor
    u = next(iter(adj))
    v, w = next(iter(adj[u].items()))
    deleted = {x: dict(nbrs) for x, nbrs in adj.items()}
    del deleted[u][v], deleted[v][u]
    # contract: v's edges move to u, and the u-v edge would be a loop
    contracted = adj
    for x, wx in contracted.pop(v).items():
        del contracted[x][v]
        if x != u:
            contracted[u][x] = contracted[x][u] = contracted[u].get(x, 0) + wx
    return factor * (_weighted_tree_count(deleted) + w * _weighted_tree_count(contracted))


def canonical_arrangements_by_necklaces(multiset):
    """Reference: least members of the dihedral classes, from Sawada's necklaces.

    Each class is yielded once, as its lexicographically least member, in
    increasing order.  Necklaces (least under rotation) of the fixed content
    are generated directly, in lexicographic order, by Sawada's algorithm
    (J. Sawada, Theor. Comput. Sci. 301 (2003)), run as an explicit
    depth-first walk: a[0] is pinned to the least entry; a[t] runs upward
    from a[t-p] over the content still unused, where p is the length of the
    longest Lyndon prefix; a full word is a necklace when p divides n.  A
    necklace is the least of its bracelet when no rotation of its reversal
    is smaller, and only rotations that start at the least entry can be.
    The state is O(n) and nothing recurses.
    """
    counts = Counter(multiset)
    vals = sorted(counts)
    remaining = [counts[v] for v in vals]  # unused copies of each value, by index
    n = sum(remaining)
    if n == 0:
        yield ()
        return
    k = len(vals)
    # the word, as value indices; a[t] is -1 until position t is tried, and
    # goes back to -1 when it is exhausted, so each descent finds it fresh
    a = [-1] * n
    a[0] = 0
    remaining[0] -= 1
    p = [1] * (n + 1)  # p[t]: length of the longest Lyndon prefix of a[:t]
    t = 1
    while t >= 1:
        if t == n:
            if n % p[n] == 0:
                r = a[::-1]
                for i in range(n):
                    if r[i] == 0 and r[i:] + r[:i] < a:
                        break
                else:
                    yield tuple([vals[i] for i in a])
            t -= 1
            continue
        j = a[t]
        if j >= 0:  # give a[t] back and try the next larger value
            remaining[j] += 1
            j += 1
        else:
            j = a[t - p[t]]
        while j < k and not remaining[j]:
            j += 1
        if j == k:  # position t is exhausted: back up
            a[t] = -1
            t -= 1
            continue
        a[t] = j
        remaining[j] -= 1
        p[t + 1] = p[t] if j == a[t - p[t]] else t + 1
        t += 1


def pretzel_walk_by_recursion(n):
    """Reference: the multisets of n entries below the Montesinos frontier, by recursion.

    Position pos of the sorted multiset runs upward from the entry before it;
    each step tries the corner that repeats the current value to the end.  A
    corner with 2*pi*log(det) over the Montesinos bound 2*v8*n is a frontier
    corner and ends the loop at its position; any other corner is visited at
    the last position, or handed to the next one.  Returns the frontier
    corners and the visited multisets with their determinants, in the order
    the walk reaches them.
    """
    log_threshold = montesinos_bound(n).value / TWO_PI
    frontier, visited = [], []

    def rec(prefix, min_val):
        pos = len(prefix)
        v = min_val
        while True:
            corner = tuple(prefix) + (v,) * (n - pos)
            d = pretzel_det(corner)
            if math.log(d) > log_threshold + 1e-12:
                frontier.append(corner)
                return
            if pos == n - 1:
                visited.append((corner, d))
            else:
                prefix.append(v)
                rec(prefix, v)
                prefix.pop()
            v += 1

    rec([], 1)
    return frontier, visited
