"""Spanning-tree counting: matrix-tree, brute force, deletion-contraction."""

import random

import pytest

from detvol.families import Weaving4, to_diagram, weaving_det
from detvol import multigraph
from detvol.kernels import bareiss_det
from detvol.multigraph import Multigraph, laplacian_minor_rows, spanning_tree_count
from oracles import (
    contract,
    delete,
    dense_bareiss_det,
    dense_minor,
    laplacian,
    spanning_tree_count_bruteforce,
    spanning_tree_count_deletion_contraction,
    spanning_tree_count_dense,
)

TRIANGLE = Multigraph(3, [(0, 1), (1, 2), (2, 0)])


def random_multigraph(rng, max_vertices=7, max_edges=14, connected_bias=True):
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = []
    if connected_bias and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            edges.append((order[i], order[rng.randrange(i)]))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((u, v))
    return Multigraph(n, edges[:max_edges])


def random_loopy_multigraph(rng, n, extra, connected):
    """A spanning tree (or forest) on n vertices plus ``extra`` random edges and loops."""
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        if connected or rng.random() < 0.9:
            edges.append((order[i], order[rng.randrange(i)]))
    for _ in range(extra):
        u = rng.randrange(n)
        v = u if rng.random() < 0.2 else rng.randrange(n)
        edges.append((u, v))
        if rng.random() < 0.2:
            edges.append((v, u))  # a parallel copy
    rng.shuffle(edges)
    return Multigraph(n, edges)


class TestLaplacian:
    def test_loop_vertex(self):
        assert laplacian(Multigraph(1, [(0, 0)])) == [[0]]

    def test_parallel(self):
        g = Multigraph(2, [(0, 1)] * 3)
        assert laplacian(g) == [[3, -3], [-3, 3]]

    def test_rows_sum_zero_and_symmetric(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_multigraph(rng)
            L = laplacian(g)
            for i, row in enumerate(L):
                assert sum(row) == 0
                for j in range(len(row)):
                    assert L[i][j] == L[j][i]

    def test_diagonal_cancels_loops(self):
        g = Multigraph(2, [(0, 1), (0, 0), (0, 0)])
        assert laplacian(g)[0][0] == 1


class TestTreeCount:
    def test_triangle(self):
        assert spanning_tree_count(TRIANGLE) == 3

    def test_cycle(self):
        for n in range(2, 9):
            cyc = Multigraph(n, [(i, (i + 1) % n) for i in range(n)])
            assert spanning_tree_count(cyc) == n

    def test_parallel_edges(self):
        for k in range(1, 8):
            g = Multigraph(2, [(0, 1)] * k)
            assert spanning_tree_count(g) == k
            assert spanning_tree_count_bruteforce(g) == k

    def test_disconnected_is_zero(self):
        g = Multigraph(4, [(0, 1), (2, 3)])
        assert spanning_tree_count(g) == 0
        assert spanning_tree_count_bruteforce(g) == 0
        assert spanning_tree_count_deletion_contraction(g) == 0

    def test_single_vertex(self):
        assert spanning_tree_count(Multigraph(1)) == 1
        assert spanning_tree_count(Multigraph(1, [(0, 0)])) == 1

    def test_minor_choice_irrelevant(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_multigraph(rng)
            L = laplacian(g)
            n = g.vertex_count
            vals = {
                dense_bareiss_det(
                    [[L[i][j] for j in range(n) if j != v] for i in range(n) if i != v]
                )
                for v in range(n)
            }
            assert vals == {spanning_tree_count(g)}

    def test_wheel_lucas(self):
        # tau(wheel with n rim vertices) = L(2n) - 2; the hub is the vertex
        # of highest degree, at either end of the labels; the wheels run to
        # 41 vertices
        lucas = [2, 1]
        while len(lucas) <= 80:
            lucas.append(lucas[-1] + lucas[-2])
        for n in range(3, 41):
            rim = [(i, (i + 1) % n) for i in range(n)]
            hub_last = Multigraph(n + 1, rim + [(i, n) for i in range(n)])
            hub_first = Multigraph(
                n + 1, [(u + 1, v + 1) for (u, v) in rim] + [(0, i + 1) for i in range(n)]
            )
            assert spanning_tree_count(hub_last) == lucas[2 * n] - 2
            assert spanning_tree_count(hub_first) == lucas[2 * n] - 2
            assert spanning_tree_count_dense(hub_first) == lucas[2 * n] - 2

    def test_two_hubs_vs_deletion_contraction(self):
        # theta graphs, the Tait graphs of pretzel links: paths between two
        # vertices of highest degree, which may tie; paths of length 1 are
        # parallel edges
        rng = random.Random(5)
        for _ in range(60):
            lengths = [rng.randint(1, 3) for _ in range(rng.randint(2, 6))]
            n = 2 + sum(l - 1 for l in lengths)
            label = list(range(n))
            rng.shuffle(label)
            edges, nxt = [], 2
            for l in lengths:
                path = [0] + list(range(nxt, nxt + l - 1)) + [1]
                nxt += l - 1
                edges += [(label[a], label[b]) for a, b in zip(path, path[1:])]
            g = Multigraph(n, edges)
            assert spanning_tree_count(g) == spanning_tree_count_deletion_contraction(g)

    def test_relabel_invariance(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_multigraph(rng)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            h = Multigraph(g.vertex_count, [(perm[u], perm[v]) for (u, v) in g.edges])
            assert spanning_tree_count(g) == spanning_tree_count(h)

    def test_loop_inert_parallel_increases(self):
        rng = random.Random(3)
        checked = 0
        while checked < 40:
            g = random_multigraph(rng)
            tau = spanning_tree_count(g)
            with_loop = Multigraph(g.vertex_count, g.edges + [(0, 0)])
            assert spanning_tree_count(with_loop) == tau
            nonloops = [e for e in g.edges if e[0] != e[1]]
            if tau >= 1 and g.vertex_count >= 2 and nonloops:
                dup = Multigraph(g.vertex_count, g.edges + [nonloops[0]])
                assert spanning_tree_count(dup) > tau
                checked += 1

    def test_brute_force_cap(self):
        g = Multigraph(2, [(0, 1)] * 25)
        with pytest.raises(ValueError):
            spanning_tree_count_bruteforce(g)


class TestDeleteContract:
    def test_delete_triangle(self):
        g = delete(TRIANGLE, 0)
        assert g.vertex_count == 3
        assert len(g.edges) == 2
        assert spanning_tree_count(g) == 1

    def test_contract_triangle(self):
        g = contract(TRIANGLE, 0)
        assert g.vertex_count == 2
        assert sorted(g.edges) == [(0, 1), (1, 0)] or len(g.edges) == 2
        assert spanning_tree_count(g) == 2

    def test_contract_makes_loops(self):
        g = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
        h = contract(g, 0)
        assert h.vertex_count == 1
        assert h.edges == [(0, 0), (0, 0)]

    def test_contract_loop_rejected(self):
        g = Multigraph(1, [(0, 0)])
        with pytest.raises(ValueError):
            contract(g, 0)

    def test_deletion_contraction_identity_500(self):
        rng = random.Random(7)
        for _ in range(500):
            g = random_multigraph(rng)
            tau = spanning_tree_count(g)
            nonloop_idx = [i for i, e in enumerate(g.edges) if e[0] != e[1]]
            if not nonloop_idx:
                continue
            i = rng.choice(nonloop_idx)
            assert tau == spanning_tree_count(delete(g, i)) + spanning_tree_count(
                contract(g, i)
            )

    def test_matrix_tree_vs_brute_force_500(self):
        rng = random.Random(8)
        for _ in range(500):
            g = random_multigraph(rng)
            assert spanning_tree_count(g) == spanning_tree_count_bruteforce(g)

    def test_deletion_contraction_evaluator(self):
        rng = random.Random(9)
        for _ in range(200):
            g = random_multigraph(rng)
            assert spanning_tree_count_deletion_contraction(g) == spanning_tree_count(g)


class TestSparseRoute:
    def test_minor_rows_match_dense_minor(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_multigraph(rng, max_vertices=12, max_edges=30)
            rows = laplacian_minor_rows(g)
            dense = [[row.get(j, 0) for j in range(len(rows))] for row in rows]
            assert dense == dense_minor(g)

    def test_edge_cases(self):
        assert bareiss_det([]) == 1
        assert spanning_tree_count(Multigraph(1)) == 1
        assert spanning_tree_count(Multigraph(1, [(0, 0)] * 3)) == 1
        assert spanning_tree_count(Multigraph(2)) == 0
        assert spanning_tree_count(Multigraph(2, [(0, 0), (1, 1)])) == 0
        for k in range(1, 6):
            assert spanning_tree_count(Multigraph(2, [(0, 1)] * k + [(1, 1)])) == k
        assert spanning_tree_count(Multigraph(4, [(0, 1), (2, 3), (2, 3)])) == 0

    def test_input_not_modified(self):
        rows = laplacian_minor_rows(Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        before = [dict(r) for r in rows]
        assert bareiss_det(rows) == 8
        assert rows == before

    def test_small_graphs_vs_bareiss_and_oracles(self):
        # loops, parallel edges, disconnected graphs and 1-2 vertices
        rng = random.Random(12)
        zeros = tiny = 0
        for _ in range(600):
            g = random_multigraph(rng, connected_bias=rng.random() < 0.7)
            tau = spanning_tree_count(g)
            assert tau == spanning_tree_count_dense(g)
            assert tau == spanning_tree_count_bruteforce(g)
            assert tau == spanning_tree_count_deletion_contraction(g)
            zeros += tau == 0
            tiny += g.vertex_count <= 2
        assert zeros > 50 and tiny > 50

    def test_25_to_65_vertices_vs_deletion_contraction(self):
        # trees plus a few edges keep deletion-contraction cheap at any size
        rng = random.Random(13)
        zeros = 0
        for _ in range(40):
            n = rng.randint(25, 65)
            g = random_loopy_multigraph(rng, n, rng.randint(0, 3), rng.random() < 0.7)
            tau = spanning_tree_count(g)
            assert tau == spanning_tree_count_dense(g)
            assert tau == spanning_tree_count_deletion_contraction(g)
            zeros += tau == 0
        assert zeros > 0

    def test_30_to_70_vertices_vs_dense_reference(self):
        rng = random.Random(15)
        for n in (30, 40, 41, 70):
            cycle = Multigraph(n, [(i, (i + 1) % n) for i in range(n)])
            assert spanning_tree_count(cycle) == spanning_tree_count_dense(cycle) == n
            for _ in range(10):
                g = random_loopy_multigraph(rng, n, rng.randint(0, 3 * n), rng.random() < 0.8)
                assert spanning_tree_count(g) == spanning_tree_count_dense(g)

    def test_weaving_tait_graphs(self):
        # the weaving family has the largest Tait graphs: W(80) has Tait
        # graphs of 82 and 160 vertices
        for n in range(1, 81):
            diag = to_diagram(Weaving4(n))
            d = weaving_det(n)
            for g in (diag.shaded, diag.white):
                assert spanning_tree_count(g) == d

    def test_one_kernel_call_per_graph(self, monkeypatch):
        # every graph, whatever its size, is counted by one bareiss_det call
        # through the name multigraph resolves at call time
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return bareiss_det(rows)

        monkeypatch.setattr(multigraph, "bareiss_det", counting)
        rng = random.Random(16)
        graphs = [random_loopy_multigraph(rng, n, 2 * n, True) for n in (1, 5, 40, 41)]
        diag = to_diagram(Weaving4(80))
        graphs += [diag.shaded, diag.white]
        assert sorted(g.vertex_count for g in graphs) == [1, 5, 40, 41, 82, 160]
        for g in graphs:
            before = len(calls)
            assert spanning_tree_count(g) == spanning_tree_count_dense(g)
            assert calls[before:] == [g.vertex_count - 1]
