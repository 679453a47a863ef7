"""Closed-form determinants, the V function, and the statement suites."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from detvol import families as fam
from detvol.families import (
    Pretzel,
    ThreeBraid,
    TwoBridge,
    Weaving4,
    closed_form,
    parse_spec,
    pretzel_det,
    threebraid_allones_det,
    threebraid_det,
    to_diagram,
    twobridge_det,
    twobridge_vol_upper,
    v_function,
    weaving_det,
)
from detvol.hypvol import TWO_PI
from detvol.multigraph import laplacian, spanning_tree_count


def compositions_upto(total_max, min_len=1):
    out = []

    def rec(budget, cur):
        if len(cur) >= min_len:
            out.append(tuple(cur))
        for x in range(1, budget + 1):
            cur.append(x)
            rec(budget - x, cur)
            cur.pop()

    rec(total_max, [])
    return out


class TestTwoBridgeDet:
    def test_single(self):
        for a1 in range(1, 9):
            assert twobridge_det([a1]) == a1

    def test_all_ones_values(self):
        assert twobridge_det([1, 1, 1, 1]) == 5
        assert twobridge_det([1, 1, 1, 1, 1]) == 8

    def test_all_ones_fibonacci(self):
        fib = [1, 1]
        while len(fib) < 22:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 20):
            assert twobridge_det([1] * n) == fib[n]  # Fib(n+1), Fib(1)=Fib(2)=1

    def test_rejects(self):
        with pytest.raises(ValueError):
            twobridge_det([])
        with pytest.raises(ValueError):
            twobridge_det([0, 2])


class TestVFunction:
    def test_known(self):
        assert v_function([1, 1, 1, 1, 1]) == Fraction(243, 32)

    def test_pairs_form(self):
        for b1 in range(1, 6):
            for b2 in range(1, 6):
                expect = Fraction(9, 16) * (b1 * b2 + 2 * b1 + 2 * b2 + 4)
                assert v_function([1, b1, 1, b2]) == expect

    def test_single(self):
        assert v_function([5]) == Fraction(7, 2)


class TestTwoBridgeVolUpper:
    def test_case_one(self):
        v = twobridge_vol_upper([1, 2, 1]).value
        assert abs(v - TWO_PI * math.log(2)) < 1e-12

    def test_all_ones_four(self):
        v = twobridge_vol_upper([1, 1, 1, 1]).value
        assert abs(v - TWO_PI * math.log(9 / 4)) < 1e-12

    def test_pair(self):
        v = twobridge_vol_upper([3, 4]).value
        assert abs(v - TWO_PI * math.log(4 * 5 / 4)) < 1e-12

    def test_below_v(self):
        for a in compositions_upto(9, min_len=2):
            vf = v_function(a)
            assert twobridge_vol_upper(a).value <= TWO_PI * math.log(vf) + 1e-9

    def test_rejects_single(self):
        with pytest.raises(ValueError):
            twobridge_vol_upper([5])


class TestThreeBraidDet:
    def test_figure_eight(self):
        assert threebraid_det([(1, 1), (1, 1)]) == 5

    def test_pair_grid(self):
        for b1 in range(1, 11):
            for b2 in range(1, 11):
                expect = b2 * (b1 + 2) + 2 * b1
                assert threebraid_det([(1, b1), (1, b2)]) == expect

    def test_all_ones_six(self):
        assert threebraid_det([(1, 1)] * 3) == 16

    def test_all_ones_closed_form(self):
        for n in range(1, 30):
            assert threebraid_det([(1, 1)] * n) == threebraid_allones_det(n)

    def test_all_ones_matches_surd_expression(self):
        x, y = (3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2
        for n in range(1, 12):
            assert threebraid_allones_det(n) == round(x ** n + y ** n - 2)

    def test_base_case(self):
        for a, b in product(range(1, 6), repeat=2):
            assert threebraid_det([(a, b)]) == a * b

    def test_cyclic_invariance(self):
        for flat in compositions_upto(10):
            if len(flat) % 2 or len(flat) < 4:
                continue
            pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2)]
            base = threebraid_det(pairs)
            for k in range(1, len(pairs)):
                rotated = pairs[k:] + pairs[:k]
                assert threebraid_det(rotated) == base

    def test_reduction_identity(self):
        # det B(a1,b1,...,an,bn) = bn det R(chain) + det B(a1+an, b1, ..., b_{n-1})
        for flat in compositions_upto(12):
            if len(flat) % 2 or len(flat) < 4:
                continue
            pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2)]
            chain = []
            for (ai, bi) in pairs[:-1]:
                chain += [ai, bi]
            chain.append(pairs[-1][0])
            an, bn = pairs[-1]
            reduced = [(pairs[0][0] + an, pairs[0][1])] + pairs[1:-1]
            assert threebraid_det(pairs) == bn * twobridge_det(chain) + threebraid_det(
                reduced
            )


class TestPretzelDet:
    def test_two(self):
        for a1, a2 in product(range(1, 7), repeat=2):
            assert pretzel_det([a1, a2]) == a1 + a2

    def test_ones(self):
        for n in range(1, 9):
            assert pretzel_det([1] * n) == n

    def test_237(self):
        assert pretzel_det([2, 3, 7]) == 41  # 21 + 14 + 6

    def test_symmetric(self):
        assert pretzel_det([5, 2, 3]) == pretzel_det([2, 3, 5])


class TestWeavingDet:
    def test_small_values(self):
        # adjudicated against matrix-tree counts of the braid-built diagrams
        assert [weaving_det(n) for n in range(1, 6)] == [1, 12, 75, 384, 1805]

    def test_increasing(self):
        vals = [weaving_det(n) for n in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_surd_expression(self):
        u, v = 2 + math.sqrt(3), 2 - math.sqrt(3)
        for n in range(1, 15):
            assert weaving_det(n) == round(n * (u ** n + v ** n - 2) / 2)

    def test_rejects(self):
        with pytest.raises(ValueError):
            weaving_det(0)

    def test_doubling_matches_recurrence(self):
        # G_{k+1} = 4 G_k - G_{k-1} and u_{k+1} = 3 u_k - u_{k-1}, step by step
        g_prev, g = 2, 4
        u_prev, u = 2, 3
        for n in range(1, 501):
            assert weaving_det(n) == n * (g - 2) // 2, n
            assert threebraid_allones_det(n) == u - 2, n
            g_prev, g = g, 4 * g - g_prev
            u_prev, u = u, 3 * u - u_prev


class TestStatementSuites:
    def test_split_product_inequality(self):
        # det R(a) > det R(a[:k]) * det R(a[k:]) for every split
        for a in compositions_upto(11):
            if len(a) < 2:
                continue
            d = twobridge_det(a)
            for k in range(1, len(a)):
                assert d > twobridge_det(a[:k]) * twobridge_det(a[k:])

    ELEVEN_TYPES = [
        lambda a, b: (a,),
        lambda a, b: (1, a),
        lambda a, b: (a, 1),
        lambda a, b: (1, 1, a),
        lambda a, b: (a, 1, 1),
        lambda a, b: (1, 1, 1, a),
        lambda a, b: (1, a, 1, 1),
        lambda a, b: (1, 1, a, 1),
        lambda a, b: (1, 1, a, 1, 1),
        lambda a, b: (1, a, 1, b, 1),
        lambda a, b: (1, 1, a, 1, b, 1),
    ]

    def test_eleven_types_v_below_t(self):
        for i, mk in enumerate(self.ELEVEN_TYPES):
            two_param = i >= 9
            for a in range(2, 51):
                bs = range(2, 51, 7) if two_param else (2,)
                for b in bs:
                    seq = mk(a, b)
                    assert v_function(seq) <= twobridge_det(seq), (i + 1, seq)

    def test_det_vs_v_exceptions_exact(self):
        def is_exception(a):
            return (
                a == (1,)
                or a == (1, 1)
                or a == (1, 1, 1, 1)
                or (len(a) == 3 and a[0] == 1 and a[2] == 1)
            )

        for a in compositions_upto(12):
            holds = twobridge_det(a) >= v_function(a)
            assert holds == (not is_exception(a)), a

    def test_ones_run_reduction_factor(self):
        # runs a_{k-2} = ... = a_{k+m-1} = 1 with k >= 4:
        # det(K) > (3/2)^m det(K') where K' drops entries k..k+m-1
        cases = []
        for head in [(2,), (3,), (2, 2), (1, 2), (3, 1)]:
            for m in (1, 2, 3):
                for tail in [(), (2,), (1, 2), (3,)]:
                    seq = head + (1, 1) + (1,) * m + tail
                    k = len(head) + 3  # 1-based index of the first dropped entry
                    if k < 4:
                        continue
                    cases.append((seq, k, m))
        assert cases
        for seq, k, m in cases:
            reduced = seq[: k - 1] + seq[k - 1 + m:]
            lhs = Fraction(twobridge_det(seq))
            rhs = Fraction(3, 2) ** m * twobridge_det(reduced)
            assert lhs > rhs, (seq, k, m)


class TestDiagrams:
    def test_spec_examples(self):
        d = to_diagram(TwoBridge((3, 3, 2)))
        assert d.pd.crossing_count == 8
        assert d.twist_count == 3
        assert spanning_tree_count(d.shaded) == 23

        d = to_diagram(ThreeBraid(((3, 3), (2, 3))))
        assert d.pd.crossing_count == 11
        assert d.twist_count == 4
        assert spanning_tree_count(d.shaded) == threebraid_det([(3, 3), (2, 3)])

        d = to_diagram(Pretzel((1, 2, 4, 3, 4)))
        assert spanning_tree_count(d.shaded) == pretzel_det([1, 2, 4, 3, 4])
        assert d.twist_count == 5

    def test_one_entry_pretzel_is_two_bridge(self):
        # both are the (2,a) torus link
        for a in range(1, 16):
            p, r = to_diagram(Pretzel((a,))), to_diagram(TwoBridge((a,)))
            assert p.faces == r.faces, a
            assert p.twist_count == r.twist_count, a
            for d in (p, r):
                assert spanning_tree_count(d.shaded) == spanning_tree_count(d.white) == a

    def test_structural_counts(self):
        assert fam.closed_form(Weaving4(5)).crossing_count == 15

    def test_detected_equals_structural_for_generic(self):
        # entries >= 2 never merge twist regions
        for a in [(2, 2), (3, 4, 2), (2, 2, 2, 2), (5, 3)]:
            assert to_diagram(TwoBridge(a)).twist_count == len(a)
        for pairs in [((2, 2),), ((2, 3), (4, 2))]:
            assert to_diagram(ThreeBraid(pairs)).twist_count == 2 * len(pairs)
        for a in [(2, 3, 7), (2, 2, 2, 2)]:
            assert to_diagram(Pretzel(a)).twist_count == len(a)
        for n in (3, 4, 6):
            assert to_diagram(Weaving4(n)).twist_count == 3 * n

    def test_known_merges(self):
        # adjacent single-crossing regions merge in the diagram
        assert to_diagram(TwoBridge((1, 1))).twist_count == 1
        assert to_diagram(TwoBridge((1, 2, 1))).twist_count == 1
        assert to_diagram(TwoBridge((1, 1, 1, 1))).twist_count == 2
        assert to_diagram(Weaving4(2)).twist_count == 4
        assert to_diagram(Pretzel((1, 1, 2))).twist_count == 2

    def test_oracle_triangle_sample(self):
        specs = (
            [TwoBridge(a) for a in compositions_upto(8)]
            + [ThreeBraid(((a, b),)) for a, b in product(range(1, 4), repeat=2)]
            + [Pretzel(a) for a in compositions_upto(8) if len(a) >= 3]
            + [Weaving4(n) for n in range(1, 6)]
        )
        for spec in specs:
            d = to_diagram(spec)
            expect = fam.det(spec)
            assert spanning_tree_count(d.shaded) == expect, spec
            assert spanning_tree_count(d.white) == expect, spec
            assert d.faces.total_faces == d.pd.crossing_count + 2
            assert d.faces.total_sides == 4 * d.pd.crossing_count

    def test_closed_form_face_data_matches_diagram(self):
        specs = (
            [TwoBridge(a) for a in compositions_upto(12)]
            + [ThreeBraid(tuple(zip(a[::2], a[1::2])))
               for a in compositions_upto(12) if len(a) % 2 == 0]
            + [Pretzel(a) for a in compositions_upto(10)]
            + [Weaving4(n) for n in range(1, 61)]
        )
        rng = random.Random(20261018)
        for _ in range(20):
            c = rng.randint(200, 600)
            specs.append(Weaving4(c // 3))
            a = [rng.randint(1, 4) for _ in range(2 * (c // 5))]
            specs.append(ThreeBraid(tuple(zip(a[::2], a[1::2]))))
            for family in (TwoBridge, Pretzel):
                a = []
                while sum(a) < c:
                    a.append(rng.randint(1, 3))
                specs.append(family(tuple(a)))
        for spec in specs:
            d = to_diagram(spec)
            cf = fam.closed_form(spec)
            assert cf.faces == d.faces, spec
            assert cf.twist_count == d.twist_count, spec
            assert cf.crossing_count == d.pd.crossing_count, spec

    def test_closed_form_twist_merges(self):
        for text, t in [("R(1,1)", 1), ("R(1,2,1)", 1), ("R(1,1,1,1)", 2), ("W(2)", 4),
                        ("B(1,2,1,3)", 3), ("B(1,1,1,1)", 2), ("P(1,1,2)", 2),
                        ("P(2,3)", 1)]:
            assert fam.closed_form(parse_spec(text)).twist_count == t, text

    def test_weaving_face_vectors(self):
        for n in (5, 8):
            d = to_diagram(Weaving4(n))
            assert d.faces == {3: 2 * n, 4: n, n: 2}

    def test_diagram_bound_below_v_and_end_corrected(self):
        from detvol.hypvol import adams_bound_log

        for a in compositions_upto(9, min_len=2):
            d = to_diagram(TwoBridge(a))
            r, s = d.faces.two_largest()
            al = adams_bound_log(d.faces, r, s).value
            assert al <= TWO_PI * math.log(v_function(a)) + 1e-9, a
            assert al <= twobridge_vol_upper(a).value + 1e-9, a

    def test_threebraid_diagram_bound_below_v(self):
        # adams_exact <= adams_log <= 2*pi*log V: a V-based 3-braid bound
        # can never be the best one
        from detvol.hypvol import adams_bound_exact, adams_bound_log

        for a in compositions_upto(10):
            if len(a) % 2:
                continue
            spec = ThreeBraid(tuple(zip(a[::2], a[1::2])))
            if closed_form(spec).nonhyperbolic:
                continue
            faces = to_diagram(spec).faces
            r, s = faces.two_largest()
            ae = adams_bound_exact(faces, r, s).value
            al = adams_bound_log(faces, r, s).value
            assert ae <= al + 1e-9, a
            assert al <= TWO_PI * math.log(v_function(spec.flat)) + 1e-9, a

    def test_allones_threebraid_laplacian_template(self):
        # hub of degree n joined to an n-cycle of degree-3 vertices
        for n in range(3, 9):
            d = to_diagram(ThreeBraid(((1, 1),) * n))
            g = next(
                gr for gr in (d.shaded, d.white) if gr.vertex_count == n + 1
            )
            degs = sorted(g.degree(v) for v in range(n + 1))
            assert degs == [3] * n + [n] if n > 3 else [3] * 4
            hub = max(range(n + 1), key=g.degree)
            adj = {v: [] for v in range(n + 1)}
            for (u, v) in g.edges:
                adj[u].append(v)
                adj[v].append(u)
            assert sorted(adj[hub]) == [v for v in range(n + 1) if v != hub]
            # walk the rim
            rim = [v for v in range(n + 1) if v != hub]
            order = [rim[0]]
            prev = None
            while len(order) < n:
                nbrs = [x for x in adj[order[-1]] if x != hub and x != prev]
                prev = order[-1]
                order.append(nbrs[0])
            perm = [hub] + order
            L = laplacian(g)
            P = [[L[perm[i]][perm[j]] for j in range(n + 1)] for i in range(n + 1)]
            expect = [[0] * (n + 1) for _ in range(n + 1)]
            expect[0][0] = n
            for i in range(1, n + 1):
                expect[0][i] = expect[i][0] = -1
                expect[i][i] = 3
                j = i % n + 1
                expect[i][j] = expect[j][i] = -1
            assert P == expect, n


class TestNonHyperbolic:
    def test_two_bridge(self):
        assert closed_form(TwoBridge((1, 1, 1))).nonhyperbolic
        assert closed_form(TwoBridge((1, 1))).nonhyperbolic
        assert closed_form(TwoBridge((7,))).nonhyperbolic
        assert not closed_form(TwoBridge((1, 1, 1, 1))).nonhyperbolic
        assert not closed_form(TwoBridge((1, 2, 1))).nonhyperbolic

    def test_three_braid(self):
        assert closed_form(ThreeBraid(((1, 7),))).nonhyperbolic
        assert closed_form(ThreeBraid(((7, 1),))).nonhyperbolic
        assert closed_form(ThreeBraid(((1, 1),))).nonhyperbolic
        assert not closed_form(ThreeBraid(((2, 2),))).nonhyperbolic
        assert not closed_form(ThreeBraid(((1, 1), (1, 1)))).nonhyperbolic

    def test_pretzel(self):
        assert closed_form(Pretzel((3,))).nonhyperbolic
        assert closed_form(Pretzel((2, 3))).nonhyperbolic
        assert closed_form(Pretzel((1, 1, 1, 1))).nonhyperbolic
        assert not closed_form(Pretzel((1, 1, 2))).nonhyperbolic
        assert not closed_form(Pretzel((2, 3, 7))).nonhyperbolic

    def test_weaving(self):
        assert closed_form(Weaving4(1)).nonhyperbolic
        assert not closed_form(Weaving4(2)).nonhyperbolic


class TestSpecSyntax:
    def test_round_trip(self):
        for text in ["R(3,3,2)", "B(1,1,1,1)", "P(2,3,7)", "W(4)"]:
            spec = parse_spec(text)
            assert parse_spec(str(spec)) == spec
            assert str(spec) == text

    def test_semicolon_form(self):
        spec = parse_spec("B(3,2;3,3)")
        assert spec == ThreeBraid(((3, 3), (2, 3)))

    def test_whitespace(self):
        assert parse_spec(" R( 3 , 3 , 2 ) ") == TwoBridge((3, 3, 2))

    def test_errors(self):
        for bad in ["", "Q(1)", "R()", "B(1,2,3)", "W(2,3)", "R(1,x)", "B(1,2;3)"]:
            with pytest.raises(ValueError):
                parse_spec(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoBridge((0, 1))
        with pytest.raises(ValueError):
            ThreeBraid(())
        with pytest.raises(ValueError):
            Weaving4(0)
