"""Closed-form determinants, the V function, and the statement suites."""

import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import mpmath as mp
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
    threebraid_det,
    to_diagram,
    twobridge_det,
    twobridge_vol_upper,
    v_function,
    weaving_det,
)
from detvol.hypvol import TWO_PI, FaceVector
from detvol.multigraph import spanning_tree_count
from oracles import (
    compositions_upto,
    degree,
    laplacian,
    threebraid_allones_det,
    threebraid_det_sequential,
)


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

    @pytest.mark.parametrize("a", [
        (2, 3, 7, 1, 4),
        (1,) * 100000,
        (3,) + (1,) * 300000 + (3,),
    ], ids=["short", "ones-100000", "3-ones-300000-3"])
    def test_within_claimed_error(self, a):
        # one rounded log per entry: the error grows with the length
        bound = twobridge_vol_upper(a)
        middle = Counter(a[1:-1])
        with mp.workdps(50):
            exact = 2 * mp.pi * (
                mp.log(a[0] + 1) + mp.log(a[-1] + 1) - mp.log(4)
                + mp.fsum(k * mp.log(mp.mpf(x + 2) / 2) for x, k in middle.items())
            )
            assert abs(mp.mpf(bound.value) - exact) <= bound.abs_err
        assert bound.abs_err <= 1e-14 * len(a) * max(bound.value, 1.0)


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

    def test_tree_matches_sequential_fold(self):
        # lengths 1..64 give odd, even and power-of-two tree shapes
        rng = random.Random(20261020)
        for n in [*range(1, 65), 200, 1400, 2000, 4001]:
            pairs = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n)]
            assert threebraid_det(pairs) == threebraid_det_sequential(pairs), n

    def test_rejects_empty_and_nonpositive(self):
        for pairs in ([], [(1, 0)], [(1, 1)] * 5 + [(0, 2)] + [(1, 1)] * 4):
            with pytest.raises(ValueError):
                threebraid_det(pairs)

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
        # both are the (2,a) torus link, whose determinant is a
        for a in range(1, 16):
            assert pretzel_det((a,)) == fam.det(Pretzel((a,))) == a, a
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
            assert sum(b for _, b in d.faces) == d.pd.crossing_count + 2
            assert sum(n * b for n, b in d.faces) == 4 * d.pd.crossing_count

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

    def test_closed_form_above_oracle_cap(self):
        # sizes no diagram is built for: the crossing number is the entry sum
        # (3n for W), and Euler's formula holds for the face count
        rng = random.Random(20261019)
        specs = [(Weaving4(10**5), 3 * 10**5)]
        for _ in range(10):
            a = tuple(rng.randint(1, 50) for _ in range(rng.randint(200, 2000)))
            pairs = tuple((rng.randint(1, 50), rng.randint(1, 50))
                          for _ in range(rng.randint(1, 1000)))
            specs += [(TwoBridge(a), sum(a)), (Pretzel(a), sum(a)),
                      (ThreeBraid(pairs), sum(map(sum, pairs)))]
        for spec, c in specs:
            cf = closed_form(spec)
            assert cf.crossing_count == c, spec
            assert sum(b for _, b in cf.faces) == c + 2, spec
            assert parse_spec(str(spec)) == spec

    def test_closed_form_pinned_above_oracle_cap(self):
        # every field of the record on seeded R and P specs of 1,000-9,000
        # crossings, past every diagram comparison; the digest was recorded
        # from an independent derivation, by the columns of the plat and
        # pretzel templates
        rng = random.Random(20261020)
        h = hashlib.sha256()
        for _ in range(30):
            c, top = rng.randint(1000, 9000), rng.choice((2, 4, 50))
            a, total = [], 0
            while total < c:
                a.append(rng.randint(1, top))
                total += a[-1]
            for family in (TwoBridge, Pretzel):
                cf = closed_form(family(tuple(a)))
                h.update(repr((dict(cf.faces), cf.twist_count, cf.crossing_count,
                               cf.nonhyperbolic)).encode())
        assert h.hexdigest()[:12] == "f6022c66a8fd"

    def test_closed_form_pinned_b_and_w_above_oracle_cap(self):
        # every field of the record on seeded B specs of 300-3,000 pairs and
        # W specs of 1,002-9,000 crossings, past every diagram comparison; the
        # digest was recorded from an independent derivation, by the columns
        # of the braid closures
        rng = random.Random(20261021)
        h = hashlib.sha256()
        for _ in range(30):
            n, top = rng.randint(300, 3000), rng.choice((2, 4, 50))
            pairs = tuple((rng.randint(1, top), rng.randint(1, top)) for _ in range(n))
            for spec in (ThreeBraid(pairs), Weaving4(rng.randint(334, 3000))):
                cf = closed_form(spec)
                h.update(repr((dict(cf.faces), cf.twist_count, cf.crossing_count,
                               cf.nonhyperbolic)).encode())
        assert h.hexdigest()[:12] == "9837a7ea4515"

    def test_closed_form_twist_merges(self):
        for text, t in [("R(1,1)", 1), ("R(1,2,1)", 1), ("R(1,1,1,1)", 2), ("W(2)", 4),
                        ("B(1,2,1,3)", 3), ("B(1,1,1,1)", 2), ("P(1,1,2)", 2),
                        ("P(2,3)", 1)]:
            assert fam.closed_form(parse_spec(text)).twist_count == t, text

    def test_torus_pretzels_and_two_bridge_twist_rule(self):
        # P(a), P(a,b) and P(1,...,1) are all the (2,k) torus link R(k),
        # k = sum(a), at sizes past the face-data test's compositions
        specs = ([Pretzel((a,)) for a in range(1, 41)]
                 + [Pretzel((a, b)) for a in range(1, 21) for b in range(1, 21)]
                 + [Pretzel((1,) * n) for n in range(3, 41)])
        for p in specs:
            r = TwoBridge((sum(p.a),))
            cp, cr = closed_form(p), closed_form(r)
            assert cp.faces == cr.faces, p
            assert cp.twist_count == cr.twist_count == 1, p
            assert cp.crossing_count == cr.crossing_count == sum(p.a), p
            assert cp.nonhyperbolic and cr.nonhyperbolic, p
            assert fam.det(p) == fam.det(r) == sum(p.a), p
            if cp.crossing_count <= 40:  # the diagram too, with its own traversal
                d = to_diagram(p)
                assert cp.faces == d.faces and cp.twist_count == d.twist_count, p
        # the one twist rule, max(1, n - bigons between regions), where its
        # floor bites: one or two entries, and R(1,x,1)
        for a in ([(x,) for x in range(1, 16)]
                  + list(product(range(1, 16), repeat=2))
                  + [(1, x, 1) for x in range(1, 16)]):
            spec = TwoBridge(a)
            assert closed_form(spec).twist_count == to_diagram(spec).twist_count, spec

    def test_weaving_face_vectors(self):
        for n in (5, 8):
            d = to_diagram(Weaving4(n))
            assert d.faces == FaceVector({3: 2 * n, 4: n, n: 2})

    def test_diagram_bound_below_v_and_end_corrected(self):
        from detvol.hypvol import adams_bound_log

        for a in compositions_upto(9, min_len=2):
            d = to_diagram(TwoBridge(a))
            al = adams_bound_log(d.faces).value
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
            ae = adams_bound_exact(faces).value
            al = adams_bound_log(faces).value
            assert ae <= al + 1e-9, a
            assert al <= TWO_PI * math.log(v_function(sum(spec.pairs, ()))) + 1e-9, a

    def test_allones_threebraid_laplacian_template(self):
        # hub of degree n joined to an n-cycle of degree-3 vertices
        for n in range(3, 9):
            d = to_diagram(ThreeBraid(((1, 1),) * n))
            g = next(
                gr for gr in (d.shaded, d.white) if gr.vertex_count == n + 1
            )
            degs = sorted(degree(g, v) for v in range(n + 1))
            assert degs == [3] * n + [n] if n > 3 else [3] * 4
            hub = max(range(n + 1), key=lambda v: degree(g, v))
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
        assert parse_spec("P(" + " " * 100_000 + "2,3,7 )") == Pretzel((2, 3, 7))

    def test_errors(self):
        for bad in ["", "Q(1)", "R()", "B(1,2,3)", "W(2,3)", "R(1,x)", "B(1,2;3)",
                    "R(1,,2)", "P(2,3,7,)", "B(1,2;3,)", "R(" + " " * 3000]:
            start = time.perf_counter()
            with pytest.raises(ValueError):
                parse_spec(bad)
            assert time.perf_counter() - start < 0.5  # no backtracking over whitespace

    def test_specs_store_checked_tuples(self):
        r = TwoBridge(iter([2, 3]))
        assert r == TwoBridge((2, 3)) and str(r) == "R(2,3)"
        assert hash(Pretzel([2, 3, 7])) == hash(Pretzel((2, 3, 7)))
        assert ThreeBraid([[1, 2]]).pairs == ((1, 2),)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoBridge((0, 1))
        with pytest.raises(ValueError):
            ThreeBraid(())
        with pytest.raises(ValueError):
            Weaving4(0)


# Every family entry passes one rule: an int, not a bool, at least 1.
@pytest.mark.parametrize("make", [
    lambda: TwoBridge((2.5, 3)),
    lambda: Pretzel((True, 2, 3)),
    lambda: ThreeBraid(((2.0, 1), (1, 2))),
    lambda: ThreeBraid(((1, 2), (1, 2, 3))),
    lambda: Weaving4(2.0),
    lambda: twobridge_det([2.5]),
    lambda: pretzel_det((2.5, 3, 7)),
    lambda: threebraid_det([(2.5, 1)]),
    lambda: threebraid_det([("2", "3")]),
    lambda: weaving_det(3.0),
    lambda: v_function([1.5]),
    lambda: twobridge_vol_upper([1, 2.5]),
    lambda: ThreeBraid((1, 2)),
    lambda: threebraid_det([(1, 2), 3]),
    lambda: TwoBridge(5),
], ids=["R-float", "P-bool", "B-float", "B-triple", "W-float", "twobridge_det",
        "pretzel_det", "threebraid_det-float", "threebraid_det-str", "weaving_det",
        "v_function", "twobridge_vol_upper", "B-flat", "threebraid_det-flat", "R-int"])
def test_entry_rule_refuses(make):
    with pytest.raises(ValueError) as err:
        make()
    assert "\n" not in str(err.value)
