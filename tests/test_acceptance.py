"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Criterion 9a (the closed-form adjudication for the weaving tree counts)
asserts that neither printed prefactor variant is right: in exact Q(sqrt3)
arithmetic, variant (A) is n*b_n*(3-sqrt3)/2, irrational for every n >= 1,
and variant (B) is (n+2)*b_n, which matches the matrix-tree oracle on
E_4..E_10 only at n=3.  The oracle-backed closed form (which weaving_det
implements, criterion 9b) is n*((2+sqrt3)^n + (2-sqrt3)^n - 2)/2.  See the
README adjudication section.
"""

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
    threebraid_det,
    to_diagram,
    twobridge_det,
    v_function,
    weaving_det,
)
from detvol.hypvol import GAMMA, TWO_PI, V4, V8, XI, ZETA, bipyramid_volume
from detvol.multigraph import (
    Multigraph,
    contract,
    delete,
    spanning_tree_count,
    spanning_tree_count_bruteforce,
    spanning_tree_count_deletion_contraction,
)
from detvol.verify import check, enumerate_pretzels, sweep


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def compositions_upto(total_max, min_len=1, max_len=None):
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


def test_criterion_1_constants():
    ok = (
        abs(V4.value - 1.01494) < 1e-5
        and abs(V8.value - 3.66386237) < 1e-8
        and abs(GAMMA.value - 1.4253) < 1e-4
        and abs(GAMMA.value ** -5 + 2 * GAMMA.value ** -4 + GAMMA.value ** -3 - 1)
        < 1e-12
        and abs(XI.value - 5.0296) < 1e-4
        and abs(ZETA.value - 3.2099) < 1e-4
    )
    _report(
        "1 constants",
        ok,
        f"v4={V4.value:.10f} v8={V8.value:.10f} gamma={GAMMA.value:.10f} "
        f"xi={XI.value:.6f} zeta={ZETA.value:.6f}",
    )


def test_criterion_2_weaving_constant():
    val = math.exp((2 * bipyramid_volume(3).value + bipyramid_volume(4).value) / TWO_PI)
    target = 3.418677233748620053022
    rel = abs(val / target - 1)
    _report("2 volume-product constant", rel < 1e-12, f"value={val!r} rel_err={rel:.2e}")


def test_criterion_3_determinant_oracle_triangle():
    specs = []
    specs += [TwoBridge(a) for a in compositions_upto(14)]
    specs += [
        ThreeBraid(tuple((a[2 * i], a[2 * i + 1]) for i in range(len(a) // 2)))
        for a in compositions_upto(12)
        if len(a) % 2 == 0
    ]
    specs += [
        Pretzel(t)
        for n in range(1, 6)
        for t in product(range(1, 6), repeat=n)
    ]
    specs += [Weaving4(n) for n in range(1, 9)]
    checked = 0
    for spec in specs:
        expect = fam.det(spec)
        d = to_diagram(spec)
        assert spanning_tree_count(d.shaded) == expect, spec
        assert spanning_tree_count(d.white) == expect, spec
        assert spanning_tree_count_deletion_contraction(d.shaded) == expect, spec
        checked += 1
    _report("3 determinant oracle triangle", True, f"{checked} members, 4-way agreement")


def test_criterion_4_point_values():
    ok = twobridge_det([1, 1, 1, 1]) == 5 and twobridge_det([1, 1, 1, 1, 1]) == 8
    fib = [1, 1]
    while len(fib) < 26:
        fib.append(fib[-1] + fib[-2])
    ok = ok and all(twobridge_det([1] * n) == fib[n] for n in range(1, 25))
    ok = ok and v_function([1, 1, 1, 1, 1]) == Fraction(243, 32)
    for b1 in range(1, 11):
        for b2 in range(1, 11):
            ok = ok and threebraid_det([(1, b1), (1, b2)]) == b2 * (b1 + 2) + 2 * b1
    _report("4 point values", ok, "T(4)=5, T(5)=8, Fibonacci, V=243/32, 10x10 grid")


def test_criterion_5_statement_suites():
    # split product inequality, all splits, sum <= 14
    for a in compositions_upto(14):
        if len(a) < 2:
            continue
        d = twobridge_det(a)
        for k in range(1, len(a)):
            assert d > twobridge_det(a[:k]) * twobridge_det(a[k:]), (a, k)

    # the eleven sequence types, parameters to 50
    types = [
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
    for i, mk in enumerate(types):
        for a in range(2, 51):
            for b in (range(2, 51) if i >= 9 else (2,)):
                seq = mk(a, b)
                assert v_function(seq) <= twobridge_det(seq), (i + 1, seq)

    # det >= V with exactly the listed exceptions, sum <= 16
    def is_exception(a):
        return (
            a == (1,)
            or a == (1, 1)
            or a == (1, 1, 1, 1)
            or (len(a) == 3 and a[0] == 1 and a[2] == 1)
        )

    for a in compositions_upto(16):
        assert (twobridge_det(a) >= v_function(a)) == (not is_exception(a)), a

    # the 3-braid reduction identity, sum <= 12
    for a in compositions_upto(12):
        if len(a) % 2 or len(a) < 4:
            continue
        pairs = [(a[2 * i], a[2 * i + 1]) for i in range(len(a) // 2)]
        chain = [x for p in pairs[:-1] for x in p] + [pairs[-1][0]]
        an, bn = pairs[-1]
        reduced = [(pairs[0][0] + an, pairs[0][1])] + pairs[1:-1]
        assert threebraid_det(pairs) == bn * twobridge_det(chain) + threebraid_det(reduced)

    # deletion-contraction and matrix-tree vs brute force, 500 random graphs
    rng = random.Random(20250809)
    for _ in range(500):
        n = rng.randint(1, 7)
        edges = []
        if n > 1:
            order = list(range(n))
            rng.shuffle(order)
            for i in range(1, n):
                edges.append((order[i], order[rng.randrange(i)]))
        while len(edges) < rng.randint(0, 14):
            edges.append((rng.randrange(n), rng.randrange(n)))
        g = Multigraph(n, edges[:14])
        tau = spanning_tree_count(g)
        assert tau == spanning_tree_count_bruteforce(g)
        nonloops = [i for i, e in enumerate(g.edges) if e[0] != e[1]]
        if nonloops:
            i = rng.choice(nonloops)
            assert tau == spanning_tree_count(delete(g, i)) + spanning_tree_count(
                contract(g, i)
            )
    _report("5 lemma statement suites", True, "splits, 11 types, exceptions, reduction, 500 graphs")


def test_criterion_6_conjecture_sweeps():
    bad = []
    reports = sweep("R", 16, oracle_cap=0)
    n_r = 0
    for r in reports:
        if r.hyperbolic_status == "assumed_hyperbolic":
            n_r += 1
            if r.verdict != "holds" or not (r.margin > 0):
                bad.append(r.spec)
    reports = sweep("B", 12, oracle_cap=0)
    n_b = 0
    for r in reports:
        if r.hyperbolic_status == "assumed_hyperbolic":
            n_b += 1
            if r.verdict != "holds" or not (r.margin > 0):
                bad.append(r.spec)
    _report(
        "6 conjecture sweeps",
        not bad,
        f"{n_r} 2-bridge + {n_b} 3-braid members hold" if not bad else f"failures: {bad[:5]}",
    )


def test_criterion_7_weaving():
    for n in range(4, 51):
        r = check(Weaving4(n), oracle_cap=30)
        bound = r.bounds["adams_exact"]
        assert math.exp(bound / TWO_PI) <= 3.418677234 ** n, n
        assert r.two_pi_log_det > bound, n
        assert r.verdict == "holds", n
    small = [check(Weaving4(n)).verdict for n in (1, 2, 3)]
    assert small[0] == "vacuous" and small[1] == small[2] == "holds"
    _report("7 weaving family", True, "n=4..50 hold via the face-sum bound; n<=3 vacuous/holds")


def test_criterion_8_pretzel_enumeration():
    report = enumerate_pretzels(6)
    ok = not report.violations and report.elapsed_seconds < 600
    _report("8 pretzel enumeration t<=6", ok, report.summary())


def _weaving_tait_tau(n: int) -> int:
    d = to_diagram(Weaving4(n))
    g = next(gr for gr in (d.shaded, d.white) if gr.vertex_count == n + 2)
    return spanning_tree_count(g)


def _q3_mul(x, y):
    """Product in Q(sqrt3) of elements written as pairs (p, q) = p + q*sqrt3."""
    (a, b), (c, d) = x, y
    return (a * c + 3 * b * d, a * d + b * c)


def _q3_inv(x):
    a, b = x
    norm = a * a - 3 * b * b
    return (Fraction(a, norm), Fraction(-b, norm))


def _q3_pow(x, n):
    out = (1, 0)
    for _ in range(n):
        out = _q3_mul(out, x)
    return out


def test_criterion_9a_printed_prefactor_adjudication():
    """Both printed closed forms, in exact arithmetic, against the oracle.

    The two printed variants for the spanning trees of E_{n+2} are
        n/(2+2*sqrt3)   * [(2+sqrt3)^n - (2-sqrt3)^n]      (A)
        (n+2)/(2*sqrt3) * [(2+sqrt3)^n - (2-sqrt3)^n]      (B)
    and the oracle is matrix-tree on the diagram built from the braid word.
    Write (2+sqrt3)^n = a_n + b_n*sqrt3, so (2-sqrt3)^n = a_n - b_n*sqrt3
    and the bracket is 2*sqrt3*b_n, with b_0=0, b_1=1, b_{k+1}=4b_k-b_{k-1}.
    Then (A) = n*b_n*(3-sqrt3)/2, whose sqrt3 coefficient -n*b_n/2 is
    nonzero for n >= 1: (A) is irrational and matches no tree count.  And
    (B) = (n+2)*b_n: 16 at n=2, where the graph has 12 trees; 75 at n=3,
    where the graph is K5 minus an edge with 125*3/5 = 75 trees; and for
    n >= 4 it lies below the true count n*(a_n - 1) (criterion 9b), since
    a_n > sqrt3*b_n.  So the adjudication is: (A) at no n, (B) only at n=3.
    """
    b = [0, 1]
    while len(b) < 9:
        b.append(4 * b[-1] - b[-2])
    taus = {n: _weaving_tait_tau(n) for n in range(2, 9)}
    matches_a, matches_b = set(), set()
    for n, tau in taus.items():
        b_n = b[n]
        up, down = _q3_pow((2, 1), n), _q3_pow((2, -1), n)
        bracket = (up[0] - down[0], up[1] - down[1])
        assert bracket == (0, 2 * b_n), n
        variant_a = _q3_mul(_q3_mul((n, 0), _q3_inv((2, 2))), bracket)
        variant_b = _q3_mul(_q3_mul((n + 2, 0), _q3_inv((0, 2))), bracket)
        assert variant_a == (Fraction(3 * n * b_n, 2), Fraction(-n * b_n, 2)), n
        assert variant_b == ((n + 2) * b_n, 0), n
        if variant_a == (tau, 0):
            matches_a.add(n)
        if variant_b == (tau, 0):
            matches_b.add(n)
    detail = (
        f"(A) matches at n in {sorted(matches_a)}, (B) at n in {sorted(matches_b)}; "
        f"tree counts {[taus[n] for n in sorted(taus)]} for n=2..8"
    )
    _report("9a printed-prefactor adjudication", matches_a == set() and matches_b == {3}, detail)


def test_criterion_9b_weaving_closed_form_matches_oracle():
    for n in range(2, 9):
        assert _weaving_tait_tau(n) == weaving_det(n), n
    _report("9b weaving closed form vs matrix-tree", True, "E_4..E_10 exact")
