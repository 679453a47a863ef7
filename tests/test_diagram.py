"""PD codes, faces, checkerboard graphs, twist regions, and the builders."""

import json
import random

import pytest

from detvol.diagram import (
    PDCode,
    analyze,
    braid_closure_pd,
    checkerboard_graphs,
    faces,
    medial_pd,
    necklace_plane_graph,
    parse_pd_json,
    parse_pd_text,
    plat_closure_pd,
    twist_regions,
)
from detvol.families import ThreeBraid, TwoBridge, Weaving4, to_diagram
from detvol.multigraph import spanning_tree_count
from detvol.verify import sweep_specs
from pdtext import format_pd_text

# standard PD codes (slot order is a ccw cycle; over/under ignored):
# the 3-crossing trefoil diagram and the 4-crossing figure-eight diagram
TREFOIL_PD = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
FIG8_PD = [(0, 1, 4, 3), (4, 2, 6, 5), (3, 5, 8, 0), (8, 6, 2, 1)]


class TestPDValidation:
    def test_arc_count(self):
        with pytest.raises(ValueError, match=r"exactly twice; offenders: \{1: 4\}"):
            PDCode([(1, 1, 1, 1)])
        with pytest.raises(ValueError, match=r"offenders: \{1: 1, 2: 1, 3: 1, 4: 1\}"):
            PDCode([(1, 2, 3, 4)])
        # offenders in order of first appearance: 7 thrice, then 5 once
        with pytest.raises(ValueError, match=r"offenders: \{7: 3, 5: 1\}$"):
            PDCode([(0, 7, 1, 7), (0, 5, 1, 7)])

    def test_disconnected(self):
        # two disjoint kinked unknots
        with pytest.raises(ValueError, match="not connected"):
            PDCode([(0, 0, 1, 1), (2, 2, 3, 3)])

    def test_disconnected_with_sphere_face_count(self):
        # a kink on the sphere (3 faces) and a crossing on the torus (1 face)
        # have c + 2 faces together, so only connectivity rejects them
        with pytest.raises(ValueError, match="not connected"):
            PDCode([(0, 0, 1, 1), (10, 11, 10, 11)])

    def test_not_a_sphere(self):
        with pytest.raises(ValueError, match="does not close up to a sphere map"):
            PDCode([(0, 1, 0, 1)])

    def test_wrong_slot_count(self):
        with pytest.raises(ValueError, match="does not have 4 slots"):
            PDCode([(1, 2, 3)])
        with pytest.raises(ValueError, match="at least one crossing"):
            PDCode([])

    def test_valid(self):
        pd = PDCode(TREFOIL_PD)
        assert pd.crossing_count == 3


class TestDarts:
    """Dart 4*ci + s is slot s of crossing ci."""

    def test_figure_eight_partner(self):
        assert PDCode(FIG8_PD).partner() == [
            11, 15, 4, 8, 2, 14, 13, 9, 3, 7, 12, 0, 10, 6, 5, 1,
        ]

    def test_figure_eight_face_orbits(self):
        assert PDCode(FIG8_PD).face_orbits() == [
            [0, 8], [1, 12, 11], [2, 5, 15], [3, 9, 4], [6, 14], [7, 10, 13],
        ]

    def test_orbits_traversed_once(self):
        pd = PDCode(FIG8_PD)
        assert pd.face_orbits() is pd.face_orbits()

    def test_random_codes(self):
        # random pairings of the 4n slots into arcs; keep the valid maps
        rng = random.Random(9)
        valid = 0
        for _ in range(3000):
            n = rng.randint(1, 4)
            slots = list(range(4 * n))
            rng.shuffle(slots)
            labels = [0] * (4 * n)
            for k, d in enumerate(slots):
                labels[d] = k // 2
            try:
                pd = PDCode([labels[4 * ci : 4 * ci + 4] for ci in range(n)])
            except ValueError:
                continue
            valid += 1
            partner = pd.partner()
            assert all(partner[d] != d and partner[partner[d]] == d for d in range(4 * n))
            orbits = pd.face_orbits()
            assert len(orbits) == n + 2
            assert sorted(d for f in orbits for d in f) == list(range(4 * n))
            for f in orbits:  # next = the slot after the partner, ccw
                for d, e in zip(f, f[1:] + f[:1]):
                    assert e == 4 * (partner[d] // 4) + (partner[d] + 1) % 4
        assert valid > 300


class TestFaces:
    def test_trefoil(self):
        assert faces(PDCode(TREFOIL_PD)) == {2: 3, 3: 2}

    def test_figure_eight(self):
        assert faces(PDCode(FIG8_PD)) == {2: 2, 3: 4}

    def test_euler_relations(self):
        for pd_code in (TREFOIL_PD, FIG8_PD):
            pd = PDCode(pd_code)
            fv = faces(pd)
            c = pd.crossing_count
            assert fv.total_faces == c + 2
            assert fv.total_sides == 4 * c

    def test_weaving_face_vector(self):
        # 2n triangles, n squares, and the two axis faces of size n
        for n in (5, 6, 7):
            pd = braid_closure_pd(4, [1, 3, 2] * n)
            assert faces(pd) == {3: 2 * n, 4: n, n: 2}


class TestCheckerboard:
    def test_figure_eight_taus(self):
        shaded, white = checkerboard_graphs(PDCode(FIG8_PD))
        assert spanning_tree_count(shaded) == 5
        assert spanning_tree_count(white) == 5

    def test_dual_taus_agree(self):
        for pd_code in (TREFOIL_PD, FIG8_PD):
            shaded, white = checkerboard_graphs(PDCode(pd_code))
            assert spanning_tree_count(shaded) == spanning_tree_count(white)

    def test_single_crossing_unknot(self):
        pd = PDCode([(0, 0, 1, 1)])
        shaded, white = checkerboard_graphs(pd)
        assert spanning_tree_count(shaded) == 1
        assert spanning_tree_count(white) == 1
        assert {shaded.vertex_count, white.vertex_count} == {1, 2}

    def test_edge_count_is_crossing_count(self):
        pd = PDCode(FIG8_PD)
        shaded, white = checkerboard_graphs(pd)
        assert len(shaded.edges) == 4
        assert len(white.edges) == 4


class TestTwistRegions:
    def test_single_crossing(self):
        assert twist_regions(PDCode([(0, 0, 1, 1)])) == 1

    def test_twist_rows(self):
        # plat of s2^a: one row of a crossings
        for a in (1, 2, 5):
            pd = plat_closure_pd([2] * a, [(1, 2), (3, 4)])
            assert twist_regions(pd) == 1

    def test_figure_eight_standard(self):
        # the 4-crossing diagram has two twist regions of two crossings
        assert twist_regions(PDCode(FIG8_PD)) == 2


class TestBuilders:
    def test_braid_needs_all_strands(self):
        with pytest.raises(ValueError, match="every strand must participate"):
            braid_closure_pd(3, [1, 1])
        with pytest.raises(ValueError, match="position 2 out of range"):
            braid_closure_pd(2, [2])

    def test_pinned_crossings(self):
        # PD codes of the standard diagrams, recorded before the builders
        # shared one word walker and one label-joining step
        assert braid_closure_pd(4, [1, 3, 2] * 3).crossings == [
            (0, 1, 5, 4), (2, 3, 7, 6), (5, 6, 9, 8), (4, 8, 11, 10), (9, 7, 13, 12),
            (11, 12, 15, 14), (10, 14, 17, 0), (15, 13, 3, 18), (17, 18, 2, 1),
        ]
        # R(2,1,3) and R(1,1,1,1) as in families.to_diagram
        assert plat_closure_pd([2, 2, 1, 2, 2, 2], [(1, 2), (3, 4)]).crossings == [
            (0, 1, 3, 2), (2, 3, 5, 4), (0, 4, 7, 12), (7, 5, 9, 8), (8, 9, 11, 10),
            (10, 11, 1, 12),
        ]
        assert plat_closure_pd([2, 1, 2, 1], [(2, 3), (1, 4)]).crossings == [
            (0, 1, 3, 2), (0, 2, 5, 4), (5, 3, 7, 6), (4, 6, 7, 1),
        ]
        # B(1,2,3,1): sigma1 sigma2^2 sigma1^3 sigma2
        assert braid_closure_pd(3, [1, 2, 2, 1, 1, 1, 2]).crossings == [
            (0, 1, 4, 3), (4, 2, 6, 5), (5, 6, 8, 7), (3, 7, 10, 9), (9, 10, 12, 11),
            (11, 12, 14, 0), (14, 8, 2, 1),
        ]
        for spec, want in (
            (TwoBridge((2, 1, 3)), plat_closure_pd([2, 2, 1, 2, 2, 2], [(1, 2), (3, 4)])),
            (TwoBridge((1, 1, 1, 1)), plat_closure_pd([2, 1, 2, 1], [(2, 3), (1, 4)])),
            (ThreeBraid(((1, 2), (3, 1))), braid_closure_pd(3, [1, 2, 2, 1, 1, 1, 2])),
        ):
            assert to_diagram(spec).pd.crossings == want.crossings

    def test_braid_crossing_count(self):
        pd = braid_closure_pd(2, [1, 1, 1])
        assert pd.crossing_count == 3
        assert faces(pd) == {2: 3, 3: 2}

    def test_plat(self):
        pd = plat_closure_pd([2, 1, 2, 1], [(2, 3), (1, 4)])
        assert pd.crossing_count == 4
        shaded, white = checkerboard_graphs(pd)
        assert spanning_tree_count(shaded) == 5  # figure-eight

    def test_medial_of_necklace(self):
        g = necklace_plane_graph([2, 3, 7])
        pd = medial_pd(g)
        assert pd.crossing_count == 12
        shaded, white = checkerboard_graphs(pd)
        taus = {spanning_tree_count(shaded), spanning_tree_count(white)}
        assert taus == {41}
        assert {shaded.vertex_count, white.vertex_count} == {3, 11}

    def test_medial_of_bundle(self):
        pd = medial_pd(necklace_plane_graph([2, 2]))
        shaded, white = checkerboard_graphs(pd)
        assert spanning_tree_count(shaded) == 4

    def test_medial_recovers_graph(self):
        # one checkerboard graph of the medial is the original
        g = necklace_plane_graph([1, 2, 4, 3, 4])
        pd = medial_pd(g)
        shaded, white = checkerboard_graphs(pd)
        source = {shaded.vertex_count: shaded, white.vertex_count: white}[5]
        degs = sorted(source.degree(v) for v in range(5))
        expect = sorted(
            a + b for a, b in zip([1, 2, 4, 3, 4], [2, 4, 3, 4, 1])
        )
        assert degs == expect


class TestPDFormats:
    def test_text_round_trip(self):
        pd = PDCode(FIG8_PD)
        again = parse_pd_text(format_pd_text(pd))
        assert again.crossings == pd.crossings

    def test_text_parse_errors(self):
        with pytest.raises(ValueError):
            parse_pd_text("")
        with pytest.raises(ValueError):
            parse_pd_text("Y 1 2 3 4\n")
        with pytest.raises(ValueError):
            parse_pd_text("X 1 2 3\n")

    def test_json(self):
        text = json.dumps([list(t) for t in FIG8_PD])
        pd = parse_pd_json(text)
        assert faces(pd) == {2: 2, 3: 4}

    def test_analyze(self):
        diag = analyze(PDCode(FIG8_PD))
        assert diag.pd.crossing_count == 4
        assert diag.twist_count == 2
        assert diag.faces == {2: 2, 3: 4}


def _reference_analysis(crossings):
    """Faces, twist count and Tait graphs by independent per-call traversals."""
    n = len(crossings)
    where = {}
    for d, a in enumerate(x for t in crossings for x in t):
        where.setdefault(a, []).append(d)
    partner = [0] * (4 * n)
    for d1, d2 in where.values():
        partner[d1], partner[d2] = d2, d1

    def face_orbits():
        orbits, seen = [], [False] * (4 * n)
        for start in range(4 * n):
            face, d = [], start
            while not seen[d]:
                face.append(d)
                seen[d] = True
                d = 4 * (partner[d] // 4) + (partner[d] + 1) % 4
            if face:
                orbits.append(face)
        return orbits

    def classes(groups):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for group in groups:
            for d in group[1:]:
                parent[find(d // 4)] = find(group[0] // 4)
        return sum(parent[i] == i for i in range(n))

    assert classes(face_orbits()) == 1
    sizes = {}
    for f in face_orbits():
        sizes[len(f)] = sizes.get(len(f), 0) + 1
    twist = classes([f for f in face_orbits() if len(f) == 2])
    flip = [-1] * n
    flip[0] = 1
    stack = [0]
    while stack:
        ci = stack.pop()
        for d in range(4 * ci, 4 * ci + 4):
            cj = partner[d] // 4
            if flip[cj] == -1:
                flip[cj] = (flip[ci] + d - partner[d] - 1) % 2
                stack.append(cj)
    vertex, count = [0] * (4 * n), [0, 0]
    for f in face_orbits():
        color = (f[0] + flip[f[0] // 4]) % 2
        for d in f:
            vertex[d] = count[color]
        count[color] += 1
    edges = ([], [])
    for ci in range(n):
        for color in (0, 1):
            s = 2 - (color + flip[ci]) % 2
            edges[color].append((vertex[4 * ci + s], vertex[4 * ci + (s + 2) % 4]))
    return sizes, twist, (count[1], edges[1]), (count[0], edges[0])


@pytest.mark.parametrize(
    "specs",
    [
        pytest.param(lambda: sweep_specs("R", 10), id="R<=10"),
        pytest.param(lambda: sweep_specs("B", 10), id="B<=10"),
        pytest.param(lambda: sweep_specs("P", 9), id="P<=9"),
        pytest.param(lambda: [Weaving4(n) for n in range(1, 61)], id="W<=60"),
    ],
)
def test_analyze_matches_reference(specs):
    for spec in specs():
        diag = to_diagram(spec)
        sizes, twist, shaded, white = _reference_analysis(diag.pd.crossings)
        assert diag.faces == sizes, spec
        assert diag.twist_count == twist, spec
        assert (diag.shaded.vertex_count, diag.shaded.edges) == shaded, spec
        assert (diag.white.vertex_count, diag.white.edges) == white, spec


def test_analyze_figure_eight_matches_reference():
    diag = analyze(PDCode(FIG8_PD))
    sizes, twist, shaded, white = _reference_analysis(FIG8_PD)
    assert (diag.faces, diag.twist_count) == (sizes, twist)
    assert (diag.shaded.vertex_count, diag.shaded.edges) == shaded
    assert (diag.white.vertex_count, diag.white.edges) == white
