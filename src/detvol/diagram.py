"""Planar alternating diagram machinery.

A diagram is encoded as a PD code: one 4-tuple of arc labels per crossing,
slots in counterclockwise order.  Over/under information is irrelevant for
everything computed here (faces, checkerboard graphs, twist regions all
depend only on the underlying 4-valent plane map), so the code omits it.

Faces are the orbits of the rotation-system traversal; the checkerboard
graphs have one vertex per face of a color class and one edge per crossing.
The two graphs are planar duals, so they have the same number of spanning
trees, and for an alternating link that number is the link determinant.

Builders are provided for braid closures, 4-plat closures, and the medial
construction (an alternating diagram whose checkerboard graph is a given
plane multigraph).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypvol import FaceVector
from .multigraph import Multigraph

Dart = tuple[int, int]  # (crossing index, slot 0..3)


class PDCode:
    """A 4-valent plane map: list of crossings, each a ccw 4-tuple of arcs."""

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        self.crossings = [tuple(int(a) for a in t) for t in crossings]
        if not self.crossings:
            raise ValueError("PD code needs at least one crossing")
        for t in self.crossings:
            if len(t) != 4:
                raise ValueError(f"crossing {t} does not have 4 slots")
        self._validate()

    def _validate(self) -> None:
        seen: dict[int, int] = {}
        for t in self.crossings:
            for a in t:
                seen[a] = seen.get(a, 0) + 1
        bad = {a: k for a, k in seen.items() if k != 2}
        if bad:
            raise ValueError(f"arcs must appear exactly twice; offenders: {bad}")
        # connectivity of the crossing graph through arcs
        arc_cr: dict[int, list[int]] = {}
        for ci, t in enumerate(self.crossings):
            for a in t:
                arc_cr.setdefault(a, []).append(ci)
        n = len(self.crossings)
        seen_c = [False] * n
        stack = [0]
        seen_c[0] = True
        count = 1
        while stack:
            ci = stack.pop()
            for a in self.crossings[ci]:
                for cj in arc_cr[a]:
                    if not seen_c[cj]:
                        seen_c[cj] = True
                        count += 1
                        stack.append(cj)
        if count != n:
            raise ValueError("diagram is not connected")
        # planarity: Euler characteristic of the map must be 2
        if len(self.face_orbits()) != n + 2:
            raise ValueError("face traversal does not close up to a sphere map")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def partner(self) -> dict[Dart, Dart]:
        """The involution pairing the two darts of each arc."""
        where: dict[int, list[Dart]] = {}
        for ci, t in enumerate(self.crossings):
            for s, a in enumerate(t):
                where.setdefault(a, []).append((ci, s))
        out: dict[Dart, Dart] = {}
        for a, (d1, d2) in where.items():
            out[d1] = d2
            out[d2] = d1
        return out

    def face_orbits(self) -> list[list[Dart]]:
        """Faces as dart cycles of the map (next = rotate the partner dart)."""
        partner = self.partner()
        faces: list[list[Dart]] = []
        seen: set[Dart] = set()
        for ci in range(len(self.crossings)):
            for s in range(4):
                start = (ci, s)
                if start in seen:
                    continue
                face = []
                d = start
                while True:
                    face.append(d)
                    seen.add(d)
                    cj, sj = partner[d]
                    d = (cj, (sj + 1) % 4)
                    if d == start:
                        break
                faces.append(face)
        return faces


def faces(pd: PDCode) -> FaceVector:
    """Face-size multiset of the diagram."""
    counts: dict[int, int] = {}
    for f in pd.face_orbits():
        counts[len(f)] = counts.get(len(f), 0) + 1
    return FaceVector(counts)


def _face_coloring(pd: PDCode):
    """Face ids, the face of each dart, and a proper 2-coloring of faces.

    The face containing dart (0, 1) is colored white (0); faces adjacent
    across an arc get opposite colors.
    """
    orbits = pd.face_orbits()
    face_of: dict[Dart, int] = {}
    for fi, f in enumerate(orbits):
        for d in f:
            face_of[d] = fi
    partner = pd.partner()
    nf = len(orbits)
    adj: list[set[int]] = [set() for _ in range(nf)]
    for d, e in partner.items():
        adj[face_of[d]].add(face_of[e])
        adj[face_of[e]].add(face_of[d])
    color = [-1] * nf
    seed = face_of[(0, 1)]
    color[seed] = 0
    stack = [seed]
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if color[g] == -1:
                color[g] = 1 - color[f]
                stack.append(g)
            elif color[g] == color[f]:
                raise ValueError("face adjacency is not 2-colorable; malformed map")
    return orbits, face_of, color


def checkerboard_graphs(pd: PDCode) -> tuple[Multigraph, Multigraph]:
    """The two checkerboard (Tait) graphs: (shaded, white).

    One vertex per face of the color class, one edge per crossing joining
    the two opposite corners of that color.  White is the class of the face
    containing dart (0, 1).
    """
    orbits, face_of, color = _face_coloring(pd)
    vidx: dict[int, dict[int, int]] = {0: {}, 1: {}}
    edges: dict[int, list[tuple[int, int]]] = {0: [], 1: []}
    for fi in range(len(orbits)):
        vm = vidx[color[fi]]
        vm[fi] = len(vm)
    for ci in range(pd.crossing_count):
        # corner k sits between slots k and k+1; its face leaves via slot k+1
        corner_faces = [face_of[(ci, (k + 1) % 4)] for k in range(4)]
        cols = [color[f] for f in corner_faces]
        if cols[0] != cols[2] or cols[1] != cols[3] or cols[0] == cols[1]:
            raise ValueError("corner colors do not alternate; malformed map")
        for par in (0, 1):
            ks = [k for k in range(4) if cols[k] == par]
            f1, f2 = corner_faces[ks[0]], corner_faces[ks[1]]
            edges[par].append((vidx[par][f1], vidx[par][f2]))
    white = Multigraph(len(vidx[0]), edges[0])
    shaded = Multigraph(len(vidx[1]), edges[1])
    return shaded, white


def twist_regions(pd: PDCode) -> int:
    """Number of twist regions: maximal bigon chains plus isolated crossings.

    Crossings joined by a bigon face belong to the same region; every
    crossing in no bigon is a region by itself.
    """
    c = pd.crossing_count
    parent = list(range(c))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in pd.face_orbits():
        if len(f) == 2:
            r1, r2 = find(f[0][0]), find(f[1][0])
            if r1 != r2:
                parent[r1] = r2
    return len({find(i) for i in range(c)})


@dataclass(frozen=True)
class Diagram:
    """A diagram with its derived data."""

    pd: PDCode
    faces: FaceVector
    shaded: Multigraph
    white: Multigraph
    crossing_count: int
    twist_count: int


def analyze(pd: PDCode) -> Diagram:
    shaded, white = checkerboard_graphs(pd)
    return Diagram(
        pd=pd,
        faces=faces(pd),
        shaded=shaded,
        white=white,
        crossing_count=pd.crossing_count,
        twist_count=twist_regions(pd),
    )


# ---------------------------------------------------------------------------
# builders


class _ArcMerger:
    def __init__(self):
        self.ident: dict[int, int] = {}

    def find(self, x: int) -> int:
        while x in self.ident:
            x = self.ident[x]
        return x

    def union(self, x: int, y: int) -> None:
        fx, fy = self.find(x), self.find(y)
        if fx != fy:
            self.ident[fx] = fy


def braid_closure_pd(strands: int, word: list[int]) -> PDCode:
    """Trace closure of a braid word.

    ``word`` lists crossing positions (1-based; position k crosses strands
    k and k+1).  Signs are irrelevant here and not taken.  Every strand must
    be crossed at least once, else the closure has a crossing-free component.
    """
    if strands < 2:
        raise ValueError("need at least 2 strands")
    touched = set()
    for k in word:
        if not (1 <= k < strands):
            raise ValueError(f"position {k} out of range")
        touched.update((k, k + 1))
    if touched != set(range(1, strands + 1)):
        raise ValueError("every strand must participate in a crossing")
    arc = list(range(strands))
    nxt = strands
    crossings = []
    for k in word:
        a, b = arc[k - 1], arc[k]
        c, d = nxt, nxt + 1
        nxt += 2
        crossings.append((a, b, d, c))  # ccw: in-left, in-right, out-right, out-left
        arc[k - 1], arc[k] = c, d
    merge = _ArcMerger()
    for i in range(strands):
        merge.union(arc[i], i)
    return PDCode([tuple(merge.find(a) for a in t) for t in crossings])


def plat_closure_pd(word: list[int], top_caps: list[tuple[int, int]]) -> PDCode:
    """Plat closure of a 4-strand word: bottom caps (1,2),(3,4), given top caps."""
    arc = [0, 0, 1, 1]
    nxt = 2
    crossings = []
    for k in word:
        if not (1 <= k <= 3):
            raise ValueError(f"position {k} out of range")
        a, b = arc[k - 1], arc[k]
        c, d = nxt, nxt + 1
        nxt += 2
        crossings.append((a, b, d, c))
        arc[k - 1], arc[k] = c, d
    merge = _ArcMerger()
    for (i, j) in top_caps:
        merge.union(arc[i - 1], arc[j - 1])
    return PDCode([tuple(merge.find(a) for a in t) for t in crossings])


class PlaneGraph:
    """A multigraph with a rotation system (ccw dart order at each vertex)."""

    def __init__(self, edges: list[tuple[int, int]], rotations: list[list[tuple[int, int]]]):
        """``rotations[v]`` lists darts (edge_id, end) counterclockwise at v."""
        self.edges = list(edges)
        self.rotations = [list(r) for r in rotations]
        count: dict[tuple[int, int], int] = {}
        for r in self.rotations:
            for d in r:
                count[d] = count.get(d, 0) + 1
        expect = {}
        for eid, (u, v) in enumerate(self.edges):
            expect[(eid, 0)] = 1
            expect[(eid, 1)] = 1
        if count != expect:
            raise ValueError("rotation system does not list each dart exactly once")

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)


def medial_pd(g: PlaneGraph) -> PDCode:
    """Alternating-diagram map whose checkerboard graph is ``g``.

    Each edge of g becomes a crossing; each corner (consecutive dart pair in
    a rotation) becomes an arc.  This is the medial construction: vertices
    of g become faces of one color, faces of g the other.
    """
    pos: dict[tuple[int, int], tuple[int, int]] = {}
    for v, rot in enumerate(g.rotations):
        for p, d in enumerate(rot):
            pos[d] = (v, p)
    arc_ids: dict[tuple[int, int], int] = {}

    def corner(v: int, p: int) -> int:
        key = (v, p % len(g.rotations[v]))
        if key not in arc_ids:
            arc_ids[key] = len(arc_ids)
        return arc_ids[key]

    crossings = []
    for eid in range(len(g.edges)):
        vu, pu = pos[(eid, 0)]
        vw, pw = pos[(eid, 1)]
        crossings.append(
            (corner(vw, pw - 1), corner(vu, pu), corner(vu, pu - 1), corner(vw, pw))
        )
    return PDCode(crossings)


def necklace_plane_graph(bundles: list[int]) -> PlaneGraph:
    """Cycle of vertices with parallel-edge bundles between neighbors.

    ``bundles[i]`` parallel edges join vertex i to vertex i+1 (mod n); this
    is the checkerboard graph of a pretzel diagram when n >= 3.
    """
    n = len(bundles)
    if n < 2:
        raise ValueError("necklace needs at least 2 positions")
    edges = []
    outgoing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, a in enumerate(bundles):
        if a < 1:
            raise ValueError("bundle sizes must be >= 1")
        for _ in range(a):
            eid = len(edges)
            edges.append((i, (i + 1) % n))
            outgoing[i].append((eid, 0))
            incoming[(i + 1) % n].append((eid, 1))
    rotations = [outgoing[v] + incoming[v][::-1] for v in range(n)]
    return PlaneGraph(edges, rotations)


def bundle_plane_graph(multiplicity: int) -> PlaneGraph:
    """Two vertices joined by parallel edges (checkerboard graph of a (2,k) torus link)."""
    if multiplicity < 1:
        raise ValueError("need at least one edge")
    edges = [(0, 1)] * multiplicity
    rot0 = [(i, 0) for i in range(multiplicity)]
    rot1 = [(i, 1) for i in range(multiplicity - 1, -1, -1)]
    return PlaneGraph(edges, [rot0, rot1])


# ---------------------------------------------------------------------------
# PD file formats


def parse_pd_text(text: str) -> PDCode:
    """One crossing per line: 'X a b c d' with integer arc labels."""
    crossings = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0].upper() != "X" or len(parts) != 5:
            raise ValueError(f"bad PD line (expected 'X a b c d'): {ln!r}")
        crossings.append(tuple(int(x) for x in parts[1:]))
    if not crossings:
        raise ValueError("no crossings in PD text")
    return PDCode(crossings)


def parse_pd_json(text: str) -> PDCode:
    """JSON alternative: an array of 4-element arrays of arc labels."""
    import json

    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("PD JSON must be an array of 4-tuples")
    for t in data:
        if not (
            isinstance(t, list)
            and len(t) == 4
            and all(type(a) is int for a in t)  # bool and float rejected
        ):
            raise ValueError(f"PD crossing must be an array of 4 integers: {t!r}")
    return PDCode([tuple(t) for t in data])


def format_pd_text(pd: PDCode) -> str:
    return "\n".join("X " + " ".join(map(str, t)) for t in pd.crossings) + "\n"
