"""Planar alternating diagram machinery.

A diagram is encoded as a PD code: one 4-tuple of arc labels per crossing,
slots in counterclockwise order.  Over/under information is irrelevant for
everything computed here (faces, checkerboard graphs, twist regions all
depend only on the underlying 4-valent plane map), so the code omits it.
A dart (an arc's end at slot s of crossing ci) is the integer d = 4*ci + s.

Faces are the orbits of the rotation-system traversal; the checkerboard
graphs have one vertex per face of a color class and one edge per crossing.
The two graphs are planar duals, so they have the same number of spanning
trees, and for an alternating link that number is the link determinant.

Builders are provided for braid closures, 4-plat closures, and the medial
construction (an alternating diagram whose checkerboard graph is a given
plane multigraph).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .hypvol import FaceVector
from .multigraph import Multigraph


class PDCode:
    """A 4-valent plane map: ccw 4-tuples of arcs, paired, colored and traversed when built."""

    __slots__ = ("crossings", "_partner", "_flip", "_orbits")

    def __init__(self, crossings):
        self.crossings = [tuple(map(int, t)) for t in crossings]
        if not self.crossings:
            raise ValueError("PD code needs at least one crossing")
        for t in self.crossings:
            if len(t) != 4:
                raise ValueError(f"crossing {t} does not have 4 slots")
        labels = [a for t in self.crossings for a in t]
        self._partner = partner = [-1] * len(labels)
        first: dict[int, int] = {}  # label -> its first dart
        for d, a in enumerate(labels):
            e = first.setdefault(a, d)
            if e != d:
                partner[d], partner[e] = e, d
        # 4n darts, 2n labels and no label seen once: each is seen exactly twice
        if 2 * len(first) != len(labels) or -1 in partner:
            bad = {a: k for a, k in Counter(labels).items() if k != 2}  # first-seen order
            raise ValueError(f"arcs must appear exactly twice; offenders: {bad}")
        self._orbits: list[list[int]] | None = None
        self._validate()

    def _validate(self) -> None:
        partner = self.partner()
        n = len(self.crossings)
        # The face leaving dart d gets color (d + flip[d // 4]) % 2, so corner
        # colors alternate around every crossing.  The face leaving d also leaves
        # the dart after its partner p, which fixes flip[p // 4]; flip[0] = 1
        # makes the face of dart 1 white (0).  The search reaches every crossing
        # exactly when the map is connected; on a sphere map it never disagrees.
        flip = [-1] * n
        flip[0] = 1
        stack = [0]
        while stack:
            ci = stack.pop()
            for d in range(4 * ci, 4 * ci + 4):
                p = partner[d]
                cj = p // 4
                if flip[cj] == -1:
                    flip[cj] = (flip[ci] + d - p - 1) % 2
                    stack.append(cj)
        if -1 in flip:
            raise ValueError("diagram is not connected")
        self._flip = flip
        # planarity: Euler characteristic of the map must be 2
        if len(self.face_orbits()) != n + 2:
            raise ValueError("face traversal does not close up to a sphere map")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def partner(self) -> list[int]:
        """The involution pairing the two darts of each arc, indexed by dart.

        The list is the code's own, paired once when it was built; callers
        must not change it.
        """
        return self._partner

    def face_orbits(self) -> list[list[int]]:
        """Faces as dart cycles of the map (next = rotate the partner dart).

        The list is the code's own, traversed once when built; callers must not change it.
        """
        partner = self.partner()
        if self._orbits is not None:
            return self._orbits
        faces: list[list[int]] = []
        seen = [False] * len(partner)
        for start in range(len(partner)):
            if seen[start]:
                continue
            face = []
            d = start
            while not seen[d]:  # the orbit is a cycle: it ends back at start
                face.append(d)
                seen[d] = True
                p = partner[d]
                d = p - 3 if p % 4 == 3 else p + 1
            faces.append(face)
        self._orbits = faces
        return faces


def _classes(n: int, groups) -> int:
    """Classes of crossings 0..n-1 when the crossings of each dart group are joined."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        root = find(group[0] // 4)
        for d in group[1:]:
            r = find(d // 4)
            if r != root:
                parent[r] = root
    return sum(parent[i] == i for i in range(n))


def faces(pd: PDCode) -> FaceVector:
    """Face-size multiset of the diagram."""
    return FaceVector(Counter(map(len, pd.face_orbits())))


def checkerboard_graphs(pd: PDCode) -> tuple[Multigraph, Multigraph]:
    """The two checkerboard (Tait) graphs: (shaded, white).

    One vertex per face of the color class, one edge per crossing joining
    the two opposite corners of that color.  White is the class of the face
    containing dart 1 (crossing 0, slot 1).
    """
    orbits = pd.face_orbits()
    flip = pd._flip
    n = pd.crossing_count
    vertex = [0] * (4 * n)  # dart -> its face's number within its color
    sizes = [0, 0]
    for f in orbits:
        color = (f[0] + flip[f[0] // 4]) % 2
        for d in f:
            vertex[d] = sizes[color]
        sizes[color] += 1
    edges: tuple[list, list] = ([], [])
    for ci in range(n):
        for color in (0, 1):
            # slots s and s + 2 leave the two corners of this color
            s = 2 - (color + flip[ci]) % 2
            edges[color].append((vertex[4 * ci + s], vertex[4 * ci + (s + 2) % 4]))
    return Multigraph(sizes[1], edges[1]), Multigraph(sizes[0], edges[0])


def twist_regions(pd: PDCode) -> int:
    """Number of twist regions: maximal bigon chains plus isolated crossings.

    Crossings joined by a bigon face belong to the same region; every
    crossing in no bigon is a region by itself.
    """
    return _classes(pd.crossing_count, [f for f in pd.face_orbits() if len(f) == 2])


@dataclass(frozen=True)
class Diagram:
    """A diagram with its derived data."""

    pd: PDCode
    faces: FaceVector
    shaded: Multigraph
    white: Multigraph
    twist_count: int


def analyze(pd: PDCode) -> Diagram:
    shaded, white = checkerboard_graphs(pd)
    return Diagram(
        pd=pd,
        faces=faces(pd),
        shaded=shaded,
        white=white,
        twist_count=twist_regions(pd),
    )


# ---------------------------------------------------------------------------
# builders


def _walk(arc: list[int], word: list[int]) -> list[tuple[int, int, int, int]]:
    """Crossings of ``word`` on strands entering with labels ``arc``.

    Each crossing gives its two outgoing strands fresh labels; ``arc`` is
    updated in place to the labels leaving the word.
    """
    nxt = max(arc) + 1
    crossings = []
    for k in word:
        if not (1 <= k < len(arc)):
            raise ValueError(f"position {k} out of range")
        a, b = arc[k - 1], arc[k]
        crossings.append((a, b, nxt + 1, nxt))  # ccw: in-left, in-right, out-right, out-left
        arc[k - 1], arc[k] = nxt, nxt + 1
        nxt += 2
    return crossings


def _closed(crossings, joins) -> PDCode:
    """The PD code of ``crossings`` once each label pair in ``joins`` is one arc."""
    ident: dict[int, int] = {}

    def find(x: int) -> int:
        while x in ident:
            x = ident[x]
        return x

    for x, y in joins:
        fx, fy = find(x), find(y)
        if fx != fy:
            ident[fx] = fy
    g = {x: find(x) for x in ident}.get
    return PDCode([(g(a, a), g(b, b), g(c, c), g(d, d)) for a, b, c, d in crossings])


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
    crossings = _walk(arc, word)
    return _closed(crossings, zip(arc, range(strands)))


def plat_closure_pd(word: list[int], top_caps: list[tuple[int, int]]) -> PDCode:
    """Plat closure of a 4-strand word: bottom caps (1,2),(3,4), given top caps."""
    arc = [0, 0, 1, 1]
    crossings = _walk(arc, word)
    return _closed(crossings, [(arc[i - 1], arc[j - 1]) for (i, j) in top_caps])


class PlaneGraph:
    """A multigraph with a rotation system (ccw dart order at each vertex)."""

    def __init__(self, edges: list[tuple[int, int]], rotations: list[list[tuple[int, int]]]):
        """``rotations[v]`` lists darts (edge_id, end) counterclockwise at v."""
        self.edges = list(edges)
        self.rotations = [list(r) for r in rotations]
        darts = sorted(d for r in self.rotations for d in r)
        if darts != [(eid, end) for eid in range(len(self.edges)) for end in (0, 1)]:
            raise ValueError("rotation system does not list each dart exactly once")


def medial_pd(g: PlaneGraph) -> PDCode:
    """Alternating-diagram map whose checkerboard graph is ``g``.

    Each edge of g becomes a crossing; each corner (consecutive dart pair in
    a rotation) becomes an arc.  This is the medial construction: vertices
    of g become faces of one color, faces of g the other.
    """
    # corner p of vertex v (between darts p - 1 and p) is arc base(v) + p
    corners: dict[tuple[int, int], tuple[int, int]] = {}  # dart -> corners before, at
    base = 0
    for rot in g.rotations:
        k = len(rot)
        for p, d in enumerate(rot):
            corners[d] = (base + (p - 1) % k, base + p)
        base += k
    crossings = []
    for eid in range(len(g.edges)):
        u_before, u_at = corners[(eid, 0)]
        w_before, w_at = corners[(eid, 1)]
        crossings.append((w_before, u_at, u_before, w_at))
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

    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("PD JSON is nested too deeply") from None
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

