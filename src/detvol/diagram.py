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

Builders are provided for braid closures, 4-plat closures, and pretzel
diagrams (the medial of a necklace: a cycle of parallel-edge bundles, which
is the pretzel's checkerboard graph).  A builder emits labelled crossings
and ``PDCode`` pairs their darts by label, as it does a user's code.  A
code is checked and traversed once when built; the traversal also numbers
Tait vertices, counts face sizes and collects bigons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .hypvol import FaceVector
from .multigraph import Multigraph


def _quote(value) -> str:
    """``value`` as an error message quotes it: its repr, clipped past 60 characters.

    A string is clipped before its repr, so the quote stays a whole literal;
    the length given is the string's, or that of any other value's repr.
    """
    if isinstance(value, str):
        if len(value) <= 60:
            return repr(value)
        return f"{value[:60]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


class _Orbits(list):
    """Face orbits, with what their one traversal also found.

    ``vertex[d]`` numbers the face leaving dart d within its color,
    ``count[color]`` is the number of faces of each color, ``sizes`` counts
    the faces of each size and ``bigons`` lists the 2-sided faces.
    """

    __slots__ = ("vertex", "count", "sizes", "bigons")


class PDCode:
    """A 4-valent plane map: ccw 4-tuples of arcs, paired, colored and traversed when built.

    ``PDCode(crossings)`` takes 4 int labels per crossing, from a builder or
    a user alike, and pairs the two darts of each label.  It checks that
    there is at least one crossing, that every label is seen exactly twice,
    and that the map is connected and a sphere.
    """

    __slots__ = ("crossings", "_partner", "_flip", "_orbits")

    def __init__(self, crossings):
        crossings = list(map(tuple, crossings))
        if set(map(len, crossings)) != {4}:
            for t in crossings:
                if len(t) != 4:
                    raise ValueError(f"crossing {_quote(t)} does not have 4 slots")
            raise ValueError("PD code needs at least one crossing")
        labels = list(chain.from_iterable(crossings))
        if set(map(type, labels)) != {int}:  # a bool is not a label either
            for t in crossings:
                if not all(type(a) is int for a in t):
                    raise ValueError(f"crossing {_quote(t)} has a label that is not an int")
        partner = [-1] * len(labels)
        first: dict[int, int] = {}  # label -> its first dart
        for d, a in enumerate(labels):
            e = first.setdefault(a, d)
            if e != d and partner[e] < 0:  # a third dart of a label stays unpaired
                partner[d], partner[e] = e, d
        if -1 in partner:  # some label is not seen exactly twice
            bad = {a: k for a, k in Counter(labels).items() if k != 2}  # first-seen order
            raise ValueError(f"arcs must appear exactly twice; offenders: {_quote(bad)}")
        self.crossings = crossings
        self._partner = partner
        self._orbits: _Orbits | None = None
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

        The list is the code's own, traversed once when built; callers must
        not change it.  The traversal also numbers each face within its
        color, counts the faces of each size and collects the bigons, which
        ``checkerboard_graphs``, ``faces`` and ``twist_regions`` read.
        """
        partner = self.partner()
        if self._orbits is not None:
            return self._orbits
        flip = self._flip
        vertex = [-1] * len(partner)
        count = [0, 0]
        faces = []
        for start in range(len(partner)):
            if vertex[start] >= 0:
                continue
            color = (start + flip[start // 4]) % 2
            v = count[color]
            count[color] = v + 1
            face = []
            d = start
            while vertex[d] < 0:  # the orbit is a cycle: it ends back at start
                face.append(d)
                vertex[d] = v
                p = partner[d]
                d = p - 3 if p % 4 == 3 else p + 1
            faces.append(face)
        orbits = self._orbits = _Orbits(faces)
        orbits.vertex, orbits.count = vertex, count
        orbits.sizes = Counter(map(len, faces))
        orbits.bigons = [f for f in faces if len(f) == 2]
        return orbits


def _root(parent: dict[int, int], x: int) -> int:
    """The root of x in a forest stored as child -> parent; a root has no entry."""
    while x in parent:
        x = parent[x]
    return x


def _classes(n: int, groups) -> int:
    """Classes of crossings 0..n-1 when the crossings of each dart group are joined."""
    parent: dict[int, int] = {}
    for group in groups:
        root = _root(parent, group[0] // 4)
        for d in group[1:]:
            r = _root(parent, d // 4)
            if r != root:
                parent[r] = root
    return n - len(parent)  # each join gives one crossing a parent


def faces(pd: PDCode) -> FaceVector:
    """Face-size multiset of the diagram."""
    return FaceVector(pd.face_orbits().sizes)


def checkerboard_graphs(pd: PDCode) -> tuple[Multigraph, Multigraph]:
    """The two checkerboard (Tait) graphs: (shaded, white).

    One vertex per face of the color class, one edge per crossing joining
    the two opposite corners of that color.  White is the class of the face
    containing dart 1 (crossing 0, slot 1).
    """
    orbits = pd.face_orbits()
    vertex = orbits.vertex
    # slots 2 and 0 of crossing ci leave faces of color flip[ci], slots 1 and 3 the other
    even = zip(vertex[2::4], vertex[0::4])
    odd = zip(vertex[1::4], vertex[3::4])
    white, shaded = [], []
    for f, e, o in zip(pd._flip, even, odd):
        if f:
            white.append(o)
            shaded.append(e)
        else:
            white.append(e)
            shaded.append(o)
    count = orbits.count
    return Multigraph(count[1], shaded), Multigraph(count[0], white)


def twist_regions(pd: PDCode) -> int:
    """Number of twist regions: maximal bigon chains plus isolated crossings.

    Crossings joined by a bigon face belong to the same region; every
    crossing in no bigon is a region by itself.
    """
    return _classes(pd.crossing_count, pd.face_orbits().bigons)


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


def _walk(arc: list[int], word: list[int]):
    """Crossings of ``word`` on strands entering with labels ``arc``.

    Each crossing gives its two outgoing strands fresh labels; ``arc`` is
    updated in place to the labels leaving the word.  Returns the crossings
    and their loose darts, the only ones a closure relabels: the in-darts
    that take an entering label and the out-darts of the leaving labels.
    """
    nxt = max(arc) + 1
    out = [-1] * len(arc)  # the dart each label of ``arc`` leaves, -1 for an entering one
    crossings = []
    loose = []
    d = 0  # crossing i has darts 4i .. 4i + 3
    for k in word:
        if not (1 <= k < len(arc)):
            raise ValueError(f"position {k} out of range")
        a, b = arc[k - 1], arc[k]
        crossings.append((a, b, nxt + 1, nxt))  # ccw: in-left, in-right, out-right, out-left
        if out[k - 1] < 0:
            loose.append(d)
        if out[k] < 0:
            loose.append(d + 1)
        arc[k - 1], arc[k] = nxt, nxt + 1
        out[k - 1], out[k] = d + 3, d + 2
        nxt += 2
        d += 4
    loose += [e for e in out if e >= 0]
    return crossings, loose


def _closed(crossings, loose, joins) -> PDCode:
    """The PD code of walked ``crossings`` once each label pair in ``joins`` is one arc.

    Only the ``loose`` darts change: each takes its arc's representative
    label, so the arc's two loose darts share a label.
    """
    ident: dict[int, int] = {}
    for x, y in joins:
        fx, fy = _root(ident, x), _root(ident, y)
        if fx != fy:
            ident[fx] = fy
    for d in loose:
        ci, s = divmod(d, 4)
        t = crossings[ci]
        r = _root(ident, t[s])
        if r != t[s]:
            crossings[ci] = t[:s] + (r,) + t[s + 1 :]
    return PDCode(crossings)


def braid_closure_pd(strands: int, word: list[int]) -> PDCode:
    """Trace closure of a braid word.

    ``word`` lists crossing positions (1-based; position k crosses strands
    k and k+1).  Signs are irrelevant here and not taken.  Every strand must
    be crossed at least once, else the closure has a crossing-free component.
    """
    if strands < 2:
        raise ValueError("need at least 2 strands")
    arc = list(range(strands))
    crossings, loose = _walk(arc, word)  # range-checks every position
    if len(set(word) | {k + 1 for k in word}) != strands:
        raise ValueError("every strand must participate in a crossing")
    return _closed(crossings, loose, zip(arc, range(strands)))


def plat_closure_pd(word: list[int], top_caps: list[tuple[int, int]]) -> PDCode:
    """Plat closure of a 4-strand word: bottom caps (1,2),(3,4), given top caps."""
    arc = [0, 0, 1, 1]
    crossings, loose = _walk(arc, word)
    return _closed(crossings, loose, [(arc[i - 1], arc[j - 1]) for (i, j) in top_caps])


def medial_pd(bundles: list[int]) -> PDCode:
    """Alternating-diagram map whose checkerboard graph is a necklace.

    The necklace is a cycle of n vertices with ``bundles[i]`` parallel edges
    from vertex i to vertex i+1 (mod n); for n >= 3 the map is the pretzel
    diagram P(bundles).  This is the medial construction: each edge becomes
    a crossing and each corner (consecutive pair of edge ends around a
    vertex) an arc.  Counterclockwise around vertex i come the ends of
    bundle i, then those of bundle i-1 in reverse; the corners on either
    side of end p there are arcs base + p - 1 and base + p, cyclically.
    """
    n = len(bundles)
    if n < 2:
        raise ValueError("necklace needs at least 2 positions")
    if min(bundles) < 1:
        raise ValueError("bundle sizes must be >= 1")
    crossings = []
    base = 0  # label of vertex i's first corner
    for i, a in enumerate(bundles):
        k = a + bundles[i - 1]  # corners at vertex i
        # at vertex i+1 this bundle's ends follow that vertex's own bundle in
        # reverse, so edge j's end there sits at corner far - j
        far = (base + k if i < n - 1 else 0) + bundles[(i + 1) % n] + a - 1
        for j in range(a):
            crossings.append((far - j - 1, base + j, base + (j - 1) % k, far - j))
        base += k
    return PDCode(crossings)


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
            raise ValueError(f"bad PD line (expected 'X a b c d'): {_quote(ln)}")
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
        if not isinstance(t, list):  # PDCode checks the slots and labels
            raise ValueError(f"PD crossing must be an array of 4 integers: {_quote(t)}")
    return PDCode(data)

