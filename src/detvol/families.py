"""The four alternating link families: constructors and exact determinants.

* ``TwoBridge(a1,...,an)`` -- 2-bridge (rational) link, one twist region per
  entry; determinant by the recurrence T(k+1) = a_{k+1} T(k) + T(k-1).
* ``ThreeBraid(a1,b1,...,an,bn)`` -- alternating 3-braid closure; determinant
  tr(prod [[1,a_i],[0,1]] [[1,0],[b_i,1]]) - 2, with the product taken as a
  balanced tree in O(M(n) log n) bit work, which the test suite checks
  against the paper's edge-contraction reduction to 2-bridge chains.
* ``Pretzel(a1,...,an)`` -- pretzel link; determinant is the elementary
  symmetric polynomial of degree n-1.
* ``Weaving4(n)`` -- closure of the 4-strand word (s1 s3 s2^-1)^n; its
  checkerboard graph is the n-gonal bipyramid, whose spanning-tree count is
  n*((2+sqrt3)^n + (2-sqrt3)^n - 2)/2, evaluated exactly by Lucas-sequence
  doubling (never floating point).

All determinants are exact big integers, spanning-tree counts of a Tait
graph.  A twist region is a bundle of parallel Tait edges or a path of series
ones, and each family is a Tait shape of one bundle or path per region: R a
series-parallel network folded from its continued fraction, P n paths between
two hubs, B a wheel (spoke bundles a_i, rim paths b_i) and W the n-gonal
bipyramid.  ``closed_form`` reads off that shape, in one record, the face
sizes, the twist-region count and the crossing number of the standard
diagram, and whether the member is a known non-hyperbolic link, so the volume
bounds need no diagram.  ``to_diagram`` builds that diagram; it is the oracle
that every closed form, determinant and face data alike, is checked against,
so it shares no code with them.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import diagram as dgm
from .diagram import _quote
from .hypvol import TWO_PI, FaceVector, Real
import math


@dataclass(frozen=True)
class TwoBridge:
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", _check_entries(self.a))

    def __str__(self):
        return "R(" + ",".join(map(str, self.a)) + ")"


@dataclass(frozen=True)
class ThreeBraid:
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", _check_pairs(self.pairs))

    def __str__(self):
        return "B(" + ",".join(f"{x},{y}" for x, y in self.pairs) + ")"


@dataclass(frozen=True)
class Pretzel:
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", _check_entries(self.a))

    def __str__(self):
        return "P(" + ",".join(map(str, self.a)) + ")"


@dataclass(frozen=True)
class Weaving4:
    n: int

    def __post_init__(self):
        _check_entries((self.n,))

    def __str__(self):
        return f"W({self.n})"


FamilySpec = TwoBridge | ThreeBraid | Pretzel | Weaving4


def _check_entries(a) -> tuple[int, ...]:
    """The one rule for a family's integers: a nonempty list of ints >= 1, no
    bools.  Returns the entries as the tuple that was checked."""
    try:
        a = tuple(a)
        if not a:
            raise ValueError("sequence must be nonempty")
        for x in a:
            if type(x) is not int or x < 1:
                raise ValueError(f"entry {_quote(x)} is not an integer >= 1")
    except TypeError:  # ``a`` is not a sequence
        raise ValueError(f"{_quote(a)} is not a sequence of entries") from None
    return a


def _check_pairs(pairs) -> tuple[tuple[int, int], ...]:
    try:
        pairs = tuple(map(tuple, pairs))
    except TypeError:  # ``pairs``, or one of them, is not a sequence
        raise ValueError(f"{_quote(pairs)} is not a sequence of pairs") from None
    if not set(map(len, pairs)) <= {2}:
        raise ValueError("every 3-braid pair must have exactly two entries")
    _check_entries([x for pair in pairs for x in pair])
    return pairs


# ---------------------------------------------------------------------------
# determinants and closed forms


def twobridge_det(a) -> int:
    """T(n) from T(0)=1, T(1)=a1, T(k+1) = a_{k+1} T(k) + T(k-1)."""
    a = _check_entries(a)
    t_prev, t = 1, a[0]
    for x in a[1:]:
        t_prev, t = t, x * t + t_prev
    return t


def v_function(a) -> Fraction:
    """The product prod (a_i + 2) / 2, as an exact rational."""
    a = _check_entries(a)
    num = 1
    for x in a:
        num *= x + 2
    return Fraction(num, 2 ** len(a))


def twobridge_vol_upper(a) -> Real:
    """End-corrected volume bound for a 2-bridge link with >= 2 twist regions.

    2*pi*log((a1+1)(an+1)/4 * prod_middle (ai+2)/2); always at most
    2*pi*log V(a).  Every log and partial sum is at most log V + log 4, so
    each of the 2n - 1 logs and 2n - 2 sums is within an ulp of that; 2*pi
    and its product add two ulp of the value.
    """
    a = _check_entries(a)
    if len(a) < 2:
        raise ValueError("a single twist region is a torus link; no bound")
    logv = math.log(a[0] + 1) + math.log(a[-1] + 1) - math.log(4.0)
    for x in a[1:-1]:
        logv += math.log(x + 2) - math.log(2.0)
    v = TWO_PI * logv
    return Real(v, TWO_PI * 4 * len(a) * math.ulp(abs(logv) + 2.0) + 2 * math.ulp(v))


def threebraid_det(pairs) -> int:
    """Determinant of the alternating 3-braid as a 2x2 trace:

    det B(a1,b1,...,an,bn) = tr(prod_i [[1,a_i],[0,1]] [[1,0],[b_i,1]]) - 2.

    The product is taken as a balanced tree: adjacent factors are multiplied
    level by level, an odd one carried up, so operands of similar size meet
    and the big-by-big products fall at O(log n) levels.  That costs
    O(M(n) log n) bit work for M(n) the cost of multiplying n-bit integers,
    where a left-to-right fold costs O(n^2): on 2 cores with Python 3.11.7,
    0.60 against 1.22 ms at 2,000 pairs, 35 against 295 ms for a 40,000-pair
    check.  It agrees with the left-to-right fold, which the tests keep as a
    reference, and with the paper's contraction reduction
    det B(a1,b1,...,an,bn) = bn * det R(a1,b1,...,b_{n-1},an)
                             + det B(a1+an, b1,...,a_{n-1},b_{n-1}),
    det B(a,b) = a*b, which the test suite checks on every spec of sum <= 12.
    """
    pairs = _check_pairs(pairs)
    # [[1,x],[0,1]] [[1,0],[y,1]] = [[1+xy, x],[y, 1]], row-major
    level = [(1 + x * y, x, y, 1) for x, y in pairs]
    while len(level) > 1:
        up = [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in zip(level[::2], level[1::2])
        ]
        if len(level) % 2:
            up.append(level[-1])
        level = up
    m00, _, _, m11 = level[0]
    return m00 + m11 - 2


def _lucas_v(p: int, n: int) -> int:
    """V_n of the Lucas sequence V_0=2, V_1=p, V_{k+1} = p V_k - V_{k-1}.

    By doubling, V_2k = V_k^2 - 2 and V_2k+1 = V_k V_{k+1} - p (valid because
    the sequence has Q = 1), so it takes O(log n) big-integer products.
    """
    v, w = 2, p  # (V_k, V_{k+1}), starting at k = 0
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w = v * w - p, w * w - 2
        else:
            v, w = v * v - 2, v * w - p
    return v


def pretzel_det(a) -> int:
    """sum_i prod_{j != i} a_j, exactly; a single entry a_1 closes into the
    (2, a_1) torus link, whose determinant is a_1."""
    a = _check_entries(a)
    n = len(a)
    if n == 1:
        return a[0]
    prefix = [1] * (n + 1)
    for i, x in enumerate(a):
        prefix[i + 1] = prefix[i] * x
    suffix = 1
    total = 0
    for i in range(n - 1, -1, -1):
        total += prefix[i] * suffix
        suffix *= a[i]
    return total


# W(n)'s determinant has about 0.24 n bytes (0.57 n digits).  At this index
# check takes about 0.3 s and report_row about 6 s on two cores (the decimal
# conversion is quadratic); W(10^12) would need about 240 GB.
MAX_WEAVING_INDEX = 10**6


def weaving_det(n: int) -> int:
    """Spanning trees of the weaving checkerboard graph (n-gonal bipyramid).

    n*(G_n - 2)/2 where G_0=2, G_1=4, G_{k+1} = 4 G_k - G_{k-1}, so that
    G_n = (2+sqrt3)^n + (2-sqrt3)^n, taken by Lucas doubling.  Two other
    closed forms for this count are in circulation and disagree with each
    other; both were checked
    against matrix-tree, deletion-contraction, and brute-force counts on the
    braid-built diagrams and both are wrong (see README), so this is the
    oracle-backed form.
    """
    _check_entries((n,))
    if n > MAX_WEAVING_INDEX:
        raise ValueError(
            f"weaving index must be <= {MAX_WEAVING_INDEX} "
            "(the determinant of W(n) has about 0.57 n digits)"
        )
    return n * (_lucas_v(4, n) - 2) // 2


def det(spec: FamilySpec) -> int:
    if isinstance(spec, TwoBridge):
        return twobridge_det(spec.a)
    if isinstance(spec, ThreeBraid):
        return threebraid_det(spec.pairs)
    if isinstance(spec, Pretzel):
        return pretzel_det(spec.a)
    if isinstance(spec, Weaving4):
        return weaving_det(spec.n)
    raise TypeError(f"not a family spec: {spec!r}")


# ---------------------------------------------------------------------------
# diagrams


class ClosedForm(NamedTuple):
    """What the volume bounds need of ``to_diagram(spec)``, and whether the
    member is a known non-hyperbolic link."""

    faces: FaceVector
    twist_count: int
    nonhyperbolic: str  # why the member is known non-hyperbolic, or ""
    crossing_count: int


def closed_form(spec: FamilySpec) -> ClosedForm:
    """Face sizes, twist regions and known non-hyperbolicity of
    ``to_diagram(spec)``, computed without building it.

    Each branch reads its Tait shape (module docstring) for three things: the
    crossing number c, the region count r, and the faces between regions.  A
    region of x crossings holds x - 1 bigons, c - r in all, and faces that
    can never be bigons go straight into the count.  A bigon between regions
    joins the two it touches, so the twist count is r less those bigons.  B's
    hub and outer face are between regions only from two pairs up: with one,
    each meets a single region, and B(2,b)'s hub bigon lies inside a_1's.
    The joins close a cycle only when they join every region, in the torus
    diagrams R(k), R(1,1), R(1,1,1), P(a,b) and P(1,...,1), hence the floor
    of 1; B and W have at most two faces between regions, and r >= 4 where
    one is a bigon.  The test suite compares every result with the diagram's
    own traversal.  The non-hyperbolic members are torus links, connected-sum
    torus cases and the trivial weaving closure; everything else is merely
    assumed hyperbolic (reduced alternating, not an evident torus link),
    never proven.
    """
    faces: Counter[int] = Counter()  # face size -> multiplicity
    reason = ""
    if isinstance(spec, (TwoBridge, Pretzel)):
        a, r = spec.a, len(spec.a)
        c = sum(a)
        if isinstance(spec, Pretzel) and r > 1:
            between = pretzel_between(a)
        else:
            # a continued fraction (P(a) draws as R(a)), folded into a
            # two-terminal network with boundary lengths left, right and
            # terminal degrees ds, dt.  It starts as a path of a_1 edges; a_2,
            # a_4, ... are bundles joined in parallel, each closing a face of
            # right + 1 edges, and a_3, a_5, ... paths joined in series, each
            # closing a vertex of degree dt + 1.  Odd r closes it by
            # identifying the two terminals, even r leaves it open, its outer
            # face running along both sides.
            left = right = a[0]
            ds = dt = 1
            between, bundle = [], True
            for x in a[1:]:
                if bundle:
                    between.append(right + 1)
                    right, ds, dt = 1, ds + x, dt + x
                else:
                    between.append(dt + 1)
                    left, right, dt = left + x, right + x, 1
                bundle = not bundle
            between += (left, right, ds + dt) if r % 2 else (left + right, ds, dt)
        if isinstance(spec, Pretzel):
            if r <= 2:
                reason = "a pretzel on <= 2 strands is a (2,k) torus link"
            elif set(a) == {1}:
                reason = "all-ones pretzel is the (2,n) torus link"
        elif r == 1:
            reason = "single twist region: a (2,k) torus link"
        elif a == (1, 1):
            reason = "R(1,1) is the Hopf link"
        elif a == (1, 1, 1):
            reason = "R(1,1,1) is the trefoil, a torus knot"
    elif isinstance(spec, ThreeBraid):
        # the (2 + x)-gons are the rim vertices and the faces between spokes
        a, b = zip(*spec.pairs)
        sa, sb = sum(a), sum(b)
        c, r = sa + sb, 2 * len(a)
        faces.update(2 + x for x in a + b)
        between = [sa, sb]  # the hub and the outer face
        if len(a) == 1:  # each meets a single region
            faces.update(between)
            between = []
            if 1 in spec.pairs[0]:
                reason = "closure is a (2,k) torus link"
    elif isinstance(spec, Weaving4):
        # 2n triangles, n square equator vertices, and the two apexes
        n = spec.n
        c = r = 3 * n
        faces[3] += 2 * n
        faces[4] += n
        between = [n, n]
        if n == 1:
            reason = "closure of s1 s3 s2^-1 is the unknot"
    else:
        raise TypeError(f"not a family spec: {spec!r}")
    faces[2] += c - r  # inside the regions
    faces.update(between)
    return ClosedForm(FaceVector(faces), twist_count(r, between), reason, c)


def pretzel_between(a: tuple[int, ...]) -> list[int]:
    """The faces between the twist regions of P(a), for two or more entries.

    Its Tait shape is len(a) paths in parallel between two hubs: a face of
    a_{i-1} + a_i sides between each two cyclically consecutive paths, and
    the two hubs, each a len(a)-gon.  Every other face is a bigon inside a
    region.
    """
    n = len(a)
    return [a[i - 1] + x for i, x in enumerate(a)] + [n, n]


def twist_count(r: int, between: list[int]) -> int:
    """Twist regions of a diagram drawn as r regions with faces ``between``
    them: each bigon between two regions joins them, and the floor of 1 is
    for the torus diagrams whose joins close a cycle (``closed_form``)."""
    return max(1, r - between.count(2))


def to_diagram(spec: FamilySpec) -> dgm.Diagram:
    """Standard diagram of the family member."""
    if isinstance(spec, Pretzel) and len(spec.a) == 1:
        spec = TwoBridge(spec.a)  # both draw the (2,a) torus link
    if isinstance(spec, TwoBridge):
        word = []
        for i, x in enumerate(spec.a):
            word += [2 if i % 2 == 0 else 1] * x
        caps = [(1, 2), (3, 4)] if len(spec.a) % 2 == 1 else [(2, 3), (1, 4)]
        pd = dgm.plat_closure_pd(word, caps)
    elif isinstance(spec, ThreeBraid):
        word = []
        for (ai, bi) in spec.pairs:
            word += [1] * ai + [2] * bi
        pd = dgm.braid_closure_pd(3, word)
    elif isinstance(spec, Pretzel):
        pd = dgm.medial_pd(list(spec.a))
    elif isinstance(spec, Weaving4):
        pd = dgm.braid_closure_pd(4, [1, 3, 2] * spec.n)
    else:
        raise TypeError(f"not a family spec: {spec!r}")
    return dgm.analyze(pd)


# ---------------------------------------------------------------------------
# spec text syntax


# A greedy body with no \s* beside it (ints() strips each entry) matches a long
# whitespace run in linear time; a lazy body between two \s* is cubic in it.
_SPEC_RE = re.compile(r"\s*([RBPW])\s*\(([0-9,;\s]*)\)\s*")


def parse_spec(text: str) -> FamilySpec:
    """Parse 'R(3,3,2)', 'B(3,3,2,3)' or 'B(3,2;3,3)', 'P(2,3,7)', 'W(4)'.

    For B, the flat form interleaves a and b: B(a1,b1,a2,b2,...).  The
    semicolon form gives the a-list then the b-list: B(a1,..,an;b1,..,bn).
    """
    m = _SPEC_RE.fullmatch(text)
    if not m:
        raise ValueError(
            f"cannot parse spec {_quote(text)}: expected R(...), B(...), P(...) or W(n)"
        )
    kind, body = m.group(1), m.group(2)

    def entry(p: str) -> int:
        try:
            return int(p)
        except ValueError:
            pass
        limit = sys.get_int_max_str_digits()  # 0 means no limit
        if p.isdigit() and 0 < limit < len(p):
            raise ValueError(
                f"entry of {len(p)} digits in spec {_quote(text)} is over "
                f"Python's limit of {limit} digits for an integer"
            )
        raise ValueError(f"bad integer in spec {_quote(text)}")

    def ints(s: str) -> tuple[int, ...]:
        parts = [p.strip() for p in s.split(",")]
        if "" in parts:
            raise ValueError(f"empty entry in spec {_quote(text)}")
        return tuple(map(entry, parts))

    if kind == "R":
        return TwoBridge(ints(body))
    if kind == "P":
        return Pretzel(ints(body))
    if kind == "W":
        vals = ints(body)
        if len(vals) != 1:
            raise ValueError(f"W takes a single index, got {_quote(text)}")
        return Weaving4(vals[0])
    # B
    if ";" in body:
        a_part, b_part = body.split(";", 1)
        a_vals, b_vals = ints(a_part), ints(b_part)
        if len(a_vals) != len(b_vals):
            raise ValueError(f"a-list and b-list lengths differ in {_quote(text)}")
        return ThreeBraid(tuple(zip(a_vals, b_vals)))
    flat = ints(body)
    if len(flat) % 2 != 0:
        raise ValueError(
            f"B needs an even count of entries (a1,b1,...,an,bn), got {_quote(text)}"
        )
    return ThreeBraid(tuple((flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2)))


_FAMILY_NAMES = {
    TwoBridge: "2-bridge", ThreeBraid: "3-braid", Pretzel: "pretzel", Weaving4: "weaving"
}


def family_name(spec: FamilySpec) -> str:
    return _FAMILY_NAMES[type(spec)]
