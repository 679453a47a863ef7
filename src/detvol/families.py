"""The four alternating link families: constructors and exact determinants.

* ``TwoBridge(a1,...,an)`` -- 2-bridge (rational) link, one twist region per
  entry; determinant by the recurrence T(k+1) = a_{k+1} T(k) + T(k-1).
* ``ThreeBraid(a1,b1,...,an,bn)`` -- alternating 3-braid closure; determinant
  tr(prod [[1,a_i],[0,1]] [[1,0],[b_i,1]]) - 2, which the test suite checks
  against the paper's edge-contraction reduction to 2-bridge chains.
* ``Pretzel(a1,...,an)`` -- pretzel link; determinant is the elementary
  symmetric polynomial of degree n-1.
* ``Weaving4(n)`` -- closure of the 4-strand word (s1 s3 s2^-1)^n; its
  checkerboard graph is the n-gonal bipyramid, whose spanning-tree count is
  n*((2+sqrt3)^n + (2-sqrt3)^n - 2)/2, evaluated exactly by Lucas-sequence
  doubling (never floating point).

All determinants are exact big integers.  ``closed_form`` gives, in one
record, the face sizes, the twist-region count and the crossing number of the
standard diagram, and whether the member is a known non-hyperbolic link, so
the volume bounds need no diagram.  ``to_diagram`` builds that diagram; it is
the oracle that every closed form, determinant and face data alike, is
checked against, so it shares no code with them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import diagram as dgm
from .hypvol import TWO_PI, FaceVector, Real
import math


@dataclass(frozen=True)
class TwoBridge:
    a: tuple[int, ...]

    def __post_init__(self):
        _check_entries(self.a)

    def __str__(self):
        return "R(" + ",".join(map(str, self.a)) + ")"


@dataclass(frozen=True)
class ThreeBraid:
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("ThreeBraid needs at least one pair")
        for (x, y) in self.pairs:
            if x < 1 or y < 1:
                raise ValueError("all twist counts must be >= 1")

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(x for p in self.pairs for x in p)

    def __str__(self):
        return "B(" + ",".join(map(str, self.flat)) + ")"


@dataclass(frozen=True)
class Pretzel:
    a: tuple[int, ...]

    def __post_init__(self):
        _check_entries(self.a)

    def __str__(self):
        return "P(" + ",".join(map(str, self.a)) + ")"


@dataclass(frozen=True)
class Weaving4:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("weaving index must be >= 1")

    def __str__(self):
        return f"W({self.n})"


FamilySpec = TwoBridge | ThreeBraid | Pretzel | Weaving4


def _check_entries(a):
    if not a:
        raise ValueError("sequence must be nonempty")
    for x in a:
        if x < 1:
            raise ValueError("all entries must be >= 1")


# ---------------------------------------------------------------------------
# determinants and closed forms


def twobridge_det(a) -> int:
    """T(n) from T(0)=1, T(1)=a1, T(k+1) = a_{k+1} T(k) + T(k-1)."""
    a = tuple(a)
    _check_entries(a)
    t_prev, t = 1, a[0]
    for x in a[1:]:
        t_prev, t = t, x * t + t_prev
    return t


def v_function(a) -> Fraction:
    """The product prod (a_i + 2) / 2, as an exact rational."""
    a = tuple(a)
    _check_entries(a)
    num = 1
    for x in a:
        num *= x + 2
    return Fraction(num, 2 ** len(a))


def twobridge_vol_upper(a) -> Real:
    """End-corrected volume bound for a 2-bridge link with >= 2 twist regions.

    2*pi*log((a1+1)(an+1)/4 * prod_middle (ai+2)/2); always at most
    2*pi*log V(a).
    """
    a = tuple(a)
    _check_entries(a)
    if len(a) < 2:
        raise ValueError("a single twist region is a torus link; no bound")
    logv = math.log(a[0] + 1) + math.log(a[-1] + 1) - math.log(4.0)
    for x in a[1:-1]:
        logv += math.log(x + 2) - math.log(2.0)
    return Real(TWO_PI * logv, 1e-9)


def threebraid_det(pairs) -> int:
    """Determinant of the alternating 3-braid as a 2x2 trace:

    det B(a1,b1,...,an,bn) = tr(prod_i [[1,a_i],[0,1]] [[1,0],[b_i,1]]) - 2.

    O(n) big-integer steps.  It agrees with the paper's contraction reduction
    det B(a1,b1,...,an,bn) = bn * det R(a1,b1,...,b_{n-1},an)
                             + det B(a1+an, b1,...,a_{n-1},b_{n-1}),
    det B(a,b) = a*b, which the test suite checks on every spec of sum <= 12.
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


def threebraid_allones_det(n: int) -> int:
    """Closed form for B(1,1,...,1) with 2n ones: u_n - 2 with
    u_0=2, u_1=3, u_{k+1} = 3u_k - u_{k-1}.

    Equals ((3+sqrt5)/2)^n + ((3-sqrt5)/2)^n - 2, computed exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _lucas_v(3, n) - 2


def pretzel_det(a) -> int:
    """sum_i prod_{j != i} a_j, exactly."""
    a = tuple(a)
    _check_entries(a)
    n = len(a)
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
    if n < 1:
        raise ValueError("n must be >= 1")
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
        # a single twist region closes into a (2,k) torus link; the symmetric
        # formula applies from two regions up
        if len(spec.a) == 1:
            return twobridge_det(spec.a)
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

    @property
    def crossing_count(self) -> int:
        return self.faces.total_sides // 4  # every crossing has four corners


def closed_form(spec: FamilySpec) -> ClosedForm:
    """Face sizes, twist regions and known non-hyperbolicity of
    ``to_diagram(spec)``, computed without building it.

    Each face is counted by the columns of the template it lies in, and the
    template's blocks are its twist regions, except that a bigon face outside
    every block joins the blocks it touches; the derivations are in the
    comments.  The test suite compares every result with the diagram's own
    traversal.  The non-hyperbolic members are torus links, connected-sum
    torus cases and the trivial weaving closure; everything else is merely
    assumed hyperbolic (reduced alternating, not an evident torus link),
    never proven.
    """
    reason = ""
    if isinstance(spec, TwoBridge):
        # Plat closure, bottom caps (1,2),(3,4): a_i is a block of crossings
        # at s2 for odd i, at s1 for even i.  Column (2,3) is cut by the s2
        # blocks and column (1,2) by the s1 blocks into bigons inside each
        # block and a (2 + a_{i+1})-gon between blocks i and i+2.  Column
        # (3,4) meets every s2 crossing, the outer face every s1 crossing.
        a, n = spec.a, len(spec.a)
        s1, s2 = sum(a[1::2]), sum(a[0::2])
        sizes = [(2, sum(a) - n)] + [(2 + x, 1) for x in a[1:-1]]
        if n == 1:  # column (1,2) meets the block; the outer face, 2 sides
            sizes += [(a[0], 1), (s2, 1), (2, 1)]
        elif n % 2:
            # top caps (1,2),(3,4): column (2,3) opens into the outer face at
            # both ends; column (1,2) ends in an (a_1 + 1)- and an (a_n + 1)-gon
            # under the caps
            sizes += [(a[0] + 1, 1), (a[-1] + 1, 1), (s2, 1), (s1 + 2, 1)]
        else:
            # top caps (2,3),(1,4): column (1,2) starts in an (a_1 + 1)-gon;
            # column (2,3) opens into the outer face at the bottom and ends
            # in an (a_n + 1)-gon under its cap; the tops of columns (1,2) and
            # (3,4) join
            sizes += [(a[0] + 1, 1), (a[-1] + 1, 1), (s2 + 1, 1), (s1 + 1, 1)]
        if n <= 2:
            # R(a_1,a_2): the faces of sizes a_1 + 1 and a_2 + 1 touch both
            # blocks, so either entry being 1 joins them
            t = 1 if n == 1 or 1 in a else 2
        else:
            # the (a_1 + 1)-gon joins blocks 1, 2 when a_1 = 1, the (a_n + 1)-gon
            # blocks n-1, n when a_n = 1; column (3,4) is a bigon only for
            # R(1,x,1), whose blocks those two joins already connect
            t = n - (a[0] == 1) - (a[-1] == 1)
        if n == 1:
            reason = "single twist region: a (2,k) torus link"
        elif a == (1, 1):
            reason = "R(1,1) is the Hopf link"
        elif a == (1, 1, 1):
            reason = "R(1,1,1) is the trefoil, a torus knot"
    elif isinstance(spec, ThreeBraid):
        # Closure of prod s1^a_i s2^b_i: column (1,2) has bigons inside the s1
        # blocks and a (2 + b_i)-gon after block i, column (2,3) likewise;
        # the inner face meets every s1 crossing, the outer every s2 crossing.
        a, b = spec.flat[0::2], spec.flat[1::2]
        sizes = [(2, sum(a) + sum(b) - 2 * len(a)), (sum(a), 1), (sum(b), 1)]
        sizes += [(2 + x, 1) for x in a + b]
        # the inner face is a bigon joining the two s1 blocks when
        # a_1 = a_2 = 1 (n = 2), the outer face likewise for the b blocks
        t = 2 * len(a) - (a == (1, 1)) - (b == (1, 1))
        if len(a) == 1 and 1 in spec.pairs[0]:
            reason = "closure is a (2,k) torus link"
    elif isinstance(spec, Pretzel):
        a, n = spec.a, len(spec.a)
        if n <= 2:  # a (2,k) torus diagram: k bigons, two k-gons, one region
            k = sum(a)
            sizes, t = [(2, k), (k, 2)], 1
            # equivalent to a 2-bridge chain with a single twist region
            reason = "a pretzel on <= 2 strands is a (2,k) torus link"
        else:
            # an (a_{i-1} + a_i)-gon between consecutive regions (cyclically),
            # a bigon per extra crossing inside a region, and the two n-gons
            # through the middle
            sizes = [(a[i - 1] + x, 1) for i, x in enumerate(a)]
            sizes += [(2, sum(a) - n), (n, 2)]
            if all(x == 1 for x in a):  # every face between crossings is a bigon
                t = 1
                reason = "all-ones pretzel is the (2,n) torus link"
            else:
                # cyclically adjacent single-crossing regions share a bigon
                # and merge
                t = n - sum(a[i - 1] == x == 1 for i, x in enumerate(a))
    elif isinstance(spec, Weaving4):
        # columns (1,2) and (3,4) are triangles, (2,3) squares; the inner and
        # outer faces meet the n s1 and the n s3 crossings, and are bigons,
        # joining regions, for W(2) only
        n = spec.n
        sizes = [(3, 2 * n), (4, n), (n, 2)]
        t = 4 if n == 2 else 3 * n
        if n == 1:
            reason = "closure of s1 s3 s2^-1 is the unknot"
    else:
        raise TypeError(f"not a family spec: {spec!r}")
    counts: dict[int, int] = {}
    for size, mult in sizes:
        counts[size] = counts.get(size, 0) + mult
    return ClosedForm(FaceVector(counts), t, reason)


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
        pd = dgm.medial_pd(dgm.necklace_plane_graph(list(spec.a)))
    elif isinstance(spec, Weaving4):
        pd = dgm.braid_closure_pd(4, [1, 3, 2] * spec.n)
    else:
        raise TypeError(f"not a family spec: {spec!r}")
    return dgm.analyze(pd)


# ---------------------------------------------------------------------------
# spec text syntax


_SPEC_RE = re.compile(r"^\s*([RBPW])\s*\(\s*([0-9,;\s]*?)\s*\)\s*$")


def parse_spec(text: str) -> FamilySpec:
    """Parse 'R(3,3,2)', 'B(3,3,2,3)' or 'B(3,2;3,3)', 'P(2,3,7)', 'W(4)'.

    For B, the flat form interleaves a and b: B(a1,b1,a2,b2,...).  The
    semicolon form gives the a-list then the b-list: B(a1,..,an;b1,..,bn).
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse spec {text!r}: expected R(...), B(...), P(...) or W(n)"
        )
    kind, body = m.group(1), m.group(2)

    def ints(s: str) -> tuple[int, ...]:
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty number list in spec {text!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad integer in spec {text!r}") from None

    if kind == "R":
        return TwoBridge(ints(body))
    if kind == "P":
        return Pretzel(ints(body))
    if kind == "W":
        vals = ints(body)
        if len(vals) != 1:
            raise ValueError(f"W takes a single index, got {text!r}")
        return Weaving4(vals[0])
    # B
    if ";" in body:
        a_part, b_part = body.split(";", 1)
        a_vals, b_vals = ints(a_part), ints(b_part)
        if len(a_vals) != len(b_vals):
            raise ValueError(f"a-list and b-list lengths differ in {text!r}")
        return ThreeBraid(tuple(zip(a_vals, b_vals)))
    flat = ints(body)
    if len(flat) % 2 != 0:
        raise ValueError(
            f"B needs an even count of entries (a1,b1,...,an,bn), got {text!r}"
        )
    return ThreeBraid(tuple((flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2)))


def family_name(spec: FamilySpec) -> str:
    return {TwoBridge: "2-bridge", ThreeBraid: "3-braid", Pretzel: "pretzel", Weaving4: "weaving"}[
        type(spec)
    ]
