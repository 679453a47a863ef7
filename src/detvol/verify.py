"""The conjecture checker: compare 2*pi*log(det) against volume upper bounds.

A link "passes" when the best applicable volume upper bound is strictly
smaller than 2*pi*log(det).  That implies vol < 2*pi*log(det) whenever the
link is hyperbolic; it never proves the conjecture false.  Verdicts:

* ``holds``             -- best bound < 2*pi*log(det), link assumed hyperbolic
* ``vacuous``           -- the member is a known non-hyperbolic link
* ``bound_inconclusive``-- none of the bounds certifies the inequality

The pretzel enumeration reproduces the finite computer check: for a fixed
number of twist regions t the Montesinos bound 2*v8*t is constant while the
determinant grows monotonically in every twist count, so only the finitely
many tuples below the passing frontier need an explicit verdict.  Within a
multiset c, det and the two n-gons are fixed, so one closed-form record per
multiset serves all its arrangements: each is decided from its n adjacent
sums, and only the few that no integer certificate settles get a record and
a ``bound_report`` of their own.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from decimal import Decimal

from . import families as fam
from .families import (
    FamilySpec,
    Pretzel,
    ThreeBraid,
    TwoBridge,
    Weaving4,
)
from .hypvol import (
    TWO_PI,
    adams_bound_exact,
    adams_bound_log,
    lackenby_bound,
    montesinos_bound,
    stoimenow_lower_bound,
)
from .multigraph import spanning_tree_count

DEFAULT_ORACLE_CAP = 40
# A diagram above this limit is refused, and so is an oracle cap above it,
# which could only fail at the first member past the limit.  On two
# cores a 400-crossing R, B, P or W oracle check (diagram and both tree
# counts) takes 0.001-0.005 s, since their Tait graphs leave the sparse
# elimination almost no fill.  A Tait graph that fills in costs more: the
# tree counts of a 14x15 grid graph (391 edges, so 391 crossings) and its
# dual take 0.07 s, and the worst case still grows like c^3 in the crossing
# number c.
MAX_ORACLE_CROSSINGS = 400


@dataclass
class BoundReport:
    spec: FamilySpec
    det: int
    two_pi_log_det: float
    bounds: dict[str, float]  # name -> value: adams_exact, adams_log, lackenby[, montesinos]
    best_bound: float | None
    hyperbolic_status: str  # "known_nonhyperbolic" | "assumed_hyperbolic"
    verdict: str  # "holds" | "bound_inconclusive" | "vacuous"
    margin: float | None
    twist_count: int
    crossing_count: int
    reason: str = ""


def require_oracle_size(c: int) -> None:
    """Reject a diagram of c crossings as too large for the oracle."""
    if c > MAX_ORACLE_CROSSINGS:
        raise ValueError(
            f"{c} crossings is over the diagram oracle's limit of {MAX_ORACLE_CROSSINGS}"
        )


def _require_oracle_cap(oracle_cap: int) -> None:
    if oracle_cap < 0:
        raise ValueError("oracle_cap must be >= 0")
    if oracle_cap > MAX_ORACLE_CROSSINGS:
        raise ValueError(
            f"oracle_cap must be <= {MAX_ORACLE_CROSSINGS}, the diagram oracle's limit"
        )


def check(spec: FamilySpec, oracle_cap: int = DEFAULT_ORACLE_CAP) -> BoundReport:
    """Full report for one family member.

    The record (det, closed form) builds no diagram.  On a long spec its
    determinant is the costly part: R's continuant folds big-by-small
    products, B's trace tree and W's Lucas doubling take O(M(n) log n) bit
    work, and ``pretzel_det`` multiplies big prefixes by big suffixes, at
    least quadratic in the number of entries.  With at most ``oracle_cap``
    crossings (``0 <= oracle_cap <= MAX_ORACLE_CROSSINGS``) it also goes
    through ``oracle_check``, unless the member is known non-hyperbolic.
    """
    _require_oracle_cap(oracle_cap)
    d, cf = fam.det(spec), fam.closed_form(spec)
    if not cf.nonhyperbolic and cf.crossing_count <= oracle_cap:
        oracle_check(spec, d, cf)
    return bound_report(spec, d, cf)


def oracle_check(spec: FamilySpec, d: int, cf: fam.ClosedForm) -> None:
    """Cross-check a record against the diagram of ``spec``.

    The determinant must equal the matrix-tree counts of both checkerboard
    graphs, and the face sizes and twist count the diagram's own traversal.
    Callers pass a record of at most ``oracle_cap`` <= ``MAX_ORACLE_CROSSINGS``
    crossings, so its size is not checked here.
    """
    diag = fam.to_diagram(spec)
    t_sh, t_wh = spanning_tree_count(diag.shaded), spanning_tree_count(diag.white)
    if not (t_sh == t_wh == d):
        raise RuntimeError(
            f"determinant mismatch for {spec}: closed form {d}, matrix-tree {t_sh}/{t_wh}"
        )
    if diag.faces != cf.faces or diag.twist_count != cf.twist_count:
        raise RuntimeError(
            f"face data mismatch for {spec}: closed form {dict(cf.faces)}, t={cf.twist_count}; "
            f"diagram {dict(diag.faces)}, t={diag.twist_count}"
        )


def bound_report(spec: FamilySpec, d: int, cf: fam.ClosedForm) -> BoundReport:
    """Bounds, margin and verdict of a record; a non-hyperbolic one is vacuous."""
    two_pi_log_det = TWO_PI * math.log(d) if d >= 1 else float("-inf")
    bounds: dict[str, float] = {}
    best, margin, verdict = None, None, "vacuous"
    if not cf.nonhyperbolic:
        bounds["adams_exact"] = adams_bound_exact(cf.faces).value
        bounds["adams_log"] = adams_bound_log(cf.faces).value
        bounds["lackenby"] = lackenby_bound(cf.twist_count).value
        if isinstance(spec, Pretzel):
            bounds["montesinos"] = montesinos_bound(cf.twist_count).value
        best = min(bounds.values())
        margin = two_pi_log_det - best
        verdict = "holds" if margin > 0.0 else "bound_inconclusive"
    return BoundReport(
        spec=spec,
        det=d,
        two_pi_log_det=two_pi_log_det,
        bounds=bounds,
        best_bound=best,
        hyperbolic_status="known_nonhyperbolic" if cf.nonhyperbolic else "assumed_hyperbolic",
        verdict=verdict,
        margin=margin,
        twist_count=cf.twist_count,
        crossing_count=cf.crossing_count,
        reason=cf.nonhyperbolic,
    )


# ---------------------------------------------------------------------------
# high-twist certificates


@functools.lru_cache(maxsize=4096)
def high_twist_threshold(t: int, rule: str = "general") -> float:
    """Crossing-number threshold beyond which the conjecture is automatic.

    general:    c >= t + xi^(t-1) - 2*gamma^(t-1)
    montesinos: c >= t + zeta^t   - 2*gamma^(t-1)

    Memoized per (t, rule): the enumeration asks once per arrangement, for
    the same few t.  A rejected argument raises on every call.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if rule == "general":
        bound = lackenby_bound(t)
    elif rule == "montesinos":
        bound = montesinos_bound(t)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    # exp(x), xi^(t-1) or zeta^t, outgrows 2*gamma^(t-1): inf past the float range
    x = bound.value / TWO_PI
    return t + math.exp(x) - stoimenow_lower_bound(t).value if x < 709.78 else math.inf


def stoimenow_certificate(t: int, c: int, rule: str = "general") -> bool:
    """True when the (t, c) data alone certifies the conjecture.

    Any alternating link with t twist regions and c crossings has
    det >= 2*gamma^(t-1) + c - t; past the rule's crossing threshold the
    volume bound is below 2*pi*log of that, and no diagram is examined.
    """
    if c < t:
        raise ValueError("c must be >= t")
    return c > high_twist_threshold(t, rule)


def adams_log_certificate(d: int, faces: list[int]) -> bool:
    """True when Adams' log bound on face sizes ``faces`` is below 2*pi*log(d),
    decided in integers.

    ``faces`` lists one size per face.  The bound, ``adams_bound_log`` of
    their ``FaceVector``, is 2*pi*sum log(n/2) over the faces but the two
    largest, so it is below 2*pi*log(d) exactly when d * 2^m > prod n over
    the m remaining faces with n >= 3 (a bigon adds log 1 = 0, so neither a
    factor nor a power of 2).  So bigons may be left out of ``faces`` when
    two larger faces remain, as the pretzel enumeration leaves out those
    inside its twist regions.  The best bound is at most ``adams_log``, so a
    True settles ``holds`` with no rounding.
    """
    sizes = sorted(faces)
    if len(sizes) < 2 or sizes[0] < 2:
        raise ValueError("need two faces and no monogon, as in a reduced diagram")
    m, prod = 0, 1
    for n in sizes[:-2]:  # the two largest are removed
        if n > 2:
            m += 1
            prod *= n
    return d << m > prod


# ---------------------------------------------------------------------------
# pretzel enumeration


def canonical_arrangements(multiset):
    """Cyclic arrangements of a multiset up to rotation and reflection.

    Each class is yielded once, as its lexicographically least member, in
    increasing order.  That member starts with the least entry, so a[0] is
    pinned to it and the distinct orderings of a[1:] are walked in
    lexicographic order by the standard next-permutation step; an ordering
    is yielded when no rotation of it or of its reversal is smaller, and
    only rotations that start at the least entry can be.  The state is O(n)
    and nothing recurses.
    """
    a = sorted(multiset)
    n = len(a)
    while True:
        r = a[::-1]
        if all(a <= s[k:] + s[:k] for s in (a, r) for k in range(n) if s[k] == a[0]):
            yield tuple(a)
        # next ordering of a[1:]: raise the last ascent, reverse the tail
        i = n - 2
        while i >= 1 and a[i] >= a[i + 1]:
            i -= 1
        if i < 1:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


@functools.lru_cache(maxsize=16)
def _bracelet_shapes(pattern: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``canonical_arrangements`` of the multiset with ``pattern[i]`` copies of i.

    A multiset's arrangements depend only on its multiplicity pattern: with
    its distinct values ``vals`` in ascending order, mapping each shape
    through ``vals`` gives its canonical arrangements in the same order,
    since an increasing map keeps lexicographic order and commutes with
    rotation and reflection.  The enumeration walks multisets of the same
    pattern close together, so a few entries serve almost every multiset and
    the generator runs only on misses: 65 at t <= 6, 380 at t = 10 alone.
    """
    return tuple(canonical_arrangements([i for i, m in enumerate(pattern) for _ in range(m)]))


@dataclass
class EnumerationReport:
    t_min: int
    t_max: int
    checked: int = 0
    certified_monotone: int = 0
    certified_stoimenow: int = 0
    vacuous: int = 0
    violations: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    frontier: list[tuple[int, ...]] = field(default_factory=list)
    oracle_checked: int = 0
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"pretzel enumeration t={self.t_min}..{self.t_max}: "
            f"{self.checked} checked, "
            f"{self.certified_monotone} monotone-frontier certificates, "
            f"{self.certified_stoimenow} twist-count certificates, "
            f"{self.vacuous} vacuous, {len(self.violations)} violations, "
            f"{self.elapsed_seconds:.1f}s"
        )


# largest t_max enumerate_pretzels accepts.  Each t has about ten times the
# arrangements of the one before, at about 5 us each: on two cores --t-max 8
# took 5.0-5.7 s (22 MB peak RSS), --t-min 9 --t-max 9 32 s (25 MB) and
# --t-min 10 --t-max 10 378 s (45 MB), so t = 12 would take about ten hours.
# The report keeps every violation and every frontier corner:
# 12, 24, 59, 135, 324, 797, 2,003 and 5,175 at t = 3..10, 8,529 in all.
MAX_ENUMERATION_T = 10


def enumerate_pretzels(
    t_max: int,
    t_min: int = 3,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> EnumerationReport:
    """Check every alternating pretzel with t_min..t_max twist regions.

    Tuples are canonicalized as sorted multisets (the determinant is
    symmetric).  Once 2*pi*log(det) exceeds the Montesinos bound 2*v8*n for n
    twist regions plus that bound's claimed error at a tuple, every
    coordinatewise-larger tuple passes too (the actual twist count never
    exceeds n), so only the multisets below the minimal frontier are
    visited.  For each n one loop walks them in lexicographic order, one
    determinant per step, with the entries from a[level] on all equal.
    Below the frontier a multiset is checked and its last entry raised.  A
    frontier corner certifies every later multiset that keeps a[:level], so
    the walk backs up one level and sets the entries from a[level - 1] on to
    a[level - 1] + 1.  Each multiset below the frontier is expanded into its
    distinct cyclic arrangements, since face sizes and twist counts depend
    on the cyclic order.  They depend only on its multiplicity pattern, the
    counts of its distinct values in ascending order, so each pattern's
    arrangements are generated once as value indices (``_bracelet_shapes``,
    which keeps the 16 most recent patterns) and mapped through the
    multiset's sorted values.  The first arrangement is the sorted multiset
    itself, and it alone gets a ``closed_form`` record up front: it goes
    through ``oracle_check`` when it is under the oracle cap, and it is the
    only arrangement of the one vacuous multiset, all ones.  The record's c
    and the multiset's determinant hold for every arrangement, and so do the
    two hubs, n-gons; only the n faces between cyclically consecutive
    regions, of a_{i-1} + a_i sides, vary (``families.pretzel_between``).
    Each arrangement's twist count is n less the bigons among them
    (``families.twist_count``, the rule ``closed_form`` applies), and an
    arrangement that count settles by the Stoimenow certificate for
    Montesinos links is counted as twist-count certified.  Of the others,
    one that ``adams_log_certificate`` settles in integers from those faces
    (the bigons inside the regions add nothing to it) is counted as checked
    and holds; only the rest get a ``closed_form`` record and their verdict
    and margin from ``bound_report``, as ``check`` would give them.
    """
    if t_max < 3:
        raise ValueError("t_max must be >= 3 (smaller pretzels are 2-bridge)")
    if t_min < 3 or t_min > t_max:
        raise ValueError("need 3 <= t_min <= t_max")
    if t_max > MAX_ENUMERATION_T:
        raise ValueError(f"t_max must be <= {MAX_ENUMERATION_T}")
    _require_oracle_cap(oracle_cap)
    report = EnumerationReport(t_min=t_min, t_max=t_max)
    start = time.perf_counter()

    for n in range(t_min, t_max + 1):
        b = montesinos_bound(n)
        log_threshold = (b.value + b.abs_err) / TWO_PI  # the bound at its largest
        # the sorted multiset a, whose entries from a[level] on are all equal
        a, level = [1] * n, 0
        while level >= 0:
            tup = tuple(a)
            d = fam.pretzel_det(tup)
            if math.log(d) > log_threshold + 1e-12:  # 1e-12: rounding slack
                # a frontier corner: raise a[level - 1] and every entry after it
                report.certified_monotone += 1
                report.frontier.append(tup)
                level -= 1
                if level >= 0:
                    a[level:] = [a[level] + 1] * (n - level)
                continue
            # below the frontier: one record for the multiset, which is its
            # own first arrangement, then each arrangement from its faces
            # between regions, c and d being the multiset's
            spec = Pretzel(tup)
            cf = fam.closed_form(spec)
            c = cf.crossing_count
            if cf.nonhyperbolic:  # all ones, the only arrangement
                report.vacuous += 1
                shapes = ()
            else:
                if c <= oracle_cap:
                    oracle_check(spec, d, cf)
                    report.oracle_checked += 1
                vals = sorted(set(tup))
                shapes = _bracelet_shapes(tuple(map(tup.count, vals)))
            for shape in shapes:
                arr = tuple(map(vals.__getitem__, shape))
                between = fam.pretzel_between(arr)
                if stoimenow_certificate(fam.twist_count(n, between), c, "montesinos"):
                    report.certified_stoimenow += 1
                    continue
                report.checked += 1
                if adams_log_certificate(d, between):
                    continue
                spec = Pretzel(arr)
                r = bound_report(spec, d, fam.closed_form(spec))
                if r.verdict != "holds":
                    report.violations.append((arr, r.margin))
            level = n - 1
            a[-1] += 1

    report.elapsed_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# sweeps


def _compositions_upto(total_max: int):
    """All nonempty tuples of positive ints with sum <= total_max, lexicographic."""
    stack: list[tuple[tuple[int, ...], int]] = [((), total_max)]
    while stack:  # preorder, children in increasing order: lexicographic
        cur, budget = stack.pop()
        if cur:
            yield cur
        stack.extend((cur + (x,), budget - x) for x in range(budget, 0, -1))


# R, B and P sweeps hold 2^sum_max - 1 compositions and ~1 KB per report,
# so sum_max 20 is already about 1 GB of reports.
MAX_COMPOSITION_SUM = 20
# A W sweep to index N holds dets of about 0.24 n bytes for n <= N, about
# 0.12 N^2 bytes in all: index 90,000 (sum_max 270,000) is again about 1 GB.
MAX_WEAVING_SWEEP_SUM = 270_000


def sweep_specs(family: str, sum_max: int) -> list[FamilySpec]:
    """Deterministic (lexicographic) spec list for a family sweep.

    R: all twist sequences with crossing number <= sum_max.
    B: all pair sequences with crossing number <= sum_max.
    P: all twist tuples of length >= 3 with crossing number <= sum_max.
    W: all indices with crossing number 3n <= sum_max.

    R, B and P take sum_max <= MAX_COMPOSITION_SUM, W sum_max <=
    MAX_WEAVING_SWEEP_SUM.
    """
    if sum_max < 1:
        raise ValueError("sum_max must be >= 1")
    if family in ("R", "B", "P") and sum_max > MAX_COMPOSITION_SUM:
        raise ValueError(
            f"sum_max {sum_max} > {MAX_COMPOSITION_SUM} for family {family}: "
            f"the sweep would hold about 2^{sum_max} specs"
        )
    if family == "W" and sum_max > MAX_WEAVING_SWEEP_SUM:
        raise ValueError(
            f"sum_max {sum_max} > {MAX_WEAVING_SWEEP_SUM} for family W: "
            "the sweep would hold over 1 GB of determinants"
        )
    if family == "R":
        return [TwoBridge(a) for a in _compositions_upto(sum_max)]
    if family == "B":
        return [
            ThreeBraid(tuple((a[2 * i], a[2 * i + 1]) for i in range(len(a) // 2)))
            for a in _compositions_upto(sum_max)
            if len(a) % 2 == 0
        ]
    if family == "P":
        return [Pretzel(a) for a in _compositions_upto(sum_max) if len(a) >= 3]
    if family == "W":
        return [Weaving4(n) for n in range(1, sum_max // 3 + 1)]
    raise ValueError(f"unknown family {family!r}; use R, B, P or W")


def sweep(
    family: str,
    sum_max: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    workers: int = 1,
) -> list[BoundReport]:
    """One BoundReport per family member, in deterministic spec order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _require_oracle_cap(oracle_cap)
    specs = sweep_specs(family, sum_max)
    check_one = functools.partial(check, oracle_cap=oracle_cap)
    workers = min(workers, os.cpu_count() or 1)  # more would only contend
    if workers > 1 and len(specs) > 64:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(check_one, specs, chunksize=256)
    return [check_one(s) for s in specs]


# ---------------------------------------------------------------------------
# serialization

CSV_COLUMNS = (
    "spec",
    "family",
    "t",
    "c",
    "det",
    "two_pi_log_det",
    "adams_exact",
    "adams_log",
    "lackenby",
    "montesinos",
    "best_bound",
    "margin",
    "hyperbolic_status",
    "verdict",
)


def report_row(r: BoundReport) -> dict[str, str | int | float | None]:
    """One CSV/JSON row: det as an exact decimal string, reals as floats or None.

    The det goes through ``Decimal``, whose conversion to a string is exempt
    from the interpreter's limit on int-to-decimal-string digits.
    """
    return {
        "spec": str(r.spec),
        "family": fam.family_name(r.spec),
        "t": r.twist_count,
        "c": r.crossing_count,
        "det": str(Decimal(r.det)),
        "two_pi_log_det": r.two_pi_log_det,
        "adams_exact": r.bounds.get("adams_exact"),
        "adams_log": r.bounds.get("adams_log"),
        "lackenby": r.bounds.get("lackenby"),
        "montesinos": r.bounds.get("montesinos"),
        "best_bound": r.best_bound,
        "margin": r.margin,
        "hyperbolic_status": r.hyperbolic_status,
        "verdict": r.verdict,
    }


def reports_to_csv(reports: list[BoundReport]) -> str:
    # report_row's keys come in CSV_COLUMNS order; the csv module writes
    # None as "" and a float as its repr
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    w.writerows(report_row(r).values() for r in reports)
    return buf.getvalue()


def reports_to_json(reports: list[BoundReport]) -> str:
    return json.dumps([report_row(r) for r in reports], indent=2)
