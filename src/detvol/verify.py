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
many tuples below the passing frontier need an explicit verdict.
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
# A diagram above this limit is refused, whatever the oracle cap.  On two
# cores a 400-crossing R, B, P or W oracle check takes 0.02-0.06 s, since
# their Tait graphs leave the elimination almost no fill.  A Tait graph that
# fills in costs more: a 14x15 grid graph (391 edges, so 391 crossings)
# takes 0.2-0.3 s, and the worst case still grows like c^3 in the crossing
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


def check(spec: FamilySpec, oracle_cap: int = DEFAULT_ORACLE_CAP) -> BoundReport:
    """Full report for one family member.

    The record (det, closed form) costs O(len(spec)) big-integer steps and
    builds no diagram.  With at most ``oracle_cap`` crossings it also goes
    through ``oracle_check``, unless the member is known non-hyperbolic.
    """
    d, cf = fam.det(spec), fam.closed_form(spec)
    if not cf.nonhyperbolic and cf.crossing_count <= oracle_cap:
        oracle_check(spec, d, cf)
    return bound_report(spec, d, cf)


def oracle_check(spec: FamilySpec, d: int, cf: fam.ClosedForm) -> None:
    """Cross-check a record against the diagram of ``spec``.

    The determinant must equal the matrix-tree counts of both checkerboard
    graphs, and the face sizes and twist count the diagram's own traversal.
    """
    require_oracle_size(cf.crossing_count)
    diag = fam.to_diagram(spec)
    t_sh, t_wh = spanning_tree_count(diag.shaded), spanning_tree_count(diag.white)
    if not (t_sh == t_wh == d):
        raise RuntimeError(
            f"determinant mismatch for {spec}: closed form {d}, matrix-tree {t_sh}/{t_wh}"
        )
    if diag.faces != cf.faces or diag.twist_count != cf.twist_count:
        raise RuntimeError(
            f"face data mismatch for {spec}: closed form {cf.faces}, t={cf.twist_count}; "
            f"diagram {diag.faces}, t={diag.twist_count}"
        )


def bound_report(spec: FamilySpec, d: int, cf: fam.ClosedForm) -> BoundReport:
    """Bounds, margin and verdict of a record; a non-hyperbolic one is vacuous."""
    two_pi_log_det = TWO_PI * math.log(d) if d >= 1 else float("-inf")
    bounds: dict[str, float] = {}
    best, margin, verdict = None, None, "vacuous"
    if not cf.nonhyperbolic:
        r, s = cf.faces.two_largest()
        bounds["adams_exact"] = adams_bound_exact(cf.faces, r, s).value
        bounds["adams_log"] = adams_bound_log(cf.faces, r, s).value
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


def high_twist_threshold(t: int, rule: str = "general") -> float:
    """Crossing-number threshold beyond which the conjecture is automatic.

    general:    c >= t + xi^(t-1) - 2*gamma^(t-1)
    montesinos: c >= t + zeta^t   - 2*gamma^(t-1)
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    # exp(x), xi^(t-1) or zeta^t, outgrows 2*gamma^(t-1): inf past the float range
    x = _rule_bound(t, rule) / TWO_PI
    return t + math.exp(x) - stoimenow_lower_bound(t).value if x < 709.78 else math.inf


def _rule_bound(t: int, rule: str) -> float:
    if rule == "general":
        return lackenby_bound(t).value
    if rule == "montesinos":
        return montesinos_bound(t).value
    raise ValueError(f"unknown rule {rule!r}")


def stoimenow_certificate(t: int, c: int, rule: str = "general") -> bool:
    """True when the (t, c) data alone certifies the conjecture.

    Any alternating link with t twist regions and c crossings has
    det >= 2*gamma^(t-1) + c - t; past the rule's crossing threshold the
    volume bound is below 2*pi*log of that, and no diagram is examined.
    """
    if c < t:
        raise ValueError("c must be >= t")
    return c > high_twist_threshold(t, rule)


# ---------------------------------------------------------------------------
# pretzel enumeration


def canonical_arrangements(multiset):
    """Cyclic arrangements of a multiset up to rotation and reflection.

    Each class is yielded once, as its lexicographically least member, in
    increasing order.  That member starts with the least entry, so only the
    orderings of the rest are walked (in lexicographic order, by the standard
    next-permutation step), and an ordering is yielded when no rotation or
    reflection of it is smaller.
    """
    a = sorted(multiset)
    n = len(a)
    while True:
        arr = tuple(a)
        if all(arr <= s[k:] + s[:k] for s in (arr, arr[::-1]) for k in range(n)):
            yield arr
        # next permutation of a[1:]: raise the last ascent, reverse the tail
        i = n - 2
        while i >= 1 and a[i] >= a[i + 1]:
            i -= 1
        if i < 1:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


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


# enumerate_pretzels keeps at most this many frontier corners in its report
FRONTIER_LIMIT = 10000
# largest t_max enumerate_pretzels accepts; its search recurses once per twist region
MAX_ENUMERATION_T = 200


def enumerate_pretzels(
    t_max: int,
    t_min: int = 3,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    rule: str = "montesinos",
) -> EnumerationReport:
    """Check every alternating pretzel with t_min..t_max twist regions.

    Tuples are canonicalized as sorted multisets (the determinant is
    symmetric).  Once 2*pi*log(det) exceeds the rule's volume bound for n
    twist regions at a tuple, every coordinatewise-larger tuple passes too
    (the actual twist count never exceeds n), so only the multisets below the
    minimal frontier are visited.  Each of those goes through
    ``oracle_check`` once when it is under the oracle cap, and is expanded
    into its distinct cyclic arrangements, since face sizes and twist counts
    depend on the cyclic order; an arrangement that the Stoimenow certificate
    does not already settle gets its verdict and margin from ``bound_report``.
    """
    if t_max < 3:
        raise ValueError("t_max must be >= 3 (smaller pretzels are 2-bridge)")
    if t_min < 3 or t_min > t_max:
        raise ValueError("need 3 <= t_min <= t_max")
    if t_max > MAX_ENUMERATION_T:
        raise ValueError(f"t_max must be <= {MAX_ENUMERATION_T}")
    report = EnumerationReport(t_min=t_min, t_max=t_max)
    start = time.perf_counter()

    for n in range(t_min, t_max + 1):
        log_threshold = _rule_bound(n, rule) / TWO_PI  # det above e^this certifies

        def process(tup: tuple[int, ...], d: int) -> None:
            # explicit check of a sorted multiset of determinant d, all arrangements
            spec = Pretzel(tup)
            cf = fam.closed_form(spec)
            if cf.nonhyperbolic:
                report.vacuous += 1
                return
            if cf.crossing_count <= oracle_cap:
                oracle_check(spec, d, cf)
                report.oracle_checked += 1
            for arr in canonical_arrangements(tup):
                spec = Pretzel(arr)
                cf = fam.closed_form(spec)
                if stoimenow_certificate(cf.twist_count, sum(arr), rule):
                    report.certified_stoimenow += 1
                    continue
                r = bound_report(spec, d, cf)
                report.checked += 1
                if r.verdict != "holds":
                    report.violations.append((arr, r.margin))

        def rec(prefix: list[int], min_val: int) -> None:
            pos = len(prefix)
            v = min_val
            while True:
                corner = tuple(prefix) + (v,) * (n - pos)
                d = fam.pretzel_det(corner)
                if math.log(d) > log_threshold + 1e-12:
                    report.certified_monotone += 1
                    if len(report.frontier) < FRONTIER_LIMIT:
                        report.frontier.append(corner)
                    return
                if pos == n - 1:
                    process(corner, d)
                else:
                    prefix.append(v)
                    rec(prefix, v)
                    prefix.pop()
                v += 1

        rec([], 1)

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
    # the csv module writes None as "" and a float as its repr
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in reports:
        w.writerow(report_row(r))
    return buf.getvalue()


def reports_to_json(reports: list[BoundReport]) -> str:
    return json.dumps([report_row(r) for r in reports], indent=2)
