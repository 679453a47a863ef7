"""The four benchmark workloads and the reference each one is checked against.

Every workload drives detvol's public API in this process with ``workers=1``.
``unit()`` runs one measured unit of work and returns one ``Op`` per call a
user would wait on, so latency percentiles are taken over those calls:

* ``sweep_families``: one op per pass over the R, B and P sweeps plus their CSV.
* ``enumerate_pretzel``: one op per ``enumerate_pretzels(6)`` call.
* ``check_large``: one op per ``check`` call.
* ``oracle_weaving``: one op per ``sweep("W", 240, oracle_cap=240)`` call.

Each op says how many items it attempted and how many failed, where an item
fails when the call raised or its exact determinant or verdict (for the
enumeration: its report counts) differs from the reference recorded in
``reference/`` by ``make_reference.py``.  Float columns and the CSV column set
are not compared, so adding columns does not count as a failure.

``tail_units`` is how many units ``latency_tail_ms`` is taken over.  It is
fixed per workload, so the tail is the same percentile of the same number of
calls on every commit however fast the code runs; ``run.py`` always runs at
least that many units, and uses any further ones for throughput and p50 only.

All modules must call detvol through module attributes (``verify.sweep``),
never through names bound at import, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
import traceback
from collections.abc import Iterator
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

from detvol import verify
from detvol.families import Pretzel, ThreeBraid, TwoBridge, Weaving4

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SWEEP_REFERENCE = REFERENCE_DIR / "sweeps.txt"
ENUMERATE_REFERENCE = REFERENCE_DIR / "enumerate_pretzel.json"
CHECK_LARGE_REFERENCE = REFERENCE_DIR / "check_large.txt"

VERDICT_CODES = {"holds": "h", "vacuous": "v", "bound_inconclusive": "i"}


class Op(NamedTuple):
    start: float  # time.perf_counter() when the call began
    seconds: float
    items: int
    failed: int


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc()


# ---------------------------------------------------------------------------
# exhaustive sweeps


def compositions(total_max: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of positive ints with sum <= total_max, in lexicographic order.

    Written independently of ``verify.sweep_specs``: this is the spec order the
    sweep reference expects, so a change of order shows as a failure.
    """
    stack: list[tuple[tuple[int, ...], int]] = [((), total_max)]
    while stack:  # preorder with children in increasing order = lexicographic
        cur, room = stack.pop()
        if cur:
            yield cur
        stack.extend((cur + (x,), room - x) for x in range(room, 0, -1))


def expected_specs(family: str, sum_max: int) -> Iterator[str]:
    """Spec strings of a family sweep, in the order the sweep must return them."""
    if family == "W":
        return (f"W({n})" for n in range(1, sum_max // 3 + 1))
    keep = {"R": lambda a: True, "B": lambda a: len(a) % 2 == 0, "P": lambda a: len(a) >= 3}
    return (
        f"{family}({','.join(map(str, a))})"
        for a in compositions(sum_max)
        if keep[family](a)
    )


def load_sweep_reference(keys) -> dict[tuple[str, int], str]:
    """(family, sum_max) -> that section's 'det verdict-code' lines, in sweep order.

    Only the sections in ``keys`` are kept, each as one string, and the
    expected spec strings are generated while comparing, so the benchmark's
    own check data adds little to ``peak_rss_mb``.
    """
    text = SWEEP_REFERENCE.read_text()
    ref = {}
    for family, sum_max in keys:
        head = f"\n== {family} {sum_max}\n"
        start = text.index(head) + len(head)
        end = text.find("\n==", start)
        block = text[start:] if end < 0 else text[start:end + 1]
        if block.count("\n") != sum(1 for _ in expected_specs(family, sum_max)):
            raise ValueError(f"{SWEEP_REFERENCE}: section {family} {sum_max} "
                             "does not match its spec list")
        ref[(family, sum_max)] = block
    return ref


def sweep_failures(reports, family: str, sum_max: int, block: str) -> tuple[int, int]:
    """(attempted, failed) for one family sweep against its reference section."""
    attempted = failed = 0
    expected = zip(expected_specs(family, sum_max), io.StringIO(block))
    for r, want in zip_longest(reports, expected):
        if want is None:  # a report beyond the expected specs
            failed += 1
            continue
        attempted += 1
        spec, line = want
        if r is None or str(r.spec) != spec or line != f"{r.det} {VERDICT_CODES.get(r.verdict)}\n":
            failed += 1
    return attempted, min(failed, attempted)


class SweepWorkload:
    """One pass of family sweeps, each optionally serialized to CSV."""

    def __init__(self, name, sweeps, warm_sweeps, csv: bool, tail_units: int):
        self.name = name
        self.sweeps = sweeps  # [(family, sum_max, oracle_cap)]
        self.warm_sweeps = warm_sweeps
        self.csv = csv
        self.tail_units = tail_units
        self.ref = load_sweep_reference([(f, s) for f, s, _ in sweeps])
        self.sizes = {key: block.count("\n") for key, block in self.ref.items()}
        self.arrangements = 0
        self.enum_oracle_checks = 0

    def _run(self, family, sum_max, cap):
        reports = verify.sweep(family, sum_max, oracle_cap=cap, workers=1)
        if self.csv:
            text = verify.reports_to_csv(reports)
            if text.count("\n") != len(reports) + 1:
                raise RuntimeError(f"CSV for {family}<={sum_max} has the wrong row count")
        return reports

    def warm(self) -> None:
        for sweep in self.warm_sweeps:
            self._run(*sweep)

    def unit(self) -> list[Op]:
        attempted = failed = 0
        busy = 0.0
        start = time.perf_counter()
        for family, sum_max, cap in self.sweeps:
            t0 = time.perf_counter()
            try:
                reports = self._run(family, sum_max, cap)
            except Exception:
                busy += time.perf_counter() - t0
                _report_failure(f"sweep {family}<={sum_max}")
                n = self.sizes[(family, sum_max)]
                attempted, failed = attempted + n, failed + n
                continue
            busy += time.perf_counter() - t0
            a, f = sweep_failures(reports, family, sum_max, self.ref[(family, sum_max)])
            del reports  # a user's sweep holds one family's reports, not two
            attempted, failed = attempted + a, failed + f
        return [Op(start, busy, attempted, failed)]


# ---------------------------------------------------------------------------
# pretzel enumeration

ENUMERATE_COUNTS = (
    "checked",
    "certified_monotone",
    "certified_stoimenow",
    "vacuous",
    "oracle_checked",
)


def enumeration_counts(report) -> dict[str, int]:
    counts = {k: getattr(report, k) for k in ENUMERATE_COUNTS}
    counts["frontier"] = len(report.frontier)
    counts["violations"] = len(report.violations)
    return counts


class EnumerateWorkload:
    name = "enumerate_pretzel"
    T_MAX = 6
    tail_units = 5  # the maximum of 5 calls, about 13 s at 56c0a46

    def __init__(self):
        self.ref = json.loads(ENUMERATE_REFERENCE.read_text())
        if self.ref["t_max"] != self.T_MAX or self.ref["counts"]["violations"] != 0:
            raise ValueError(f"{ENUMERATE_REFERENCE} is not a clean t<={self.T_MAX} run")
        self.arrangements = 0
        self.enum_oracle_checks = 0

    def warm(self) -> None:
        verify.enumerate_pretzels(4)

    def unit(self) -> list[Op]:
        expected = self.ref["counts"]
        items = expected["checked"] + expected["certified_stoimenow"]
        t0 = time.perf_counter()
        try:
            report = verify.enumerate_pretzels(self.T_MAX)
        except Exception:
            _report_failure(f"enumerate_pretzels({self.T_MAX})")
            return [Op(t0, time.perf_counter() - t0, items, items)]
        dt = time.perf_counter() - t0
        self.arrangements = report.checked + report.certified_stoimenow
        self.enum_oracle_checks = report.oracle_checked
        ok = enumeration_counts(report) == expected
        return [Op(t0, dt, items, 0 if ok else items)]


# ---------------------------------------------------------------------------
# large single checks

# Sizes of the seven rungs per family: crossings for R and P, pairs for B, the
# index n for W.  Rungs 0-4 of every family take about the same time per
# check, roughly doubling with k.  The rung count is odd, so the median check
# falls inside the middle rung's cluster of latencies rather than in a gap
# between rungs.  B's top two rungs reach 1400 and 2000 pairs, where the
# closed form, quadratic in the number of pairs, is about 65% and 75% of the
# check: at 56c0a46 they are over half of a unit's time, so a change to
# ``families`` shows in check_large's throughput, and in its tail, which
# falls in the 1400-pair rung (see ``CheckLargeWorkload.tail_units``).
LADDERS = {
    "R": (140, 280, 560, 1125, 2250, 4500, 9000),
    "B": (26, 52, 104, 200, 330, 1400, 2000),
    "P": (125, 250, 500, 1000, 2000, 4000, 8000),
    "W": (47, 94, 188, 375, 750, 1500, 3000),
}
MAX_ENTRY = {"R": 6, "B": 4, "P": 9}
VARIANTS = 8  # pool members per rung, all recorded in the reference
PICKS = 2  # members per rung that one seed selects


def _entries(rng: random.Random, total: int, max_entry: int) -> list[int]:
    """Random positive entries summing to exactly ``total``."""
    a: list[int] = []
    s = 0
    while s < total:
        x = 1 + int(rng.random() * max_entry)
        a.append(x)
        s += x
    a[-1] -= s - total
    return a


def pool_spec(family: str, rung: int, variant: int):
    """Pool member ``<family><rung>v<variant>``; the same on every Python version.

    Only ``Random.random()`` is used, the one stream Python keeps stable.
    """
    size = LADDERS[family][rung]
    if family == "W":
        return Weaving4(size + variant)
    rng = random.Random(f"check_large/{family}/{rung}/{variant}")
    if family == "B":  # B's size is its number of pairs
        a = [1 + int(rng.random() * MAX_ENTRY["B"]) for _ in range(2 * size)]
    else:
        a = _entries(rng, size, MAX_ENTRY[family])
    if family == "R":
        return TwoBridge(tuple(a))
    if family == "P":
        return Pretzel(tuple(a))
    return ThreeBraid(tuple(zip(a[::2], a[1::2])))


def pool_ids() -> list[str]:
    return [
        f"{f}{r}v{v}" for f in LADDERS for r in range(len(LADDERS[f])) for v in range(VARIANTS)
    ]


def spec_of(pool_id: str):
    family, rest = pool_id[0], pool_id[1:]
    rung, variant = rest.split("v")
    return pool_spec(family, int(rung), int(variant))


def digest(text_or_int) -> str:
    if isinstance(text_or_int, int):
        n = text_or_int
        data = n.to_bytes((n.bit_length() + 8) // 8, "big", signed=True)
    else:
        data = text_or_int.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def seeded_ids(seed: int) -> list[str]:
    """The run's spec list: PICKS members of every rung, in a seeded order."""
    rng = random.Random(seed)
    ids = []
    for f, ladder in LADDERS.items():
        for r in range(len(ladder)):
            variants = list(range(VARIANTS))
            for _ in range(PICKS):
                v = variants.pop(int(rng.random() * len(variants)))
                ids.append(f"{f}{r}v{v}")
    for i in range(len(ids) - 1, 0, -1):  # Fisher-Yates on random() alone
        j = int(rng.random() * (i + 1))
        ids[i], ids[j] = ids[j], ids[i]
    return ids


def load_check_large_reference() -> dict[str, tuple[str, str, str]]:
    """pool id -> (spec digest, det digest, verdict code)."""
    ref = {}
    for line in CHECK_LARGE_REFERENCE.read_text().splitlines():
        if line and not line.startswith("#"):
            pool_id, spec_d, det_d, _bits, code = line.split()
            ref[pool_id] = (spec_d, det_d, code)
    return ref


class CheckLargeWorkload:
    name = "check_large"
    tail_units = 3  # 168 calls: the tail (p94.0) falls in B's 1400-pair rung; ~27 s

    def __init__(self, seed: int, ids: list[str] | None = None):
        self.ids = ids if ids is not None else seeded_ids(seed)
        ref = load_check_large_reference()
        self.items = []
        for pool_id in self.ids:
            spec = spec_of(pool_id)
            spec_d, det_d, code = ref[pool_id]
            if digest(str(spec)) != spec_d:
                raise ValueError(f"pool member {pool_id} differs from the recorded one")
            self.items.append((spec, det_d, code))
        self.arrangements = 0
        self.enum_oracle_checks = 0

    def warm(self) -> None:
        for f in LADDERS:
            verify.check(pool_spec(f, 2, 0))

    def unit(self) -> list[Op]:
        ops = []
        for spec, det_d, code in self.items:
            t0 = time.perf_counter()
            try:
                r = verify.check(spec)
            except Exception:
                ops.append(Op(t0, time.perf_counter() - t0, 1, 1))
                _report_failure(f"check {spec}")
                continue
            dt = time.perf_counter() - t0
            ok = digest(r.det) == det_d and VERDICT_CODES.get(r.verdict) == code
            ops.append(Op(t0, dt, 1, 0 if ok else 1))
        return ops


# ---------------------------------------------------------------------------

SWEEP_FAMILIES = [("R", 14, 40), ("B", 12, 40), ("P", 12, 40)]
ORACLE_WEAVING = [("W", 240, 240)]


def make(name: str, seed: int):
    """The named workload; only ``check_large`` depends on the seed."""
    if name == "sweep_families":
        warm = [("R", 8, 40), ("B", 8, 40), ("P", 8, 40)]
        return SweepWorkload(name, SWEEP_FAMILIES, warm, csv=True, tail_units=2)  # ~20 s
    if name == "oracle_weaving":
        return SweepWorkload(name, ORACLE_WEAVING, [("W", 60, 60)], csv=False, tail_units=4)  # ~12 s
    if name == "enumerate_pretzel":
        return EnumerateWorkload()
    if name == "check_large":
        return CheckLargeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
