#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference/``:

* ``sweeps.txt``: exact determinant and verdict of every spec of the R<=14,
  B<=12, P<=12 (oracle cap 40) and W<=240 (oracle cap 240) sweeps, in sweep
  order; every determinant was confirmed by the matrix-tree oracle.
* ``enumerate_pretzel.json``: the counts of ``enumerate_pretzels(6)``.
* ``check_large.txt``: digests of the spec and the exact determinant, and the
  verdict, of every member of the ``check_large`` pool.

Only re-record at a commit whose determinants and verdicts are known to be
right: the benchmark counts every difference from these files as a failure.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl
from detvol import verify
from run import git_commit


def write_sweeps(commit: str) -> None:
    lines = [
        f"# Sweep reference recorded at detvol {commit} by make_reference.py.",
        "# '== family sum_max' opens a section; then one 'det verdict' line per spec",
        "# in sweep order (h holds, v vacuous, i bound_inconclusive).",
    ]
    for family, sum_max, cap in wl.SWEEP_FAMILIES + wl.ORACLE_WEAVING:
        reports = verify.sweep(family, sum_max, oracle_cap=cap, workers=1)
        if [str(r.spec) for r in reports] != list(wl.expected_specs(family, sum_max)):
            raise SystemExit(f"sweep {family}<={sum_max} is not in lexicographic order")
        lines.append(f"== {family} {sum_max}")
        lines += [f"{r.det} {wl.VERDICT_CODES[r.verdict]}" for r in reports]
    (wl.REFERENCE_DIR / "sweeps.txt").write_text("\n".join(lines) + "\n")


def write_enumeration(commit: str) -> None:
    report = verify.enumerate_pretzels(wl.EnumerateWorkload.T_MAX)
    data = {
        "recorded_at": commit,
        "t_max": wl.EnumerateWorkload.T_MAX,
        "counts": wl.enumeration_counts(report),
    }
    (wl.REFERENCE_DIR / "enumerate_pretzel.json").write_text(json.dumps(data, indent=2) + "\n")


def write_check_large(commit: str) -> None:
    lines = [
        f"# check_large pool reference recorded at detvol {commit} by make_reference.py.",
        "# pool_id sha256(spec)[:16] sha256(det bytes)[:16] det_bits verdict",
    ]
    for pool_id in wl.pool_ids():
        spec = wl.spec_of(pool_id)
        r = verify.check(spec)
        code = wl.VERDICT_CODES[r.verdict]
        lines.append(
            f"{pool_id} {wl.digest(str(spec))} {wl.digest(r.det)} {r.det.bit_length()} {code}"
        )
    (wl.REFERENCE_DIR / "check_large.txt").write_text("\n".join(lines) + "\n")


def main() -> int:
    commit = (git_commit() or "unknown")[:7]
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for write in (write_sweeps, write_enumeration, write_check_large):
        t0 = time.perf_counter()
        write(commit)
        print(f"{write.__name__}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
