#!/usr/bin/env python3
"""Print a short digest of every output a refactor must leave byte-identical.

    python3 tests/output_hashes.py

Imports ``detvol`` from the ``src`` beside this file, so running it at two
checkouts and comparing the lines is the byte-identity check.  Each line is
the first 12 hex digits of the SHA-256 of one output:

* the sweep CSV and JSON (``reports_to_csv`` / ``reports_to_json``, what
  ``detvol sweep --format csv|json`` prints, less the JSON's final newline)
  of R<=14, B<=12 and P<=12 at oracle cap 40 and of W<=240 at oracle cap 240;
* the ``enumerate_pretzels(t)`` report for t = 5, 6, 7 and 8, as
  ``json.dumps(asdict(report), sort_keys=True)`` with ``elapsed_seconds``
  set to 0.0; t = 8 is the one with violations (173 arrangements that no
  bound settles), so the only one whose report goes through ``bound_report``;
* the ``reports_to_csv`` of ``check(spec, oracle_cap=0)`` over 40 seeded
  specs above every oracle cap, 10 each of R and P (the same 200-2,000
  entries of 1-9), B (200-2,000 pairs of 1-4) and W (index 334-3,000): the
  closed forms, determinants and bounds where no diagram is compared.

Takes about 10 s on 2 cores with Python 3.11.7, 5 s of it the t = 8
enumeration; pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detvol.families import Pretzel, ThreeBraid, TwoBridge, Weaving4  # noqa: E402
from detvol.verify import (  # noqa: E402
    check, enumerate_pretzels, reports_to_csv, reports_to_json, sweep,
)

SWEEPS = [("R", 14, 40), ("B", 12, 40), ("P", 12, 40), ("W", 240, 240)]
ENUMERATIONS = (5, 6, 7, 8)


def sha12(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def long_specs() -> list:
    rng = random.Random(20261022)
    specs = []
    for _ in range(10):
        a = tuple(rng.randint(1, 9) for _ in range(rng.randint(200, 2000)))
        pairs = tuple((rng.randint(1, 4), rng.randint(1, 4))
                      for _ in range(rng.randint(200, 2000)))
        specs += [TwoBridge(a), Pretzel(a), ThreeBraid(pairs), Weaving4(rng.randint(334, 3000))]
    return specs


def main() -> None:
    for family, sum_max, cap in SWEEPS:
        reports = sweep(family, sum_max, oracle_cap=cap)
        print(f"sweep {family}<={sum_max} cap {cap}  "
              f"csv {sha12(reports_to_csv(reports))}  json {sha12(reports_to_json(reports))}")
    for t in ENUMERATIONS:
        report = enumerate_pretzels(t)
        report.elapsed_seconds = 0.0
        text = json.dumps(dataclasses.asdict(report), sort_keys=True)
        print(f"enumerate_pretzels({t})  {sha12(text)}")
    reports = [check(spec, oracle_cap=0) for spec in long_specs()]
    print(f"check 40 long R/B/P/W specs cap 0  csv {sha12(reports_to_csv(reports))}")


if __name__ == "__main__":
    main()
