#!/usr/bin/env python3
"""Print a short digest of every output a refactor must leave byte-identical.

    python3 tests/output_hashes.py

Imports ``detvol`` from the ``src`` beside this file, so running it at two
checkouts and comparing the lines is the byte-identity check.  Each line is
the first 12 hex digits of the SHA-256 of one output:

* the sweep CSV and JSON (``reports_to_csv`` / ``reports_to_json``, what
  ``detvol sweep --format csv|json`` prints, less the JSON's final newline)
  of R<=14, B<=12 and P<=12 at oracle cap 40 and of W<=240 at oracle cap 240;
* the ``enumerate_pretzels(t)`` report for t = 5, 6 and 7, as
  ``json.dumps(asdict(report), sort_keys=True)`` with ``elapsed_seconds``
  set to 0.0.

Takes about 3 s on 2 cores with Python 3.11.7; pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detvol.verify import enumerate_pretzels, reports_to_csv, reports_to_json, sweep  # noqa: E402

SWEEPS = [("R", 14, 40), ("B", 12, 40), ("P", 12, 40), ("W", 240, 240)]
ENUMERATIONS = (5, 6, 7)


def sha12(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


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


if __name__ == "__main__":
    main()
