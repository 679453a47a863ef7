#!/usr/bin/env python3
"""Record one trajectory point: two sets of ten seeds on every workload, plus
one traced run per workload and set.

    python3 perfbench/trajectory.py --out perfbench/trajectory/<commit>.json

Runs ``run.py`` once per (set, workload, seed) with ``--trace 0`` and
``BENCHMARK.json``'s ``run_seconds``, one run after the other, and once per
(set, workload) with ``--trace 1`` at seed 1.  The first set uses seeds 1-10
and goes under ``workloads``; the second uses seeds 11-20 and goes under
``repeat`` in the same form.  For each end-to-end metric a set records the
values, their median and the spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median).
``agreement`` gives, per metric, how much worse the second median is than the
first, as a share of the first, beside the metric's bound; ``exact_counts``
says whether the two traced runs gave the same exact counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_SETS = (range(1, 11), range(11, 21))
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(ln[2:] for ln in lines if ln.startswith("# {")))
    return meta, json.loads(lines[-1])


def measure_set(config: dict, seeds: range) -> tuple[dict, dict]:
    """(workloads, run metadata) for one set of seeds."""
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    out = {}
    for workload in (w["name"] for w in config["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in seeds:
            meta, result = run(workload, seed, config["run_seconds"], 0)
            failed, attempted = failed + result["failed"], attempted + result["attempted"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            summary[name] = {"median": med, "spread": (q3 - q1) / med, "values": xs}
            print(f"seeds {seeds.start}-{seeds.stop - 1} {workload:<18} {name:<18} "
                  f"median {med:12.6g}  spread {(q3 - q1) / med:6.3f}  bound {bounds[name]}")
        _, traced = run(workload, TRACE_SEED, config["run_seconds"], 1)
        out[workload] = {
            "seeds": list(seeds),
            "end_to_end": summary,
            "failed_ratio": failed / attempted,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
        sys.stdout.flush()
    return out, meta


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    first, meta = measure_set(config, SEED_SETS[0])
    second, _ = measure_set(config, SEED_SETS[1])
    agreement, exact = {}, {}
    for m in config["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        for workload in first:
            a = first[workload]["end_to_end"][m["name"]]["median"]
            b = second[workload]["end_to_end"][m["name"]]["median"]
            agreement.setdefault(workload, {})[m["name"]] = {
                "worse_by": sign * (b - a) / a, "bound": m["bound"],
            }
    for workload in first:
        exact[workload] = all(
            first[workload]["per_layer"][k] == second[workload]["per_layer"][k]
            for k in EXACT_COUNTS
        )
    point = {
        "meta": {k: meta[k] for k in
                 ("commit", "source_sha256", "python", "nproc", "have_compiled", "detvol_pure")},
        "seconds": config["run_seconds"],
        "workloads": first,
        "repeat": second,
        "agreement": agreement,
        "exact_counts": exact,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    for workload, metrics in agreement.items():
        worst = max(metrics.items(), key=lambda kv: kv[1]["worse_by"] / kv[1]["bound"])
        print(f"{workload:<18} exact counts repeat: {exact[workload]}; largest shift "
              f"{worst[0]} worse by {worst[1]['worse_by']:+.3f} (bound {worst[1]['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
