#!/usr/bin/env python3
"""detvol benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload sweep_families --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; detvol is imported from ``src/`` and
nothing is built or installed.  Workloads, metrics and their units are listed
in ``BENCHMARK.json`` next to ``perfbench/``; see ``perfbench/README.md``.

``--trace 0`` measures ``setup_s`` in fresh interpreters, warms the workload
up, then repeats whole units of it until ``--seconds`` have passed, and at
least the workload's ``tail_units`` times, and reports the end-to-end
metrics.  Their times are scaled to a fixed machine speed by ``SpeedProbe``;
the raw figures are printed beside them.  ``--trace 1`` warms
up, then runs an untraced and a traced unit, twice; the exact counts of the
two traced units must agree, and the per-layer metrics are those of the first.

Either way every output is checked against the recorded reference.  The last
stdout line is the JSON result; the lines before it state the run's metadata
and how each metric was taken.  A copy of the result with that metadata and
the raw samples goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys, detvol\n"
    "r = detvol.check(detvol.parse_spec('P(2,3,7)'))\n"
    "sys.exit(0 if (r.det, r.verdict) == (41, 'holds') else 3)\n"
)
PROBE_INTERVAL_S = 0.05
PROBE_PAD_S = 0.25  # probes this close to a call also describe its speed
PROBE_REF_S = 0.0004  # probe time that defines the reference speed
# Counts that later claims may rest on; two traced units must give the same.
EXACT_COUNTS = (
    "diagram.face_orbits.per_diagram",
    "diagram.partner.per_diagram",
    "kernels.bareiss_det.calls",
    "kernels.bareiss_det.ops",
    "hypvol.bipyramid_volume.calls",
    "verify.enumerate.arrangements",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SpeedProbe:
    """Samples the machine's speed while a run measures.

    On a shared 2-vCPU machine (2.1 GHz), speed drifted by up to 1.8x over
    minutes: the same loop took 0.36 to 0.57 ms, and raw throughputs of runs
    a few minutes apart differed by as much.  A daemon thread times a fixed
    pure-Python loop every 50 ms.  The median probe time over a window divided
    by ``PROBE_REF_S`` is that window's slowdown, and end-to-end times are
    divided by it.  Scaled this way, unit-to-unit spread on enumerate_pretzel
    fell from 26% to 6% of the median.  The probe interrupts the work for
    about 1% of the time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            t0 = time.perf_counter()
            s = 0
            for i in range(6000):
                s += i * i % 7
            self.samples.append((t0, time.perf_counter() - t0))

    def slowdown(self, t0: float, t1: float) -> float:
        """Slowdown over [t0, t1], widened by PROBE_PAD_S for short calls."""
        lo, hi = t0 - PROBE_PAD_S, t1 + PROBE_PAD_S
        window = [d for t, d in self.samples if lo <= t < hi] or [d for _, d in self.samples]
        return statistics.median(window) / PROBE_REF_S


def measure_setup() -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters, each importing detvol and running
    its first check."""
    windows = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        windows.append((t0, time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up check failed ({proc.returncode}): {proc.stderr.strip()}")
    return windows


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with >= 10 samples
    beyond it; with fewer than 11 samples, the maximum (percentile 100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "detvol").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None for a plain source tree."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def metadata(workload: str, seed: int) -> dict:
    from detvol import kernels

    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),  # None outside git; source_sha256 identifies the code
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "have_compiled": kernels.HAVE_COMPILED,
        "detvol_pure": os.environ.get("DETVOL_PURE"),
        "workers": 1,
    }


def run_units(wl, seconds: float) -> list[list]:
    """Whole units until ``seconds`` have passed, and at least
    ``wl.tail_units`` of them; one list of ops per unit."""
    units = []
    t0 = time.perf_counter()
    while len(units) < wl.tail_units or time.perf_counter() - t0 < seconds:
        units.append(wl.unit())
    return units


def end_to_end(wl, seconds: float) -> tuple[dict, dict, list, dict]:
    """Each time is divided by the speed probe's slowdown around it;
    throughput is the median over units, p50 over all calls, and the tail
    over the calls of the first ``wl.tail_units`` units only."""
    # the probe only describes the core it runs on, so the probe thread, the
    # work and the set-up interpreters (which inherit this) share one core
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    with SpeedProbe() as probe:
        setup = measure_setup()
        wl.warm()
        units = run_units(wl, seconds)
    setup_raw = [t1 - t0 for t0, t1 in setup]
    setup_scaled = [(t1 - t0) / probe.slowdown(t0, t1) for t0, t1 in setup]
    ops = [op for unit in units for op in unit]
    slowdowns = [probe.slowdown(op.start, op.start + op.seconds) for op in ops]
    raw_latencies = [op.seconds for op in ops]
    latencies = [t / k for t, k in zip(raw_latencies, slowdowns)]
    raw_rates, rates = [], []
    i = 0
    for unit in units:
        items = sum(op.items for op in unit)
        raw_rates.append(items / sum(raw_latencies[i:i + len(unit)]))
        rates.append(items / sum(latencies[i:i + len(unit)]))
        i += len(unit)
    n_tail = sum(len(unit) for unit in units[:wl.tail_units])
    tail, pct, _ = tail_latency(latencies[:n_tail])
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "throughput_per_s": statistics.median(raw_rates),
        "latency_p50_ms": statistics.median(raw_latencies) * 1e3,
        "latency_tail_ms": tail_latency(raw_latencies[:n_tail])[0] * 1e3,
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "throughput_per_s": f"median of {len(units)} units",
        "latency_p50_ms": f"median of {len(ops)} calls",
        "latency_tail_ms": f"p{pct:.1f} of the {n_tail} calls of the first {wl.tail_units} units",
        "speed": f"pinned to CPU {cpu}; times scaled to a {PROBE_REF_S * 1e3} ms probe; "
        f"median slowdown {statistics.median(slowdowns):.3f} over {len(probe.samples)} probes",
        "raw": raw,
    }
    samples = {
        "setup_s": setup_raw,
        "unit_rates_per_s": raw_rates,
        "slowdowns": slowdowns,
        "latencies_s": raw_latencies,
    }
    return metrics, notes, ops, samples


def layer_metrics(tracer, wl, traced_s: float) -> dict:
    calls, incl, own = tracer.calls, tracer.incl_s, tracer.self_s
    builds = calls["diagram.pd_build"]
    bp_calls = calls["hypvol.bipyramid_volume"]
    return {
        "families.det.s": incl["families.det"],
        "families.det.calls": calls["families.det"],
        "families.to_diagram.self_s": own["families.to_diagram"],
        "diagram.pd_build.s": incl["diagram.pd_build"],
        "diagram.analyze.s": incl["diagram.analyze"],
        "diagram.face_orbits.per_diagram": calls["diagram.face_orbits"] / builds if builds else 0,
        "diagram.partner.per_diagram": calls["diagram.partner"] / builds if builds else 0,
        "multigraph.spanning_tree_count.calls": calls["multigraph.spanning_tree_count"],
        "multigraph.spanning_tree_count.self_s": own["multigraph.spanning_tree_count"],
        "kernels.bareiss_det.calls": calls["kernels.bareiss_det"],
        "kernels.bareiss_det.s": incl["kernels.bareiss_det"],
        "kernels.bareiss_det.ops": tracer.counters["bareiss_n_cubed"] / 3,
        "hypvol.bipyramid_volume.calls": bp_calls,
        "hypvol.bipyramid_volume.s": incl["hypvol.bipyramid_volume"],
        "hypvol.bipyramid_volume.distinct_ratio": (
            len(tracer.bipyramid_sizes) / bp_calls if bp_calls else 0
        ),
        "hypvol.bounds.s": incl["hypvol.bounds"],
        "verify.check.self_s": own["verify.check"],
        "verify.sweep.self_s": own["verify.sweep"],
        "verify.enumerate_pretzels.self_s": own["verify.enumerate_pretzels"],
        "verify.serialize.s": incl["verify.serialize"],
        "verify.enumerate.arrangements": wl.arrangements,
        "verify.oracle_checks": tracer.counters["oracle_checks"] + wl.enum_oracle_checks,
        "trace.traced_s": traced_s,
        "trace.uncovered_s": traced_s - tracer.covered_s,
    }


def traced(wl) -> tuple[dict, dict, list, bool]:
    """Untraced and traced units alternate, twice, so drift in the machine's
    speed does not land on one side of ``trace.overhead_ratio``."""
    from tracer import Tracer

    wl.warm()
    tracer = Tracer()
    ops, untraced, passes = [], [], []
    for _ in range(2):
        t0 = time.perf_counter()
        ops += wl.unit()
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        try:
            tracer.reset()
            t0 = time.perf_counter()
            ops += wl.unit()
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer, wl, traced_s))
    first, second = passes
    first["trace.untraced_s"] = untraced[0]
    first["trace.overhead_ratio"] = (
        (first["trace.traced_s"] + second["trace.traced_s"]) / sum(untraced)
    )
    differ = [k for k in EXACT_COUNTS if first[k] != second[k]]
    notes = {
        "exact_counts": "identical in both traced units" if not differ
        else f"DIFFER between traced units: {differ}",
        "kernels.bareiss_det.ops": "computed as sum of n^3/3 over the minor sizes",
        "hypvol.bounds.s": "inclusive of hypvol.bipyramid_volume.s",
        "trace.uncovered_s": "traced wall time that no span covers",
    }
    return first, notes, ops, not differ


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "detvol" / "__init__.py").is_file():
        print(f"run.py: no detvol sources in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in config["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = config["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    import detvol
    import workloads

    if Path(detvol.__file__).resolve().parent != SRC / "detvol":
        print(f"run.py: imported detvol from {detvol.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = metadata(args.workload, args.seed)  # before the run pins itself to one core
    wl = workloads.make(args.workload, args.seed)
    counts_ok, samples = True, {}
    if args.trace:
        metrics, notes, ops, counts_ok = traced(wl)
    else:
        metrics, notes, ops, samples = end_to_end(wl, args.seconds)
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = sum(op.items for op in ops)
    failed = sum(op.failed for op in ops)
    meta["failed_ratio"] = failed / attempted
    meta["notes"] = notes
    if isinstance(wl, workloads.CheckLargeWorkload):
        meta["specs"] = wl.ids
    raw = notes.get("raw", {})
    for m in wanted:
        line = f"{m['name']:<42} {metrics[m['name']]:>16.6g} {m['unit']}"
        if m["name"] in raw:
            line += f"  (raw {raw[m['name']]:.6g})"
        print(line)
    print(f"{'failed_ratio':<42} {failed / attempted:>16.6g} ({failed} of {attempted} items)")
    print("# " + json.dumps(meta))
    result = {
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "result": result, "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
