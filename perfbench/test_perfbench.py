"""Checks of the benchmark itself: failure accounting, spec order, tracing."""

import pytest

import run
import workloads
from detvol import families, verify
from detvol.families import Pretzel
from tracer import Tracer


def _weaving_workload():
    # W<=240 without the oracle: fast, and a wrong determinant is not caught
    # by check itself, only by the reference
    return workloads.SweepWorkload("w", [("W", 240, 0)], [], csv=True, tail_units=1)


def test_clean_sweep_has_no_failures():
    [op] = _weaving_workload().unit()
    assert (op.items, op.failed) == (80, 0)


def test_wrong_determinant_in_sweep_is_counted(monkeypatch):
    real = families.weaving_det
    monkeypatch.setattr(families, "weaving_det", lambda n: real(n) + (n == 5))
    [op] = _weaving_workload().unit()
    assert (op.items, op.failed) == (80, 1)


def test_wrong_determinant_in_check_large_is_counted(monkeypatch):
    wl = workloads.CheckLargeWorkload(seed=0, ids=["R0v0", "P0v0"])
    assert [op.failed for op in wl.unit()] == [0, 0]
    real = families.twobridge_det
    monkeypatch.setattr(families, "twobridge_det", lambda a: real(a) + 1)
    ops = wl.unit()
    assert [op.failed for op in ops] == [1, 0]
    assert sum(op.failed for op in ops) / sum(op.items for op in ops) > 0


def test_exception_in_check_large_is_counted(monkeypatch):
    def boom(spec):
        raise RuntimeError("injected")

    monkeypatch.setattr(families, "det", boom)
    [op] = workloads.CheckLargeWorkload(seed=0, ids=["W0v0"]).unit()
    assert op.failed == 1


@pytest.mark.parametrize("family", ["R", "B", "P", "W"])
def test_expected_spec_order_matches_sweep_specs(family):
    got = [str(s) for s in verify.sweep_specs(family, 9)]
    assert got == list(workloads.expected_specs(family, 9))


def test_seeded_list_depends_on_seed_only():
    a, b = workloads.seeded_ids(3), workloads.seeded_ids(3)
    assert a == b != workloads.seeded_ids(4)
    assert len(set(a)) == len(a) == 4 * 7 * workloads.PICKS


def test_tracer_counts_and_restores():
    original = verify.check
    tracer = Tracer()
    tracer.install()
    try:
        verify.check(Pretzel((2, 3, 7)))
    finally:
        tracer.uninstall()
    assert verify.check is original
    assert tracer.calls["diagram.pd_build"] == 1
    assert tracer.calls["diagram.face_orbits"] == 4
    assert tracer.calls["diagram.partner"] == 5
    assert tracer.calls["kernels.bareiss_det"] == 2
    assert tracer.counters["oracle_checks"] == 1
    assert tracer.calls["families.det"] == 1  # det -> pretzel_det is one span
    assert tracer.incl_s["verify.check"] >= tracer.incl_s["families.to_diagram"]


def test_run_units_reaches_tail_units():
    class Quick:
        tail_units = 3

        def unit(self):
            return [workloads.Op(0.0, 0.0, 1, 0)]

    assert len(run.run_units(Quick(), seconds=0)) == 3


def test_tail_latency():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail_latency([float(i) for i in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)
