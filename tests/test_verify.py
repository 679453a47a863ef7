"""The conjecture checker, certificates, enumeration, and sweeps."""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
from collections import Counter

import pytest

import detvol
from detvol import families, verify
from detvol.families import Pretzel, ThreeBraid, TwoBridge, Weaving4, pretzel_det, to_diagram
from detvol.hypvol import GAMMA, TWO_PI, V4, XI, ZETA, FaceVector, Real, adams_bound_log
from detvol.verify import (
    CSV_COLUMNS,
    MAX_ORACLE_CROSSINGS,
    canonical_arrangements,
    check,
    enumerate_pretzels,
    high_twist_threshold,
    reports_to_csv,
    reports_to_json,
    stoimenow_certificate,
    sweep,
    sweep_specs,
)
from oracles import canonical_arrangements_by_necklaces, pretzel_walk_by_recursion


class TestCheck:
    def test_case_one_example(self):
        r = check(TwoBridge((1, 2, 1)))
        assert r.verdict == "holds"
        assert r.det == 4
        assert r.best_bound <= TWO_PI * math.log(2) + 1e-9

    def test_vacuous(self):
        r = check(TwoBridge((1, 1, 1)))
        assert r.verdict == "vacuous"
        assert r.hyperbolic_status == "known_nonhyperbolic"
        assert r.best_bound is None and r.margin is None

    def test_all_ones_two_bridge(self):
        r = check(TwoBridge((1, 1, 1, 1, 1)))
        assert r.verdict == "holds"
        assert r.det == 8

    def test_pretzel(self):
        r = check(Pretzel((2, 3, 7)))
        assert r.verdict == "holds"
        assert r.det == 41
        assert r.bounds.get("montesinos") is not None

    def test_weaving_uses_exact_bound(self):
        for n in (4, 6, 10):
            r = check(Weaving4(n))
            assert r.verdict == "holds"
            bound = r.bounds["adams_exact"]
            assert math.exp(bound / TWO_PI) <= 3.418677234 ** n
            assert r.two_pi_log_det > bound

    def test_best_bound_is_min(self):
        r = check(ThreeBraid(((2, 3), (1, 2))))
        assert r.best_bound == min(r.bounds.values())
        assert all(r.best_bound <= v + 1e-12 for v in r.bounds.values())

    def test_margin_definition(self):
        r = check(TwoBridge((2, 3, 4)))
        assert abs(r.margin - (r.two_pi_log_det - r.best_bound)) < 1e-12

    def test_oracle_cap_runs(self):
        r = check(TwoBridge((2, 2, 2)), oracle_cap=10)
        assert r.verdict == "holds"

    def test_no_diagram_above_cap(self, monkeypatch):
        specs = [TwoBridge((2, 3, 4)), ThreeBraid(((2, 3), (1, 2))), Pretzel((2, 3, 7)),
                 Weaving4(10)]
        expect = [check(s) for s in specs]

        def boom(spec):
            raise AssertionError(f"diagram built for {spec}")

        monkeypatch.setattr(families, "to_diagram", boom)
        for spec, want in zip(specs, expect):
            got = check(spec, oracle_cap=families.closed_form(spec).crossing_count - 1)
            assert (got.det, got.bounds, got.twist_count, got.margin) == (
                want.det, want.bounds, want.twist_count, want.margin)
        assert check(Weaving4(300000)).verdict == "holds"
        with pytest.raises(AssertionError):
            check(Pretzel((2, 3, 7)), oracle_cap=12)

    def test_wrong_face_data_under_cap_raises(self, monkeypatch):
        real = families.closed_form

        def extra_face(s):
            cf = real(s)
            return cf._replace(faces=FaceVector({**dict(cf.faces), 50: 1}))

        monkeypatch.setattr(families, "closed_form", extra_face)
        with pytest.raises(RuntimeError, match="face data mismatch"):
            check(Pretzel((2, 3, 7)))
        check(Pretzel((2, 3, 7)), oracle_cap=0)  # above the cap it is not checked
        monkeypatch.setattr(families, "closed_form",
                            lambda s: real(s)._replace(twist_count=real(s).twist_count + 1))
        with pytest.raises(RuntimeError, match="face data mismatch"):
            check(TwoBridge((2, 3, 4)))


    def test_vacuous_twist_count_is_the_diagrams(self):
        for text in ("R(1,1)", "R(1,1,1)", "P(2,3)", "P(1,1,1)", "B(1,4)", "W(1)"):
            spec = families.parse_spec(text)
            r = check(spec)
            assert r.verdict == "vacuous", text
            assert r.twist_count == to_diagram(spec).twist_count, text

    def test_face_over_2_53_is_an_input_error(self):
        # unchecked, a twist entry of 10**308 gives margin nan and 10**309
        # an OverflowError; the bipyramid of the face it makes rejects both
        for x in (2**53, 10**308, 10**309):
            for spec in (
                TwoBridge((2, x, 3)),
                Pretzel((2, 3, x)),
                ThreeBraid(((2, x),)),
                ThreeBraid(((2, 2), (x, 3))),
            ):
                with pytest.raises(ValueError, match=r"2\*\*53"):
                    check(spec)

    def test_only_served_bounds(self):
        for spec in (TwoBridge((1, 1, 2)), TwoBridge((3, 4, 2)), ThreeBraid(((2, 2), (2, 3))),
                     Pretzel((2, 3, 7)), Weaving4(5)):
            assert set(check(spec).bounds) <= set(CSV_COLUMNS), spec


class TestThresholds:
    def test_t1(self):
        assert abs(high_twist_threshold(1, "general")) < 1e-12

    def test_t2(self):
        thr = high_twist_threshold(2, "general")
        assert abs(thr - (2 + XI.value - 2 * GAMMA.value)) < 1e-12
        assert abs(thr - 4.18) < 0.01

    def test_montesinos_13(self):
        thr = high_twist_threshold(13, "montesinos")
        expect = 13 + ZETA.value ** 13 - 2 * GAMMA.value ** 12
        assert abs(thr - expect) < 1e-6
        assert 3.8e6 < thr < 3.95e6

    def test_rejects(self):
        with pytest.raises(ValueError):
            high_twist_threshold(0)
        with pytest.raises(ValueError):
            high_twist_threshold(2, "nonsense")

    def test_memoized(self):
        assert high_twist_threshold(7, "montesinos") is high_twist_threshold(7, "montesinos")
        # a raised error is not cached, so a bad argument raises every time
        for _ in range(2):
            with pytest.raises(ValueError):
                high_twist_threshold(0)


class TestStoimenowCertificate:
    def test_t1_always(self):
        for c in (1, 2, 10, 1000):
            assert stoimenow_certificate(1, c, "general")

    def test_t5_c5_false(self):
        assert not stoimenow_certificate(5, 5, "general")

    def test_at_threshold(self):
        rng = random.Random(41)
        for _ in range(200):
            t = rng.randint(1, 20)
            thr = high_twist_threshold(t, "general")
            c = max(t, math.ceil(thr)) + rng.randint(0, 50)
            assert stoimenow_certificate(t, c, "general")
            # the inequality chain behind it
            assert 10 * V4.value * (t - 1) <= TWO_PI * math.log(
                2 * GAMMA.value ** (t - 1) + c - t
            )

    def test_past_float_range(self):
        # the threshold outgrows a float long before the determinant floor
        assert high_twist_threshold(500, "general") == math.inf
        assert not stoimenow_certificate(500, 600, "general")
        # past about t = 2,100 the determinant floor overflows too
        for t in (2100, 5000):
            for rule in ("general", "montesinos"):
                assert high_twist_threshold(t, rule) == math.inf
                assert not stoimenow_certificate(t, t + 10, rule)

    def test_rejects(self):
        with pytest.raises(ValueError):
            stoimenow_certificate(0, 1)
        with pytest.raises(ValueError):
            stoimenow_certificate(3, 2)


def _sizes(faces):
    """One size per face of a FaceVector, as ``adams_log_certificate`` takes them."""
    return [n for n, b in faces for _ in range(b)]


class TestAdamsLogCertificate:
    # four of the t = 8 arrangements that no bound settles; each has bigons,
    # and a certificate that counted bigons in m would pass them all
    INCONCLUSIVE = [(1, 2, 1, 7, 1, 7, 1, 7), (1, 2, 1, 8, 1, 8, 1, 8),
                    (1, 2, 1, 8, 1, 9, 1, 9), (1, 2, 1, 8, 1, 10, 1, 10)]

    @staticmethod
    def _agrees_with_float(d, faces):
        # outside the error budget of adams_log and of 2 pi log d, the float
        # comparison and the integer one must give the same answer
        b = adams_bound_log(FaceVector(Counter(faces)))
        two_pi_log_det = TWO_PI * math.log(d)
        margin = two_pi_log_det - b.value
        if abs(margin) <= b.abs_err + 4 * math.ulp(two_pi_log_det):
            return True
        return verify.adams_log_certificate(d, faces) == (margin > 0)

    def test_exact_at_equality(self):
        # faces 4,4,4: the bound is 2 pi log 2, so det 2 ties it and 3 beats it
        faces = [4, 4, 4]
        assert not verify.adams_log_certificate(2, faces)
        assert verify.adams_log_certificate(3, faces)
        # bigons add nothing: with ten of them, in any order, det 2 still only ties
        faces = [4, 2, 2, 4, 2, 2, 2, 2, 2, 2, 4, 2]
        assert not verify.adams_log_certificate(2, faces)
        assert verify.adams_log_certificate(3, faces)
        # the two largest faces are bigons: the bound is 0, and any det > 1 beats it
        assert verify.adams_log_certificate(2, [2] * 6)
        assert not verify.adams_log_certificate(1, [2] * 6)

    def test_rejects_monogon_and_too_few_faces(self):
        for faces in ([1, 3, 3], [4], []):
            with pytest.raises(ValueError):
                verify.adams_log_certificate(5, faces)

    def test_agrees_with_float_bound_on_sweeps(self):
        specs = (sweep_specs("R", 12) + sweep_specs("B", 10) + sweep_specs("P", 10)
                 + [Weaving4(n) for n in range(2, 81)])
        seen = 0
        for spec in specs:
            cf = families.closed_form(spec)
            if cf.nonhyperbolic:
                continue
            seen += 1
            assert self._agrees_with_float(families.det(spec), _sizes(cf.faces)), spec
        assert seen > 5000

    def test_agrees_with_float_bound_on_enumeration(self, monkeypatch):
        real = verify.adams_log_certificate
        asked = []

        def spy(d, faces):
            asked.append((d, faces))
            return real(d, faces)

        monkeypatch.setattr(verify, "adams_log_certificate", spy)
        report = enumerate_pretzels(5)
        monkeypatch.undo()
        assert len(asked) == report.checked
        for d, faces in asked:
            # the faces between regions: the float bound has the same value
            # without the bigons inside them, and a smaller error budget
            assert self._agrees_with_float(d, faces), (d, faces)

    def test_does_not_certify_inconclusive(self):
        specs = [Weaving4(n) for n in range(4, 81)] + [Pretzel(a) for a in self.INCONCLUSIVE]
        for spec in specs:
            cf = families.closed_form(spec)
            assert not verify.adams_log_certificate(families.det(spec), _sizes(cf.faces)), spec
        for a in self.INCONCLUSIVE:
            assert check(Pretzel(a), oracle_cap=0).verdict == "bound_inconclusive", a

    def test_enumeration_report_unchanged_without_it(self, monkeypatch):
        def report():
            r = enumerate_pretzels(6)
            r.elapsed_seconds = 0.0
            return dataclasses.asdict(r)

        with_certificate = report()
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        assert report() == with_certificate


class TestPretzelClosedForms:
    def test_face_vector_matches_diagram(self):
        rng = random.Random(5)
        arrangements = [
            (1, 1, 2), (2, 3, 7), (1, 2, 4, 3, 4), (2, 2, 2), (1, 1, 1, 5),
            (1, 2, 1, 2), (3, 1, 4, 1, 5),
        ]
        for _ in range(20):
            n = rng.randint(3, 6)
            arrangements.append(tuple(rng.randint(1, 5) for _ in range(n)))
        for arr in arrangements:
            d = to_diagram(Pretzel(arr))
            cf = families.closed_form(Pretzel(arr))
            assert cf.faces == d.faces, arr
            assert cf.twist_count == d.twist_count, arr

    def test_all_ones_detection(self):
        assert families.closed_form(Pretzel((1, 1, 1))).twist_count == 1
        assert families.closed_form(Pretzel((1, 1, 1, 1, 1))).twist_count == 1


def _least_form(arr):
    n = len(arr)
    return min(s[k:] + s[:k] for s in (arr, arr[::-1]) for k in range(n))


def test_canonical_arrangements_match_brute_force():
    for n in range(1, 8):
        for multiset in itertools.combinations_with_replacement(range(1, 5), n):
            expected = sorted({_least_form(p) for p in set(itertools.permutations(multiset))})
            assert list(canonical_arrangements(multiset)) == expected, multiset


def test_canonical_arrangements_match_reference():
    for n in range(10):
        for multiset in itertools.combinations_with_replacement(range(1, 5), n):
            expected = list(canonical_arrangements_by_necklaces(multiset))
            assert list(canonical_arrangements(multiset)) == expected, multiset


def test_canonical_arrangements_long_input():
    # one step per loop iteration, not one frame per position
    first = next(canonical_arrangements((1,) * 5000 + (2,)))
    assert first == (1,) * 5000 + (2,)


def test_canonical_arrangements_degenerate():
    assert list(canonical_arrangements(())) == [()]
    assert list(canonical_arrangements((7,))) == [(7,)]
    assert list(canonical_arrangements((3,) * 6)) == [(3,) * 6]


def test_bracelet_shapes_cache_misses():
    # the 1,976 multisets of enumerate_pretzels(6) have 57 multiplicity
    # patterns; with 16 entries the cache generates arrangements 65 times
    # (the all-ones multisets are vacuous and ask for none)
    verify._bracelet_shapes.cache_clear()
    enumerate_pretzels(6)
    assert verify._bracelet_shapes.cache_info().misses == 65


def test_bracelet_shapes_map_to_arrangements():
    # a multiset's arrangements are its pattern's shapes through its sorted values
    for n in range(1, 9):
        for multiset in itertools.combinations_with_replacement(range(1, 5), n):
            vals = sorted(set(multiset))
            shapes = verify._bracelet_shapes(tuple(map(multiset.count, vals)))
            mapped = [tuple(vals[i] for i in shape) for shape in shapes]
            assert mapped == list(canonical_arrangements(multiset)), multiset


class TestEnumerate:
    def test_violation_path(self, monkeypatch):
        # the first checked arrangement is reported inconclusive; the report
        # must carry it with the margin that bound_report gave
        real_bound_report = verify.bound_report
        checked = []

        def fake_bound_report(spec, d, cf):
            r = real_bound_report(spec, d, cf)
            checked.append(spec.a)
            if len(checked) == 1:
                r = dataclasses.replace(r, verdict="bound_inconclusive", margin=-0.5)
            return r

        monkeypatch.setattr(verify, "bound_report", fake_bound_report)
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        report = enumerate_pretzels(3)
        assert report.violations == [(checked[0], -0.5)]
        assert report.checked == len(checked) > 1

    def test_oracle_checks_face_data(self, monkeypatch):
        # a wrong twist count on a multiset under the cap is caught, although
        # its determinant is right
        real_closed_form = families.closed_form

        def wrong_closed_form(spec):
            cf = real_closed_form(spec)
            if spec == Pretzel((1, 2, 3)):
                cf = cf._replace(twist_count=cf.twist_count + 1)
            return cf

        monkeypatch.setattr(families, "closed_form", wrong_closed_form)
        with pytest.raises(RuntimeError, match=r"face data mismatch for P\(1,2,3\)"):
            enumerate_pretzels(3)

    def test_closed_form_once_per_arrangement(self, monkeypatch):
        # one record per multiset below the frontier (its sorted arrangement
        # carries the oracle and the vacuous test), plus one per arrangement
        # that reaches bound_report; the rest are settled from their sums
        real_closed_form = families.closed_form
        real_bound_report = verify.bound_report
        calls, reported = [], []

        def spy(spec):
            calls.append(spec)
            return real_closed_form(spec)

        def bound_report_spy(spec, d, cf):
            reported.append(spec)
            return real_bound_report(spec, d, cf)

        monkeypatch.setattr(families, "closed_form", spy)
        monkeypatch.setattr(verify, "bound_report", bound_report_spy)
        visited = sum(len(pretzel_walk_by_recursion(n)[1]) for n in range(3, 6))
        enumerate_pretzels(5)
        assert len(calls) == visited + len(reported) == 569 + 0
        calls.clear()
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        report = enumerate_pretzels(5)
        assert len(reported) == report.checked == 1234
        assert len(calls) == visited + len(reported) == 569 + 1234

    def test_margins_match_check(self, monkeypatch):
        real_bound_report = verify.bound_report
        seen = []

        def spy(spec, d, cf):
            r = real_bound_report(spec, d, cf)
            seen.append((spec, r.margin))
            return r

        monkeypatch.setattr(verify, "bound_report", spy)
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        enumerate_pretzels(5)
        monkeypatch.undo()
        assert len(seen) > 1000
        for spec, margin in seen:
            assert margin == check(spec, oracle_cap=0).margin, spec

    def test_walk_matches_recursive_reference(self, monkeypatch):
        # the same frontier, and the same multisets expanded in the same order,
        # each checked with its own determinant
        real_closed_form = families.closed_form
        real_bound_report = verify.bound_report
        expanded, dets = [], {}

        def closed_form_spy(spec):
            # a multiset's record, and only that, is of a sorted arrangement;
            # a second record of it, for its bound_report, comes right after
            if list(spec.a) == sorted(spec.a) and expanded[-1:] != [spec.a]:
                expanded.append(spec.a)
            return real_closed_form(spec)

        def bound_report_spy(spec, d, cf):
            dets.setdefault(tuple(sorted(spec.a)), set()).add(d)
            return real_bound_report(spec, d, cf)

        monkeypatch.setattr(families, "closed_form", closed_form_spy)
        monkeypatch.setattr(verify, "bound_report", bound_report_spy)
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        report = enumerate_pretzels(6)
        frontier, visited = [], []
        for n in range(3, 7):
            f, v = pretzel_walk_by_recursion(n)
            frontier += f
            visited += v
        assert report.frontier == frontier
        assert len(report.frontier) == report.certified_monotone
        assert expanded == [m for m, _ in visited]
        assert len(visited) == 1976
        want = dict(visited)
        assert dets.keys() <= want.keys() and len(dets) > 1000
        assert all(ds == {want[m]} for m, ds in dets.items())

    def test_arrangement_decisions_match_closed_form(self):
        # the walk settles an arrangement from its faces between regions and
        # its multiset's c and det; the twist count and the Adams-log decision
        # must be those of its full record, for every arrangement at t <= 6
        seen = 0
        for n in range(3, 7):
            for multiset, d in pretzel_walk_by_recursion(n)[1]:
                if set(multiset) == {1}:  # vacuous, its arrangements unvisited
                    continue
                for arr in canonical_arrangements(multiset):
                    between = families.pretzel_between(arr)
                    cf = families.closed_form(Pretzel(arr))
                    assert cf.crossing_count == sum(multiset), arr
                    assert families.twist_count(n, between) == cf.twist_count, arr
                    assert (verify.adams_log_certificate(d, between)
                            == verify.adams_log_certificate(d, _sizes(cf.faces))), arr
                    seen += 1
        assert seen == 10201

    def test_one_determinant_per_step(self, monkeypatch):
        # one per frontier corner and one per multiset below the frontier
        visited = sum(len(pretzel_walk_by_recursion(n)[1]) for n in range(3, 7))
        real_pretzel_det = families.pretzel_det
        calls = []

        def spy(a):
            calls.append(a)
            return real_pretzel_det(a)

        monkeypatch.setattr(families, "pretzel_det", spy)
        report = enumerate_pretzels(6)
        assert len(calls) == report.certified_monotone + visited == 230 + 1976

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            enumerate_pretzels(2)

    def test_t3(self):
        report = enumerate_pretzels(3)
        assert not report.violations
        assert report.checked > 0
        assert report.certified_monotone > 0
        assert report.vacuous >= 1  # the all-ones pretzel

    def test_frontier_soundness(self):
        report = enumerate_pretzels(4)
        assert not report.violations
        rng = random.Random(17)
        sample = rng.sample(report.frontier, min(20, len(report.frontier)))
        for corner in sample:
            bumped = tuple(x + rng.randint(0, 3) for x in corner)
            r = check(Pretzel(bumped), oracle_cap=0)
            assert r.verdict == "holds", (corner, bumped)

    def test_frontier_widened_by_bound_error(self, monkeypatch):
        # a corner certifies only if its margin exceeds the bound's whole error
        base = enumerate_pretzels(4, oracle_cap=0)
        assert (base.certified_monotone, base.checked) == (36, 212)
        montesinos = verify.montesinos_bound
        monkeypatch.setattr(verify, "montesinos_bound",
                            lambda t: Real(montesinos(t).value, 1.0))
        wide = enumerate_pretzels(4, oracle_cap=0)
        assert (wide.certified_monotone, wide.checked) == (43, 277)
        assert not wide.violations

    def test_stoimenow_floor_on_checked(self):
        # det >= 2 gamma^(t-1) for every hyperbolic pretzel that gets checked
        report = enumerate_pretzels(4)
        for arr in report.frontier[:50]:
            t = families.closed_form(Pretzel(arr)).twist_count
            assert pretzel_det(arr) >= 2 * GAMMA.value ** (t - 1) - 1e-9


class TestSweep:
    def test_spec_order_deterministic(self):
        a = sweep_specs("R", 6)
        b = sweep_specs("R", 6)
        assert a == b
        assert len(a) == 2 ** 6 - 1

    def test_composition_cap(self):
        for family in ("R", "B", "P"):
            with pytest.raises(ValueError):
                sweep_specs(family, 21)
        assert len(sweep_specs("W", 2000)) == 666
        cap = verify.MAX_WEAVING_SWEEP_SUM  # about 1 GB of W determinants
        assert len(sweep_specs("W", cap)) == cap // 3
        with pytest.raises(ValueError, match="for family W"):
            sweep_specs("W", cap + 1)

    def test_families(self):
        assert len(sweep_specs("W", 12)) == 4
        assert all(len(s.a) >= 3 for s in sweep_specs("P", 6))
        assert all(len(p) == 2 for s in sweep_specs("B", 6) for p in s.pairs)

    def test_small_sweep_holds(self):
        for r in sweep("R", 7, oracle_cap=20):
            if r.hyperbolic_status == "assumed_hyperbolic":
                assert r.verdict == "holds", r.spec
                assert r.margin > 0

    def test_worker_pool_matches_serial(self):
        serial = sweep("R", 8, oracle_cap=0, workers=1)
        parallel = sweep("R", 8, oracle_cap=0, workers=2)
        assert [str(r.spec) for r in serial] == [str(r.spec) for r in parallel]
        assert [r.det for r in serial] == [r.det for r in parallel]

    def test_worker_pool_capped_at_cpu_count(self, monkeypatch):
        # a stand-in pool records its size and maps in this process, so no
        # worker is ever started
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(x) for x in items]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        reports = sweep("R", 7, oracle_cap=0, workers=100_000)
        assert sizes == [3]
        serial = sweep("R", 7, oracle_cap=0, workers=1)
        assert reports_to_csv(reports) == reports_to_csv(serial)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep("R", 3, workers=workers)

    def test_stoimenow_consistency(self):
        for family, cap in (("B", 8), ("R", 8), ("P", 8)):
            for r in sweep(family, cap, oracle_cap=0):
                if r.hyperbolic_status == "assumed_hyperbolic":
                    assert r.det >= 2 * GAMMA.value ** (r.twist_count - 1) - 1e-9

    def test_empty_result_is_empty_output(self):
        specs = sweep_specs("W", 2)  # no weaving index fits in 2 crossings
        assert specs == []
        assert reports_to_csv([]).strip().splitlines() == [
            ",".join(
                (
                    "spec,family,t,c,det,two_pi_log_det,adams_exact,adams_log,"
                    "lackenby,montesinos,best_bound,margin,hyperbolic_status,verdict"
                ).split(",")
            )
        ]


@pytest.mark.parametrize("run", [
    lambda cap: check(TwoBridge((2, 2, 2)), oracle_cap=cap),
    lambda cap: sweep("R", 3, oracle_cap=cap),
    lambda cap: enumerate_pretzels(3, oracle_cap=cap),
], ids=["check", "sweep", "enumerate_pretzels"])
def test_negative_oracle_cap(run):
    # a negative cap used to run with no oracle at all, and a cap over the
    # oracle's limit failed only at the first member past the limit
    with pytest.raises(ValueError, match="oracle_cap must be >= 0"):
        run(-1)
    with pytest.raises(ValueError, match=f"oracle_cap must be <= {MAX_ORACLE_CROSSINGS}"):
        run(MAX_ORACLE_CROSSINGS + 1)
    run(0)
    run(MAX_ORACLE_CROSSINGS)


class TestSerialization:
    def test_csv(self):
        reports = sweep("R", 4, oracle_cap=10)
        text = reports_to_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0].startswith("spec,family,t,c,det,")
        assert len(lines) == len(reports) + 1

    def test_json(self):
        reports = sweep("W", 9, oracle_cap=10)
        rows = json.loads(reports_to_json(reports))
        assert len(rows) == 3
        byspec = {r["spec"]: r for r in rows}
        assert byspec["W(1)"]["verdict"] == "vacuous"
        assert byspec["W(3)"]["det"] == "75"
        assert byspec["W(3)"]["verdict"] == "holds"

    def test_csv_and_json_carry_the_same_rows(self):
        ints = {"t", "c"}
        strings = {"spec", "family", "det", "hyperbolic_status", "verdict"}

        def typed(key, value):
            if key in strings:
                return value
            if key in ints:
                return int(value)
            return float(value) if value else None

        for family, sum_max in (("R", 8), ("W", 30)):
            reports = sweep(family, sum_max)
            from_csv = [{k: typed(k, v) for k, v in row.items()}
                        for row in csv.DictReader(io.StringIO(reports_to_csv(reports)))]
            assert json.loads(reports_to_json(reports)) == from_csv

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_det_beyond_str_digit_limit(self):
        r = check(Weaving4(20000), oracle_cap=0)
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)  # the default, which other tests may lift
            csv_text = reports_to_csv([r])
            json_text = reports_to_json([r])
            sys.set_int_max_str_digits(0)
            expected = str(r.det)
        finally:
            sys.set_int_max_str_digits(old)
        assert len(expected) > 4300
        assert next(csv.DictReader(io.StringIO(csv_text)))["det"] == expected
        assert json.loads(json_text)[0]["det"] == expected

    def test_report_row_keys_are_csv_columns(self):
        for spec in (Pretzel((2, 3, 7)), TwoBridge((3, 2)), TwoBridge((1, 1, 1)), Weaving4(5)):
            assert tuple(verify.report_row(check(spec))) == CSV_COLUMNS, spec

    def test_det_is_exact_string(self):
        r = check(Weaving4(30), oracle_cap=0)
        row = reports_to_json([r])
        assert str(r.det) in row


# first 12 hex digits of SHA-256 of the serialized sweep (CSV, JSON); a change
# that moves an output on purpose updates these and lists what moved
SWEEP_PINS = {
    ("R", 10, 40): ("26ed54cf7918", "913a0f78e54c"),
    ("B", 10, 40): ("fb345d94292b", "bb61afa861f2"),
    ("P", 10, 40): ("a646531f7788", "4a4917543096"),
    ("W", 60, 60): ("25938a477f2b", "0e4b0fd3ee2c"),
}


def _sha12(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("family, sum_max, cap", list(SWEEP_PINS))
def test_sweep_output_pinned(family, sum_max, cap):
    reports = sweep(family, sum_max, oracle_cap=cap)
    got = (_sha12(reports_to_csv(reports)), _sha12(reports_to_json(reports)))
    assert got == SWEEP_PINS[family, sum_max, cap]


def test_enumeration_report_pinned():
    r = enumerate_pretzels(5)
    r.elapsed_seconds = 0.0
    text = json.dumps(dataclasses.asdict(r), sort_keys=True)
    assert _sha12(text) == "bb53d8cf7ad3"


PUBLIC_API = [
    "BoundReport", "FaceVector", "FamilySpec", "Multigraph", "Pretzel", "Real",
    "ThreeBraid", "TwoBridge", "Weaving4", "adams_bound_exact",
    "adams_bound_log", "bipyramid_volume", "check", "enumerate_pretzels",
    "high_twist_threshold", "lackenby_bound", "lobachevsky",
    "montesinos_bound", "parse_spec", "pretzel_det", "spanning_tree_count",
    "stoimenow_certificate", "stoimenow_lower_bound", "sweep",
    "threebraid_det", "to_diagram", "twobridge_det", "v_function",
    "weaving_det",
]


def test_exports_resolve():
    assert sorted(detvol.__all__) == PUBLIC_API
    for name in detvol.__all__:
        assert hasattr(detvol, name), name
    # the independent tree counts live with the tests, not in the package
    for name in ("contract", "delete", "laplacian", "spanning_tree_count_bruteforce",
                 "spanning_tree_count_deletion_contraction"):
        assert not hasattr(detvol, name), name
        assert not hasattr(detvol.multigraph, name), name
