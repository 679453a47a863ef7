"""The conjecture checker, certificates, enumeration, and sweeps."""

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import random
import sys

import pytest

import detvol
from detvol import families, verify
from detvol.families import Pretzel, ThreeBraid, TwoBridge, Weaving4, pretzel_det, to_diagram
from detvol.hypvol import GAMMA, TWO_PI, V4, XI, ZETA, FaceVector
from detvol.verify import (
    CSV_COLUMNS,
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
            return cf._replace(faces=FaceVector({**cf.faces.counts, 50: 1}))

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

    def test_margins_match_check(self, monkeypatch):
        real_bound_report = verify.bound_report
        seen = []

        def spy(spec, d, cf):
            r = real_bound_report(spec, d, cf)
            seen.append((spec, r.margin))
            return r

        monkeypatch.setattr(verify, "bound_report", spy)
        enumerate_pretzels(5)
        monkeypatch.undo()
        assert len(seen) > 1000
        for spec, margin in seen:
            assert margin == check(spec, oracle_cap=0).margin, spec

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
        assert all(len(s.flat) % 2 == 0 for s in sweep_specs("B", 6))

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


def test_exports_resolve():
    for name in detvol.__all__:
        assert hasattr(detvol, name), name
