"""Lobachevsky function, bipyramid volumes, and the volume bounds."""

import copy
import math
import os
import pickle
import random
import subprocess
import sys

import mpmath as mp
import pytest

from detvol.cli import main
from detvol.families import TwoBridge, Weaving4, closed_form, parse_spec
from detvol.hypvol import (
    GAMMA,
    TWO_PI,
    V4,
    V8,
    XI,
    ZETA,
    FaceVector,
    Real,
    adams_bound_exact,
    adams_bound_log,
    bipyramid_volume,
    lackenby_bound,
    lobachevsky,
    montesinos_bound,
    stoimenow_lower_bound,
)
from detvol.verify import sweep_specs
from oracles import compositions_upto

mp.mp.dps = 30


def lob_oracle(theta: float) -> float:
    """Independent evaluation: L(t) = Cl_2(2t)/2 via the Clausen series."""
    return float(mp.clsin(2, 2 * mp.mpf(theta)) / 2)


def quad_oracle(theta: float) -> float:
    """Second independent evaluation: direct adaptive quadrature."""
    return float(-mp.quad(lambda t: mp.log(abs(2 * mp.sin(t))), [0, theta]))


class TestLobachevsky:
    def test_zero(self):
        assert lobachevsky(0.0).value == 0.0

    def test_pi(self):
        assert abs(lobachevsky(math.pi).value) < 1e-14

    def test_pi_over_four_is_octahedron_eighth(self):
        # vol of the regular ideal octahedron is 8 * L(pi/4)
        val = lobachevsky(math.pi / 4).value
        assert abs(val - V8.value / 8) < 1e-13
        assert abs(val - quad_oracle(math.pi / 4)) < 1e-12
        assert abs(val - 0.45798279708860951) < 1e-12

    def test_against_clausen_oracle(self):
        rng = random.Random(12345)
        thetas = [rng.uniform(-10.0, 10.0) for _ in range(200)]
        # where the quadrature is weakest: the end of the reduced range ...
        for edge in (math.pi / 2, -math.pi / 2):
            thetas += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2 * edge)]
        # ... and the arguments of the bipyramid volumes
        for n in [*range(3, 65), 1000, 10000]:
            thetas += [2 * math.pi / n, math.pi * (n - 2) / (2 * n)]
        for theta in thetas:
            assert abs(lobachevsky(theta).value - lob_oracle(theta)) < 1e-12, theta

    def test_against_quadrature_oracle(self):
        rng = random.Random(99)
        for _ in range(20):
            theta = rng.uniform(0.0, math.pi)
            assert abs(lobachevsky(theta).value - quad_oracle(theta)) < 1e-12

    def test_odd_and_periodic(self):
        rng = random.Random(2024)
        for _ in range(1000):
            theta = rng.uniform(-10.0, 10.0)
            v = lobachevsky(theta).value
            assert abs(lobachevsky(theta + math.pi).value - v) < 1e-12
            assert abs(lobachevsky(-theta).value + v) < 1e-12

    def test_tiny_arguments(self):
        # theta*u would underflow to 0 in the quadrature; the integral is O(theta^3)
        for theta in (5e-324, 1e-310):
            v = lobachevsky(theta).value
            assert math.isfinite(v)
            assert abs(v - theta * (1 - math.log(2 * theta))) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lobachevsky(float("inf"))
        with pytest.raises(ValueError):
            lobachevsky(float("nan"))

    def test_error_claim(self):
        assert lobachevsky(1.0).abs_err <= 1e-12


def test_import_does_not_load_numpy():
    code = "import sys, detvol; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # the same detvol
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestBipyramid:
    def test_degenerate(self):
        assert bipyramid_volume(2).value == 0.0

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            bipyramid_volume(1)

    def test_size_limit(self):
        # past 2**53, n is not exact as a float: unchecked, 10**20 gives a
        # negative volume and 10**309 an OverflowError
        vol = bipyramid_volume(2**53)
        assert math.isfinite(vol.value) and vol.value < TWO_PI * math.log(2**52)
        for n in (2**53 + 1, 10**20, 10**309):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                bipyramid_volume(n)

    def test_octahedron(self):
        assert abs(bipyramid_volume(4).value - 3.66386237) < 1e-8
        assert abs(bipyramid_volume(4).value - V8.value) < 1e-13

    def test_b3_is_twice_tetrahedron(self):
        assert abs(bipyramid_volume(3).value - 2 * V4.value) < 1e-12

    def test_weaving_constant(self):
        val = math.exp(
            (2 * bipyramid_volume(3).value + bipyramid_volume(4).value) / TWO_PI
        )
        assert abs(val / 3.418677233748620053022 - 1) < 1e-12

    def test_below_log_bound_and_monotone(self):
        prev = 0.0
        for n in range(3, 10001):
            v = bipyramid_volume(n).value
            assert v < TWO_PI * math.log(n / 2)
            assert v > prev
            prev = v

    def test_error_claim_grows_with_n(self):
        # L(pi/2 - pi/n) ~ (pi/n) log 2 loses about n ulps once multiplied by n
        mp.mp.dps = 40
        try:
            for n in (1000, 300000, 10**7):
                exact = n * (mp.clsin(2, 4 * mp.pi / n) / 2 + mp.clsin(2, mp.pi * (n - 2) / n))
                vol = bipyramid_volume(n)
                assert abs(mp.mpf(vol.value) - exact) <= vol.abs_err
        finally:
            mp.mp.dps = 30
        assert 1e-12 < bipyramid_volume(4).abs_err < 1.1e-12
        assert bipyramid_volume(10**7).abs_err > 3.4e-9

    def test_ratio_approaches_one(self):
        ratios = [
            bipyramid_volume(n).value / (TWO_PI * math.log(n / 2))
            for n in (10, 100, 1000, 10000)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] < 1.0
        assert ratios[-1] > 0.95


class TestConstants:
    def test_values(self):
        assert abs(V4.value - 1.01494) < 1e-5
        assert abs(V8.value - 3.66386237) < 1e-8
        assert abs(GAMMA.value - 1.4253) < 1e-4
        assert abs(XI.value - 5.0296) < 1e-4
        assert abs(ZETA.value - 3.2099) < 1e-4

    def test_gamma_residual(self):
        g = GAMMA.value
        assert abs(g ** -5 + 2 * g ** -4 + g ** -3 - 1) < 1e-12

    def test_derived(self):
        assert abs(XI.value - math.exp(5 * V4.value / math.pi)) < 1e-12
        assert abs(ZETA.value - math.exp(V8.value / math.pi)) < 1e-12

    def test_tetrahedron_identity(self):
        # 3 L(pi/3) = 2 L(pi/6), two expressions for the same volume
        assert abs(3 * lobachevsky(math.pi / 3).value - 2 * lobachevsky(math.pi / 6).value) < 1e-13


class TestFaceVector:
    def test_totals(self):
        fv = FaceVector({2: 2, 3: 4})
        assert sum(b for _, b in fv) == 6
        assert sum(n * b for n, b in fv) == 16

    def test_sorted_pairs_of_positive_counts(self):
        fv = FaceVector({5: 1, 2: 3, 4: 0, 3: 2})
        assert isinstance(fv, tuple)
        assert tuple(fv) == ((2, 3), (3, 2), (5, 1))
        assert dict(fv) == {2: 3, 3: 2, 5: 1}

    def test_immutable(self):
        fv = FaceVector({2: 2, 3: 4})
        with pytest.raises(TypeError):
            fv[0] = (2, 3)
        with pytest.raises(AttributeError):
            fv.counts = {2: 3}

    def test_equal_vector_from_another_order_is_a_memo_hit(self):
        first = FaceVector({2: 6, 3: 2, 4: 1, 9: 2})
        adams_bound_exact(first)
        hits = adams_bound_exact.cache_info().hits
        again = FaceVector({9: 2, 4: 1, 3: 2, 2: 6})  # built separately
        assert again == first and hash(again) == hash(first)
        adams_bound_exact(again)
        assert adams_bound_exact.cache_info().hits == hits + 1

    def test_pickle_and_deepcopy_round_trip(self):
        fv = FaceVector({2: 2, 3: 4, 7: 1})
        for back in (pickle.loads(pickle.dumps(fv)), copy.deepcopy(fv), copy.copy(fv)):
            assert type(back) is FaceVector and back == fv
        cf = closed_form(parse_spec("P(2,3,7)"))
        assert pickle.loads(pickle.dumps(cf)) == cf

    def test_two_largest(self):
        assert FaceVector({2: 2, 3: 4}).two_largest() == (3, 3)
        assert FaceVector({2: 1, 3: 1, 5: 1}).two_largest() == (5, 3)

    def test_two_largest_from_unsorted_counts(self):
        # sizes given out of order, with zero multiplicities in between
        assert FaceVector({7: 1, 2: 5, 9: 0, 4: 2}).two_largest() == (7, 4)
        assert FaceVector({3: 1, 8: 2, 5: 1}).two_largest() == (8, 8)
        assert FaceVector({6: 0, 3: 1, 2: 1}).two_largest() == (3, 2)
        rng = random.Random(4)
        for _ in range(200):
            counts = {rng.randint(2, 30): rng.randint(0, 3) for _ in range(rng.randint(1, 6))}
            faces = sorted(n for n, b in counts.items() for _ in range(b))
            if len(faces) < 2:
                with pytest.raises(ValueError):
                    FaceVector(counts).two_largest()
            else:
                assert FaceVector(counts).two_largest() == (faces[-1], faces[-2])

    def test_two_largest_rejects_monogon_and_too_few_faces(self):
        with pytest.raises(ValueError):
            FaceVector({5: 3, 1: 1, 2: 2}).two_largest()
        with pytest.raises(ValueError):
            FaceVector({9: 1, 3: 0}).two_largest()
        with pytest.raises(ValueError):
            FaceVector({}).two_largest()

    def test_rejects_bad(self):
        with pytest.raises(ValueError, match="face size 0 < 1"):
            FaceVector({0: 1})
        with pytest.raises(ValueError, match="negative multiplicity"):
            FaceVector({3: -1})
        with pytest.raises(ValueError):
            FaceVector({4: 1}).two_largest()


class TestAdamsBounds:
    def test_exact_figure_eight_vector(self):
        fv = FaceVector({2: 2, 3: 4})
        v = adams_bound_exact(fv).value
        assert abs(v - 2 * bipyramid_volume(3).value) < 1e-12
        assert abs(v - 4.0599) < 1e-3

    def test_exact_two_faces_cancel(self):
        assert abs(adams_bound_exact(FaceVector({3: 1, 5: 1})).value) < 1e-12

    def test_exact_weaving_one(self):
        fv = FaceVector({3: 2, 4: 1})
        v = adams_bound_exact(fv).value
        assert abs(v - bipyramid_volume(3).value) < 1e-12

    def test_exact_validates_faces(self):
        with pytest.raises(ValueError):
            adams_bound_exact(FaceVector({5: 1}))  # fewer than two faces

    def test_exact_error_grows_with_face_count(self):
        # W(300000) sums 900,002 volumes and subtracts two, each claimed to
        # 1e-12; the two 300000-gons cancel, leaving 600000 vol(B_3) +
        # 300000 vol(B_4)
        fv = closed_form(Weaving4(300000)).faces
        bound = adams_bound_exact(fv)
        assert bound.abs_err >= (sum(b for _, b in fv) + 2) * 1e-12

        def vol(n):
            return n * (mp.clsin(2, 4 * mp.pi / n) / 2 + mp.clsin(2, mp.pi * (n - 2) / n))

        assert abs(bound.value - float(600000 * vol(3) + 300000 * vol(4))) <= bound.abs_err
        assert adams_bound_exact(FaceVector({2: 2, 3: 4})).abs_err < 1e-10

    def test_log_figure_eight(self):
        v = adams_bound_log(FaceVector({2: 2, 3: 4})).value
        assert abs(v - TWO_PI * math.log(9 / 4)) < 1e-12

    def test_log_all_bigon_interior(self):
        for k in (1, 3, 7):
            assert abs(adams_bound_log(FaceVector({2: k, 3: 2})).value) < 1e-12

    @pytest.mark.parametrize("faces", [
        "R(3,4503599627370496,3)", "B(2,1000000000000,3,5)", "P(2,3,1000000000001)",
        "W(1000000)", {2: 2, 3: 4},
    ], ids=str)
    def test_log_within_claimed_error(self, faces):
        # huge bigon counts and huge largest faces, where a sum over all
        # faces minus m*log(2) cancelled to an error near 1
        fv = FaceVector(faces) if isinstance(faces, dict) else closed_form(parse_spec(faces)).faces
        counts = dict(fv)
        sizes = sorted(counts, reverse=True)
        r = sizes[0]
        s = r if counts[r] > 1 else sizes[1]
        bound = adams_bound_log(fv)
        with mp.workdps(50):
            exact = 2 * mp.pi * (
                mp.fsum(b * mp.log(mp.mpf(n) / 2) for n, b in counts.items())
                - mp.log(mp.mpf(r) / 2) - mp.log(mp.mpf(s) / 2)
            )
            assert abs(mp.mpf(bound.value) - exact) <= bound.abs_err
        assert bound.abs_err <= 1e-14 * max(bound.value, 1.0)

    def test_log_nonnegative(self):
        for a in compositions_upto(12):
            cf = closed_form(TwoBridge(a))
            if not cf.nonhyperbolic:
                assert adams_bound_log(cf.faces).value >= 0.0, a

    def test_exact_below_log_same_faces(self):
        # strict whenever a face of size >= 3 survives the removal
        vectors = [
            {2: 2, 3: 4},
            {2: 5, 3: 1, 4: 1, 5: 3},
            {3: 8, 4: 3},
            {2: 3, 3: 2, 4: 1, 5: 2},
            {2: 1, 3: 3, 6: 2},
        ]
        for counts in vectors:
            fv = FaceVector(counts)
            assert adams_bound_exact(fv).value < adams_bound_log(fv).value

    def test_rejects_monogons(self):
        with pytest.raises(ValueError):
            adams_bound_log(FaceVector({1: 2, 2: 1}))


class TestAdamsMemo:
    def test_memo_matches_unmemoized(self):
        specs = [
            *sweep_specs("R", 12), *sweep_specs("B", 10), *sweep_specs("P", 10),
            *(Weaving4(n) for n in range(2, 81)),
        ]
        rejected = 0
        for fv in {closed_form(spec).faces for spec in specs}:
            for bound in (adams_bound_exact, adams_bound_log):
                try:
                    expected = bound.__wrapped__(fv)
                except ValueError:  # a monogon: the memoized bound rejects it too
                    rejected += 1
                    with pytest.raises(ValueError):
                        bound(fv)
                    continue
                for _ in range(2):  # the second call is a memo hit
                    got = bound(fv)
                    assert isinstance(got, Real) and got == expected, (bound, fv)
        assert rejected == 20  # the 10 non-reduced 2-bridge vectors, under both bounds

    def test_hash_agrees_with_eq(self):
        pairs = [
            (FaceVector({2: 3, 5: 1, 3: 4}), FaceVector({5: 1, 3: 4, 2: 3})),
            (FaceVector({2: 3, 4: 0, 3: 4}), FaceVector({3: 4, 2: 3})),
            (FaceVector({7: 0}), FaceVector({})),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
        assert adams_bound_log(pairs[0][0]) is adams_bound_log(pairs[0][1])
        assert FaceVector({2: 3, 3: 4}) != FaceVector({2: 4, 3: 3})

    def test_rejections_are_not_cached(self):
        # lru_cache stores no exception, so a rejected vector raises every time
        for _ in range(2):
            for bound in (adams_bound_exact, adams_bound_log):
                with pytest.raises(ValueError, match="monogon"):
                    bound(FaceVector({1: 2, 2: 1}))
            with pytest.raises(ValueError, match=r"2\*\*53"):
                adams_bound_exact(FaceVector({2**53 + 1: 2, 3: 1}))

    def test_oversized_face_exits_one(self, capsys):
        for _ in range(2):
            assert main(["check", "R(1,9007199254740993)"]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "error: bipyramid needs n <= 2**53, where n is exact as a float\n"


def _v4_v8_gamma():
    """The three constants at mpmath's working precision."""
    return (
        3 * mp.clsin(2, 2 * mp.pi / 3) / 2,
        4 * mp.catalan,
        mp.findroot(lambda x: x ** -5 + 2 * x ** -4 + x ** -3 - 1, 1.4253),
    )


class TestTwistBounds:
    # each claimed error must bound the true error at twist counts where a
    # flat 1e-9 did not: the constants' errors scale with t
    @pytest.mark.parametrize("t", [10**6, 3 * 10**6])
    def test_lackenby_within_claimed_error(self, t):
        bound = lackenby_bound(t)
        with mp.workdps(50):
            v4, _, _ = _v4_v8_gamma()
            assert abs(bound.value - 10 * v4 * (t - 1)) <= bound.abs_err

    def test_montesinos_within_claimed_error(self):
        t = 3 * 10**6
        bound = montesinos_bound(t)
        with mp.workdps(50):
            _, v8, _ = _v4_v8_gamma()
            assert abs(bound.value - 2 * v8 * t) <= bound.abs_err

    @pytest.mark.parametrize("t", [45, 100, 2000])
    def test_stoimenow_within_claimed_error(self, t):
        bound = stoimenow_lower_bound(t)
        with mp.workdps(50):
            _, _, gamma = _v4_v8_gamma()
            assert abs(bound.value - 2 * gamma ** (t - 1)) <= bound.abs_err

    def test_lackenby(self):
        assert lackenby_bound(1).value == 0.0
        assert abs(lackenby_bound(2).value - 10.1494) < 1e-3
        assert abs(lackenby_bound(13).value - 120 * V4.value) < 1e-9
        with pytest.raises(ValueError):
            lackenby_bound(0)

    def test_montesinos(self):
        assert abs(montesinos_bound(1).value - 7.32772) < 1e-4
        assert abs(montesinos_bound(3).value - 6 * V8.value) < 1e-9
        with pytest.raises(ValueError):
            montesinos_bound(0)

    @pytest.mark.parametrize("bound", [lackenby_bound, montesinos_bound])
    def test_memoized(self, bound):
        assert bound(7) is bound(7)
        # a raised error is not cached, so t = 0 raises every time
        for _ in range(2):
            with pytest.raises(ValueError):
                bound(0)

    def test_stoimenow(self):
        assert stoimenow_lower_bound(1).value == 2.0
        assert abs(stoimenow_lower_bound(2).value - 2 * GAMMA.value) < 1e-12
        assert abs(stoimenow_lower_bound(6).value - 2 * GAMMA.value ** 5) < 1e-9
        assert abs(stoimenow_lower_bound(6).value - 11.77) < 0.01
        assert stoimenow_lower_bound(2000).value < math.inf
        assert stoimenow_lower_bound(2100).value == math.inf
        with pytest.raises(ValueError):
            stoimenow_lower_bound(0)
