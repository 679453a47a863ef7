"""Lobachevsky function, bipyramid volumes, and the volume bounds."""

import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest

from detvol.families import Weaving4, closed_form
from detvol.hypvol import (
    GAMMA,
    TWO_PI,
    V4,
    V8,
    XI,
    ZETA,
    FaceVector,
    adams_bound_exact,
    adams_bound_log,
    bipyramid_volume,
    lackenby_bound,
    lobachevsky,
    montesinos_bound,
    stoimenow_lower_bound,
)

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
        assert fv.total_faces == 6
        assert fv.total_sides == 16

    def test_two_largest(self):
        assert FaceVector({2: 2, 3: 4}).two_largest() == (3, 3)
        assert FaceVector({2: 1, 3: 1, 5: 1}).two_largest() == (5, 3)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            FaceVector({0: 1})
        with pytest.raises(ValueError):
            FaceVector({4: 1}).two_largest()


class TestAdamsBounds:
    def test_exact_figure_eight_vector(self):
        fv = FaceVector({2: 2, 3: 4})
        v = adams_bound_exact(fv, 3, 3).value
        assert abs(v - 2 * bipyramid_volume(3).value) < 1e-12
        assert abs(v - 4.0599) < 1e-3

    def test_exact_two_faces_cancel(self):
        assert abs(adams_bound_exact(FaceVector({3: 1, 5: 1}), 3, 5).value) < 1e-12

    def test_exact_weaving_one(self):
        fv = FaceVector({3: 2, 4: 1})
        v = adams_bound_exact(fv, 3, 4).value
        assert abs(v - bipyramid_volume(3).value) < 1e-12

    def test_exact_validates_faces(self):
        fv = FaceVector({2: 2, 3: 1})
        with pytest.raises(ValueError):
            adams_bound_exact(fv, 3, 3)  # only one 3-face
        with pytest.raises(ValueError):
            adams_bound_exact(fv, 3, 5)  # 5 absent

    def test_exact_error_grows_with_face_count(self):
        # W(300000) sums 900,002 volumes and subtracts two, each claimed to
        # 1e-12; the two 300000-gons cancel, leaving 600000 vol(B_3) +
        # 300000 vol(B_4)
        fv = closed_form(Weaving4(300000)).faces
        r, s = fv.two_largest()
        bound = adams_bound_exact(fv, r, s)
        assert bound.abs_err >= (fv.total_faces + 2) * 1e-12

        def vol(n):
            return n * (mp.clsin(2, 4 * mp.pi / n) / 2 + mp.clsin(2, mp.pi * (n - 2) / n))

        assert abs(bound.value - float(600000 * vol(3) + 300000 * vol(4))) <= bound.abs_err
        assert adams_bound_exact(FaceVector({2: 2, 3: 4}), 3, 3).abs_err < 1e-10

    def test_log_figure_eight(self):
        v = adams_bound_log(FaceVector({2: 2, 3: 4}), 3, 3).value
        assert abs(v - TWO_PI * math.log(9 / 4)) < 1e-12

    def test_log_all_bigon_interior(self):
        for k in (1, 3, 7):
            assert abs(adams_bound_log(FaceVector({2: k, 3: 2}), 3, 3).value) < 1e-12

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
            r, s = fv.two_largest()
            assert adams_bound_exact(fv, r, s).value < adams_bound_log(fv, r, s).value

    def test_rejects_monogons(self):
        with pytest.raises(ValueError):
            adams_bound_log(FaceVector({1: 2, 2: 1}), 2, 1)


class TestTwistBounds:
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

    def test_stoimenow(self):
        assert stoimenow_lower_bound(1).value == 2.0
        assert abs(stoimenow_lower_bound(2).value - 2 * GAMMA.value) < 1e-12
        assert abs(stoimenow_lower_bound(6).value - 2 * GAMMA.value ** 5) < 1e-9
        assert abs(stoimenow_lower_bound(6).value - 11.77) < 0.01
        assert stoimenow_lower_bound(2000).value < math.inf
        assert stoimenow_lower_bound(2100).value == math.inf
        with pytest.raises(ValueError):
            stoimenow_lower_bound(0)
