"""Lobachevsky function, ideal bipyramid volumes, and volume bounds.

Everything here is plain float64 arithmetic; each value is a ``Real`` whose
``abs_err`` bounds its error, rounding and the constants' errors included:

* ``lobachevsky`` reduces its argument to [-pi/2, pi/2] (the function is odd
  and pi-periodic), splits off the logarithmic endpoint singularity in closed
  form, and integrates the remaining analytic piece with a 16-node
  Gauss-Legendre rule.  That piece, log(sin t / t), is analytic except at
  t = +-pi, so on [0, pi/2] the rule's error falls like 5.8^(-2n): about
  1e-24 at n = 16, below the rounding of the sum.
* ``bipyramid_volume(n)`` is the volume of the regular ideal n-bipyramid
  (n = 4 gives the regular ideal octahedron).  Its claimed error grows with
  n, since L(pi/2 - pi/n) ~ (pi/n) log 2 is a difference of two O(1) terms
  that is then multiplied by n.
* The upper bounds for alternating links: Adams' bipyramid bound over the
  faces but the two largest, its logarithmic form 2*pi*sum log(n/2), the
  twist-number bound 10*v4*(t-1), and the Montesinos bound 2*v8*t.  The
  determinant lower bound 2*gamma^(t-1) is the matching combinatorial statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

TWO_PI = 2.0 * math.pi
_BIPYRAMID_ERR_PER_SIDE = 8 * math.ulp(1.0)


def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [0, 1]."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))  # i-th root of P_n, roughly
        for _ in range(10):  # Newton on P_n, quadratic from this start
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (p0 - x * p1) / (1.0 - x * x)  # P_n'(x)
            x -= p1 / dp
        rule.append(((1.0 - x) / 2.0, 1.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


# 16 nodes: the integrand's nearest singularity, t = pi, puts the error on
# [0, pi/2] at 5.8^-32 ~ 1e-24 (see the module docstring).
_GL = _gauss_legendre(16)


@dataclass(frozen=True)
class Real:
    """A float together with a claimed absolute error bound."""

    value: float
    abs_err: float


def lobachevsky(theta: float) -> Real:
    """The Lobachevsky function: minus the integral of log|2 sin t| from 0.

    Odd and pi-periodic; absolute error at most 1e-12 (in practice a few
    ulps) for arguments of moderate size.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return Real(_lob(theta), 1e-12)


def _lob(theta: float) -> float:
    r = math.remainder(theta, math.pi)  # exact reduction to [-pi/2, pi/2]
    if r < 0.0:
        return -_lob_core(-r)
    return _lob_core(r)


def _lob_core(x: float) -> float:
    # x in [0, pi/2]:  L(x) = x*(1 - log(2x)) - int_0^x log(sin t / t) dt
    if x <= 0.0:
        return 0.0
    if x < 1e-8:
        # the integral is -x^3/18 + O(x^5), under one ulp of the first term;
        # dropping it also keeps x*u from underflowing to 0 in the loop below
        return x * (1.0 - math.log(2.0 * x))
    smooth = 0.0
    for u, w in _GL:
        t = x * u
        smooth += w * math.log(math.sin(t) / t)
    return x * (1.0 - math.log(2.0 * x)) - x * smooth


@lru_cache(maxsize=4096)
def bipyramid_volume(n: int) -> Real:
    """Volume of the regular ideal n-bipyramid; zero for the degenerate n=2.

    The claimed error is 1e-12 + 8 n ulp(1): the measured error is below
    1.6 n ulp(1) up to n = 10^7.  n is capped at 2^53, the largest n up to
    which every integer is exact in float64.  Results are memoized (the
    bounds ask for the same few small sizes over and over); a rejected n is
    not, so it raises on every call.
    """
    if n < 2:
        raise ValueError("bipyramid needs n >= 2")
    if n > 2**53:
        raise ValueError("bipyramid needs n <= 2**53, where n is exact as a float")
    if n == 2:
        return Real(0.0, 0.0)
    v = n * (_lob(TWO_PI / n) + 2.0 * _lob(math.pi * (n - 2) / (2.0 * n)))
    return Real(v, 1e-12 + n * _BIPYRAMID_ERR_PER_SIDE)


class FaceVector(tuple):
    """Multiset of diagram face sizes: ascending ``(size, count)`` pairs,
    every count positive, built from a size -> count mapping.

    A reduced alternating diagram has all faces of size >= 2; size-1 faces
    can appear for non-reduced inputs (a kinked unknot diagram) and are
    representable here, but the volume bounds below reject them.

    As a tuple it is immutable and compares and hashes by its pairs, so the
    bounds below can memoize on it; ``dict(fv)`` gives the counts back.
    """

    __slots__ = ()

    def __new__(cls, counts: dict[int, int]):
        pairs = sorted(counts.items())
        if pairs and pairs[0][0] < 1:  # the smallest size comes first
            raise ValueError(f"face size {pairs[0][0]} < 1")
        if any(mult < 0 for _, mult in pairs):
            raise ValueError("negative multiplicity")
        return super().__new__(cls, [p for p in pairs if p[1]])

    def __getnewargs__(self):
        return (dict(self),)

    def two_largest(self) -> tuple[int, int]:
        """The two largest faces, which the Adams bounds remove; raises for a monogon."""
        if sum(b for _, b in self) < 2 or self[0][0] == 1:
            raise ValueError("need two faces and no monogon, as in a reduced diagram")
        r, b = self[-1]
        s = r if b >= 2 else self[-2][0]
        return r, s


@lru_cache(maxsize=4096)
def adams_bound_exact(faces: FaceVector) -> Real:
    """Bipyramid volume bound: sum b_n vol(B_n) minus the two largest faces.

    The claimed error adds up the claimed errors of all sum b_n + 2 volumes,
    plus an ulp of the sum for the rounding of each product b_n vol(B_n), of
    the ``fsum`` and of the subtraction.  Memoized like ``bipyramid_volume``;
    a rejected face vector raises on every call.
    """
    r, s = faces.two_largest()
    vols = [(b, bipyramid_volume(n)) for n, b in faces]
    vol_r, vol_s = bipyramid_volume(r), bipyramid_volume(s)
    total = math.fsum(b * vol.value for b, vol in vols)
    v = total - vol_r.value - vol_s.value
    err = math.fsum(b * vol.abs_err for b, vol in vols) + vol_r.abs_err + vol_s.abs_err
    return Real(v, err + (len(vols) + 2) * math.ulp(total))


@lru_cache(maxsize=4096)
def adams_bound_log(faces: FaceVector) -> Real:
    """Closed form 2*pi*sum b_n log(n/2) over the faces but the two largest.

    One term per face size, each >= 0: bigons add exactly 0 and nothing
    cancels.  Each log is within an ulp, so all sum b_n copies are within 2
    ulp of the sum; each product, the ``fsum`` and 2*pi round once more.
    Memoized like ``bipyramid_volume``; a rejected face vector raises on
    every call.
    """
    r, s = faces.two_largest()
    terms = [(b - (n == r) - (n == s)) * math.log(n / 2) for n, b in faces]
    total = math.fsum(terms)
    return Real(TWO_PI * total, TWO_PI * (len(terms) + 5) * math.ulp(total))


@lru_cache(maxsize=4096)
def lackenby_bound(t: int) -> Real:
    """Twist-number volume bound 10*v4*(t-1), with 10(t-1) times v4's error.

    Memoized like ``bipyramid_volume``; a rejected t raises on every call.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    v = 10.0 * V4.value * (t - 1)
    return Real(v, 10 * (t - 1) * V4.abs_err + 2 * math.ulp(v))


@lru_cache(maxsize=4096)
def montesinos_bound(t: int) -> Real:
    """Montesinos-link volume bound 2*v8*t, with 2t times v8's error.

    Memoized like ``bipyramid_volume``; a rejected t raises on every call.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    v = 2.0 * V8.value * t
    return Real(v, 2 * t * V8.abs_err + 2 * math.ulp(v))


def stoimenow_lower_bound(t: int) -> Real:
    """Determinant lower bound 2*gamma^(t-1) for t twist regions; inf past the float range."""
    if t < 1:
        raise ValueError("t must be >= 1")
    try:
        v = 2.0 * GAMMA.value ** (t - 1)
    except OverflowError:
        v = math.inf
    # gamma's relative error compounds over t-1 factors; pow and doubling round once each
    rel = math.expm1((t - 1) * math.log1p(GAMMA.abs_err / GAMMA.value))
    return Real(v, v * rel + 2 * math.ulp(v))


def _gamma_root() -> float:
    # unique positive root of f(x) = x^-5 + 2x^-4 + x^-3 - 1, decreasing on [1,2]
    def f(x: float) -> float:
        return x ** -5 + 2 * x ** -4 + x ** -3 - 1.0

    lo, hi = 1.0, 2.0
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2.0
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# the five constants of the volume/determinant comparisons
V4 = Real(3.0 * _lob(math.pi / 3.0), 1e-12)  # volume of the regular ideal tetrahedron
V8 = Real(8.0 * _lob(math.pi / 4.0), 1e-12)  # regular ideal octahedron, = vol B_4
GAMMA = Real(_gamma_root(), 1e-12)  # root of x^-5 + 2x^-4 + x^-3 = 1
XI = Real(math.exp(5.0 * V4.value / math.pi), 1e-11)  # exp(5 v4 / pi)
ZETA = Real(math.exp(V8.value / math.pi), 1e-11)  # exp(v8 / pi)
