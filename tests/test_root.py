"""intervals.root against its certificate, written out here in plain ints.

For f with int coefficients c_0, ..., c_n, leading first, the int
2^(n bits) f(m / 2^bits) is the sum of c_i m^(n - i) 2^(i bits), and an
increasing f has its root in [k, k + 1] / 2^bits when that sum is <= 0
at m = k and > 0 at m = k + 1.  Each dilatation and 2 + sqrt(3) is also
checked against the math.isqrt enclosure of its square root.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from multitwist import bounds, intervals
from multitwist.intervals import Interval

GRID_BITS = [*range(1, 81), 1024, 4096, 12296]
_rng = random.Random(2000)
TRACES = [3, 62, 4098,
          *(_rng.randrange(3, 2 ** _rng.randrange(2, 2001)) for _ in range(12))]


def sqrt_interval(n: int, bits: int) -> Interval:
    """[s, s + 1] / 2^bits around sqrt(n), s = isqrt(n 4^bits), for an n
    that is not a square."""
    s = isqrt(n << 2 * bits)
    return Interval(Fraction(s, 2 ** bits), Fraction(s + 1, 2 ** bits))


def _scaled_value(coeffs, m: int, bits: int) -> int:
    """2^(n bits) f(m / 2^bits), term by term."""
    n = len(coeffs) - 1
    return sum(c * m ** (n - i) << bits * i for i, c in enumerate(coeffs))


def _certified_k(coeffs, lo: int, bits: int) -> int:
    """k of root's [k, k + 1] / 2^bits, or of its point k / 2^bits, after
    checking the sign change, and that k is at most one step below
    Newton's estimate, floored from its two guard bits."""
    iv = intervals.root(coeffs, lo, bits)
    k, top = (x * 2 ** bits for x in (iv.lo, iv.hi))
    assert k.denominator == top.denominator == 1, iv
    k = k.numerator
    low = _scaled_value(coeffs, k, bits)
    assert low <= 0 < _scaled_value(coeffs, k + 1, bits), (coeffs, bits)
    assert top == k + (low < 0), (coeffs, bits)
    newton = intervals._newton(coeffs, lo, bits + 2) >> 2
    assert newton - k in (0, 1), (coeffs, bits)
    return k


@pytest.mark.parametrize("t", TRACES, ids=lambda t: f"{t.bit_length()}bit")
def test_dilatation_certificate(t):
    # lambda = (t + sqrt(t^2 - 4)) / 2, so lambda 2^bits has the floor
    # t 2^(bits - 1) + isqrt((t^2 - 4) 4^(bits - 1))
    for bits in GRID_BITS:
        k = _certified_k([1, -t, 1], t - 1, bits)
        assert k == (t << bits - 1) + isqrt((t * t - 4) << 2 * (bits - 1)), bits


def test_two_plus_root_three_certificate():
    for bits in [*GRID_BITS, 128]:
        k = _certified_k([1, -4, 1], 3, bits)
        root3 = sqrt_interval(3, bits)
        assert Fraction(k, 2 ** bits) == 2 + root3.lo, bits
    assert bounds._log_hk() == intervals.log(
        Interval(2 + root3.lo, 2 + root3.hi), 64)


def test_torelli_cubic_certificate():
    for bits in [*range(0, 301), 1024, 4096, 12296]:
        _certified_k([1, 2, 1, -6], 1, bits)


def test_upper_sign_value_is_horner_at_k_plus_one():
    """root's upper value, f(k / 2^e) plus the quotient of f by
    x - k / 2^e at (k + 1) / 2^e, is Horner's rule at k + 1 exactly."""
    rng = random.Random(40)
    for _ in range(3000):
        coeffs = [rng.randint(-10 ** 6, 10 ** 6)
                  for _ in range(rng.randint(2, 5))]
        k, e = rng.randint(-10 ** 6, 10 ** 6), rng.randint(0, 40)
        assert intervals._horner_pair(coeffs, k, e) == (
            intervals._horner(coeffs, k, e),
            intervals._horner(coeffs, k + 1, e)), (coeffs, k, e)
        assert intervals._horner(coeffs, k + 1, e) == _scaled_value(
            coeffs, k + 1, e)


@pytest.mark.parametrize("bits", (1, 2, 3, 60, 1024))
def test_dyadic_root_is_a_point(bits):
    # (2x - 3)(2x + 1) = 4x^2 - 4x - 3 increases and is convex on (1, 2)
    assert intervals.root([4, -4, -3], 1, bits) == Interval.point(
        Fraction(3, 2))


def test_concave_f_fails_the_sign_check():
    # -2x^3 + 6x^2 + x - 8 increases on (1, 2), from -3 to 2, but is
    # concave, and at 1 bit Newton's k misses the floor by more than a step
    with pytest.raises(ValueError):
        intervals.root([-2, 6, 1, -8], 1, 1)


@pytest.mark.parametrize("shift", (-1, 2))
def test_newton_k_two_steps_off_is_refused(shift, monkeypatch):
    k = _certified_k([1, -62, 1], 61, 64)
    # root floors _newton's estimate from its guard bits
    monkeypatch.setattr(intervals, "_newton",
                        lambda _coeffs, _lo, bits: k + shift << bits - 64)
    with pytest.raises(ValueError):
        intervals.root([1, -62, 1], 61, 64)
