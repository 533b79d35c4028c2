import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multitwist.quadratic import QuadReal, RadicandMismatch

small_fracs = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                           max_denominator=1000)


def test_perfect_square_normalization():
    x = QuadReal(1, 1, 64)
    assert x.a == 9 and x.b == 0
    assert QuadReal(1, 1, 64) * QuadReal(1, 0, 64) == QuadReal.rational(9, 64)


def test_defining_relation():
    root2 = QuadReal.root(2)
    assert root2 * root2 == QuadReal.rational(2, 2)


def test_conjugate_sum():
    assert QuadReal(1, 1, 2) + QuadReal(1, -1, 2) == QuadReal.rational(2, 2)


def test_radicand_mismatch():
    with pytest.raises(RadicandMismatch):
        QuadReal.root(2) + QuadReal.root(3)


def test_compare_examples():
    assert QuadReal.root(2).compare(1) > 0
    assert QuadReal.rational(3, 5).compare(3) == 0
    assert QuadReal.rational(-62, 64).compare(-2) < 0


def test_compare_negative_radical():
    # a > 0, b < 0 cases where squaring decides
    assert QuadReal(2, -1, 2) > 0       # 2 - 1.414 > 0
    assert QuadReal(1, -1, 2) < 0       # 1 - 1.414 < 0
    assert QuadReal(2, -1, 4).sign() == 0   # normalized to 0


def test_to_interval_examples():
    assert QuadReal.root(64).to_interval(20).lo == 8
    assert QuadReal.root(64).to_interval(20).hi == 8
    iv = QuadReal.root(2).to_interval(30)
    assert Fraction("1.41421356") < iv.lo and iv.hi < Fraction("1.41421357")
    assert iv.width <= Fraction(2, 2 ** 30)
    big = QuadReal(31, 1, 960).to_interval(40)
    assert Fraction("61.9838667") < big.lo and big.hi < Fraction("61.9838668")


def test_to_interval_precondition():
    with pytest.raises(ValueError):
        QuadReal.root(2).to_interval(0)


@given(small_fracs, small_fracs, small_fracs, small_fracs,
       small_fracs, small_fracs, st.sampled_from([2, 3, 5, 7, 960]))
def test_ring_axioms(a1, b1, a2, b2, a3, b3, mu):
    x, y, z = QuadReal(a1, b1, mu), QuadReal(a2, b2, mu), QuadReal(a3, b3, mu)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


def test_compare_agrees_with_interval():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(10_000):
        mu = rng.choice([2, 3, 5, 7, 13])
        x = QuadReal(Fraction(rng.randint(-100, 100), rng.randint(1, 20)),
                     Fraction(rng.randint(-100, 100), rng.randint(1, 20)), mu)
        r = Fraction(rng.randint(-300, 300), rng.randint(1, 10))
        iv = x.to_interval(64)
        if iv.hi < r:
            assert x.compare(r) < 0
            agreements += 1
        elif iv.lo > r:
            assert x.compare(r) > 0
            agreements += 1
    assert agreements > 9000  # the interval almost always excludes r


def test_perfect_square_stays_rational():
    rng = random.Random(7)
    for mu in (0, 1, 4, 9, 16, 64):
        x = QuadReal(1, 1, mu)
        y = QuadReal(Fraction(-3, 2), Fraction(5, 7), mu)
        for _ in range(20):
            x = rng.choice([x + y, x - y, x * y])
            assert x.b == 0


def test_json_round_trip():
    x = QuadReal(Fraction(3, 7), Fraction(-2, 5), 960)
    assert QuadReal.from_json(x.to_json()) == x
    assert x.to_json_dict() == {"a": "3/7", "b": "-2/5", "mu": 960}
