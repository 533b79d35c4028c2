"""Certified log brackets decided by the exact exp oracle of exp_oracle,
which shares no code with multitwist: exp(L) <= z <= exp(H) for each
bracket [L, H] of log z, z a root of an int polynomial."""

import random
from fractions import Fraction

import mpmath
import pytest

from exp_oracle import Undecided, encloses_log, exp_bounds
from multitwist import bounds, rep

TORELLI_CUBIC = [1, 2, 1, -6]


def test_exp_bounds_hold_mpmath():
    """Random rationals, negative, zero and past 2^64, at 1 to 3000 bits:
    mpmath's exp lies between the bounds, which are about 2^-prec apart."""
    rng = random.Random(7)
    xs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
          Fraction(2 ** 70 + 1, 2 ** 64), Fraction(-45, 7)]
    xs += [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 5))
           for _ in range(20)]
    for prec in (1, 60, 1024, 3000):
        with mpmath.workprec(prec + 200):
            for x in xs:
                low, high, w = exp_bounds(x, prec)
                exact = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
                scaled = exact * mpmath.mpf(2) ** w
                assert low <= scaled <= high, (x, prec)
                assert high - low <= scaled * mpmath.mpf(2) ** (4 - prec) + 2


def test_exp_of_zero_is_exact():
    low, high, w = exp_bounds(Fraction(0), 100)
    assert low == high == 1 << w


@pytest.mark.parametrize("t", (62, 4098, 2 ** 64 + 2))
@pytest.mark.parametrize("bits", (60, 1024, 4096))
def test_dilatation_log_brackets_are_decided(t, bits):
    """log lambda for lambda the root of x^2 - |t| x + 1 above |t| / 2;
    |t| = 62 at mu 64 is the paper's 4.127.  Each bracket holds, and
    moving either endpoint inward by 2^-(bits - 4) of its value is
    refused."""
    coeffs, start = [1, -t, 1], Fraction(t, 2)
    _, log_lam = rep.hyperbolic_dilatation(t, bits)
    lo, hi = log_lam.lo, log_lam.hi
    assert encloses_log(lo, hi, coeffs, start)
    nudge = Fraction(1, 2 ** (bits - 4))
    assert not encloses_log(lo + lo * nudge, hi, coeffs, start)
    assert not encloses_log(lo, hi - hi * nudge, coeffs, start)


@pytest.mark.parametrize("bound, arg, coeffs", [
    ("surgery_lower", 4, [1, -2]),
    *(("punctured_surgery_lower", p, [4, -p]) for p in (5, 7, 97)),
    ("torelli_lower", None, TORELLI_CUBIC)],
    ids=["log2", "log5/4", "log7/4", "log97/4", "torelli"])
def test_bound_log_brackets_are_decided(bound, arg, coeffs):
    """log 2, log(p/4) as the root of 4x - p, and the paper's .197, the
    log of the Torelli cubic's root, which increases from 1 to its root
    in (1, 2); each refused once moved inward by 2^-60 of its value."""
    fn = getattr(bounds, bound)
    result = fn() if arg is None else fn(arg)
    lo, hi = result.value.lo, result.value.hi
    assert encloses_log(lo, hi, coeffs, 1)
    nudge = Fraction(1, 2 ** 60)
    assert not encloses_log(lo + lo * nudge, hi, coeffs, 1)
    assert not encloses_log(lo, hi - hi * nudge, coeffs, 1)


def _convergents(x: Fraction):
    """The continued-fraction convergents of x."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield Fraction(p1, q1)
        if x == a:
            return
        x = 1 / (x - a)


def test_undecided_bracket_never_passes():
    """A convergent p/q of log 2 below it, q > 2^100, is within 1/q^2 of
    log 2, too close to decide at the starting precision, log2(q) + 16
    bits: it is decided after a doubling, and refused as undecided when
    the cap allows none."""
    with mpmath.workprec(1200):
        ln2 = Fraction(int(mpmath.log(2) * mpmath.mpf(2) ** 1000), 2 ** 1000)
    lo = next(c for c in _convergents(ln2)
              if c.denominator > 2 ** 100 and c < ln2)
    assert encloses_log(lo, 1, [1, -2], 1)
    assert not encloses_log(lo, Fraction(2, 3), [1, -2], 1)
    with pytest.raises(Undecided):
        encloses_log(lo, 1, [1, -2], 1,
                     max_prec=2 * lo.denominator.bit_length())
