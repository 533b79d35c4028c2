"""Certified log, checked against mpmath as an independent oracle: mpmath
is a test dependency only and shares no code with the integer fixed-point
enclosures in multitwist.intervals.  Dyadic endpoints and their printing
are checked against Fraction and decimal_str, and decimal_str against
str()."""

import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multitwist
from multitwist import bounds, intervals, rep
from multitwist.intervals import Interval, PrecisionError

from test_payload_digests import ARGVS, DIGESTS, digest

BITS = (1, 64, 1024, 12288, 16384)
EXAMPLES = {1: 60, 64: 60, 1024: 30, 12288: 6, 16384: 3}


def _fraction(v: mpmath.mpf) -> Fraction:
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _mp_encloses(iv: Interval, fn, lo: Fraction, hi: Fraction,
                 bits: int) -> bool:
    """iv contains mpmath's fn(lo) and fn(hi) to within 2^-(2 bits + 64),
    twice the precision and a margin.  mpmath works 256 bits beyond that
    and the magnitude of the argument."""
    prec = (2 * bits + 320
            + abs(lo.numerator.bit_length() - lo.denominator.bit_length()))
    with mpmath.workprec(prec):
        a, b = (_fraction(fn(mpmath.mpf(x.numerator) / x.denominator))
                for x in (lo, hi))
    slack = Fraction(1, 2 ** (2 * bits + 64))
    return iv.lo - slack <= a and b <= iv.hi + slack


below_one = st.builds(lambda p, q: Fraction(p, p + q),
                      st.integers(1, 10 ** 30), st.integers(1, 10 ** 30))
near_power_of_two = st.builds(
    lambda k, sign, m: Fraction(2) ** k * (1 + Fraction(sign, 2 ** m)),
    st.integers(-80, 80), st.sampled_from((-1, 1)), st.integers(1, 300))
around_2_3000 = st.builds(lambda d, q: Fraction(2 ** 3000 + d, q),
                          st.integers(-10 ** 20, 10 ** 20),
                          st.integers(1, 10 ** 6))
positive = st.one_of(below_one, st.just(Fraction(1)), near_power_of_two,
                     around_2_3000)


def _dyadic_exponent(x: Fraction) -> int:
    d = x.denominator
    assert d & (d - 1) == 0, f"{x} is not dyadic"
    return d.bit_length() - 1


def _check_log(x: Interval, bits: int):
    iv = intervals.log(x, bits)
    assert _mp_encloses(iv, mpmath.log, x.lo, x.hi, bits), bits
    assert iv.width <= Fraction(1, 2 ** bits) + x.width / x.lo, bits
    assert _dyadic_exponent(iv.lo) <= bits + 256, bits
    assert _dyadic_exponent(iv.hi) <= bits + 256, bits


@pytest.mark.parametrize("bits", BITS)
def test_log_encloses_mpmath_within_width(bits):
    @settings(max_examples=EXAMPLES[bits], deadline=None)
    @given(positive, st.integers(0, 3))
    def check(lo, spread_bits):
        # spread 0, or a relative spread of about 2^-(bits + spread_bits)
        hi = lo * (1 + Fraction(spread_bits > 0, 2 ** (bits + spread_bits)))
        _check_log(Interval(lo, hi), bits)

    check()


def test_log_root_count_and_start_precision():
    # up to 512 bits, floor(bits^(1/3)) // 3 + 1 roots taken at the
    # working precision; above, bits.bit_length() + 1 roots lifted from
    # at most 512 bits; for every bit count that log meets
    c = 1
    for bits in range(1, 65536 + 300):
        while (c + 1) ** 3 <= bits:
            c += 1
        w, roots, _, start = intervals._log_precision(bits, 0)
        if bits <= 512:
            assert (roots, start) == (c // 3 + 1, w), bits
        else:
            assert (roots, start) == (bits.bit_length() + 1, 512), bits


def test_log_endpoints_up_to_512_bits_are_pinned():
    # the endpoints that log gave before the lift, from a digest of them
    h = hashlib.sha256()
    for x in SWEEP_X:
        for bits in range(1, 513):
            iv = intervals.log(x, bits)
            h.update(f"{iv.lo} {iv.hi}\n".encode())
    assert h.hexdigest() == ("6a19703c16d086c748bdef2d03c21e6a"
                             "cf7f6e62fe4543b0afa1f7fd261cadde")


def test_log_endpoints_above_512_bits_are_pinned():
    # the lifted endpoints, every 31st bit count up to 2048 and two of
    # the benchmark's widths, from a digest of them
    h = hashlib.sha256()
    for x in SWEEP_X:
        for bits in (*range(513, 2049, 31), 4096, 12288):
            iv = intervals.log(x, bits)
            h.update(f"{iv.lo} {iv.hi}\n".encode())
    assert h.hexdigest() == ("7f06f3058fcbdc97afe955860adab4e2"
                             "7bf95f9fe4577e5491baf3eda62cf824")


def test_log_error_count_is_the_proved_one():
    # _log_fixed's docstring: 2 total is low by less than 2 (9 sigma / 8
    # + block + 8/3), for sigma = 2 after square roots at w and
    # (3 + 2^-7)(1/2 + 2^-11) + 1 after the lift; the count is the
    # least int at or above that, times 2^roots
    for bits in (1, 100, 512, 513, 4096, 65536):
        w, roots, block, start = intervals._log_precision(bits, 0)
        sigma = (Fraction(2) if start == w else
                 (3 + Fraction(1, 2 ** 7)) * (Fraction(1, 2)
                                              + Fraction(1, 2 ** 11)) + 1)
        count = math.ceil(2 * (Fraction(9, 8) * sigma + block
                               + Fraction(8, 3)))
        _, err = intervals._log_fixed(3, 2, 0, w, roots, block, start)
        assert err == count << roots, bits


SWEEP_BITS = range(1, 301)
# y = x / 2^e in the middle of [1, 2), just below 2 and just above 1; a
# large and a small exponent; and a wide interval
SWEEP_X = (Interval.point(Fraction(3, 2)),
           Interval.point(Fraction(2 ** 61 - 1, 2 ** 60)),
           Interval(Fraction(10 ** 40 + 7, 10 ** 40),
                    Fraction(10 ** 40 + 9, 10 ** 40)),
           Interval.point(Fraction(5 * 2 ** 900, 3)),
           Interval(Fraction(7, 2 ** 500), Fraction(11, 2 ** 500)),
           Interval(Fraction(1, 3), Fraction(3)))


def test_log_sweep_covers_switches_of_the_precision_rule():
    rules = {intervals._log_precision(bits, 0)[1:3] for bits in SWEEP_BITS}
    assert len({roots for roots, _ in rules}) >= 3
    assert len({block for _, block in rules}) >= 5


@pytest.mark.parametrize("x", SWEEP_X)
def test_log_sweep_bits_1_to_300(x):
    """Every bit count up to 300, so every switch point of the root count,
    the block size and the working precision."""
    for bits in SWEEP_BITS:
        _check_log(x, bits)


@pytest.mark.parametrize("x", SWEEP_X)
def test_log_sweep_across_the_lift(x):
    """Every bit count from 448 to 704, across the switch at 512 bits from
    square roots at the working precision to the lifted ones."""
    for bits in range(512 - 64, 512 + 193):
        _check_log(x, bits)


# y = 1 gives s = 0; just above 1, s^2 is below one ulp at large bits
EDGE_X = {
    "1": lambda bits: Fraction(1),
    "2^37": lambda bits: Fraction(2 ** 37),
    "2^-45": lambda bits: Fraction(1, 2 ** 45),
    "2": lambda bits: Fraction(2),
    "1 + 2^-bits": lambda bits: 1 + Fraction(1, 2 ** bits),
    "2^-7 (1 + 2^-bits)": lambda bits: (1 + Fraction(1, 2 ** bits)) / 2 ** 7,
}


@pytest.mark.parametrize("bits", (1, 2, 60, 64, 300, 1024, 12288))
@pytest.mark.parametrize("name", EDGE_X)
def test_log_edge_cases(bits, name):
    x = EDGE_X[name](bits)
    _check_log(Interval.point(x), bits)
    _check_log(Interval(x, x * (1 + Fraction(1, 2 ** bits))), bits)


def _log_fixed_encloses(x: Fraction, bits: int):
    """_log_fixed's contract low <= ln(x) 2^w <= low + err, at the working
    precision, root count and block size that log uses for bits."""
    p, q = x.numerator, x.denominator
    e = p.bit_length() - q.bit_length()
    if x < Fraction(2) ** e:
        e -= 1
    assert 1 <= x / Fraction(2) ** e < 2
    w, roots, block, start = intervals._log_precision(bits, e)
    low, err = intervals._log_fixed(p, q, e, w, roots, block, start)
    with mpmath.workprec(2 * w + 64):
        scaled = _fraction(mpmath.log(mpmath.mpf(p) / q) * mpmath.mpf(2) ** w)
    # mpmath's value is within 2^-w of ln(x) * 2^w
    slack = Fraction(1, 2 ** w)
    assert low - slack <= scaled <= low + err + slack, (x, bits)


# y = x / 2^e in the middle of [1, 2), just above 1 and just below 2; q
# not a power of two; a large and a small exponent
LOG_FIXED_X = (Fraction(3, 2), Fraction(2 ** 300 + 1, 2 ** 300),
               Fraction(2 ** 61 - 1, 2 ** 60), Fraction(10 ** 40 + 7, 10 ** 40),
               Fraction(5 * 2 ** 900, 3), Fraction(7, 2 ** 500))


def test_log_fixed_contract_bits_1_to_300():
    for x in LOG_FIXED_X:
        for bits in SWEEP_BITS:
            _log_fixed_encloses(x, bits)


@pytest.mark.parametrize("bits, xs", [(4096, LOG_FIXED_X),
                                      (12288, LOG_FIXED_X[:4]),
                                      (65536, LOG_FIXED_X[2:4])])
def test_log_fixed_contract_high_precision(bits, xs):
    for x in xs:
        _log_fixed_encloses(x, bits)


def test_log_fixed_contract_at_random_bits_above_512():
    rng = random.Random(512)
    for bits in sorted(rng.sample(range(512, 16385), 6)):
        w = intervals._log_precision(bits, 0)[0]
        # 1, one ulp of 2^-w either side of [1, 2), a random y over a
        # denominator that is not a power of two, and a large and a
        # small exponent
        for x in (Fraction(1), 1 + Fraction(1, 2 ** w),
                  2 - Fraction(1, 2 ** w),
                  Fraction((3 ** 41 << bits) + rng.getrandbits(bits),
                           3 ** 41 << bits),
                  Fraction(rng.getrandbits(bits) | 1, 3 ** 41),
                  Fraction(5 * 2 ** 4000, 3), Fraction(7, 2 ** 1000)):
            _log_fixed_encloses(x, bits)


@pytest.mark.parametrize("bits, samples", [(513, 1000), (600, 1000),
                                           (900, 1000), (4096, 30),
                                           (12288, 8)])
def test_inverse_root_within_the_proved_window(bits, samples):
    """_inverse_root's x lies in (x* 2^w + 1 - 2^-6, x* 2^w + 3 + 2^-7)
    for x* = y^(-1/2^roots): y = 1, the ends of [1, 2) and random y.  Up
    to about 1000 bits the lift is one Newton step from the square roots,
    and the window's lower end is met only for the schedule's guard bits,
    so there the samples are many."""
    w, roots, _, start = intervals._log_precision(bits, 0)
    rng = random.Random(bits)
    one = 1 << w
    zs = [one, one + 1, 2 * one - 1, 3 << (w - 1)]
    zs += [one + rng.getrandbits(w) for _ in range(samples)]
    for z in zs:
        x = intervals._inverse_root(z, w, roots, start)
        with mpmath.workprec(w + 64):
            ref = _fraction(mpmath.power(mpmath.mpf(z) / one,
                                         mpmath.mpf(-1) / 2 ** roots) * one)
        # mpmath's value is within 2^-32 of x* 2^w
        slack = Fraction(1, 2 ** 32)
        assert (1 - Fraction(1, 2 ** 6) - slack < x - ref
                < 3 + Fraction(1, 2 ** 7) + slack), (z, float(x - ref))


def _inverse_root_full_width(z: int, w: int, roots: int, start: int) -> int:
    """_inverse_root with each level's first squaring taken at the full
    width, of x << (top - p) shifted right by top."""
    precisions = [w]
    while precisions[-1] > start:
        precisions.append((precisions[-1] + roots + 9) // 2)
    p = precisions.pop()
    v = z >> (w - p)
    for _ in range(roots):
        v = math.isqrt(v << p)
    x = (1 << 2 * p) // v
    for top in reversed(precisions):
        pw = x << (top - p)
        for _ in range(roots):
            pw = pw * pw >> top
        a = (z >> (w - top)) * pw >> top
        x = (x << (top - p)) + (x * ((1 << top) - a) >> (p + roots))
        p = top
    return x + 2


def _product_powers_log_fixed(p: int, q: int, e: int, w: int, roots: int,
                              block: int, start: int) -> tuple[int, int]:
    """_log_fixed's (low, err) above 512 bits with every power of s2
    formed by a product with s2, none by squaring, and one floor division
    per term."""
    one = 1 << w
    z = math.floor(Fraction(p, q) * Fraction(2) ** (w - e))
    x = intervals._inverse_root(z, w, roots, start)
    s = max(((one - x) << w) // (one + x), 0)
    gap = w - s.bit_length()
    s2 = s * s >> w
    n = -(-w // (2 * gap))
    block = min(block, n)
    powers = [one]
    for _ in range(block):
        powers.append(powers[-1] * s2 >> w)
    step = powers.pop()
    cut = (2 * gap - 2) * block
    acc, top = 0, w
    for b in reversed(range(-(-n // block))):
        c = cut * b
        d = 2 * b * block + 1
        acc = (acc * (step >> c) >> top) + sum(
            (x >> c) // (d + 2 * j) for j, x in enumerate(powers))
        top = w - c
    ln2, ln2_err = intervals._ln2(w)
    return (((2 * (s * acc >> w)) << roots) + e * ln2 + min(e, 0) * ln2_err,
            ((2 * block + 11) << roots) + abs(e) * ln2_err)


def test_log_fixed_above_512_bits_against_the_per_term_series():
    """Squared even powers give the same low as powers built by products,
    err is the proved count, and mpmath's ln(x) 2^w lies inside.  20
    random y at bits in 513-16384, and the inputs of
    test_log_fixed_contract_at_random_bits_above_512."""
    rng = random.Random(40)
    cases = []
    for bits in sorted(rng.sample(range(513, 16385), 20)):
        q = 3 ** 41 << bits
        cases.append((q + rng.randrange(q), q, bits))
    for bits in sorted(random.Random(512).sample(range(512, 16385), 6)):
        if bits > 512:
            w = intervals._log_precision(bits, 0)[0]
            for x in (Fraction(1), 1 + Fraction(1, 2 ** w),
                      2 - Fraction(1, 2 ** w), Fraction(5 * 2 ** 4000, 3),
                      Fraction(7, 2 ** 1000)):
                cases.append((x.numerator, x.denominator, bits))
    for p, q, bits in cases:
        e = p.bit_length() - q.bit_length()
        if Fraction(p, q) < Fraction(2) ** e:
            e -= 1
        w, roots, block, start = intervals._log_precision(bits, e)
        assert start < w
        low, err = intervals._log_fixed(p, q, e, w, roots, block, start)
        oracle_low, oracle_err = _product_powers_log_fixed(p, q, e, w,
                                                           roots, block,
                                                           start)
        assert low == oracle_low and err == oracle_err, (p, q, bits)
        _log_fixed_encloses(Fraction(p, q), bits)


@pytest.mark.parametrize("bits", (513, 900, 4096, 12288, 16384))
def test_inverse_root_first_squaring_at_half_width(bits):
    """Each lift level's first squaring, x * x shifted right by 2p - top,
    equals the square of x << (top - p) shifted right by top: the same x
    as the lift with the full-width squaring, for random z and random x."""
    w, roots, _, start = intervals._log_precision(bits, 0)
    rng = random.Random(bits)
    one = 1 << w
    for z in (one, 2 * one - 1, *(one + rng.getrandbits(w) for _ in range(20))):
        assert intervals._inverse_root(z, w, roots, start) == (
            _inverse_root_full_width(z, w, roots, start)), z
    for _ in range(200):
        top = rng.randint(2, w)
        p = rng.randint(top // 2 + 1, top)
        x = rng.getrandbits(p + 1)
        assert x * x >> (2 * p - top) == (x << (top - p)) ** 2 >> top


@pytest.mark.parametrize("k", (0, 1, -1, 7, -12, 3 << 20, -(5 << 40), 1 << 64))
@pytest.mark.parametrize("e", (0, 1, 5, 30))
def test_dyadic_equals_fraction(k, e):
    x, ref = intervals.dyadic(k, e), Fraction(k, 2 ** e)
    assert x == ref and hash(x) == hash(ref)
    assert (x.numerator, x.denominator) == (ref.numerator, ref.denominator)


@pytest.mark.parametrize("lo, hi", [
    (intervals.dyadic(5, 12288), intervals.dyadic(3, 12288)),
    (Fraction(3, 4), Fraction(1, 2)), (Fraction(-1, 2), Fraction(-3, 4)),
    (2, 1), (1, Fraction(-7, 1 << 100)),
    (Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 3), Fraction(5, 8)),
    (3, Fraction(8, 3))])
def test_empty_interval_is_refused(lo, hi):
    # dyadic pairs, then pairs with a denominator that is not a power of 2
    with pytest.raises(ValueError, match="empty interval"):
        Interval(lo, hi)


def test_interval_order_check_matches_fractions():
    # random dyadic endpoints, two that are not dyadic among them; equal
    # endpoints pass
    rng = random.Random(43)
    values = [Fraction(rng.randint(-2 ** 80, 2 ** 80), 2 ** rng.randint(0, 90))
              for _ in range(300)] + [Fraction(1, 3), Fraction(-5, 6)]
    for lo, hi in zip(values, values[1:] + values[:1]):
        if lo > hi:
            with pytest.raises(ValueError):
                Interval(lo, hi)
        else:
            assert Interval(lo, hi).hi == hi
        assert Interval.point(lo) == Interval(lo, lo)


def _assert_lowest_dyadic(iv: Interval):
    for x in (iv.lo, iv.hi):
        d = x.denominator
        assert d & (d - 1) == 0 and (x.numerator % 2 or d == 1), x


@pytest.mark.parametrize("bits", (1, 60, 64, 300, 4096, 12288))
def test_endpoints_are_dyadic_in_lowest_terms(bits):
    for trace in (3, 62, -3970, 2 ** 200 + 1):
        for iv in rep.hyperbolic_dilatation(trace, bits):
            _assert_lowest_dyadic(iv)
    for x in SWEEP_X:
        _assert_lowest_dyadic(intervals.log(x, bits))


@pytest.mark.parametrize("w", (1, 7, 64, 1088, 12416, 16448))
def test_ln2_bracket_against_mpmath(w):
    # one call through the cache, one computed afresh
    for low, err in (intervals._ln2(w), intervals._ln2.__wrapped__(w)):
        with mpmath.workprec(w + 160):
            scaled = _fraction(mpmath.log(2) * mpmath.mpf(2) ** w)
        # mpmath's value is within 2^-150 of ln(2) * 2^w
        slack = Fraction(1, 2 ** 150)
        assert low <= scaled - slack and scaled + slack <= low + err
        assert err <= 2


# sha256 of "lo hi" for log(x, 700) of 5/4, 7/4 and the Torelli root,
# computed when log still took ln 2 at e = 0
E0_LOG_DIGESTS = ["579c8955a2372aa2", "53f3b015ef68d9cb", "df93d3a1fafa969f"]


def test_log_in_one_to_two_makes_no_ln2_call():
    # at e = 0, e ln 2 and |e| times its error are both 0, so a log of an
    # argument in [1, 2) needs no ln 2, and no endpoint moves without it
    intervals._ln2.cache_clear()
    logs = [intervals.log(x, 700)
            for x in (Interval.point(Fraction(5, 4)),
                      Interval.point(Fraction(7, 4)),
                      bounds.torelli_cubic_root())]
    info = intervals._ln2.cache_info()
    assert info.hits + info.misses == 0
    assert [hashlib.sha256(f"{iv.lo} {iv.hi}".encode()).hexdigest()[:16]
            for iv in logs] == E0_LOG_DIGESTS
    expected = json.loads(DIGESTS.read_text())
    for argv in ARGVS:
        if argv[:1] == ["bounds"]:
            assert digest(argv) == expected[shlex.join(argv)], argv


def _relative_width(iv: Interval) -> Fraction:
    return (iv.hi - iv.lo) / max(Fraction(1), abs(iv.lo), abs(iv.hi))


@pytest.mark.parametrize("trace", (3, 62, -3970, 2 ** 200 + 1))
def test_hyperbolic_dilatation_meets_width_over_sweep(trace):
    for bits in SWEEP_BITS:
        lam, log_lam = rep.hyperbolic_dilatation(trace, bits)
        assert _relative_width(lam) <= Fraction(1, 2 ** bits)
        assert _relative_width(log_lam) <= Fraction(1, 2 ** bits)


@pytest.mark.parametrize("fn, x", [(intervals.log, Interval(0, 1)),
                                   (intervals.log, Interval(-2, -1)),
                                   (intervals.log, Interval(-1, 1))])
def test_out_of_domain_raises_value_error(fn, x):
    with pytest.raises(ValueError):
        fn(x, 64)


def test_high_precision_endpoints_parse_under_digit_limit():
    report = rep.dilatation("ab", 64, precision_bits=12288)
    payload = report.to_json_dict()
    for text in payload["lambda"] + payload["log_lambda"]:
        Fraction(text)


@pytest.mark.parametrize("lo", (-(3 << 69), -1, 0, 1 << 70, 3 << 69))
def test_relative_width_test_matches_fractions(lo):
    # endpoints over 2^70, in lowest terms as dyadic leaves them, with
    # widths on both sides of 2^-bits times the scale
    for width in (0, 1, 1 << 30, (1 << 30) - 1, (1 << 30) + 1, 3 << 69):
        iv = Interval(intervals.dyadic(lo, 70), intervals.dyadic(lo + width, 70))
        for bits in range(0, 142):
            within = _relative_width(iv) <= Fraction(1, 2 ** bits)
            assert (intervals.relative_width_within(iv, bits)
                    == within), (iv, bits)
    # rational endpoints over 7 2^60 and 3 2^(bits + 100): at 2^-bits
    # with a scale of 1, of hi or of -lo, and one ulp on either side
    base = Fraction(lo, 7 << 60)
    for bits in (1, 40, 64, 300):
        rel, ulp = Fraction(1, 2 ** bits), Fraction(1, 3 * 2 ** (bits + 100))
        edges = [(base / 1000, base / 1000 + rel)]
        if base >= 1:
            edges.append((base, base / (1 - rel)))
        elif base <= -1:
            edges.append((base, base * (1 - rel)))
        for a, b in edges:
            for hi, within in ((b, True), (b - ulp, True), (b + ulp, False)):
                iv = Interval(a, hi)
                assert (_relative_width(iv) <= rel) == within, (iv, bits)
                assert (intervals.relative_width_within(iv, bits)
                        == within), (iv, bits)


def _is_power_of_two(n: int) -> bool:
    return n == 1 << (n.bit_length() - 1)


def test_scaled_pair_is_exact():
    """(x d, y d, d) for d the larger denominator of two dyadic endpoints
    and the product of any others: random pairs over 1, 2^k, 3 2^k and
    odd or arbitrary denominators, negative, zero and equal."""
    rng = random.Random(500)

    def pick() -> Fraction:
        den = rng.choice((1, 2, 1 << rng.randint(1, 300),
                          3 << rng.randint(0, 70), rng.randint(1, 10 ** 6) | 1,
                          rng.randint(1, 1 << 100)))
        num = rng.choice((0, 1, -1, rng.randint(-1 << 200, 1 << 200)))
        return Fraction(num, den)

    kinds = set()
    for _ in range(500):
        x = pick()
        y = rng.choice((x, -x, Fraction(0), pick(), pick()))
        a, b, d = intervals._scaled_pair(x, y)
        assert Fraction(a, d) == x and Fraction(b, d) == y, (x, y)
        q, r = x.denominator, y.denominator
        dyadic = _is_power_of_two(q) and _is_power_of_two(r)
        assert d == (max(q, r) if dyadic else q * r), (x, y)
        kinds.add((dyadic, x == y, min(x, y) < 0 < max(x, y)))
    assert len(kinds) == 6


def _signed_dyadic(k: int, e: int) -> Fraction:
    return intervals.dyadic(k, e) if k >= 0 else -intervals.dyadic(-k, e)


def _random_intervals(rng: random.Random, e: int):
    """Intervals over 2^e: negative, zero and equal endpoints, numerators
    of both parities, lowest terms over 2^j for j = 0, 1, 4 and e, and
    numerator gaps of one, two and three machine words."""
    limit = 1 << 64
    for gap in (0, 1, 2, 3, limit - 1, limit, limit + 1,
                rng.getrandbits(40), rng.getrandbits(e + 2)):
        for k in (rng.getrandbits(e + 2), -rng.getrandbits(e + 2), -gap,
                  -(gap // 2), 0, rng.getrandbits(e) << 1, 1 << e,
                  3 << max(e - 1, 0), -(5 << max(e - 4, 0))):
            yield Interval(_signed_dyadic(k, e), _signed_dyadic(k + gap, e))


@pytest.mark.parametrize("e", (0, 1, 2, 63, 64, 100, 639, 640, 641, 1024,
                               4096, 12296, 14500))
def test_endpoint_strs_match_decimal_str(e):
    rng = random.Random(e)
    for iv in _random_intervals(rng, e):
        assert intervals.endpoint_strs(iv) == [
            intervals.decimal_str(iv.lo), intervals.decimal_str(iv.hi)], iv


def test_endpoint_strs_past_the_str_digit_limit():
    # 2^65600 has 19,748 digits, past str()'s default 4300
    rng = random.Random(65600)
    k = rng.getrandbits(65602) | 1
    for lo, hi in ((k, k + 1), (k - 1, k + 2), (-k, 5 - k), (k, k)):
        iv = Interval(_signed_dyadic(lo, 65600), _signed_dyadic(hi, 65600))
        assert intervals.endpoint_strs(iv) == [
            intervals.decimal_str(iv.lo), intervals.decimal_str(iv.hi)]


def test_decimal_str_matches_str_from_1_to_800000_bits():
    """Random ints on both sides of the 3072-bit split and of its halves,
    up to 800,000 bits, and 10^k, 10^k - 1 and 10^k + 1, positive and
    negative, against str() with the digit limit lifted."""
    rng = random.Random(800000)
    cases = {0: "0"}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for bits in (1, 2, 63, 64, 3071, 3072, 3073, 4095, 4096, 4097, 6145,
                     12296, 65600, 300001, 800000):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            cases[n] = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    # 10^924 and 10^925 straddle 3072 bits, 10^1233 and 10^1234 4096 bits,
    # and 10^240824 has 800,001 bits
    for k in (1, 19, 924, 925, 1233, 1234, 4300, 19748, 240824):
        cases[10 ** k] = "1" + "0" * k
        cases[10 ** k - 1] = "9" * k
        cases[10 ** k + 1] = "1" + "0" * (k - 1) + "1"
    for n, text in cases.items():
        assert intervals.decimal_str(n) == text, n.bit_length()
        assert intervals.decimal_str(-n) == ("-" + text if n else text)


def test_float_str_past_the_float_range():
    """17 significant digits of endpoints past the float range, against
    Decimal(n) / d, on both sides of _decimal's 3072-bit split; a
    917,573-bit numerator, which Decimal(n) takes about 1.4 s to convert,
    converts in a small fraction of a second."""
    rng = random.Random(1025)
    for bits in (1026, 1100, 3071, 3072, 3073, 4097, 6000):
        for den_bits in sorted({1, min(64, bits - 1025), bits - 1025}):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            d = rng.getrandbits(den_bits) | 1 << (den_bits - 1)
            for x in (Fraction(n, d), Fraction(-n, d)):
                with pytest.raises(OverflowError):
                    float(x)
                assert intervals.float_str(x) == (
                    f"{Decimal(x.numerator) / x.denominator:.16e}")
    n, d = rng.getrandbits(917573) | 1 << 917572, 2 ** 68
    start = time.perf_counter()
    text = intervals.float_str(Fraction(n, d))
    assert time.perf_counter() - start < 0.5
    # the 17 digits are n / d rounded at 10^(276196 - 16)
    digits, exponent = text.replace(".", "").split("e+")
    assert exponent == "276196" and len(digits) == 17
    unit = d * 10 ** (276196 - 16)
    assert 2 * abs(int(digits) * unit - n) <= unit


@pytest.mark.parametrize("lo, hi", [
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(-7, 5), Fraction(22, 7)),
    (Fraction(3, 2 ** 900), Fraction(2 ** 901 + 1, 3 * 2 ** 900)),
    (Fraction(2 ** 1000 + 1, 3 ** 700), Fraction(2 ** 1000 + 2, 3 ** 700)),
    (Fraction(1, 2 ** 2000), Fraction(5, 3 * 2 ** 2000)),
    (Fraction(-5), Fraction(10 ** 400, 3))])
def test_endpoint_strs_of_non_dyadic_fractions(lo, hi):
    assert intervals.endpoint_strs(Interval(lo, hi)) == [
        intervals.decimal_str(lo), intervals.decimal_str(hi)]


@pytest.mark.parametrize("bits", (60, 1024, 12288,
                                  pytest.param(None, id="torelli_lower")))
def test_certified_intervals_print_from_one_conversion(bits, monkeypatch):
    report = (bounds.torelli_lower() if bits is None
              else rep.dilatation("ab", 64, precision_bits=bits))
    expected = report.to_json_dict()

    def refuse(_x):
        raise AssertionError("printed endpoint by endpoint")

    monkeypatch.setattr(intervals, "decimal_str", refuse)
    assert report.to_json_dict() == expected


def test_dilatation_refuses_a_wide_log(monkeypatch):
    def wide(x, _bits):
        return Interval(0, 1)

    monkeypatch.setattr(intervals, "log", wide)
    with pytest.raises(PrecisionError):
        rep.hyperbolic_dilatation(62, 60)


def test_cli_import_leaves_out_mpmath_and_worker_pool():
    src = str(Path(multitwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, multitwist.cli; print(sorted(m for m in "
            "('mpmath', 'multiprocessing', 'concurrent.futures', "
            "'multitwist.quadratic') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
