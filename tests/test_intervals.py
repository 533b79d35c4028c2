"""Certified log and cube root, checked against mpmath as an independent
oracle: mpmath is a test dependency only and shares no code with the
integer fixed-point enclosures in multitwist.intervals."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multitwist
from multitwist import intervals, rep
from multitwist.intervals import Interval, PrecisionError
from multitwist.words import Word

BITS = (1, 64, 1024, 12288)
EXAMPLES = {1: 60, 64: 60, 1024: 30, 12288: 6}


def _fraction(v: mpmath.mpf) -> Fraction:
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _mp_encloses(iv: Interval, fn, lo: Fraction, hi: Fraction,
                 bits: int) -> bool:
    """iv contains mpmath's fn(lo) and fn(hi) to within 2^-(2 bits + 64),
    twice the precision and a margin.  mpmath works 256 bits beyond that
    and the magnitude of the argument, because its high-precision cbrt
    can be off by 2^211 units in its last place."""
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


@pytest.mark.parametrize("bits", BITS)
def test_log_encloses_mpmath_within_width(bits):
    @settings(max_examples=EXAMPLES[bits], deadline=None)
    @given(positive, st.integers(0, 3))
    def check(lo, spread_bits):
        # spread 0, or a relative spread of about 2^-(bits + spread_bits)
        hi = lo * (1 + Fraction(spread_bits > 0, 2 ** (bits + spread_bits)))
        x = Interval(lo, hi)
        iv = intervals.log(x, bits)
        assert _mp_encloses(iv, mpmath.log, lo, hi, bits)
        assert iv.width <= Fraction(1, 2 ** bits) + x.width / x.lo
        assert _dyadic_exponent(iv.lo) <= bits + 256
        assert _dyadic_exponent(iv.hi) <= bits + 256

    check()


@pytest.mark.parametrize("bits", BITS)
def test_cbrt_encloses_mpmath_within_width(bits):
    @settings(max_examples=EXAMPLES[bits], deadline=None)
    @given(st.one_of(st.just(Fraction(0)), positive))
    def check(x):
        iv = intervals.cbrt(Interval.point(x), bits)
        assert _mp_encloses(iv, mpmath.cbrt, x, x, bits)
        assert iv.lo ** 3 <= x <= iv.hi ** 3
        assert iv.width <= Fraction(1, 2 ** bits)

    check()


@pytest.mark.parametrize("x, root", [(Fraction(27, 8), Fraction(3, 2)),
                                     (Fraction(2 ** 300), Fraction(2 ** 100)),
                                     (Fraction(0), Fraction(0))])
@pytest.mark.parametrize("bits", BITS)
def test_cbrt_of_exact_cube_is_a_point(x, root, bits):
    assert intervals.cbrt(Interval.point(x), bits) == Interval.point(root)


@pytest.mark.parametrize("fn, x", [(intervals.log, Interval(0, 1)),
                                   (intervals.log, Interval(-2, -1)),
                                   (intervals.log, Interval(-1, 1)),
                                   (intervals.cbrt, Interval(-1, 1)),
                                   (intervals.cbrt, Interval(-2, -1))])
def test_out_of_domain_raises_value_error(fn, x):
    with pytest.raises(ValueError):
        fn(x, 64)


def test_high_precision_endpoints_parse_under_digit_limit():
    report = rep.dilatation(Word("ab"), 64, precision_bits=12288)
    payload = report.to_json_dict()
    for text in payload["lambda"] + payload["log_lambda"]:
        Fraction(text)


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
            "('mpmath', 'multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
