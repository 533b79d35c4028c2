import random
from fractions import Fraction
from math import log

import mpmath
import pytest

from multitwist import bounds, intervals
from multitwist.bounds import HypothesisViolation
from multitwist.intervals import Interval

from test_root import sqrt_interval


def _within(iv, lo, hi):
    return Fraction(lo) <= iv.lo and iv.hi <= Fraction(hi)


def _cubic(x):
    return x ** 3 + 2 * x ** 2 + x - 6


def test_surgery_lower_examples():
    assert _within(bounds.surgery_lower(4, 1).value, "0.693147", "0.693148")
    assert _within(bounds.surgery_lower(3, 2).value, "0.202732", "0.202733")
    with pytest.raises(ValueError):
        bounds.surgery_lower(2, 1)
    with pytest.raises(ValueError):
        bounds.surgery_lower(4, 3)


def test_punctured_surgery_examples():
    assert _within(bounds.punctured_surgery_lower(5).value,
                   "0.223143", "0.223144")
    eight = bounds.punctured_surgery_lower(8).value
    assert _within(eight, "0.693147", "0.693148")
    with pytest.raises(ValueError):
        bounds.punctured_surgery_lower(4)


def test_cubic_root_value():
    # bisection gives 1.2187765853, just under the 5-digit rounding 1.21878
    root = bounds.torelli_cubic_root(40)
    assert _within(root, "1.2187765", "1.2187766")
    with pytest.raises(ValueError):
        bounds.torelli_cubic_root(0)


def test_cubic_root_defining_property():
    root = bounds.torelli_cubic_root(60)
    p_lo = _cubic(root.lo)
    p_hi = _cubic(root.hi)
    assert p_lo <= 0 <= p_hi


def test_cubic_root_equals_bisection():
    # Newton's bracket is bisection's at every precision: bisection of
    # [1, 2] in Fractions has width 2^-(bits + 2) after bits + 2 halvings
    lo, hi = Fraction(1), Fraction(2)
    for halvings in range(1, 203):
        mid = (lo + hi) / 2
        if _cubic(mid) < 0:
            lo = mid
        else:
            hi = mid
        bits = halvings - 2
        if bits >= 1:
            assert bounds.torelli_cubic_root(bits) == Interval(lo, hi), bits


def test_torelli_lower():
    r = bounds.torelli_lower()
    assert r.binding_case == "case2_cubic"
    assert _within(r.value, "0.1978475", "0.1978476")
    assert r.value.lo > Fraction("0.197")
    assert r.direction == bounds.LOWER_LOG_DILATATION
    # case 1 alone is log sqrt(2)
    log2 = bounds._log_rational(2)
    case1 = Interval(log2.lo / 2, log2.hi / 2)
    assert _within(case1, "0.346573", "0.346574")
    assert r.value.hi < case1.lo
    # at level 3 case 1 is surgery(3, 2) = log(3/2)/2, still above log r
    c3 = bounds.congruence_lower(3)
    assert c3.value.hi < bounds.surgery_lower(3, 2).value.lo


def test_congruence_lower():
    c3 = bounds.congruence_lower(3)
    assert c3.value.lo > Fraction("0.197")
    assert c3.binding_case == "case2_cubic"
    c4 = bounds.congruence_lower(4)
    t = bounds.torelli_lower()
    assert c4.value.lo == t.value.lo and c4.value.hi == t.value.hi
    with pytest.raises(ValueError):
        bounds.congruence_lower(2)


def test_brunnian_matches_punctured_surgery():
    for p in range(5, 101):
        b = bounds.brunnian_lower(p)
        q = bounds.punctured_surgery_lower(p)
        assert b.value.lo == q.value.lo and b.value.hi == q.value.hi
    with pytest.raises(ValueError):
        bounds.brunnian_lower(4)


def test_tau_cc_upper_examples():
    log2 = bounds._log_rational(2)
    r = bounds.tau_cc_upper(100, log2)
    assert _within(r.value, "0.602716", "0.602717")
    assert r.direction == bounds.UPPER_TAU_C

    with pytest.raises(HypothesisViolation):
        bounds.tau_cc_upper(2, Interval.point(1))
    for log_lambda in (Interval.point(0), Interval.point(Fraction(-1, 2)),
                       Interval(Fraction(-1, 10**6), Fraction(1, 2))):
        with pytest.raises(HypothesisViolation):
            bounds.tau_cc_upper(3, log_lambda)
    with pytest.raises(ValueError) as info:
        bounds.tau_cc_upper(1, log2)
    assert not isinstance(info.value, HypothesisViolation)


def test_tau_cc_upper_matches_infs_at_g3():
    root3 = sqrt_interval(3, 128)
    log_hk = intervals.log(Interval(2 + root3.lo, 2 + root3.hi), 64)
    log_lambda = Interval(log_hk.lo / 3, log_hk.hi / 3)
    direct = bounds.tau_cc_upper(3, log_lambda)
    infs = bounds.tau_cc_infs_upper(3)
    assert direct.value.overlaps(infs.value)


def test_tau_cc_infs_examples():
    # 4*log(2+sqrt 3)/(3*log(5/2)) = 1.9163610...
    assert _within(bounds.tau_cc_infs_upper(3).value, "1.916360", "1.916362")
    assert _within(bounds.tau_cc_infs_upper(10).value, "0.233991", "0.233992")
    with pytest.raises(ValueError):
        bounds.tau_cc_infs_upper(2)


def test_tau_cc_infs_relation():
    # value * g * log(g - 1/2) = 4 * log(2 + sqrt 3)
    root3 = sqrt_interval(3, 128)
    log_hk = intervals.log(Interval(2 + root3.lo, 2 + root3.hi), 64)
    rhs = Interval(4 * log_hk.lo, 4 * log_hk.hi)
    for g in range(3, 51):
        value = bounds.tau_cc_infs_upper(g).value
        log_g = bounds._log_rational(Fraction(2 * g - 1, 2))
        # every factor is positive
        lhs = Interval(value.lo * g * log_g.lo, value.hi * g * log_g.hi)
        assert lhs.overlaps(rhs), g


def test_tau_cc_infs_is_the_closed_formula():
    # tau_cc_upper at the Hironaka-Kin dilatation gives exactly the
    # endpoints of 4*log(2 + sqrt 3)/(g*log(g - 1/2)); its hypothesis
    # check raises no HypothesisViolation at any of these g
    log_hk = bounds._log_hk()
    for g in (3, 4, 64, 10 ** 50, 10 ** 4000):
        log_g = intervals.log(Interval.point(Fraction(2 * g - 1, 2)),
                              bounds._BITS)
        value = bounds.tau_cc_infs_upper(g).value
        assert value.lo == 4 * log_hk.lo / (g * log_g.hi), g
        assert value.hi == 4 * log_hk.hi / (g * log_g.lo), g


def test_tau_cc_infs_monotone_decreasing():
    prev = bounds.tau_cc_infs_upper(3).value
    for g in range(4, 1001):
        cur = bounds.tau_cc_infs_upper(g).value
        assert cur.hi < prev.lo, g
        prev = cur


def test_hk_upper():
    assert _within(bounds.hk_upper(2).value, "0.658478", "0.658479")
    two = bounds.hk_upper(2).value
    four = bounds.hk_upper(4).value
    assert Interval(two.lo / 2, two.hi / 2).overlaps(four)
    with pytest.raises(ValueError):
        bounds.hk_upper(1)


# mpmath oracles for the closed forms: each certified interval contains
# mpmath's value at twice the precision plus 64 bits, so an endpoint taken
# from the wrong side of its formula, off by about 2^-bits, is caught

def _fraction(v):
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _contains(iv, bits, fn):
    with mpmath.workprec(2 * bits + 64):
        v = _fraction(fn())
    return iv.lo <= v <= iv.hi


def _mp_log_hk():
    return mpmath.log(2 + mpmath.sqrt(3))


def _mp_log_threshold(g):
    return mpmath.log(mpmath.mpf(2 * g - 1) / 2)


@pytest.mark.parametrize("bits", [1, 8, 60, 64, 200])
def test_cubic_root_contains_mpmath(bits):
    root = bounds.torelli_cubic_root(bits)
    assert _contains(root, bits, lambda: mpmath.findroot(
        lambda x: x ** 3 + 2 * x ** 2 + x - 6, mpmath.mpf(1.2)))


def test_tau_cc_upper_contains_mpmath():
    rng = random.Random(30)
    for _ in range(200):
        g = rng.choice([rng.randrange(2, 100), rng.randrange(2, 10 ** 6 + 1)])
        q = rng.randrange(10, 10 ** 6)
        # a rational in (0, log(g - 1/2)), clear of the threshold
        ll = Fraction(rng.randrange(1, int(q * log(g - 0.5) * 0.999)), q)
        value = bounds.tau_cc_upper(g, Interval.point(ll)).value
        assert _contains(value, bounds._BITS, lambda: 4 * mpmath.mpf(
            ll.numerator) / ll.denominator / _mp_log_threshold(g)), (g, ll)


def test_tau_cc_infs_upper_contains_mpmath():
    for g in range(3, 301):
        value = bounds.tau_cc_infs_upper(g).value
        assert _contains(value, bounds._BITS, lambda: 4 * _mp_log_hk()
                         / (g * _mp_log_threshold(g))), g


def test_hk_upper_contains_mpmath():
    for g in range(2, 301):
        value = bounds.hk_upper(g).value
        assert _contains(value, bounds._BITS, lambda: _mp_log_hk() / g), g


def test_bound_ordering():
    assert (bounds.torelli_lower().value.hi
            < bounds.surgery_lower(4, 1).value.lo)


def test_bound_result_json():
    d = bounds.torelli_lower().to_json_dict()
    assert d["direction"] == bounds.LOWER_LOG_DILATATION
    assert d["binding_case"] == "case2_cubic"
    lo, hi = d["bound"]
    assert Fraction(lo) <= Fraction(hi)
    assert "trivially on integral first homology" in d["validity_note"]


def test_bound_result_rejects_wide_interval():
    with pytest.raises(ValueError):
        bounds.BoundResult(Interval(Fraction(0), Fraction(1)),
                           bounds.LOWER_LOG_DILATATION, "too wide")


def test_interval_endpoints_are_exact():
    iv = Interval(1, 2)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert Interval.point(3) == Interval(Fraction(3), Fraction(3))
    with pytest.raises(TypeError):
        Interval(0.1, 0.2)
    with pytest.raises(TypeError):
        Interval(Fraction(0), 0.5)
    with pytest.raises(TypeError):
        Interval.point(0.5)


@pytest.mark.parametrize("x", [0, 7, -62, 10 ** 40, Fraction(-3, 7),
                               Fraction(2 ** 100 + 1, 3 ** 50), Fraction(5)])
def test_decimal_str_matches_str(x):
    assert intervals.decimal_str(x) == str(x)


# the relative width allowed to a BoundResult
_BOUND_WIDTH = Fraction(1, 2 ** 40)


def _too_wide(lo: Fraction, hi: Fraction) -> bool:
    """The relative-width rule of BoundResult, in Fractions."""
    return (hi - lo) / max(Fraction(1), abs(lo), abs(hi)) > _BOUND_WIDTH


def _bound_refused(lo: Fraction, hi: Fraction) -> bool:
    try:
        bounds.BoundResult(Interval(lo, hi), bounds.LOWER_LOG_DILATATION,
                           "width test")
    except ValueError:
        return True
    return False


def test_bound_width_test_matches_fractions():
    rng = random.Random(12)
    rel = _BOUND_WIDTH
    cases = []
    for _ in range(300):
        den = rng.choice((1, 3, 2 ** 64, 10 ** 15 + 7,
                          rng.randint(1, 10 ** 30)))
        ulp = Fraction(1, den * rng.choice((1, 10 ** 20, 2 ** 90)))
        lo = Fraction(rng.randint(-10 ** 20, 10 ** 20), den)
        # at the width limit, and one ulp on either side: a scale of 1
        # (|endpoints| < 1, crossing 0 or not), of hi or of -lo
        small = Fraction(rng.randint(-10 ** 12, 10 ** 12), 10 ** 13 + 1)
        edges = [(small, small + rel)]
        if lo > 0:
            edges.append((lo, lo / (1 - rel)))
        elif lo < 0:
            edges.append((lo, lo * (1 - rel)))
        for a, b in edges:
            cases += [(a, b), (a, b - ulp), (a, b + ulp)]
        # and arbitrary widths, crossing 0 or not
        hi = lo + Fraction(rng.randint(0, 10 ** 12), den) * rng.choice(
            (1, rel, rel * rel))
        cases += [(lo, hi), (-hi, -lo), (lo / 10 ** 25, hi / 10 ** 25)]
    verdicts = set()
    for lo, hi in cases:
        if lo <= hi:
            assert _bound_refused(lo, hi) == _too_wide(lo, hi), (lo, hi)
            verdicts.add(_too_wide(lo, hi))
    assert verdicts == {True, False}
    # exactly at the limit a bound is accepted, over a denominator that
    # is not a power of two
    lo, hi = Fraction(-1, 3 * 2 ** 40), Fraction(2, 3 * 2 ** 40)
    assert not _bound_refused(lo, hi)
    assert _bound_refused(lo, hi + Fraction(1, 10 ** 40))
