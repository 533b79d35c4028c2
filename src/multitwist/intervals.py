"""Rational interval arithmetic with certified sqrt, cbrt, and log.

Endpoints are exact Fractions.  Ring operations are exact; the radical
and transcendental functions return enclosures whose width is controlled
by a bit count, computed in integer fixed point with the standard library
alone.  sqrt and cbrt take integer roots with an exact check of the last
digit.  log reduces its argument by a few square roots, about
bits^(1/3) / 3 of them (Brent, "Fast multiple-precision evaluation of
elementary functions", J. ACM 23, 1976), and sums the atanh series by
rectangular splitting, which needs about twice the square root of the
term count in full products (Smith, "Efficient multiple-precision
evaluation of elementary functions", Math. Comp. 52, 1989; Brent and
Zimmermann, "Modern Computer Arithmetic", 2010, section 4.4.3); ln 2 is
2 atanh(1/3) summed by binary splitting.  Every rounding is counted in
units of the last place, and the guard bits follow from those counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import floordiv


class PrecisionError(Exception):
    """Raised when a requested enclosure width cannot be met."""


def decimal_str(x) -> str:
    """str(x) of an int or Fraction, at any number of digits.

    str() refuses ints beyond sys.get_int_max_str_digits(); converting
    through Decimal, which is exact for ints, leaves that process-wide
    limit alone.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(Decimal(x.numerator))
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    return str(Decimal(x))


def float_str(x: Fraction) -> str:
    """repr(float(x)), or 17 significant digits past the float range."""
    try:
        return repr(float(x))
    except OverflowError:
        return f"{Decimal(x.numerator) / x.denominator:.16e}"


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact endpoints: Fractions, or ints, which are
    converted to Fractions.  Floats are refused."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        for name in ("lo", "hi"):
            x = getattr(self, name)
            if isinstance(x, Fraction):
                continue
            if not isinstance(x, int):
                raise TypeError(f"interval endpoint {x!r} is not an int "
                                f"or a Fraction")
            object.__setattr__(self, name, Fraction(x))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def relative_width(self) -> Fraction:
        scale = max(Fraction(1), abs(self.lo), abs(self.hi))
        return self.width / scale

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        products = [self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi]
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by interval containing 0")
        return self * Interval(1 / other.hi, 1 / other.lo)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def as_floats(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def sqrt_fraction(x: Fraction, bits: int) -> Interval:
    """Enclosure of sqrt(x) of absolute width <= 2^-bits, x >= 0."""
    if x < 0:
        raise ValueError("sqrt of negative value")
    if x == 0:
        return Interval.point(0)
    p, q = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q; scale by 4^bits so isqrt gives width 1/(q*2^bits)
    scaled = p * q << (2 * bits)
    s = isqrt(scaled)
    denom = q << bits
    lo = Fraction(s, denom)
    hi = lo if s * s == scaled else Fraction(s + 1, denom)
    return Interval(lo, hi)


def sqrt(x: Interval, bits: int) -> Interval:
    if x.lo < 0:
        raise ValueError("sqrt of interval with negative lower endpoint")
    return Interval(sqrt_fraction(x.lo, bits + 1).lo,
                    sqrt_fraction(x.hi, bits + 1).hi)


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an int n >= 0, by Newton's method from above."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def cbrt(x: Interval, bits: int) -> Interval:
    """Enclosure of the cube root, x >= 0, of width at most
    2^-bits + cbrt(x.hi) - cbrt(x.lo).  The cube of a multiple of
    2^-(bits + 2) gives a point."""
    if x.lo < 0:
        raise ValueError("cbrt enclosure implemented for x >= 0 only")
    # each endpoint is off by less than two units of 2^-b: one from
    # rounding x to the grid 2^-3b, one from the integer cube root
    b = bits + 2
    lo = (x.lo.numerator << 3 * b) // x.lo.denominator
    hi = -(-(x.hi.numerator << 3 * b) // x.hi.denominator)
    root_hi = _icbrt(hi)
    if root_hi ** 3 != hi:
        root_hi += 1
    return Interval(Fraction(_icbrt(lo), 1 << b), Fraction(root_hi, 1 << b))


@lru_cache(maxsize=16)
def _ln2(w: int) -> tuple[int, int]:
    """(low, err) with low <= ln(2) * 2^w <= low + err, as 2 atanh(1/3)
    summed by binary splitting."""
    # log2(9) > 3.1699, so 9^n >= 2^w, and the terms from k = n on of
    # 2 atanh(1/3) = (2/3) sum_k 9^-k / (2k + 1) sum to less than
    # (2/3) (9/8) 9^-n / 3 = 9^-n / 4 <= 2^-w / 4
    n = w * 10000 // 31699 + 1
    b, q, t = _atanh_third_split(0, n)
    # the first n terms are (2/3) t / (b q) exactly, and one floor loses
    # less than 1: ln(2) * 2^w < low + 1 + 1/4
    return (t << (w + 1)) // (3 * b * q), 2


def _atanh_third_split(a: int, c: int) -> tuple[int, int, int]:
    """(B, Q, T) with sum_{a <= k < c} 9^(a - k) / (2k + 1) = T / (B Q),
    B = (2a + 1)(2a + 3)...(2c - 1) and Q = 9^(c - a - 1)."""
    if c - a == 1:
        return 2 * a + 1, 1, 1
    mid = (a + c) // 2
    b1, q1, t1 = _atanh_third_split(a, mid)
    b2, q2, t2 = _atanh_third_split(mid, c)
    # the right half is scaled by 9^(a - mid) = 1 / (9 q1)
    return b1 * b2, 9 * q1 * q2, 9 * t1 * b2 * q2 + b1 * t2


def _log_precision(bits: int, e: int) -> tuple[int, int, int]:
    """Working precision w, a multiple of 64, square-root count and series
    block size for the log of 2^e * y, 1 <= y < 2, to within 2^-bits."""
    # A root costs about three and a half w x w products, and r roots
    # leave about bits / (2r + 2) series terms, summed with about twice
    # their square root of products; bits^(1/3) / 3 roots balances the
    # two, and the cap keeps w <= bits + 256
    roots = min(_icbrt(bits) // 3 + 1, 128)
    block = isqrt(bits // (2 * roots + 2)) + 1
    # _log_fixed's error count is (2 block + 10) 2^roots + 2 |e|, the 2
    # being _ln2's; each part is below 2^(guard - 1)
    guard = max(roots + (2 * block + 10).bit_length(),
                (2 * abs(e)).bit_length()) + 1
    return -(-(bits + guard) // 64) * 64, roots, block


def _log_fixed(p: int, q: int, e: int, w: int, roots: int,
               block: int) -> tuple[int, int]:
    """(low, err) with low <= ln(p/q) * 2^w <= low + err, where
    p/q = 2^e * y and 1 <= y < 2.

    Every step floors a nonnegative value, so no computed value exceeds
    the exact one it stands for; the comments count by how much each can
    fall short, in ulps of 2^-w.
    """
    one = 1 << w
    shift = w - e
    z = (p << shift) // q if shift >= 0 else p // (q << -shift)
    # z = floor(y * 2^w).  Each square root floors, losing less than an
    # ulp, and halves the error it inherits, as sqrt(a) - sqrt(b) <=
    # (a - b)/2 for a > b >= 1; so at the end, for v = y^(1/2^roots),
    # z <= v * 2^w < z + 2
    for _ in range(roots):
        z = isqrt(z << w)
    # ln(u) = 2 atanh(t) for u = z / 2^w in [1, 2) and t = (u - 1)/(u + 1)
    # < 1/3; s = floor(t * 2^w) is low by less than 1
    s = ((z - one) << w) // (z + one)
    # atanh(t) = t * sum_k t^2k / (2k + 1), summed for the floored s by
    # rectangular splitting (Smith, Math. Comp. 52, 1989; Brent and
    # Zimmermann, Modern Computer Arithmetic, 4.4.3).  With the powers
    # 1, s2, ..., s2^(block - 1) of s2 = s^2 / 2^w, block b is an inner
    # sum of one small division per term, and the blocks are joined by
    # Horner's rule in s2^block.  s < 2^L, so n terms with 2n (w - L) >= w
    # leave a tail of at most (s / 2^w)^2n (9/8) / 3 < 2^-w, below 1.
    s2 = s * s >> w
    n = -(-w // (2 * (w - s.bit_length())))
    block = min(block, n)
    powers = [one, s2]
    for _ in range(block - 1):
        powers.append(powers[-1] * s2 >> w)
    # Every power is low by less than 2, by induction: s2 loses less
    # than 1 in its floor, and a later power less than 1 in its floor,
    # 2 s2 / 2^w < 2/9 from the power before it, and that power over
    # 2^w, at most 1/9, from s2.
    step = powers.pop()
    acc = 0
    for b in reversed(range(-(-n // block))):
        d = 2 * b * block + 1
        # Each term of the inner sum is low by less than 2: the floor,
        # plus a power low by less than 2 over a divisor of at least 3
        # (the first power is exact).  acc <= (9/8) 2^w, and multiplying
        # it by step, low by less than 2, then flooring loses less than
        # 9/4 + 1, while the error acc carries shrinks by the factor
        # (s / 2^w)^2block < 1/9.  So acc ends low by less than
        # (9/8)(2 block + 13/4) < 3 block + 4.
        acc = (acc * step >> w) + sum(
            map(floordiv, powers, range(d, d + 2 * block, 2)))
    # total = floor(s * acc / 2^w): the error of acc and the tail, times
    # s / 2^w < 1/3, and the floor lose less than (3 block + 5)/3 + 1,
    # and t - s / 2^w < 2^-w adds less than 1 / (1 - t^2) < 9/8, so
    # atanh(t) * 2^w < total + block + 4.  Doubling, and ln(v) - ln(u)
    # <= (v - u) / u < 2 for the gap in z, give ln(v) * 2^w < 2 total +
    # 2 block + 10; scale by 2^roots for ln(y).
    total = s * acc >> w
    low = (2 * total) << roots
    err = (2 * block + 10) << roots
    ln2, ln2_err = _ln2(w)
    return low + e * ln2 + min(e, 0) * ln2_err, err + abs(e) * ln2_err


def log(x: Interval, bits: int) -> Interval:
    """Enclosure of the natural log; x must be strictly positive.

    log(x.lo) is enclosed once; the upper endpoint adds x.width / x.lo
    rounded up, as log b - log a <= (b - a)/a.  Endpoints are k / 2^w
    with w <= bits + 256, and the width is at most
    2^-bits + x.width / x.lo.
    """
    if x.lo <= 0:
        raise ValueError("log requires a strictly positive interval")
    p, q = x.lo.numerator, x.lo.denominator
    # x.lo = 2^e * y with 1 <= y < 2
    e = p.bit_length() - q.bit_length()
    if (p << max(-e, 0)) < (q << max(e, 0)):
        e -= 1
    w, roots, block = _log_precision(bits, e)
    low, err = _log_fixed(p, q, e, w, roots, block)
    if err >= 1 << (w - bits):
        raise PrecisionError(f"log error count {err} exceeds 2^-{bits}")
    # ceil((x.hi - x.lo) / x.lo * 2^w)
    gap = x.hi.numerator * q - p * x.hi.denominator
    spread = -(-(gap << w) // (x.hi.denominator * p))
    one = 1 << w
    return Interval(Fraction(low, one), Fraction(low + err + spread, one))
