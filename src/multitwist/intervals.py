"""Rational interval arithmetic with certified sqrt, cbrt, and log.

Endpoints are exact Fractions.  Ring operations are exact; the radical
and transcendental functions return enclosures whose width is controlled
by a bit count, computed in integer fixed point with the standard library
alone.  sqrt and cbrt take integer roots with an exact check of the last
digit; log reduces its argument by repeated square roots and sums the
atanh series, counting every rounding in units of the last place (Brent,
"Fast multiple-precision evaluation of elementary functions", J. ACM 23,
1976).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import isqrt


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

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def relative_width(self) -> Fraction:
        scale = max(Fraction(1), abs(self.lo), abs(self.hi))
        return self.width / scale

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

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

    def __rtruediv__(self, other):
        return _coerce(other) / self

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
    """(low, err) with low <= ln(2) * 2^w <= low + err, as 2 atanh(1/3)."""
    total, power, k = 0, (1 << w) // 3, 1
    while power:
        # power = floor(2^w / 3^k), so each term is an exact floor
        total += power // k
        power //= 9
        k += 2
    # k // 2 terms, each low by less than 1; once 3^k > 2^w the terms
    # left sum to less than 9/8 / k < 1
    return 2 * total, 2 * (k // 2) + 2


def _log_precision(bits: int, e: int) -> tuple[int, int]:
    """Working precision w, a multiple of 64, and square-root count for
    the log of 2^e * y, 1 <= y < 2, to within 2^-bits."""
    # about sqrt(w)/3 roots measured fastest; the cap keeps w <= bits + 256
    roots = min(isqrt(bits) // 3 + 1, 128)
    # _log_fixed's error count is below 2^(max(roots + 1, len(e)) + 1) * w
    guard = (max(roots + 1, abs(e).bit_length())
             + (bits + 512).bit_length() + 2)
    return -(-(bits + guard) // 64) * 64, roots


def _log_fixed(p: int, q: int, e: int, w: int, roots: int) -> tuple[int, int]:
    """(low, err) with low <= ln(p/q) * 2^w <= low + err, where
    p/q = 2^e * y and 1 <= y < 2."""
    one = 1 << w
    shift = w - e
    z = (p << shift) // q if shift >= 0 else p // (q << -shift)
    # z = floor(y * 2^w).  Each square root floors, losing less than an
    # ulp, and halves the error it inherits, so at the end
    # z <= y^(1/2^roots) * 2^w < z + 2
    for _ in range(roots):
        z = isqrt(z << w)
    # ln(u) = 2 atanh((u - 1)/(u + 1)) for u = z / 2^w; s is the floor of
    # (u - 1)/(u + 1) < 1/3 in fixed point
    s = ((z - one) << w) // (z + one)
    s2 = s * s >> w
    total, power, k = 0, s, 1
    while power:
        # power is at most (s / 2^w)^k * 2^w and less than 3 below it
        total += power // k
        power = power * s2 >> w
        k += 2
    # k // 2 terms, each low by less than 2 ulps; once power is 0 the
    # terms left sum to less than 2, and flooring s costs less than 2:
    # atanh(s) * 2^w <= total + 2 (k // 2) + 4.  Doubling and the gap
    # of 2 ulps in z give ln(y^(1/2^roots)), then scale by 2^roots.
    low = (2 * total) << roots
    err = (4 * (k // 2) + 10) << roots
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
    w, roots = _log_precision(bits, e)
    low, err = _log_fixed(p, q, e, w, roots)
    if err >= 1 << (w - bits):
        raise PrecisionError(f"log error count {err} exceeds 2^-{bits}")
    # ceil((x.hi - x.lo) / x.lo * 2^w)
    gap = x.hi.numerator * q - p * x.hi.denominator
    spread = -(-(gap << w) // (x.hi.denominator * p))
    one = 1 << w
    return Interval(Fraction(low, one), Fraction(low + err + spread, one))
