"""Rational interval arithmetic with certified sqrt, cbrt, and log.

Endpoints are exact Fractions.  Ring operations are exact; the
transcendental/radical functions return enclosures whose width is
controlled by a bit count.  sqrt is done with integer isqrt; log and
cbrt go through mpmath's interval context with outward rounding, with
endpoints pulled back to exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import mpmath


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


def _frac_from_mpf_tuple(m) -> Fraction:
    sign, man, exp, _bc = m
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def _iv_endpoints(x) -> tuple[Fraction, Fraction]:
    a, b = x._mpi_
    return _frac_from_mpf_tuple(a), _frac_from_mpf_tuple(b)


def _iv_of_fraction(f: Fraction, ctx):
    # integer conversion and division both round outward in the iv context
    return ctx.mpf(f.numerator) / ctx.mpf(f.denominator)


def _monotone_via_mpmath(fname: str, x: Interval, bits: int,
                         domain_check, slope_bound) -> Interval:
    domain_check(x)
    # the function's own spread over x is irreducible; only the rounding
    # slack is required to shrink below 2^-bits
    budget = x.width * slope_bound + Fraction(1, 2 ** bits)
    prec = bits + 30
    for _ in range(8):
        ctx = mpmath.iv
        old = ctx.prec
        try:
            ctx.prec = prec
            if fname == "cbrt":
                def func(v, _ctx=ctx):
                    return _ctx.exp(_ctx.log(v) / 3)
            else:
                func = getattr(ctx, fname)
            lo = _iv_endpoints(func(_iv_of_fraction(x.lo, ctx)))[0]
            hi = _iv_endpoints(func(_iv_of_fraction(x.hi, ctx)))[1]
        finally:
            ctx.prec = old
        result = Interval(lo, hi)
        if result.width <= budget:
            return result
        prec *= 2
    raise PrecisionError(f"{fname} enclosure did not converge at {bits} bits")


def log(x: Interval, bits: int) -> Interval:
    """Enclosure of the natural log; x must be strictly positive."""

    def check(v):
        if v.lo <= 0:
            raise ValueError("log requires a strictly positive interval")

    return _monotone_via_mpmath("log", x, bits, check, 1 / x.lo)


def cbrt(x: Interval, bits: int) -> Interval:
    def check(v):
        if v.lo < 0:
            raise ValueError("cbrt enclosure implemented for x >= 0 only")

    # d/dx x^(1/3) = 1/(3 x^(2/3)) <= max(1, 1/(3*x.lo)) for x > 0
    slope = Fraction(1) if x.lo == 0 else max(Fraction(1), 1 / (3 * x.lo))
    return _monotone_via_mpmath("cbrt", x, bits, check, slope)
