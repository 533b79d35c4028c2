"""Closed intervals with exact endpoints, certified roots of int
polynomials, and the certified log of an interval from k / 2^j.

An Interval is a validated pair of Fraction endpoints with no arithmetic
of its own: each caller writes the endpoints of its formula from the
formula's monotonicity and sign.  unit_root takes the larger root of
x^2 - t x + 1 (each dilatation, and 2 + sqrt(3)) to a grid 2^-bits in
closed form, by one exact isqrt or none.  root takes any other root of
an int polynomial (the Torelli cubic's) there by Newton's method and
certifies it by an exact sign check in ints (Yap, "Fundamental Problems
of Algorithmic Algebra", 2000).  log takes a lower endpoint k / 2^j,
as every caller's is, to integer fixed point by a shift, and reduces it
by r square roots (Brent, J. ACM 23, 1976): up to 512 bits, about
bits^(1/3) / 3 of them by isqrt at the working precision; above,
bits.bit_length() + 1 of them by isqrt at no more than 512 bits, lifted
to the working precision by Newton's method for the inverse root, which
takes products only (Brent and Zimmermann, "Modern Computer Arithmetic",
2010, 4.2.3), each level's first squaring at half the width.  It then
sums the atanh series by rectangular splitting (Smith, Math. Comp. 52,
1989; Brent and Zimmermann 4.4.3), with one small division per term and
the even powers by squaring, counting every rounding in ulps.

Endpoints k / 2^j are built in lowest terms without a gcd.  A pair goes
over a common denominator to check its order and relative width: the
larger 2^j by shifts, or the product for the bounds' rationals.  A
dyadic pair prints from one Decimal conversion of its lower numerator;
above 3072 bits an int converts by halves joined by exact products, as
Decimal(n) takes quadratic time.  sqrt_fraction, sqrt and cbrt are stubs
that raise, kept as patch targets of the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import floordiv


class PrecisionError(ArithmeticError):
    """Raised when a requested enclosure width cannot be met."""


def decimal_str(x) -> str:
    """str(x) of an int or Fraction, at any number of digits.

    str() refuses ints beyond sys.get_int_max_str_digits(); converting
    through Decimal, which is exact for ints, leaves that process-wide
    limit alone.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(_decimal(x.numerator))
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
    return str(_decimal(x))


def float_str(x: Fraction) -> str:
    """repr(float(x)), or 17 significant digits past the float range."""
    try:
        return repr(float(x))
    except OverflowError:
        return f"{_decimal(x.numerator) / _decimal(x.denominator):.16e}"


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
        # dyadic endpoints compare by shifts, not Fraction's products
        lo, hi, _ = _scaled_pair(self.lo, self.hi)
        if lo > hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def as_floats(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


def dyadic(k: int, e: int) -> Fraction:
    """k / 2^e in lowest terms, for e >= 0, without Fraction's gcd: once
    the trailing zero bits of k are stripped, k and 2^e share no factor."""
    if k == 0:
        return Fraction(0)
    shift = min((k & -k).bit_length() - 1, e)
    x = object.__new__(Fraction)
    # the two slots that Fraction.__new__ fills after its gcd
    x._numerator, x._denominator = k >> shift, 1 << (e - shift)
    return x


def _scaled_pair(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(x d, y d, d) in ints for a common denominator d of x and y: the
    larger, by shifts, if both are powers of two, else their product."""
    q, r = x.denominator, y.denominator
    if q & (q - 1) or r & (r - 1):
        return x.numerator * r, y.numerator * q, q * r
    d = max(q, r)
    return (x.numerator << d.bit_length() - q.bit_length(),
            y.numerator << d.bit_length() - r.bit_length(), d)


def relative_width_within(iv: Interval, bits: int) -> bool:
    """width / max(1, |lo|, |hi|) <= 2^-bits in ints over _scaled_pair's
    denominator: by shifts for dyadic endpoints, products for others."""
    lo, hi, d = _scaled_pair(iv.lo, iv.hi)
    # width / max(1, |lo|, |hi|), all over d; |lo|, |hi| <= max(-lo, hi)
    return (hi - lo) << bits <= max(d, -lo, hi)


# exact Decimal arithmetic on ints of any size; an inexact result raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT.traps[Inexact] = True


@lru_cache(maxsize=32)
def _decimal_pow2(e: int) -> Decimal:
    """2^e as a Decimal; requests at one precision share their e but for
    the zeros that lowest terms strip (14-21 e a perfbench certify pass),
    and _decimal splits every int at the same few powers of two."""
    return _EXACT.power(2, e)


def _decimal(n: int) -> Decimal:
    """Decimal(n), exactly.  Above 3072 bits n is split at the largest
    power of two h below its bit length, and the halves are joined by an
    exact product with 2^h, so the cost is that of a few products of
    Decimals (Brent and Zimmermann 1.7; CPython 3.12 _pylong), not the
    quadratic one of Decimal(n)."""
    if n < 0:
        return _decimal(-n).copy_negate()
    size = n.bit_length()
    if size <= 3072:
        return Decimal(n)
    h = 1 << (size - 1).bit_length() - 1
    return _EXACT.add(_EXACT.multiply(_decimal(n >> h), _decimal_pow2(h)),
                      _decimal(n & ((1 << h) - 1)))


def endpoint_strs(iv: Interval) -> list[str]:
    """[decimal_str(iv.lo), decimal_str(iv.hi)], converting one int.

    For endpoints k / 2^j, over _scaled_pair's common 2^e, the lower
    numerator is converted to Decimal, the upper one is that plus the gap,
    and each endpoint's lowest-terms numerator and denominator are those
    divided by 2^(e - j).  Over a product of other denominators, an
    interval is printed endpoint by endpoint.
    """
    a, b, d = _scaled_pair(iv.lo, iv.hi)
    if d & (d - 1):
        return [decimal_str(iv.lo), decimal_str(iv.hi)]
    e, j_lo, j_hi = (n.bit_length() - 1
                     for n in (d, iv.lo.denominator, iv.hi.denominator))
    num_lo, den = _decimal(a), _decimal_pow2(e)
    return [_lowest_terms_str(num_lo, den, e, j_lo),
            _lowest_terms_str(_EXACT.add(num_lo, b - a), den, e, j_hi)]


def _lowest_terms_str(num: Decimal, den: Decimal, e: int, j: int) -> str:
    """decimal_str of num / den = num / 2^e, whose lowest terms are over
    2^j, j <= e."""
    if j < e:
        cut = den if j == 0 else _EXACT.power(2, e - j)
        num = _EXACT.divide_int(num, cut)
        den = _EXACT.divide_int(den, cut)
    return f"{num}/{den}" if j else str(num)


def sqrt_fraction(n: int, bits: int) -> Interval:
    raise NotImplementedError("a patch target of the benchmark's tracer")


def sqrt(x: Interval, bits: int) -> Interval:
    raise NotImplementedError("a patch target of the benchmark's tracer")


def cbrt(x: Interval, bits: int) -> Interval:
    raise NotImplementedError("a patch target of the benchmark's tracer")


def _horner(coeffs: list[int], k: int, e: int) -> int:
    """2^(n e) f(k / 2^e) for f of degree n, int coefficients leading first."""
    acc = 0
    for i, c in enumerate(coeffs):
        acc = acc * k + (c << e * i)
    return acc


def _newton(coeffs: list[int], lo: int, bits: int) -> int:
    """An int k with floor(root * 2^bits) <= k < root * 2^bits + 1: one
    Newton step over 2^-bits from the estimate over 2^-p, p = bits // 2 + 1,
    or from lo + 1 at bits <= 2 (Brent and Zimmermann 4.2).

    A step x - f(x) / f'(x) from an error e leaves c e^2, c = f''(y) /
    (2 f'(x)) for a y between x and the root: c >= 0 where f increases
    and is convex, so the step lands at or right of the root.  Where also
    c < 1, as near the Torelli cubic's root (at most 0.55), an error below
    2^-p leaves less than 2^-(bits + 1), plus 2^-(bits + 1) from rounding.
    """
    p = bits // 2 + 1
    k = (lo + 1) << bits if bits <= 2 else _newton(coeffs, lo, p) << bits - p
    n = len(coeffs) - 1
    d = _horner([c * (n - i) for i, c in enumerate(coeffs[:-1])], k, bits)
    # 2^bits f(x) / f'(x) is _horner(f) / _horner(f'), rounded to nearest
    return k - (2 * _horner(coeffs, k, bits) + d) // (2 * d)


def root(coeffs: list[int], lo: int, bits: int) -> Interval:
    """[k, k + 1] / 2^bits, or the point k / 2^bits, around the root in
    (lo, lo + 1) of f, with int coefficients leading first, which must
    increase and be convex there with f(lo) < 0 < f(lo + 1), as each
    caller proves.  k is _newton's estimate with two guard bits, floored,
    less at most one step; the certificate is the exact sign check
    f(k / 2^bits) <= 0 < f((k + 1) / 2^bits), a Horner pass in ints at
    each, and a k that fails it raises ValueError."""
    k = _newton(coeffs, lo, bits + 2) >> 2
    low, high = _horner(coeffs, k, bits), _horner(coeffs, k + 1, bits)
    if low > 0:
        k, low, high = k - 1, _horner(coeffs, k - 1, bits), low
    if not low <= 0 < high:
        raise ValueError(f"no sign change at {k} / 2^{bits}: f is not "
                         f"increasing and convex on ({lo}, {lo + 1})")
    return Interval(dyadic(k, bits), dyadic(k + (low < 0), bits))


def unit_root(t: int, e: int) -> Interval:
    """[k, k + 1] / 2^e, k = floor(lambda 2^e), for lambda the root of
    x^2 - t x + 1 in (t - 1, t) and an int t >= 3; t <= 2 raises ValueError.

    lambda = (t + sqrt(t^2 - 4)) / 2, and t^2 - 4 = s^2 would make t - s
    and t + s, of one parity, multiply to 4, so t = 2.  So lambda 2^e is
    irrational, k < lambda 2^e < k + 1, and m = isqrt((t^2 - 4) 4^e) is
    below that square root by f, 0 < f < 1: k = floor((N + f) / 2) for the
    int N = t 2^e + m, which is N >> 1, as N + f stays below the next even
    int above N.  For t >= 2^(e + 1), lambda > t - 1 >= 2^e, so lambda 2^e
    = t 2^e - 2^e / lambda lies in (t 2^e - 1, t 2^e), and k = t 2^e - 1
    takes no isqrt of twice the size of t.
    """
    if t <= 2:
        raise ValueError(f"x^2 - {t} x + 1 has no root above 1")
    if t.bit_length() > e + 1:
        k = (t << e) - 1
    else:
        k = ((t << e) + isqrt((t * t - 4) << 2 * e)) >> 1
    return Interval(dyadic(k, e), dyadic(k + 1, e))


@lru_cache(maxsize=16)
def _ln2(w: int) -> tuple[int, int]:
    """(low, err) with low <= ln(2) * 2^w <= low + err, as 2 atanh(1/3)
    summed by binary splitting."""
    # log2(9) > 3.1699, so 9^n >= 2^w, and the terms from k = n on of
    # 2 atanh(1/3) = (2/3) sum_k 9^-k / (2k + 1) sum to less than
    # (2/3) (9/8) 9^-n / 3 = 9^-n / 4 <= 2^-w / 4
    n = w * 10000 // 31699 + 1
    b, q, t = _atanh_third_split(0, n)
    # the first n terms are (2/3) t / (b q) = N / D exactly, for N =
    # 2 t 2^w and D = 3 b q.  Dividing N rounded down by D rounded up, both
    # cut by m bits to leave D' >= 2^(w + 63), loses less than (N / D + 1)
    # / D' < 2^-62, as N / D < 2^w; the floor loses less than 1 more:
    # ln(2) * 2^w < low + 1 + 2^-62 + 1/4
    d = 3 * b * q
    m = max(d.bit_length() - w - 64, 0)
    return ((t << (w + 1)) >> m) // -(-d >> m), 2


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


# Requests of at most this many bits take their square roots at the
# working precision; above it _inverse_root takes them at no more than
# this precision and lifts them
_ROOT_BITS = 512


def _log_precision(bits: int, e: int) -> tuple[int, int, int, int]:
    """Working precision w, a multiple of 64, square-root count, series
    block size, and the most precision at which the square roots are
    taken (w, or _ROOT_BITS above that many bits), for the log of
    2^e * y, 1 <= y < 2, to within 2^-bits."""
    # r roots leave about n = bits / (2r + 2) series terms.  By isqrt a
    # root costs about three and a half w x w products, and bits^(1/3) / 3
    # roots balance the two.  Lifted, a doubling step costs r squarings
    # and two products, so a root costs about 1.5 products at 12288 bits
    # and more of them pay.  Timed log kernels at 4096, 12288 and 32768
    # bits: bits.bit_length() + 0 to + 5 roots within 7% of each other,
    # and + 1 faster than the isqrt rule by 22%, 29% and 34%.  From 513 to
    # 640 bits both rules take 30-45 us, and the isqrt rule stays up to
    # _ROOT_BITS bits.  The series forms block full products for its
    # powers, and n / block Horner products whose width falls linearly
    # from w to 0, which cost about a third of a full one each; block
    # about sqrt(n / 2) balances the two.  Timed log kernels: the rule's
    # block, 9, 14 and 30 at 4096, 12288 and 65536 bits, beat half of it
    # by 0.5-2.7% (tied at 65536 bits) and twice it by 8-23%.
    lifted = bits > _ROOT_BITS
    roots = (bits.bit_length() + 1 if lifted
             else next(r for r in range(1, 4) if 27 * r ** 3 > bits))
    block = isqrt(bits // (4 * roots + 4)) + 1
    # _log_fixed's error count is (2 block + 10 + lifted) 2^roots + 2 |e|,
    # the 2 being _ln2's; each part is below 2^(guard - 1)
    guard = max(roots + (2 * block + 10 + lifted).bit_length(),
                (2 * abs(e)).bit_length()) + 1
    w = -(-(bits + guard) // 64) * 64
    return w, roots, block, _ROOT_BITS if lifted else w


def _inverse_root(z: int, w: int, roots: int, start: int) -> int:
    """An int x with x* 2^w + 1 - 2^-6 < x < x* 2^w + 3 + 2^-7, for
    x* = y^(-1/N), N = 2^roots >= 2^11 and z = floor(y * 2^w),
    1 <= y < 2, where start < w.

    Newton's method for the inverse root, x <- x + x (1 - y x^N) / N,
    needs products only (Brent and Zimmermann 4.2.3), and doubles the
    precision at each step.  Going down from w, each precision p is
    ceil((P + roots + 8) / 2) for the one above it, P, until one is at
    most start; the lift runs back up that chain.  At its foot p,
    x0 = floor(2^2p / v) for v taken by roots floored square roots of
    floor(y * 2^p): as for the roots in _log_fixed, v <= 2^p / x* < v + 2,
    so x0 is within 2 + 2^-5 of x* 2^p, as p >= 9.

    A step from x within 2 + 2^-5 of x* 2^p to P, 2p >= P + roots + 8,
    has u = x / 2^p.  With u^N < (1 + 2^-200) / y, which holds as p >=
    256, every factor 1 + 2^-200 below is dropped.  Counting in ulps of
    2^-P:
    - The squarings floor, and leave pw low by less than u^N 2^P d,
      d = sum_i 2^(roots - i) / (u^(2^i) 2^P) over i = 1..roots, as a
      floor loses less than 1 and squaring doubles a relative error.
    - a, floor of floor(y 2^P) pw / 2^P, is below y u^N 2^P by less than
      u^N + y u^N 2^P d + 1 < N + roots + 1: the middle term is the sum
      of 2^(roots - i) y^(2^i / N) <= 2^(roots - i) (1 + 2^i / N), as
      y^c <= 1 + c (y - 1) for 0 <= c <= 1.
    - The step x 2^(P - p) + floor(x (2^P - a) / 2^(p + roots)) then
      lies above g(u) 2^P - 1 and below g(u) 2^P + u (N + roots + 1) / N,
      which is below 1 + 2^-7 for roots >= 11; g(u) = u + u (1 - y u^N)
      / N is the exact step.
    - For u = x* (1 + c), x* - g(u) = x* ((1 + c)^(N + 1) - 1 -
      (N + 1) c) / N, at least 0 and at most x* (N + 1) c^2 / 2, below
      (N + 1) (2 + 2^-5)^2 2^(P - 2p) / (2 x*) < 2^-6.
    So x ends within -1 - 2^-6 and 1 + 2^-7 of x* 2^P, inside the
    2 + 2^-5 that the next step needs, and 2 is added at the end.
    """
    precisions = [w]
    while precisions[-1] > start:
        precisions.append((precisions[-1] + roots + 9) // 2)
    p = precisions.pop()
    v = z >> (w - p)
    for _ in range(roots):
        v = isqrt(v << p)
    x = (1 << 2 * p) // v
    for top in reversed(precisions):
        # the first squaring, of x << (top - p) shifted right by top, is
        # x * x shifted right by 2p - top > 0, at half the width
        pw = x * x >> (2 * p - top)
        for _ in range(roots - 1):
            pw = pw * pw >> top
        a = (z >> (w - top)) * pw >> top
        x = (x << (top - p)) + (x * ((1 << top) - a) >> (p + roots))
        p = top
    return x + 2


def _log_fixed(p: int, q: int, e: int, w: int, roots: int, block: int,
               start: int) -> tuple[int, int]:
    """(low, err) with low <= ln(p/q) * 2^w <= low + err, where q is a
    power of two, p/q = 2^e * y and 1 <= y < 2, and the square roots are
    taken at start (at w, or lifted by _inverse_root from start < w).

    ln(y) = 2^roots * 2 atanh(t) for t = (v - 1)/(v + 1) < 1/3 and
    v = y^(1/2^roots); s stands for t * 2^w, and is low by less than
    sigma = 2 ulps of 2^-w after roots square roots at w, or less than
    sigma = 2.506 after the lift.  Every step after s floors a
    nonnegative value, so no computed value exceeds the exact one it
    stands for; the comments count by how much each can fall short.
    total ends low by less than 9 sigma / 8 + block + 8/3, so 2 total by
    less than 2 block + 9.84, or 2 block + 10.98 lifted: the error
    count is (2 block + 10) 2^roots, or (2 block + 11) 2^roots lifted,
    plus |e| times _ln2's 2.
    """
    one = 1 << w
    # z = floor(y * 2^w) = floor(p * 2^(w - e) / q), a shift as q = 2^k
    shift = w - e - q.bit_length() + 1
    z = p << shift if shift >= 0 else p >> -shift
    lifted = start < w
    if lifted:
        # t = (1 - x*)/(1 + x*) for x* = 1/v, and x - x* 2^w lies in
        # (1 - 2^-6, 3 + 2^-7); as dt/dx* = -2/(1 + x*)^2, below 1/2 +
        # 2^-11 in size for x* > 2^(-2^-11), t(x / 2^w) is low by less
        # than (3 + 2^-7)(1/2 + 2^-11) in ulps and never high, and the
        # floor, or 0 in place of a negative s, loses less than 1 more
        x = _inverse_root(z, w, roots, start)
        s = max(((one - x) << w) // (one + x), 0)
    else:
        # Each square root floors, losing less than an ulp, and halves
        # the error it inherits, as sqrt(a) - sqrt(b) <= (a - b)/2 for
        # a > b >= 1; so at the end z <= v * 2^w < z + 2
        for _ in range(roots):
            z = isqrt(z << w)
        # as dt/dv = 2/(v + 1)^2 <= 1/2, t at v = z / 2^w is low by less
        # than 1, and the floor loses less than 1 more
        s = ((z - one) << w) // (z + one)
    # atanh(t) = t * sum_k t^2k / (2k + 1), summed for the floored s by
    # rectangular splitting (Smith, Math. Comp. 52, 1989; Brent and
    # Zimmermann, Modern Computer Arithmetic, 4.4.3).  With the powers
    # 1, s2, ..., s2^(block - 1) of s2 = s^2 / 2^w, block b is an inner
    # sum of one small division per term, and the blocks are joined by
    # Horner's rule in s2^block.  s < 2^(w - gap), so n terms with
    # 2 n gap >= w leave a tail of at most (s / 2^w)^2n (9/8) / 3 < 2^-w,
    # below 1.
    gap = w - s.bit_length()
    s2 = s * s >> w
    n = -(-w // (2 * gap))
    block = min(block, n)
    powers = [one, s2]
    for j in range(2, block + 1):
        half = powers[j // 2]
        powers.append((half * half if j % 2 == 0 else powers[-1] * s2) >> w)
    # Every power is low by less than 2, by induction: s2 loses less than
    # 1 in its floor, and each later power less than 1 in its floor plus
    # what it inherits.  An odd power, s2 times the power before it,
    # inherits 2 s2 / 2^w < 2/9 from that power's error and that power
    # over 2^w, at most 1/9, from s2's.  An even power squares the half
    # power h, whose exact value H is at most 2^w / 9 as s / 2^w < 1/3,
    # and inherits (H - h) (H + h) / 2^w < 2 (2 H / 2^w) <= 4/9 from h's
    # error.
    step = powers.pop()
    # Block b ends up scaled by (s / 2^w)^(2 block b) < 2^-(2 gap block b),
    # so it is summed in ulps of 2^-(w - c) for the cut c = cut * b, from
    # the powers and the step shifted right by c, each still low by less
    # than 2 in its own ulp; acc carries the sum of blocks b and later in
    # ulps of 2^-top, top = w - c.
    cut = (2 * gap - 2) * block
    acc, top = 0, w
    for b in reversed(range(-(-n // block))):
        c = cut * b
        divisors = range(2 * b * block + 1, 2 * (b + 1) * block, 2)
        shifted = [x >> c for x in powers]
        # The inner sum is low by less than 2 block: the powers after the
        # first, which is exact, are low by less than 2 over divisors of
        # at least 3, 5, ..., so at most 2 (block - 1) / 3 in all, and
        # each term's floor loses less than 1 more.  acc <= (9/8) 2^top,
        # and multiplying it by the step, low by less than 2, then
        # flooring loses less than 9/4 + 1.  The error acc carries is
        # multiplied by (s / 2^w)^2block 2^cut < 4^-block, as the ulp
        # grows by 2^cut.  So acc ends low by less than (2 block + 13/4) /
        # (1 - 4^-block) < 3 block + 4.
        acc = ((acc * (step >> c) >> top)
               + sum(map(floordiv, shifted, divisors)))
        top = w - c
    # With the tail, acc is low by less than 3 block + 5, which s / 2^w
    # < 1/3 scales to below block + 5/3, and the floor loses less than 1
    # more; the sum at the floored s, atanh(s / 2^w) 2^w, is below the
    # one at t by less than 9 sigma / 8, as datanh/dt <= 9/8 for t <= 1/3
    total = s * acc >> w
    low = (2 * total) << roots
    err = (2 * block + 10 + lifted) << roots
    if e == 0:  # e ln 2 and |e| times its error are 0
        return low, err
    ln2, ln2_err = _ln2(w)
    return low + e * ln2 + min(e, 0) * ln2_err, err + abs(e) * ln2_err


def log(x: Interval, bits: int) -> Interval:
    """Enclosure of the natural log; x.lo must be a positive k / 2^j,
    else ValueError is raised.

    log(x.lo) is enclosed once; the upper endpoint adds x.width / x.lo
    rounded up, as log b - log a <= (b - a)/a.  Endpoints are k / 2^w
    with w <= bits + 256, and the width is at most
    2^-bits + x.width / x.lo.
    """
    if x.lo <= 0:
        raise ValueError("log requires a strictly positive interval")
    p, q = x.lo.numerator, x.lo.denominator
    if q & (q - 1):
        raise ValueError("log requires a lower endpoint k / 2^j")
    # x.lo = 2^e * y with 1 <= y < 2: p has e + j + 1 bits for q = 2^j
    e = p.bit_length() - q.bit_length()
    w, roots, block, start = _log_precision(bits, e)
    low, err = _log_fixed(p, q, e, w, roots, block, start)
    if err >= 1 << (w - bits):
        raise PrecisionError(f"log error count {err} exceeds 2^-{bits}")
    # ceil((x.hi - x.lo) / x.lo * 2^w) over _scaled_pair's denominator
    a, b, _ = _scaled_pair(x.lo, x.hi)
    spread = -(-((b - a) << w) // a)
    return Interval(dyadic(low, w), dyadic(low + err + spread, w))
