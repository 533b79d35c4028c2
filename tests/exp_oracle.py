"""An exact exp oracle for the certified logs, independent of multitwist:
it imports nothing from the package, and shares none of its log's
algorithm (square roots and an atanh series).

exp(x) of a rational x is bounded below and above in integer fixed point
with directed rounding: x is halved k times, about bit_length(floor |x|)
+ sqrt(P) of them, exp of what is left is a P-bit Taylor sum with its
tail bounded, and k squarings undo the halvings (Brent and Zimmermann,
"Modern Computer Arithmetic", 2010, 4.3 and 4.4).  A bracket [L, H] of
log z, for z a root of an int polynomial, is then decided by the signs
of the polynomial at the bounds of exp(L) and exp(H).
"""

from fractions import Fraction
from math import isqrt


class Undecided(ArithmeticError):
    """The bracket was neither proved nor refuted up to the precision cap."""


def exp_bounds(x: Fraction, prec: int) -> tuple[int, int, int]:
    """(low, high, w) with low / 2^w <= exp(x) <= high / 2^w, about
    2^-prec apart relative to exp(x)."""
    x = Fraction(x)
    if x < 0:
        low, high, w = exp_bounds(-x, prec)
        # 1 / exp(-x), each side rounded outward
        return (1 << 2 * w) // high, -(-(1 << 2 * w) // low), w
    # y = x / 2^k < 2^-isqrt(prec) <= 1/2, so about isqrt(prec) terms
    # reach 2^-prec; each costs an ulp, and each squaring doubles the
    # relative error it inherits
    k = (x.numerator // x.denominator).bit_length() + isqrt(prec)
    w = prec + k + isqrt(prec).bit_length() + 4
    scaled = x.numerator << (w - k)
    y_lo = scaled // x.denominator
    y_hi = -(-scaled // x.denominator)
    # term n is y^n / n! 2^w, floored from y_lo below and ceiled from y_hi
    # above; the nested floors (ceilings) of a / 2^w and then / n are the
    # floor (ceiling) of a / (n 2^w)
    low = high = term_lo = term_hi = 1 << w
    n = 0
    while True:
        n += 1
        term_lo = (term_lo * y_lo >> w) // n
        up = -(-term_hi * y_hi >> w)
        term_hi = -(-up // n)
        low += term_lo
        if term_hi <= 1:
            # the terms from n on sum to at most term n / (1 - y / (n + 1))
            # <= 2 term n, as y <= 1/2
            high += 2 * term_hi
            break
        high += term_hi
    for _ in range(k):
        low = low * low >> w
        high = -(-high * high >> w)
    return low, high, w


def _scaled_poly(coeffs: list[int], n: int, w: int) -> int:
    """2^(d w) f(n / 2^w), which has the sign of f(n / 2^w), for f of
    degree d with int coefficients leading first."""
    acc = 0
    for i, c in enumerate(coeffs):
        acc = acc * n + (c << w * i)
    return acc


def _above(n: int, w: int, start: Fraction) -> bool:
    """n / 2^w >= start."""
    return n * start.denominator >= start.numerator << w


def _lower_verdict(lo: Fraction, coeffs, start: Fraction, prec: int):
    """True if exp(lo) <= z, False if exp(lo) > z, None if undecided."""
    low, high, w = exp_bounds(lo, prec)
    if not _above(high, w, start) or _scaled_poly(coeffs, high, w) <= 0:
        return True
    if _above(low, w, start) and _scaled_poly(coeffs, low, w) > 0:
        return False
    return None


def _upper_verdict(hi: Fraction, coeffs, start: Fraction, prec: int):
    """True if exp(hi) >= z, False if exp(hi) < z, None if undecided."""
    low, high, w = exp_bounds(hi, prec)
    if _above(low, w, start) and _scaled_poly(coeffs, low, w) >= 0:
        return True
    if not _above(high, w, start) or _scaled_poly(coeffs, high, w) < 0:
        return False
    return None


def encloses_log(lo, hi, coeffs: list[int], start,
                 max_prec: int = 1 << 16) -> bool:
    """Whether lo <= log z <= hi, for z the one root in [start, inf) of
    the int polynomial f, coefficients leading first, which increases
    strictly there: for a dilatation, x^2 - |t| x + 1 from |t| / 2.

    The lower end holds when exp(lo) <= U with U <= start or f(U) <= 0,
    and the upper when exp(hi) >= V with V >= start and f(V) >= 0.  The
    precision starts 16 bits past the endpoints' denominators and doubles
    while either end is undecided; past max_prec it raises Undecided, so
    an undecided bracket never passes.
    """
    lo, hi, start = Fraction(lo), Fraction(hi), Fraction(start)
    prec = max(lo.denominator.bit_length(), hi.denominator.bit_length()) + 16
    lower = upper = None
    while prec <= max_prec:
        if lower is None:
            lower = _lower_verdict(lo, coeffs, start, prec)
        if upper is None:
            upper = _upper_verdict(hi, coeffs, start, prec)
        if lower is False or upper is False:
            return False
        if lower and upper:
            return True
        prec *= 2
    raise Undecided(f"[{lo}, {hi}] undecided at {max_prec} bits")
