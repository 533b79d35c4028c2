"""Closed-form dilatation and translation-length bounds.

Every evaluator returns a certified interval, never a bare float, and
writes its endpoints from the monotonicity and sign of its formula; the
underlying inequalities are strict, so enclosures are the honest output.
Of the two algebraic constants, the Torelli cubic's root comes from
intervals.root, whose bracket its docstring proves, and 2 + sqrt(3) from
intervals.unit_root's closed form.  Where a
bound is the least of two cases, the binding case is proved in its
docstring, and only that case is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intervals
from .intervals import Interval, decimal_str, endpoint_strs

LOWER_LOG_DILATATION = "lower_bound_on_log_dilatation"
UPPER_LOG_DILATATION = "upper_bound_on_log_dilatation"
UPPER_TAU_C = "upper_bound_on_tau_C"

# logs to within 2^-64; a BoundResult's relative width must be at most
# 2^-40 ~ 9.1e-13, and the widest, the Torelli bound's, is about 2^-66
_BITS = 64


class HypothesisViolation(ValueError):
    """A bound's mathematical hypothesis fails (distinct from bad parameters)."""


@dataclass(frozen=True)
class BoundResult:
    value: Interval
    direction: str
    validity_note: str
    binding_case: str = ""

    def __post_init__(self):
        if not intervals.relative_width_within(self.value, 40):
            raise ValueError("bound interval too wide")

    def to_json_dict(self) -> dict:
        d = {
            "bound": endpoint_strs(self.value),
            "bound_float": self.value.as_floats(),
            "direction": self.direction,
            "validity_note": self.validity_note,
        }
        if self.binding_case:
            d["binding_case"] = self.binding_case
        return d


def _log_rational(x) -> Interval:
    return intervals.log(Interval.point(Fraction(x)), _BITS)


def surgery_lower(n: int, j: int = 1) -> BoundResult:
    """log(n/2)/j: lower bound when i(c, f^j(c)) >= n >= 3 for every curve c."""
    if n < 3:
        raise ValueError("surgery bound requires n >= 3")
    if j not in (1, 2):
        raise ValueError("power j must be 1 or 2")
    value = _log_rational(Fraction(n, 2))
    if j == 2:
        value = Interval(value.lo / 2, value.hi / 2)
    return BoundResult(value, LOWER_LOG_DILATATION,
                       f"valid when i(c, f^{j}(c)) >= {n} for every simple "
                       f"closed curve c on a closed surface")


def punctured_surgery_lower(n: int) -> BoundResult:
    """log(n/4): punctured-surface variant, requires n >= 5."""
    if n < 5:
        raise ValueError("punctured surgery bound requires n >= 5")
    return BoundResult(_log_rational(Fraction(n, 4)), LOWER_LOG_DILATATION,
                       f"valid when i(c, f(c)) >= {n} for every simple "
                       f"closed curve c on a punctured surface")


def torelli_cubic_root(precision_bits: int = _BITS) -> Interval:
    """The real root of f(x) = x^3 + 2x^2 + x - 6, to within
    2^-(precision_bits + 2): f(1) = -2 < 0 < 12 = f(2), and on (1, 2)
    f' = (3x + 1)(x + 1) > 0 and f'' = 6x + 4 > 0.  f(-1) = -6 is f's
    local maximum, so the root is its only real one."""
    if precision_bits < 1:
        raise ValueError("precision_bits must be >= 1")
    return intervals.root([1, 2, 1, -6], 1, precision_bits + 2)


def torelli_lower() -> BoundResult:
    """min(log sqrt(2), log r) = log r, r the real root of
    f(x) = x^3 + 2x^2 + x - 6: the cubic case always binds.

    Proof: f' = 3x^2 + 4x + 1 > 0, so f is increasing for x > 0.  For
    0 < c < 3, f(sqrt c) = sqrt(c) (c + 1) - (6 - 2c) with both terms
    positive, so f(sqrt c) > 0 if and only if c (c + 1)^2 > (6 - 2c)^2.
    c = 2 gives 18 > 4 and c = 3/2 gives 75/8 > 9, so r^2 < 3/2 < 2:
    log r is below log sqrt(2), and below log(3/2)/2, the case 1 of
    congruence_lower(3).  Neither case-1 log is computed.
    """
    return BoundResult(intervals.log(torelli_cubic_root(), _BITS),
                       LOWER_LOG_DILATATION,
                       "valid for every pseudo-Anosov acting trivially on "
                       "integral first homology, g >= 2",
                       binding_case="case2_cubic")


def congruence_lower(r: int) -> BoundResult:
    """Level-r congruence subgroup lower bound, r >= 3: the Torelli bound.
    At r = 3 case 1 weakens to intersection number 3 on f or f^2, the
    surgery_lower(3, 2) bound, which log r still undercuts."""
    if r < 3:
        raise ValueError("congruence bound requires r >= 3")
    base = torelli_lower()
    return BoundResult(base.value, base.direction,
                       f"valid for the level-{r} congruence subgroup, g >= 2",
                       binding_case=base.binding_case)


def brunnian_lower(p: int) -> BoundResult:
    """log(p/4) for the Brunnian subgroup of a p-punctured surface, p >= 5."""
    if p < 5:
        raise ValueError("Brunnian bound requires p >= 5")
    inner = punctured_surgery_lower(p)
    return BoundResult(inner.value, LOWER_LOG_DILATATION,
                       f"valid for every pseudo-Anosov in the Brunnian "
                       f"subgroup with {p} punctures")


def filling_intersection_lower(g: int) -> int:
    raise NotImplementedError("a patch target of the benchmark's tracer")


def _six_places(x: Fraction) -> str:
    """x >= 0 rounded to 6 decimals; float(x) overflows past 1.8e308."""
    whole, frac = divmod(round(x * 10 ** 6), 10 ** 6)
    return f"{decimal_str(whole)}.{frac:06d}"


def tau_cc_upper(g: int, log_lambda: Interval) -> BoundResult:
    """4*log(lambda)/log(g - 1/2), valid when 1 < lambda <= g - 1/2.

    The hypothesis is enforced with a certified comparison; violations
    raise HypothesisViolation, bad parameters raise ValueError.
    """
    if g < 2:
        raise ValueError("curve-complex bound requires g >= 2")
    if log_lambda.lo <= 0:
        # a pseudo-Anosov dilatation exceeds 1
        raise HypothesisViolation(
            "hypothesis lambda > 1 not certified: log(lambda) lower "
            "endpoint is not positive")
    threshold = Fraction(2 * g - 1, 2)
    log_threshold = _log_rational(threshold)
    if log_lambda.hi > log_threshold.lo:
        shown = decimal_str(threshold)
        raise HypothesisViolation(
            f"hypothesis lambda <= g - 1/2 = {shown} not certified: "
            f"log(lambda) upper endpoint {_six_places(log_lambda.hi)} exceeds "
            f"certified log({shown}) >= {_six_places(log_threshold.lo)}")
    # both logs are positive, so the quotient runs from lo/hi to hi/lo
    value = Interval(4 * log_lambda.lo / log_threshold.hi,
                     4 * log_lambda.hi / log_threshold.lo)
    return BoundResult(value, UPPER_TAU_C,
                       f"valid for pseudo-Anosov f on genus {g} with "
                       f"dilatation at most g - 1/2")


def _log_hk() -> Interval:
    """log of 2 + sqrt(3), the root of x^2 - 4x + 1 in (3, 4)."""
    return intervals.log(intervals.unit_root(4, 2 * _BITS), _BITS)


def tau_cc_infs_upper(g: int) -> BoundResult:
    """4*log(2 + sqrt(3))/(g*log(g - 1/2)) for g >= 3: tau_cc_upper at the
    Hironaka-Kin dilatation lambda = (2 + sqrt(3))^(1/g).

    The hypothesis holds: 2 + sqrt(3) < 4 <= 2^g, so 1 < lambda < 2, and
    2 < g - 1/2 for g >= 3.
    """
    if g < 3:
        raise ValueError("asymptotic curve-complex bound requires g >= 3; "
                         f"genus {g} is out of scope")
    return BoundResult(tau_cc_upper(g, hk_upper(g).value).value, UPPER_TAU_C,
                       f"upper bound on the minimal curve-complex translation "
                       f"length at genus {g}")


def hk_upper(g: int) -> BoundResult:
    """log(2 + sqrt(3))/g, the Hironaka-Kin minimal-dilatation upper bound."""
    if g < 2:
        raise ValueError("Hironaka-Kin bound requires g >= 2")
    log_hk = _log_hk()
    value = Interval(log_hk.lo / g, log_hk.hi / g)
    return BoundResult(value, UPPER_LOG_DILATATION,
                       f"upper bound on the minimal log dilatation at genus {g}")


def m_of_k(B_value: int) -> BoundResult:
    raise NotImplementedError("a patch target of the benchmark's tracer")
