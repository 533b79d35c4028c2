"""The representation <T_A, T_B> -> PSL2(R) from two filling multitwists.

T_A maps to [[1, sqrt(mu)], [0, 1]] and T_B to [[1, 0], [-sqrt(mu), 1]],
mu being the Perron-Frobenius eigenvalue of N*N^t for the intersection
matrix N of the two multicurves.  Hyperbolic images are pseudo-Anosov,
and the dilatation is the larger root of x^2 - |t| x + 1, t the trace.
Words are evaluated in the conjugate representation by
D = diag(1, sqrt(mu)), T_A -> [[1, 1], [0, 1]] and
T_B -> [[1, 0], [-mu, 1]], which keeps traces and the identity, so each
word is evaluated, classified and certified in plain ints, the
dilatation in closed form by intervals.unit_root's exact isqrt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import intervals
from .intervals import Interval, PrecisionError, decimal_str, endpoint_strs

IDENTITY_CLASS = "identity"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


class IntMatrix(NamedTuple):
    """Integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d


def evaluate(w: str, mu: int) -> IntMatrix:
    """Conjugate image of a word, reduced or not; a letter outside abAB
    raises ValueError."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    return _image(w, mu)


def _image(letters: str, mu: int) -> IntMatrix:
    """Up to 64 letters, a column operation per letter: a^+-1 adds
    +-(column 1) to column 2, b^+-1 adds -+mu*(column 2) to column 1.  A
    longer word is the product of its halves' images: entries of the
    trace's size then meet in a few big products, not once per letter."""
    if len(letters) > 64:
        half = len(letters) // 2
        a, b, c, d = _image(letters[:half], mu)
        e, f, g, h = _image(letters[half:], mu)
        return IntMatrix(a * e + b * g, a * f + b * h,
                         c * e + d * g, c * f + d * h)
    a, b, c, d = 1, 0, 0, 1
    for letter in letters:
        if letter == "a":
            b += a
            d += c
        elif letter == "A":
            b -= a
            d -= c
        elif letter == "b":
            a -= mu * b
            c -= mu * d
        elif letter == "B":
            a += mu * b
            c += mu * d
        else:
            raise ValueError(f"invalid letter {letter!r}")
    return IntMatrix(a, b, c, d)


def classify(m: IntMatrix) -> str:
    """Isometry type in PSL2, decided by exact integer comparisons."""
    if m.b == 0 and m.c == 0 and m.a == m.d and abs(m.a) == 1:
        return IDENTITY_CLASS
    t = abs(m.trace())
    if t < 2:
        return ELLIPTIC
    if t == 2:
        return PARABOLIC
    return HYPERBOLIC


def trace_json(trace: int, mu: int) -> dict:
    """The trace as a + b*sqrt(mu) with b = 0, the report's JSON form."""
    return {"a": decimal_str(trace), "b": "0", "mu": mu}


@dataclass(frozen=True)
class DilatationReport:
    word: str
    mu: int
    trace: int
    isometry_class: str
    dilatation_interval: Optional[Interval]
    log_dilatation_interval: Optional[Interval]

    def to_json_dict(self) -> dict:
        trace = trace_json(self.trace, self.mu)
        d = {
            "word": self.word,
            "mu": self.mu,
            "trace": trace,
            "class": self.isometry_class,
        }
        if self.dilatation_interval is not None:
            d["lambda"] = endpoint_strs(self.dilatation_interval)
            d["log_lambda"] = endpoint_strs(self.log_dilatation_interval)
        # -|trace| in decimal is the trace's decimal, negated if positive:
        # one conversion of a trace of up to MAX_TRACE_BITS serves both
        t = trace["a"]
        d["char_poly"] = ["1", t if self.trace <= 0 else "-" + t, "1"]
        return d


def hyperbolic_dilatation(trace: int, precision_bits: int) -> tuple[Interval, Interval]:
    """lambda, the root of x^2 - |t| x + 1 in (|t| - 1, |t|), and
    log(lambda), both to relative width 2^-precision_bits, for |t| > 2.
    On unit_root's grid 2^-(bits + 2), with bits = precision_bits + 8,
    lambda has width 2^-(bits + 2) and log(lambda) at most 2^-bits +
    width(lambda) / lambda: one pass meets both widths."""
    t = abs(trace)
    bits = precision_bits + 8
    lam = intervals.unit_root(t, bits + 2)
    log_lam = intervals.log(lam, bits)
    if not (intervals.relative_width_within(lam, precision_bits)
            and intervals.relative_width_within(log_lam, precision_bits)):
        raise PrecisionError(f"dilatation enclosure wider than "
                             f"2^-{precision_bits}")
    return lam, log_lam


def dilatation(w: str, mu: int, precision_bits: int = 60) -> DilatationReport:
    """Full report for a word; non-hyperbolic images carry no dilatation."""
    m = evaluate(w, mu)
    cls = classify(m)
    t = m.trace()
    lam = log_lam = None
    if cls == HYPERBOLIC:
        lam, log_lam = hyperbolic_dilatation(t, precision_bits)
    return DilatationReport(w, mu, t, cls, lam, log_lam)
