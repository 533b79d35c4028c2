"""The representation <T_A, T_B> -> PSL2(R) from two filling multitwists.

T_A maps to [[1, sqrt(mu)], [0, 1]] and T_B to [[1, 0], [-sqrt(mu), 1]],
where mu is the Perron-Frobenius eigenvalue of N*N^t for the intersection
matrix N of the two multicurves.  Hyperbolic images are pseudo-Anosov and
the dilatation is the absolute value of the leading eigenvalue.

Images are evaluated in the conjugate representation M -> D M D^-1 with
D = diag(1, sqrt(mu)), where T_A -> [[1, 1], [0, 1]] and
T_B -> [[1, 0], [-mu, 1]].  Conjugation keeps traces and the
identity, so every word is evaluated, classified and certified with
plain Python ints; the conjugate of a matrix (a, b, c, d) in the
original representation is (a, b / sqrt(mu), c * sqrt(mu), d).

The certificate's endpoints are k / 2^j in lowest terms; the intervals
module owns that format, takes the square root of the int t^2 - 4, tests
the widths and prints each interval from one decimal conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import intervals
from .intervals import Interval, PrecisionError, decimal_str, endpoint_strs
from .words import Word

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


def evaluate(w: Word, mu: int) -> IntMatrix:
    """Conjugate image of a word, multiplying letter images left to right.

    Right multiplication by a letter image is a column operation: a^+-1
    adds +-(column 1) to column 2, b^+-1 adds -+mu*(column 2) to column 1.
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    a, b, c, d = 1, 0, 0, 1
    for letter in w.letters:
        if letter == "a":
            b += a
            d += c
        elif letter == "A":
            b -= a
            d -= c
        elif letter == "b":
            a -= mu * b
            c -= mu * d
        else:
            a += mu * b
            c += mu * d
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
    word: Word
    mu: int
    trace: int
    isometry_class: str
    dilatation_interval: Optional[Interval]
    log_dilatation_interval: Optional[Interval]

    def to_json_dict(self) -> dict:
        trace = trace_json(self.trace, self.mu)
        d = {
            "word": str(self.word),
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
    """lambda = (|t| + sqrt(t^2 - 4))/2 and log(lambda), both certified to
    relative width 2^-precision_bits.

    At bits = precision_bits + 8 the root has width at most 2^-(bits + 1),
    so lambda has width at most 2^-(bits + 2), and log(lambda) at most
    2^-bits + width(lambda) / lambda: one pass meets both widths.  Every
    endpoint is k / 2^j in lowest terms.
    """
    t = abs(trace)
    bits = precision_bits + 8
    root = intervals.sqrt_fraction(t * t - 4, bits + 1)
    # (t + root) / 2 as ints over 2^(bits + 2)
    lo, hi = ((t << (bits + 1)) + intervals.dyadic_scaled(x, bits + 1)
              for x in (root.lo, root.hi))
    lam = Interval(intervals.dyadic(lo, bits + 2),
                   intervals.dyadic(hi, bits + 2))
    log_lam = intervals.log(lam, bits)
    if not (intervals.relative_width_within(lam, precision_bits)
            and intervals.relative_width_within(log_lam, precision_bits)):
        raise PrecisionError(f"dilatation enclosure wider than "
                             f"2^-{precision_bits}")
    return lam, log_lam


def dilatation(w: Word, mu: int, precision_bits: int = 60) -> DilatationReport:
    """Full report for a word; non-hyperbolic images carry no dilatation."""
    m = evaluate(w, mu)
    cls = classify(m)
    t = m.trace()
    lam = log_lam = None
    if cls == HYPERBOLIC:
        lam, log_lam = hyperbolic_dilatation(t, precision_bits)
    return DilatationReport(w, mu, t, cls, lam, log_lam)
