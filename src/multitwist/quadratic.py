"""Exact arithmetic in Q[sqrt(mu)] with exact order comparisons.

A QuadReal is a + b*sqrt(mu) with rational a, b and a fixed nonnegative
integer radicand mu.  When mu is a perfect square the representation is
normalized so b = 0.  Comparisons against rationals are decided by
rational sign tests and one squaring; no floating point is involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import intervals
from .intervals import Interval


class RadicandMismatch(ValueError):
    """Arithmetic between QuadReals over different radicands."""


def _perfect_sqrt(mu: int):
    s = isqrt(mu)
    return s if s * s == mu else None


@dataclass(frozen=True)
class QuadReal:
    a: Fraction
    b: Fraction
    mu: int

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("radicand must be nonnegative")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        s = _perfect_sqrt(self.mu)
        if s is not None and self.b != 0:
            object.__setattr__(self, "a", self.a + self.b * s)
            object.__setattr__(self, "b", Fraction(0))

    @classmethod
    def rational(cls, x, mu: int) -> "QuadReal":
        return cls(Fraction(x), Fraction(0), mu)

    @classmethod
    def root(cls, mu: int) -> "QuadReal":
        """sqrt(mu) itself."""
        return cls(Fraction(0), Fraction(1), mu)

    def _check(self, other: "QuadReal"):
        if self.mu != other.mu:
            raise RadicandMismatch(f"sqrt({self.mu}) vs sqrt({other.mu})")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return QuadReal(self.a + other.a, self.b + other.b, self.mu)

    __radd__ = __add__

    def __neg__(self):
        return QuadReal(-self.a, -self.b, self.mu)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return QuadReal(self.a * other.a + self.b * other.b * self.mu,
                        self.a * other.b + self.b * other.a, self.mu)

    __rmul__ = __mul__

    def _coerce(self, x) -> "QuadReal":
        if isinstance(x, QuadReal):
            return x
        return QuadReal.rational(x, self.mu)

    # -- exact ordering ------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(mu)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if b > 0:
            if a >= 0:
                return 1
            # a < 0 < b: sign decided by b^2*mu vs a^2
            return 1 if b * b * self.mu > a * a else (-1 if b * b * self.mu < a * a else 0)
        if a <= 0:
            return -1
        return 1 if a * a > b * b * self.mu else (-1 if a * a < b * b * self.mu else 0)

    def compare(self, r) -> int:
        """Exact sign of (self - r) for rational r."""
        return (self - self._coerce(r)).sign()

    def __lt__(self, other):
        return self.compare(self._coerce(other)) < 0

    def __le__(self, other):
        return self.compare(self._coerce(other)) <= 0

    def __gt__(self, other):
        return self.compare(self._coerce(other)) > 0

    def __ge__(self, other):
        return self.compare(self._coerce(other)) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def is_rational(self) -> bool:
        return self.b == 0

    # -- reporting -----------------------------------------------------

    def to_interval(self, precision_bits: int = 60) -> Interval:
        """Enclosure of width <= 2^-precision_bits * max(1, |value|)."""
        if precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        if self.b == 0:
            return Interval.point(self.a)
        extra = max(abs(self.b).numerator.bit_length(), 1) + 2
        root = intervals.sqrt_fraction(Fraction(self.mu), precision_bits + extra)
        return Interval.point(self.a) + Interval.point(self.b) * root

    def to_json_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "mu": self.mu}

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuadReal":
        return cls(Fraction(d["a"]), Fraction(d["b"]), int(d["mu"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, s: str) -> "QuadReal":
        return cls.from_json_dict(json.loads(s))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.mu})"
