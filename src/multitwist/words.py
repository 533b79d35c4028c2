"""Reduced words in the rank-2 free group on the two multitwist generators.

Encoding: 'a' and 'b' are the generators, 'A' and 'B' their inverses;
a word string reads left to right as a group product.  The empty word
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

ALPHABET = "abAB"
_SWAP = str.maketrans("abAB", "baBA")


class Letter(NamedTuple):
    generator: str  # 'a' or 'b'
    sign: int       # +1 or -1

    @classmethod
    def from_char(cls, c: str) -> "Letter":
        if c not in ALPHABET:
            raise ValueError(f"invalid letter {c!r}")
        return cls(c.lower(), 1 if c.islower() else -1)

    def to_char(self) -> str:
        return self.generator if self.sign == 1 else self.generator.upper()

    def inverse(self) -> "Letter":
        return Letter(self.generator, -self.sign)


def _reduce_chars(chars: Iterable[str]) -> str:
    stack: list[str] = []
    for c in chars:
        if c not in ALPHABET:
            raise ValueError(f"invalid letter {c!r}")
        if stack and stack[-1] == c.swapcase():
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; construct via parse() or reduce()."""

    letters: str = ""

    def __post_init__(self):
        for i, c in enumerate(self.letters):
            if c not in ALPHABET:
                raise ValueError(f"invalid letter {c!r}")
            if i and self.letters[i - 1] == c.swapcase():
                raise ValueError(f"word {self.letters!r} is not freely reduced")

    @classmethod
    def parse(cls, s: str) -> "Word":
        """Parse the a/b/A/B encoding, freely reducing the input."""
        return cls(_reduce_chars(s))

    def __str__(self):
        return self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce_chars(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(self.letters[::-1].swapcase())

    def is_identity(self) -> bool:
        return not self.letters

    def swap_generators(self) -> "Word":
        """Exchange a<->b and A<->B."""
        return Word(self.letters.translate(_SWAP))

    def rotations(self) -> list["Word"]:
        """All cyclic rotations; only meaningful for cyclically reduced words."""
        s = self.letters
        return [Word(s[i:] + s[:i]) for i in range(max(len(s), 1))]


IDENTITY = Word()


def reduce(raw) -> Word:
    """Freely reduce a letter sequence (str, Letter iterable, or Word)."""
    if isinstance(raw, Word):
        return raw
    if isinstance(raw, str):
        return Word.parse(raw)
    return Word(_reduce_chars(l.to_char() for l in raw))


def cyclic_reduce(w: Word) -> Word:
    """Strip conjugating prefix/suffix pairs; result is conjugate to w."""
    s = w.letters
    i, j = 0, len(s)
    while j - i >= 2 and s[i] == s[j - 1].swapcase():
        i += 1
        j -= 1
    return Word(s[i:j])


def is_cyclically_reduced(w: Word) -> bool:
    s = w.letters
    return len(s) < 2 or s[0] != s[-1].swapcase()


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1, freely reduced."""
    return u * v * u.inverse() * v.inverse()


def nested_commutator(k: int) -> Word:
    """w(1) = ab, w(k) = [w(k-1), b]; lies in the (k-1)st lower-central term."""
    if k < 1:
        raise ValueError("k must be >= 1")
    w = Word("ab")
    b = Word("b")
    for _ in range(k - 1):
        w = commutator(w, b)
    return w
