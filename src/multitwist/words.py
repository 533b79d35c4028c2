"""Reduced words in the rank-2 free group on the two multitwist generators.

Encoding: 'a' and 'b' are the generators, 'A' and 'B' their inverses;
a word string reads left to right as a group product.  The empty word
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

ALPHABET = "abAB"
_SWAP = str.maketrans("abAB", "baBA")


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
    """A freely reduced word; Word.parse builds one from any letter string."""

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


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1, freely reduced."""
    return u * v * u.inverse() * v.inverse()


def nested_commutator(k: int) -> Word:
    """w(1) = ab, w(k) = [w(k-1), b]; lies in gamma_k, the k-th term of the
    lower central series, with gamma_1 = F and gamma_(k+1) = [gamma_k, F]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    w = Word("ab")
    b = Word("b")
    for _ in range(k - 1):
        w = commutator(w, b)
    return w
