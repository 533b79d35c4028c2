"""Reduced words in the rank-2 free group on the two multitwist generators.

Encoding: 'a' and 'b' are the generators, 'A' and 'B' their inverses;
a word string reads left to right as a group product.  The empty word
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

ALPHABET = "abAB"
_LETTERS = frozenset(ALPHABET)
_SWAP = str.maketrans("abAB", "baBA")


def _is_reduced(s: str) -> bool:
    return not ("aA" in s or "Aa" in s or "bB" in s or "Bb" in s)


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
        s = self.letters
        if not _LETTERS.issuperset(s):
            bad = next(c for c in s if c not in _LETTERS)
            raise ValueError(f"invalid letter {bad!r}")
        if not _is_reduced(s):
            raise ValueError(f"word {s!r} is not freely reduced")

    @classmethod
    def parse(cls, s: str) -> "Word":
        """Parse the a/b/A/B encoding, freely reducing the input."""
        if _is_reduced(s):
            return cls(s)
        return cls(_reduce_chars(s))

    def __str__(self):
        return self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        # Only the seam can cancel.  Stack reduction of u v pushes all of
        # u without a cancellation, because u is reduced.  Each letter of v
        # then cancels the top of the stack or is pushed; once one is
        # pushed, the next letter of v is not its inverse, because v is
        # reduced, so no later letter cancels either.  The product is u
        # without its longest suffix that is the inverse of a prefix of v,
        # followed by v without that prefix.
        u, v = self.letters, other.letters
        cut, limit = 0, min(len(u), len(v))
        while cut < limit and u[-1 - cut] == v[cut].swapcase():
            cut += 1
        return Word(u[:len(u) - cut] + v[cut:])

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
