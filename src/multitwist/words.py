"""Reduced words in the rank-2 free group on the two multitwist generators.

Encoding: 'a' and 'b' are the generators, 'A' and 'B' their inverses;
a word string reads left to right as a group product.  The empty word
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHABET = "abAB"
_LETTERS = frozenset(ALPHABET)
_SWAP = str.maketrans("abAB", "baBA")


def _is_reduced(s: str) -> bool:
    return not ("aA" in s or "Aa" in s or "bB" in s or "Bb" in s)


def _check_letters(s: str) -> None:
    if not _LETTERS.issuperset(s):
        bad = next(c for c in s if c not in _LETTERS)
        raise ValueError(f"invalid letter {bad!r}")


def _reduce_chars(s: str) -> str:
    stack: list[str] = []
    for c in s:
        if stack and stack[-1] == c.swapcase():
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


def _trusted(s: str) -> "Word":
    """Word(s) for letters already known to be valid and freely reduced,
    built without __post_init__ checking them a second time.  It sets the
    one field, letters; tests/test_words.py pins that Word has no other."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", s)
    return w


@dataclass(frozen=True)
class Word:
    """A freely reduced word; Word.parse builds one from any letter string."""

    letters: str = ""

    def __post_init__(self):
        s = self.letters
        _check_letters(s)
        if not _is_reduced(s):
            raise ValueError(f"word {s!r} is not freely reduced")

    @staticmethod
    def parse(s: str) -> "Word":
        """Parse the a/b/A/B encoding, freely reducing the input."""
        _check_letters(s)
        return _trusted(s if _is_reduced(s) else _reduce_chars(s))

    def __str__(self):
        return self.letters

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Word":
        return _trusted(self.letters[::-1].swapcase())

    def is_identity(self) -> bool:
        return not self.letters

    def swap_generators(self) -> "Word":
        """Exchange a<->b and A<->B."""
        return _trusted(self.letters.translate(_SWAP))

    def rotations(self) -> list["Word"]:
        """All cyclic rotations; only meaningful for cyclically reduced
        words: of any other word of two or more letters, one rotation is
        not freely reduced, and Word raises on it."""
        s = self.letters
        # every rotation of a cyclically reduced word is freely reduced
        build = Word if s[:1] == s[-1:].swapcase() else _trusted
        return [build(s[i:] + s[:i]) for i in range(max(len(s), 1))]


def nested_commutator(k: int) -> Word:
    """w(1) = ab, w(k) = [w(k-1), b]; lies in gamma_k, the k-th term of the
    lower central series, with gamma_1 = F and gamma_(k+1) = [gamma_k, F].

    Built in closed form, with no free reduction.  w(2) = abAB.  For
    k >= 2, w(k) starts with a and ends with AB; write w(k) = u B.  Then
    w(k)^-1 = b u^-1, and in [w(k), b] = u B b b u^-1 B only that B
    cancels against b, so w(k+1) = u b u^-1 B.  It is reduced as written,
    as u starts with a and ends with A, and it starts with a and ends with
    AB again.  So |w(k)| = 2^k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Word("ab")
    w = "abAB"
    for _ in range(k - 2):
        u = w[:-1]
        w = u + "b" + u[::-1].swapcase() + "B"
    return Word(w)
