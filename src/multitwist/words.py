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
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _reduce_chars(s: str) -> str:
    """Free reduction by a stack, linear in len(s); s holds only a/b/A/B.
    The top letter is kept in a local, above an empty string that stands
    below the first letter, so a cancellation never finds the stack
    empty."""
    inverse = _INVERSE
    stack: list[str] = []
    top = ""
    for c in s:
        if top == inverse[c]:
            top = stack.pop()
        else:
            stack.append(top)
            top = c
    return "".join(stack) + top


def _trusted(s: str) -> "Word":
    """Word(s) for letters already known to be valid and freely reduced,
    built without __post_init__ checking them a second time.  It sets the
    one field, letters; tests/test_words.py pins that Word has no other.
    Word.parse writes the same build out, so that its fast path makes no
    call."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", s)
    return w


@dataclass(frozen=True)
class Word:
    """A freely reduced word; Word.parse builds one from any letter string."""

    letters: str = ""

    def __post_init__(self):
        s = self.letters
        if Word.parse(s).letters != s:
            raise ValueError(f"word {s!r} is not freely reduced")

    @staticmethod
    def parse(s: str) -> "Word":
        """Parse the a/b/A/B encoding, freely reducing the input.  The one
        place that checks letters and reduction: Word(s) is valid exactly
        when parse(s) gives s back.  A valid, reduced s calls no helper."""
        if not _LETTERS.issuperset(s):
            bad = next(c for c in s if c not in _LETTERS)
            raise ValueError(f"invalid letter {bad!r}")
        if "aA" in s or "Aa" in s or "bB" in s or "Bb" in s:
            s = _reduce_chars(s)
        w = object.__new__(Word)
        object.__setattr__(w, "letters", s)
        return w

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
