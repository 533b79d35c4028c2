"""Words in the rank-2 free group on the two multitwist generators.

A word is a plain str: 'a' and 'b' are the generators, 'A' and 'B' their
inverses, read left to right as a group product; '' is the identity.  The
inverse of s is s[::-1].swapcase(), and its rotations are slices.
"""

from __future__ import annotations

ALPHABET = "abAB"
_LETTERS = frozenset(ALPHABET)
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


def parse_word(s: str) -> str:
    """Check the a/b/A/B letters of s and reduce it freely.  A reduced s
    comes back as it is, with no helper called."""
    if not _LETTERS.issuperset(s):
        bad = next(c for c in s if c not in _LETTERS)
        raise ValueError(f"invalid letter {bad!r}")
    if "aA" in s or "Aa" in s or "bB" in s or "Bb" in s:
        return _reduce_chars(s)
    return s


class Word:
    """A stub kept only as the patch target of the benchmark tracer's
    words.Word.constructed count; it goes when that metric does."""

    def __post_init__(self):
        raise NotImplementedError("words are plain strings")


def nested_commutator(k: int) -> str:
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
        return "ab"
    w = "abAB"
    for _ in range(k - 2):
        u = w[:-1]
        w = u + "b" + u[::-1].swapcase() + "B"
    return w
