"""Minimal-dilatation search over conjugacy classes in <T_A, T_B>, and the
lower-central-series table of nested-commutator dilatations.

Conjugacy classes of cyclically reduced words are deduplicated under
cyclic rotation, inversion, and the a<->b swap; all three leave the trace
of the PSL2 image unchanged.  Minimization is on |trace|, an exact and
strictly monotone proxy for the dilatation of hyperbolic elements.

Each class is represented by the least word of its orbit in the letter
order a < b < A < B.  enumerate_classes generates exactly those words: a
depth-first search over freely reduced words with the FKM prenecklace
rule (Ruskey, Savage and Wang, "Generating necklaces", J. Algorithms
1992) visits only words that can start a least rotation, and each word
that is a cyclically reduced necklace is kept when no rotation of its
inverse, swap or swapped inverse is smaller.  The search also cuts every
word with a letter run longer than its leading run of a's, which can
start no least word.  The words stream out in the letter order, a word
before its extensions, and the search holds only its stack of at most
3 * max_length open nodes.  orbit_representative is the definitional
canonical form that the tests check this against.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, Optional

from . import rep, words
from .intervals import Interval, decimal_str
from .words import Word


class NoHyperbolicClassError(RuntimeError):
    """The searched radius contains no hyperbolic class."""


def _cyclically_reduced_strings(length: int) -> Iterator[str]:
    """Every cyclically reduced string of the given length over
    words.ALPHABET, in itertools.product order.

    A depth-first walk over freely reduced prefixes, children in alphabet
    order, whose last letter must not cancel the first either.  It is the
    oracle that enumerate_classes is checked against, so it shares none of
    the enumerator's key tables.
    """
    alphabet = words.ALPHABET
    if length <= 1:
        yield from (alphabet if length else [""])
        return
    follow = {c: [d for d in alphabet if d != c.swapcase()] for c in alphabet}
    for first in alphabet:
        closing = {c: [d for d in follow[c] if d != first.swapcase()]
                   for c in alphabet}
        stack = [first]
        while stack:
            prefix = stack.pop()
            if len(prefix) < length - 1:
                stack.extend([prefix + d
                              for d in reversed(follow[prefix[-1]])])
            else:
                for d in closing[prefix[-1]]:
                    yield prefix + d


# letter order a < b < A < B for canonical representatives; the keys
# 0 1 2 3 compare in that order
_LEX_KEY = str.maketrans("abAB", "0123")
_FROM_KEY = str.maketrans("0123", "abAB")
# keys that may follow each key in a freely reduced word, in decreasing
# order, the order in which enumerate_classes pushes them
_FOLLOWERS = {"0": "310", "1": "210", "2": "321", "3": "320"}
# letter maps that, applied to a reversed key, give the inverse word and
# the swapped inverse word; _SWAP_KEYS alone gives the swapped word
_INVERT_KEYS = str.maketrans("0123", "2301")
_SWAP_KEYS = str.maketrans("0123", "1032")
_SWAP_INVERT_KEYS = str.maketrans("0123", "3210")


def _word_key(s: str) -> str:
    return s.translate(_LEX_KEY)


def orbit_representative(w: Word) -> Word:
    """Least word (letter order a < b < A < B) in the orbit of w under
    cyclic rotation, inversion, and the generator swap (definitional, no
    canonical-form shortcuts)."""
    candidates = set()
    for base in (w, w.inverse()):
        for variant in (base, base.swap_generators()):
            for rot in variant.rotations():
                candidates.add(rot.letters)
    return Word(min(candidates, key=_word_key))


def _least_in_orbit(key: str, lead: int) -> bool:
    """Whether a necklace key whose leading run of 0s has length lead is
    no greater than any rotation of its inverse, swap and swapped
    inverse."""
    n = len(key)
    # only a rotation that starts with lead 0s can be smaller than key
    head = key[:lead]
    for variant in (key[::-1].translate(_INVERT_KEYS),
                    key.translate(_SWAP_KEYS),
                    key[::-1].translate(_SWAP_INVERT_KEYS)):
        doubled = variant + variant
        i = doubled.find(head)
        while -1 < i < n:
            if doubled[i:i + n] < key:
                return False
            i = doubled.find(head, i + 1)
    return True


def enumerate_classes(max_length: int) -> Iterator[Word]:
    """One representative per symmetry orbit of cyclically reduced words
    of length <= max_length: the least word of the orbit in the letter
    order a < b < A < B.  The words come in that order, a word before its
    extensions, each as soon as the search finds it.

    An explicit-stack depth-first search over keys, each carrying its FKM
    period, the length of its leading run of 0s and the length of its last
    run.  A node's children are pushed in decreasing key order, so they
    pop in increasing order and the preorder is increasing string order.
    The search cuts every child in which a run of one letter would be
    longer than the leading run.  The cut is sound.  The word itself, its
    swap, its inverse and its swapped inverse carry a run of a, b, A or B
    respectively to a run of a of the same length.  Once a key has a
    letter other than 0, all its extensions start with exactly its leading
    run of 0s, so an extension holding a longer run has a rotation of one
    of those variants that starts with more 0s and is therefore smaller
    than the extension: it is never the least word of its orbit.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    # every orbit has a word starting with a, so the tree has one root
    stack = [("0", 1, 1, 1)]
    while stack:
        key, period, lead, run = stack.pop()
        n = len(key)
        last = key[-1]
        # every key starts with 0, so it is cyclically reduced unless it
        # ends with 2 (a word ending in A)
        if n % period == 0 and last != "2" and _least_in_orbit(key, lead):
            yield Word(key.translate(_FROM_KEY))
        if n == max_length:
            continue
        ref = key[n - period]
        for c in _FOLLOWERS[last]:
            if c < ref:
                break
            if c != last:
                child_lead, child_run = lead, 1
            elif lead == n:  # the key is all 0s and c extends that run
                child_lead = child_run = n + 1
            elif run < lead:
                child_lead, child_run = lead, run + 1
            else:
                continue
            stack.append((key + c, n + 1 if c > ref else period,
                          child_lead, child_run))


@dataclass(frozen=True)
class SearchReport:
    mu: int
    max_length: int
    classes_examined: int
    minimum: rep.DilatationReport
    all_minima: tuple[Word, ...]

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "max_length": self.max_length,
            "classes_examined": self.classes_examined,
            "minimum": self.minimum.to_json_dict(),
            "all_minima": [str(w) for w in self.all_minima],
            "note": (f"minimality certified only among conjugacy classes of "
                     f"word length <= {self.max_length}"),
        }


def min_dilatation_search(max_length: int, mu: int,
                          precision_bits: int = 60) -> SearchReport:
    """Exact minimum of |trace| over hyperbolic classes up to max_length."""
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    if mu < 1:
        raise ValueError("mu must be >= 1")

    best_abs: Optional[int] = None
    minima: list[Word] = []
    examined = 0
    for w in enumerate_classes(max_length):
        examined += 1
        m = rep.evaluate(w, mu)
        if rep.classify(m) != rep.HYPERBOLIC:
            continue
        t = abs(m.trace())
        if best_abs is None or t < best_abs:
            best_abs, minima = t, [w]
        elif t == best_abs:
            minima.append(w)
    if best_abs is None:
        raise NoHyperbolicClassError(
            f"no hyperbolic class with word length <= {max_length} at mu={mu}")
    # enumerate_classes yields in increasing _word_key order, so minima is
    # already sorted and minima[0] is the least of them
    report = rep.dilatation(minima[0], mu, precision_bits)
    return SearchReport(mu, max_length, examined, report, tuple(minima))


@dataclass(frozen=True)
class LcsRow:
    depth: int
    word: Word
    word_length: int
    mu: int
    trace: int
    log_dilatation: Interval

    def to_json_dict(self) -> dict:
        return {
            "k": self.depth,
            "word": str(self.word),
            "length": self.word_length,
            "trace": rep.trace_json(self.trace, self.mu),
            "log_lambda": [decimal_str(self.log_dilatation.lo),
                           decimal_str(self.log_dilatation.hi)],
        }


def lcs_table(k_max: int, mu: int, precision_bits: int = 60) -> list[LcsRow]:
    """Nested-commutator words w(k) and their certified log dilatations.
    w(k) lies in gamma_k of <T_A, T_B> (gamma_1 = F) by construction, so
    row k bounds the least dilatation in gamma_k from above at any genus.

    w(k) = w(k-1) b w(k-1)^-1 b^-1, so its image is
    M(k) = M(k-1) T_B adj(M(k-1)) T_B^-1: images have det 1, so the
    adjugate is the inverse.  Each level costs one product of 2x2 int
    matrices instead of an evaluation of 2^k letters.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    b = Word("b")
    w = Word("ab")
    m = rep.evaluate(w, mu)
    table = []
    for k in range(1, k_max + 1):
        if k > 1:
            w = words.commutator(w, b)
            p, q, r, s = m
            # M T_B and adj(M) T_B^-1, each one column operation
            x = (p - mu * q, q, r - mu * s, s)
            y = (s - mu * q, -q, mu * p - r, p)
            m = rep.IntMatrix(x[0] * y[0] + x[1] * y[2],
                              x[0] * y[1] + x[1] * y[3],
                              x[2] * y[0] + x[3] * y[2],
                              x[2] * y[1] + x[3] * y[3])
        if rep.classify(m) != rep.HYPERBOLIC:
            raise RuntimeError(f"nested commutator at k={k} is not hyperbolic")
        trace = m.trace()
        _, log_lam = rep.hyperbolic_dilatation(trace, precision_bits)
        table.append(LcsRow(k, w, len(w), mu, trace, log_lam))
    return table


def lcs_csv(rows: list[LcsRow]) -> str:
    out = io.StringIO()
    out.write("k,word,length,trace,log_lambda_lo,log_lambda_hi\n")
    for r in rows:
        out.write(f"{r.depth},{r.word},{r.word_length},"
                  f"{decimal_str(r.trace)},"
                  f"{float(r.log_dilatation.lo)!r},"
                  f"{float(r.log_dilatation.hi)!r}\n")
    return out.getvalue()
