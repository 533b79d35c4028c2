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
inverse, swap or swapped inverse is smaller.  orbit_representative is the
definitional canonical form that the tests check this against.
"""

from __future__ import annotations

import io
import itertools
import os
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
# keys that may follow each key in a freely reduced word
_FOLLOWERS = {"0": "013", "1": "012", "2": "123", "3": "023"}
# letter maps that, applied to a reversed key, give the inverse word and
# the swapped inverse word; _SWAP_KEYS alone gives the swapped word
_INVERT_KEYS = str.maketrans("0123", "2301")
_SWAP_KEYS = str.maketrans("0123", "1032")
_SWAP_INVERT_KEYS = str.maketrans("0123", "3210")
# depth of the roots of the subtrees that min_dilatation_search hands to
# worker processes: 24 roots, the largest of which holds about an eighth
# of the work at length 14
_SPLIT_DEPTH = 4
# shortest max_length at which jobs > 1 starts a worker pool; starting two
# spawned workers costs about 0.25 s, so on two cores the pool is slower
# than one process up to length 12 (0.54 s against 0.41 s) and faster
# from 13 on (1.28 s against 1.51 s; 2.84 s against 3.90 s at 14)
_PARALLEL_MIN_LENGTH = 13


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


def _least_in_orbit(key: str) -> bool:
    """Whether a necklace key starting with 0 is no greater than any
    rotation of its inverse, swap and swapped inverse."""
    reverse = key[::-1]
    for variant in (reverse.translate(_INVERT_KEYS), key.translate(_SWAP_KEYS),
                    reverse.translate(_SWAP_INVERT_KEYS)):
        # only a rotation that starts with 0 can be smaller than key
        i = variant.find("0")
        while i != -1:
            if variant[i:] + variant[:i] < key:
                return False
            i = variant.find("0", i + 1)
    return True


def _class_keys(max_length: int, root: tuple[str, int] = ("0", 1),
                split_at: int = 0):
    """Keys of the canonical class words in the search tree below root.

    root is a prenecklace key with its FKM period.  Returns (keys,
    frontier): keys[n] lists the keys of length n in increasing order;
    when split_at > 0, the nodes at that depth are neither tested nor
    expanded but returned in increasing order as frontier roots.
    """
    keys: list[list[str]] = [[] for _ in range(max_length + 1)]
    frontier: list[tuple[str, int]] = []

    def grow(key: str, period: int) -> None:
        n = len(key)
        if n == split_at:
            frontier.append((key, period))
            return
        # every key starts with 0, so it is cyclically reduced unless it
        # ends with 2 (a word ending in A)
        if n % period == 0 and key[-1] != "2" and _least_in_orbit(key):
            keys[n].append(key)
        if n == max_length:
            return
        ref = key[n - period]
        for c in _FOLLOWERS[key[-1]]:
            if c > ref:
                grow(key + c, n + 1)
            elif c == ref:
                grow(key + c, period)

    grow(*root)
    return keys, frontier


def enumerate_classes(max_length: int) -> Iterator[Word]:
    """One representative per symmetry orbit of cyclically reduced words
    of length <= max_length: the least word of the orbit, by length and
    then in the letter order a < b < A < B."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    # every orbit has a word starting with a, so the tree has one root
    keys, _ = _class_keys(max_length)
    for bucket in keys:
        for key in bucket:
            yield Word(key.translate(_FROM_KEY))


def _parallel_classes(max_length: int, jobs: int) -> list[Word]:
    """enumerate_classes(max_length) as a list, its subtrees below depth
    _SPLIT_DEPTH spread over jobs worker processes."""
    # imported here: only this path needs them, and they cost every
    # command's start-up time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    keys, frontier = _class_keys(max_length, split_at=_SPLIT_DEPTH)
    # spawn, not the fork default on Linux: a fresh interpreter is safe in
    # a caller that runs threads, where a forked child can deadlock on a
    # lock held by another thread, and it behaves alike on every platform
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        # subtrees come back in root order, so each length stays sorted
        for subtree, _ in pool.map(_class_keys, itertools.repeat(max_length),
                                   frontier):
            for bucket, more in zip(keys, subtree):
                bucket.extend(more)
    return [Word(key.translate(_FROM_KEY)) for bucket in keys for key in bucket]


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


def min_dilatation_search(max_length: int, mu: int, jobs: int = 1,
                          precision_bits: int = 60) -> SearchReport:
    """Exact minimum of |trace| over hyperbolic classes up to max_length.

    With jobs > 1 and max_length >= _PARALLEL_MIN_LENGTH the class
    enumeration is split over that many worker processes, at most one per
    core; shorter searches run in this process."""
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and max_length >= _PARALLEL_MIN_LENGTH:
        classes = _parallel_classes(max_length, jobs)
    else:
        classes = list(enumerate_classes(max_length))

    best_abs: Optional[int] = None
    minima: list[Word] = []
    for w in classes:
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
    minima.sort(key=lambda w: _word_key(w.letters))
    report = rep.dilatation(minima[0], mu, precision_bits)
    return SearchReport(mu, max_length, len(classes), report, tuple(minima))


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
    """Nested-commutator words down the lower central series with their
    certified log dilatations; row k is a genus-independent upper bound
    for the level-k Johnson filtration subgroup."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    table = []
    for k in range(1, k_max + 1):
        w = words.nested_commutator(k)
        report = rep.dilatation(w, mu, precision_bits)
        if report.isometry_class != rep.HYPERBOLIC:
            raise RuntimeError(f"nested commutator at k={k} is not hyperbolic")
        table.append(LcsRow(k, w, len(w), mu, report.trace,
                            report.log_dilatation_interval))
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
