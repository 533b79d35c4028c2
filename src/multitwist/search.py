"""Minimal-dilatation search over conjugacy classes in <T_A, T_B>, and the
lower-central-series table of nested-commutator dilatations.

Conjugacy classes of cyclically reduced words are deduplicated under
cyclic rotation, inversion, and the a<->b swap; all three leave the trace
of the PSL2 image unchanged.  Minimization is on |trace|, an exact and
strictly monotone proxy for the dilatation of hyperbolic elements.
"""

from __future__ import annotations

import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

from . import rep, words
from .intervals import Interval
from .words import Word

ALPHABET = "abAB"


class NoHyperbolicClassError(RuntimeError):
    """The searched radius contains no hyperbolic class."""


def _cyclically_reduced_strings(length: int) -> Iterator[str]:
    if length == 1:
        yield from ALPHABET
        return
    for chars in itertools.product(ALPHABET, repeat=length):
        ok = all(chars[i] != chars[i - 1].swapcase() for i in range(length))
        if ok:
            yield "".join(chars)


# letter order a < b < A < B for canonical representatives
_LEX_KEY = str.maketrans("abAB", "0123")


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


def enumerate_classes(max_length: int) -> Iterator[Word]:
    """One representative per symmetry orbit of cyclically reduced words
    of length <= max_length, in deterministic order."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    for length in range(1, max_length + 1):
        seen = set()
        for s in _cyclically_reduced_strings(length):
            canonical = orbit_representative(Word(s))
            if canonical.letters not in seen:
                seen.add(canonical.letters)
                yield canonical


@dataclass(frozen=True)
class SearchReport:
    mu: int
    max_length: int
    classes_examined: int
    minimum: rep.DilatationReport
    all_minima: tuple[Word, ...]
    exhaustive_up_to_length: int

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "max_length": self.max_length,
            "classes_examined": self.classes_examined,
            "minimum": self.minimum.to_json_dict(),
            "all_minima": [str(w) for w in self.all_minima],
            "note": (f"minimality certified only among conjugacy classes of "
                     f"word length <= {self.exhaustive_up_to_length}"),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _trace_of(args) -> tuple[str, int, str]:
    word_str, mu = args
    w = Word(word_str)
    m = rep.evaluate(w, mu)
    return word_str, m.trace(), rep.classify(m)


def min_dilatation_search(max_length: int, mu: int, jobs: int = 1,
                          precision_bits: int = 60) -> SearchReport:
    """Exact minimum of |trace| over hyperbolic classes up to max_length."""
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    class_words = [w.letters for w in enumerate_classes(max_length)]
    tasks = [(s, mu) for s in class_words]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trace_of, tasks, chunksize=64))
    else:
        results = [_trace_of(t) for t in tasks]

    best_abs: Optional[int] = None
    minima: list[str] = []
    for word_str, trace, cls in results:
        if cls != rep.HYPERBOLIC:
            continue
        t = abs(trace)
        if best_abs is None or t < best_abs:
            best_abs, minima = t, [word_str]
        elif t == best_abs:
            minima.append(word_str)
    if best_abs is None:
        raise NoHyperbolicClassError(
            f"no hyperbolic class with word length <= {max_length} at mu={mu}")
    minima.sort(key=_word_key)
    report = rep.dilatation(Word(minima[0]), mu, precision_bits)
    return SearchReport(mu, max_length, len(results), report,
                        tuple(Word(s) for s in minima), max_length)


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
            "log_lambda": [str(self.log_dilatation.lo),
                           str(self.log_dilatation.hi)],
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
        out.write(f"{r.depth},{r.word},{r.word_length},{r.trace},"
                  f"{float(r.log_dilatation.lo)!r},"
                  f"{float(r.log_dilatation.hi)!r}\n")
    return out.getvalue()
