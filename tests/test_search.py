import decimal
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from multitwist import rep, search, verify, words
from multitwist.search import (enumerate_classes, lcs_csv, lcs_table,
                               min_dilatation_search, orbit_representative)
from multitwist.words import Word

from free_words import cyclically_reduced_strings, letter_product


def test_enumerate_length_one():
    assert [w.letters for w in enumerate_classes(1)] == ["a"]


def test_enumerate_length_two():
    reps = [w.letters for w in enumerate_classes(2)]
    assert reps == ["a", "aa", "ab", "aB"]
    # aB is NOT in the ab orbit: check definitionally
    assert orbit_representative(Word("aB")) != orbit_representative(Word("ab"))


def _brute_force_orbit_count(length: int) -> int:
    """Symmetry orbits of the cyclically reduced words of one length,
    each removed from the pool as a whole orbit."""
    count = 0
    pool = set(cyclically_reduced_strings(length))
    while pool:
        s = pool.pop()
        w = Word(s)
        orbit = set()
        for base in (w, w.inverse()):
            for variant in (base, base.swap_generators()):
                for rot in variant.rotations():
                    orbit.add(rot.letters)
        pool -= orbit
        count += 1
    return count


def test_enumerate_count_matches_brute_force():
    produced = sum(1 for _ in enumerate_classes(6))
    assert produced == sum(_brute_force_orbit_count(n) for n in range(1, 7))


def test_enumerate_reps_are_canonical():
    for w in enumerate_classes(8):
        s = w.letters
        assert s.startswith("a")
        assert len(s) < 2 or s[0] != s[-1].swapcase()  # cyclically reduced
        assert orbit_representative(w) == w


def test_enumerate_matches_definitional_pipeline():
    # every orbit representative, in the letter order a < b < A < B
    expected = set()
    for length in range(1, 9):
        for s in cyclically_reduced_strings(length):
            expected.add(orbit_representative(Word(s)).letters)
        # the Burnside count against the definitional one, length by length
        assert search._class_count(length) == len(expected)
    assert [w.letters for w in enumerate_classes(8)] == \
        sorted(expected, key=search._word_key)


def test_enumerate_keys_strictly_increase():
    keys = [search._word_key(w.letters) for w in enumerate_classes(11)]
    assert len(keys) == CLASS_COUNTS[10]
    assert all(x < y for x, y in zip(keys, keys[1:]))


def test_enumerate_streams():
    # the classes are yielded as they are found, not collected first
    tracemalloc.start()
    try:
        produced = sum(1 for _ in enumerate_classes(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert produced == CLASS_COUNTS[11]
    assert peak < 64 * 1024


# classes of length <= n for n = 1..16; the length-10 count was checked
# once against the definitional pipeline above, which takes about 20 s
# there, those at 11 and 12 come from the enumerator before it cut long
# letter runs, and the one at 16 is the number of keys that the
# enumerator once collected at that length
CLASS_COUNTS = (1, 4, 7, 16, 29, 68, 147, 373, 922, 2453, 6480, 17711,
                48372, 134227, 373386, 1047297)


@pytest.mark.parametrize("max_length", range(1, 13))
def test_enumerate_class_counts(max_length):
    produced = sum(1 for _ in enumerate_classes(max_length))
    assert produced == CLASS_COUNTS[max_length - 1]
    assert search._class_count(max_length) == produced


def test_class_count_by_burnside():
    assert [search._class_count(n) for n in range(1, 17)] == \
        list(CLASS_COUNTS)
    assert search._class_count(0) == 0


def test_no_run_longer_than_leading_run():
    for w in enumerate_classes(10):
        runs = [len(list(group)) for _, group in itertools.groupby(w.letters)]
        assert w.letters[0] == "a"
        assert max(runs) <= runs[0], w


def test_search_examples():
    r2 = min_dilatation_search(2, 64)
    assert str(r2.all_minima[0]) == "ab"
    assert abs(r2.minimum.trace) == 62

    r16 = min_dilatation_search(2, 16)
    assert str(r16.all_minima[0]) == "ab"
    assert abs(r16.minimum.trace) == 14
    iv = r16.minimum.log_dilatation_interval
    assert float(iv.lo) < 2.63392 < float(iv.hi) or \
        abs(float(iv.lo) - 2.63392) < 1e-5


def test_search_preconditions():
    with pytest.raises(ValueError):
        min_dilatation_search(1, 64)
    with pytest.raises(ValueError):
        min_dilatation_search(4, 0)


def test_small_mu_minimum():
    # at mu = 1 the ab class is elliptic (trace 1); aB wins with trace 3
    r = min_dilatation_search(2, 1)
    assert str(r.all_minima[0]) == "aB"
    assert abs(r.minimum.trace) == 3


def test_minimum_is_at_most_trace_of_aB():
    # aB maps to [[1 + mu, 1], [mu, 1]], so the search starts from mu + 2;
    # it is the minimum at mu = 1, 2 and 4, and at mu = 3 only at length 2,
    # where aab (trace 4) is not yet a candidate
    at_bound = set()
    for mu in range(1, 71):
        for max_length in range(2, 5):
            report = min_dilatation_search(max_length, mu)
            t = abs(report.minimum.trace)
            assert t <= mu + 2, (mu, max_length)
            assert (Word("aB") in report.all_minima) == (t == mu + 2)
            if t == mu + 2:
                at_bound.add((mu, max_length))
    assert at_bound == {(mu, n) for mu in (1, 2, 4) for n in (2, 3, 4)} | \
        {(3, 2)}


def _least_hyperbolic_trace(mu):
    """F(mu) of the search module's lemma: the least |t| > 2 with t = 2
    mod mu."""
    return {1: 3, 2: 4, 3: 4, 4: 6}.get(mu, mu - 2)


def test_every_trace_is_two_mod_mu():
    # exact int64 products of the conjugate generators a, b, A, B, which
    # share no code with rep; entries stay below (mu + 1)^8 < 2^63 here
    for mu in range(1, 71):
        gens = np.array([[[1, 1], [0, 1]], [[1, 0], [-mu, 1]],
                         [[1, -1], [0, 1]], [[1, 0], [mu, 1]]], np.int64)
        # the freely reduced words of one length, as their first and last
        # letters (indices into gens; c + 2 mod 4 inverts c) and images
        first = last = np.arange(4)
        images = gens
        for length in range(1, 9):
            if length > 1:
                grown = [(first[keep], np.full(keep.sum(), c),
                          images[keep] @ gens[c])
                         for c in range(4) for keep in [last != (c + 2) % 4]]
                first, last, images = map(np.concatenate, zip(*grown))
            cyclic = images[last != (first + 2) % 4]
            # the count of cyclically reduced words of rank-2 free groups
            assert len(cyclic) == 3 ** length + 2 + (-1) ** length
            traces = cyclic[:, 0, 0] + cyclic[:, 1, 1]
            assert ((traces - 2) % mu == 0).all(), (mu, length)
            hyperbolic = np.abs(traces[np.abs(traces) > 2])
            assert (hyperbolic >= _least_hyperbolic_trace(mu)).all()
        if mu == 64:
            ab = gens[0] @ gens[1]
            assert ab[0, 0] + ab[1, 1] == -62


def test_search_minimum_is_the_least_hyperbolic_trace():
    # the lemma's bound holds at every length, and aB (mu = 1, 2, 4), aab
    # (mu = 3) and ab (mu >= 5) attain it, so the search finds it from
    # length 3, and from length 2 but at mu = 3
    above = set()
    for mu in range(1, 71):
        for max_length in range(2, 9):
            t = abs(min_dilatation_search(max_length, mu).minimum.trace)
            assert t >= _least_hyperbolic_trace(mu), (mu, max_length)
            if t > _least_hyperbolic_trace(mu):
                above.add((mu, max_length))
    assert above == {(3, 2)}


def test_dedup_soundness_small():
    # minimum over deduplicated classes equals the no-dedup minimum
    for max_length, mu in ((6, 64), (6, 16)):
        best = None
        for length in range(1, max_length + 1):
            for s in cyclically_reduced_strings(length):
                m = rep.evaluate(Word(s), mu)
                if rep.classify(m) != rep.HYPERBOLIC:
                    continue
                t = abs(m.trace())
                if best is None or t < best:
                    best = t
        report = min_dilatation_search(max_length, mu)
        assert abs(report.minimum.trace) == best


def test_search_monotone_in_max_length():
    prev = None
    for max_length in (2, 3, 4, 5):
        r = min_dilatation_search(max_length, 64)
        cur = abs(r.minimum.trace)
        if prev is not None:
            assert cur <= prev
        prev = cur


def _minima_by_length(words_by_length, mu):
    """Per length, the least |trace| > 2 over the given words, each
    evaluated by rep.evaluate, and the words that attain it."""
    out = []
    for length_words in words_by_length:
        best, found = None, []
        for w in length_words:
            t = abs(rep.evaluate(w, mu).trace())
            if t <= 2 or (best is not None and t > best):
                continue
            if best is None or t < best:
                best, found = t, []
            found.append(w.letters)
        out.append((best, found))
    return out


def test_all_minima_match_no_dedup_oracle():
    # all_minima is the enumeration order, with no sort of its own; the
    # oracle's minima, one per class, sorted by key must give it back;
    # mu = 1 has many ties, so it exercises the orbit test on them
    counts = [_brute_force_orbit_count(n) for n in range(1, 11)]
    words_by_length = [[Word(s) for s in cyclically_reduced_strings(n)]
                       for n in range(1, 11)]
    representative = {}
    reports = {}
    for mu in (1, 2, 3, 4, 5, 9, 16, 64):
        per_length = _minima_by_length(words_by_length, mu)
        for max_length in range(2, 11):
            bests = [b for b, _ in per_length[:max_length] if b is not None]
            best = min(bests)
            expected = set()
            for b, found in per_length[:max_length]:
                if b == best:
                    for s in found:
                        if s not in representative:
                            representative[s] = \
                                orbit_representative(Word(s)).letters
                        expected.add(representative[s])
            report = min_dilatation_search(max_length, mu)
            assert abs(report.minimum.trace) == best, (mu, max_length)
            assert report.minimum.word == report.all_minima[0]
            assert [w.letters for w in report.all_minima] == \
                sorted(expected, key=search._word_key), (mu, max_length)
            assert report.classes_examined == sum(counts[:max_length])
            reports[mu, max_length] = report.all_minima
    # key order is not length order here
    assert [w.letters for w in reports[4, 8]] == ["aab", "aB"]
    assert len(reports[1, 8]) == 24
    assert len({len(w) for w in reports[1, 8]}) > 1


def test_minimum_reproduces_trace():
    r = min_dilatation_search(5, 64)
    w = r.all_minima[0]
    assert rep.evaluate(w, 64).trace() == r.minimum.trace


def test_lcs_table_rows():
    table = lcs_table(4, 64)
    assert [row.depth for row in table] == [1, 2, 3, 4]
    assert [len(row.word) for row in table] == [2, 4, 8, 16]
    assert str(table[0].word) == "ab"
    assert table[1].trace == 4098
    for row in table:
        assert row.log_dilatation.lo > 0
    with pytest.raises(ValueError):
        lcs_table(0, 64)


def test_lcs_table_k1_matches_dilatation():
    row = lcs_table(1, 64)[0]
    direct = rep.dilatation(Word("ab"), 64)
    assert row.trace == direct.trace
    iv = row.log_dilatation
    assert iv.overlaps(direct.log_dilatation_interval)
    assert float(iv.lo) > 4.1268 and float(iv.hi) < 4.1269


def test_lcs_csv():
    text = lcs_csv(lcs_table(3, 64))
    lines = text.strip().split("\n")
    assert lines[0] == "k,word,length,trace,log_lambda_lo,log_lambda_hi"
    assert lines[1].startswith("1,ab,2,-62,")
    assert lines[2].startswith("2,abAB,4,4098,")
    assert len(lines) == 4


def _fraction(v: mpmath.mpf) -> Fraction:
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _log_enclosure(mu: int, prec: int) -> tuple[Fraction, Fraction]:
    """log mu between two Fractions, by mpmath's interval log at prec
    bits."""
    saved = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        x = mpmath.iv.log(mu)
        with mpmath.workprec(prec):
            return _fraction(mpmath.mpf(x.a)), _fraction(mpmath.mpf(x.b))
    finally:
        mpmath.iv.prec = saved


@pytest.mark.parametrize("mu", [5, 7, 64, 127])
def test_lcs_table_against_closed_form_oracles(mu):
    # for k >= 2 and M = mu^(2^(k-1)), M < t - 1 < lambda < t = M + 2, so
    # 2^(k-1) log mu < log lambda < 2^(k-1) log mu + 2/M, and log lambda
    # is within about 3/M^2 of the upper end: the enclosure of log mu
    # takes twice the bits of M and a margin
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    rows = lcs_table(12, mu)
    assert rows[0].to_json_dict()["trace"]["a"] == str(2 - mu)
    for row in rows[1:]:
        n = 2 ** (row.depth - 1)
        digits = exact.add(exact.power(decimal.Decimal(mu), n), 2)
        assert row.to_json_dict()["trace"]["a"] == str(digits), row.depth
        big = mu ** n
        lo, hi = _log_enclosure(mu, 2 * big.bit_length() + 64)
        iv = row.log_dilatation
        assert iv.hi >= n * hi and iv.lo <= n * lo + Fraction(2, big), (
            row.depth)


def _inverse(word: str) -> str:
    return word[::-1].swapcase()


def test_congruence_filtration_of_commutators():
    # T_A = I + s E12 and T_B = I - s E21 (s = sqrt(mu)) lie in
    # G_1 = SL2 & (I + s M2(Z[s])), and [G_i, G_j] lies in G_(i+j); so a
    # left-normed K-fold commutator lies in G_K, where det = 1 gives
    # tr - 2 = -mu^K det X for an integral X: mu^K divides tr - 2
    rng = random.Random(14)
    sharp = 0
    for mu in (2, 3, 5, 6, 7, 16, 64):
        for size in range(1, 6):
            for _ in range(40):
                words = ["".join(rng.choice("abAB")
                                 for _ in range(rng.randint(1, 4)))
                         for _ in range(size)]
                u = words[0]
                for v in words[1:]:
                    u = u + v + _inverse(u) + _inverse(v)
                a, _, _, d = letter_product(u, mu)
                t = a + d
                assert (t - 2) % mu ** size == 0, (mu, words)
                sharp += (t - 2) % mu ** (size + 1) != 0
    # 430 of the 1400 elements are not in G_(K+1): the test is not vacuous
    assert sharp == 430


def test_word_key_order():
    # canonical letter order a < b < A < B
    assert sorted(["aB", "ba", "ab"], key=search._word_key) == \
        ["ab", "aB", "ba"]


def test_lcs_table_matches_evaluated_nested_commutators():
    for mu in [*range(2, 11), 16, 64]:
        expected = []
        for k in range(1, 13):
            w = words.nested_commutator(k)
            m = rep.evaluate(w, mu)
            if rep.classify(m) != rep.HYPERBOLIC:
                break
            expected.append((k, w, m.trace()))
        if len(expected) < 12:
            with pytest.raises(RuntimeError,
                               match=f"k={len(expected) + 1} is not"):
                lcs_table(12, mu)
            continue
        rows = lcs_table(12, mu)
        assert [(r.depth, r.word, r.trace) for r in rows] == expected, mu
        for r in rows:
            direct = rep.hyperbolic_dilatation(r.trace, 60)[1]
            assert r.log_dilatation == direct
    with pytest.raises(RuntimeError):
        lcs_table(3, 1)


def test_lcs_table_forms_no_image(monkeypatch):
    def refuse(*_args):
        raise AssertionError("lcs_table must not evaluate or classify")

    monkeypatch.setattr(rep, "evaluate", refuse)
    monkeypatch.setattr(rep, "classify", refuse)
    rows = lcs_table(12, 64)
    assert [r.trace for r in rows] == [2 - 64] + [
        64 ** 2 ** (k - 1) + 2 for k in range(2, 13)]


def _product_order_minima(max_length, mu):
    """Oracle: every cyclically reduced word by itertools.product, each
    multiplied out from scratch in the original generators."""
    r = math.isqrt(mu)
    images = {"a": (1, r, 0, 1), "A": (1, -r, 0, 1),
              "b": (1, 0, -r, 1), "B": (1, 0, r, 1)}
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    best, found = None, []
    for length in range(1, max_length + 1):
        for chars in itertools.product("abAB", repeat=length):
            s = "".join(chars)
            if any(inverse[x] == y for x, y in zip(s, s[1:] + s[0])):
                continue
            p, q, u, v = 1, 0, 0, 1
            for c in s:
                e, f, g, h = images[c]
                p, q, u, v = (p * e + q * g, p * f + q * h,
                              u * e + v * g, u * f + v * h)
            t = abs(p + v)
            if t <= 2:
                continue
            if best is None or t < best:
                best, found = t, [s]
            elif t == best:
                found.append(s)
    return best, found


def test_prefix_dfs_oracle_matches_product_order_brute_force():
    for mu in (1, 4, 9, 16, 64):
        for max_length in range(1, 8):
            assert verify.brute_force_min_abs_trace(max_length, mu) == \
                _product_order_minima(max_length, mu), (mu, max_length)
    with pytest.raises(ValueError):
        verify.brute_force_min_abs_trace(4, 5)


def _pop_time_minima(max_length, mu):
    """Oracle: a depth-first walk that pushes every word up to max_length
    and judges each one when it is popped, from its own product, then
    sorts the minima by length and in the letter order."""
    r = math.isqrt(mu)
    images = {"a": (1, r, 0, 1), "A": (1, -r, 0, 1),
              "b": (1, 0, -r, 1), "B": (1, 0, r, 1)}
    best, found = None, []
    stack = [(c, *images[c]) for c in images]
    while stack:
        s, p, q, u, v = stack.pop()
        t = abs(p + v)
        if t > 2 and s[-1] != s[0].swapcase():
            if best is None or t < best:
                best, found = t, [s]
            elif t == best:
                found.append(s)
        if len(s) < max_length:
            for c in images:
                if c != s[-1].swapcase():
                    e, f, g, h = images[c]
                    stack.append((s + c, p * e + q * g, p * f + q * h,
                                  u * e + v * g, u * f + v * h))
    order = str.maketrans("abAB", "0123")
    return best, sorted(found, key=lambda w: (len(w), w.translate(order)))


def test_oracle_matches_pop_time_walk():
    for mu in (1, 4, 9, 64):
        for max_length in range(0, 9):
            assert verify.brute_force_min_abs_trace(max_length, mu) == \
                _pop_time_minima(max_length, mu), (mu, max_length)


def test_search_from_mu_five_enumerates_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the search enumerated")

    monkeypatch.setattr(search, "_necklaces", refuse)
    for mu in (5, 6, 7, 64, 2 ** 64 - 1, 2 ** 64, int("9" * 4300)):
        for max_length in (2, 3, 17):
            report = min_dilatation_search(max_length, mu)
            assert report.all_minima == (Word("ab"),)
            assert report.minimum.trace == 2 - mu
            assert report.classes_examined == \
                search._class_count(max_length)
    with pytest.raises(AssertionError):
        min_dilatation_search(8, 4)


def test_search_at_mu_four_enumerates():
    # below mu = 5 the lemma fails: aab and aB tie at |trace| 6
    report = min_dilatation_search(8, 4)
    assert abs(report.minimum.trace) == 6
    assert [str(w) for w in report.all_minima] == ["aab", "aB"]


def test_enumeration_agrees_with_the_syllable_lemma():
    for mu in (5, 6, 7, 64):
        for max_length in range(2, 13):
            assert search._least_keys(max_length, mu) == ["01"], \
                (mu, max_length)


def test_syllable_lemma_exhaustive():
    # a^p1 b^q1 ... a^pn b^qn from int products of the conjugate images
    # a^p b^q = [[1, p], [0, 1]] [[1, 0], [-q mu, 1]], sharing no code with
    # rep: |trace| >= |tr (ab)^n|, with equality only at all-1 and all-(-1)
    for mu in (5, 6, 7, 64):
        # |tr (ab)^n| = 2 T_n((mu - 2) / 2): V_0 = 2, V_1 = mu - 2 and
        # V_n = (mu - 2) V_(n-1) - V_(n-2)
        chebyshev = [2, mu - 2]
        for n in range(2, 5):
            chebyshev.append((mu - 2) * chebyshev[-1] - chebyshev[-2])
        for n, top in ((1, 3), (2, 3), (3, 3), (4, 2)):
            exponents = [e for e in range(-top, top + 1) if e]
            pairs = {(p, q): (1 - p * q * mu, p, -q * mu, 1)
                     for p in exponents for q in exponents}
            prefixes = {(): (1, 0, 0, 1)}
            for _ in range(n - 1):
                prefixes = {
                    k + pq: (a * e + b * g, a * f + b * h,
                             c * e + d * g, c * f + d * h)
                    for k, (a, b, c, d) in prefixes.items()
                    for pq, (e, f, g, h) in pairs.items()}
            least, at = None, []
            for k, (a, b, c, d) in prefixes.items():
                for pq, (e, f, g, h) in pairs.items():
                    t = abs(a * e + b * g + c * f + d * h)
                    if least is None or t < least:
                        least, at = t, [k + pq]
                    elif t == least:
                        at.append(k + pq)
            assert least == chebyshev[n], (mu, n)
            assert sorted(at) == [(-1,) * 2 * n, (1,) * 2 * n], (mu, n)
