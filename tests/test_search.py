import concurrent.futures
import itertools

import pytest

from multitwist import rep, search
from multitwist.search import (NoHyperbolicClassError, enumerate_classes,
                               lcs_csv, lcs_table, min_dilatation_search,
                               orbit_representative)
from multitwist.words import Word


def test_enumerate_length_one():
    assert [w.letters for w in enumerate_classes(1)] == ["a"]


def test_enumerate_length_two():
    reps = [w.letters for w in enumerate_classes(2)]
    assert reps == ["a", "aa", "ab", "aB"]
    # aB is NOT in the ab orbit: check definitionally
    assert orbit_representative(Word("aB")) != orbit_representative(Word("ab"))


def _brute_force_orbit_count(max_length: int) -> int:
    count = 0
    for length in range(1, max_length + 1):
        pool = set(search._cyclically_reduced_strings(length))
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
    assert produced == _brute_force_orbit_count(6)


def test_enumerate_reps_are_canonical():
    for w in enumerate_classes(8):
        s = w.letters
        assert s.startswith("a")
        assert len(s) < 2 or s[0] != s[-1].swapcase()  # cyclically reduced
        assert orbit_representative(w) == w


def test_enumerate_matches_definitional_pipeline():
    # first appearances of orbit representatives in product order
    expected = []
    for length in range(1, 9):
        seen = set()
        for s in search._cyclically_reduced_strings(length):
            canonical = orbit_representative(Word(s)).letters
            if canonical not in seen:
                seen.add(canonical)
                expected.append(canonical)
    assert [w.letters for w in enumerate_classes(8)] == expected


def test_cyclically_reduced_strings_match_product_filter():
    for length in range(1, 10):
        expected = ["".join(chars) for chars in
                    itertools.product("abAB", repeat=length)
                    if all(chars[i] != chars[i - 1].swapcase()
                           for i in range(length))]
        assert list(search._cyclically_reduced_strings(length)) == expected


# classes of length <= n for n = 1..10; the length-10 count was checked
# once against the definitional pipeline above, which takes about 20 s there
CLASS_COUNTS = (1, 4, 7, 16, 29, 68, 147, 373, 922, 2453)


@pytest.mark.parametrize("max_length", range(1, 11))
def test_enumerate_class_counts(max_length):
    produced = sum(1 for _ in enumerate_classes(max_length))
    assert produced == CLASS_COUNTS[max_length - 1]


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
    assert NoHyperbolicClassError.__mro__  # exported error type


def test_dedup_soundness_small():
    # minimum over deduplicated classes equals the no-dedup minimum
    for max_length, mu in ((6, 64), (6, 16)):
        best = None
        for length in range(1, max_length + 1):
            for s in search._cyclically_reduced_strings(length):
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


def test_jobs_do_not_change_report(monkeypatch):
    # start the worker pool at length 9 on any machine
    monkeypatch.setattr(search, "_PARALLEL_MIN_LENGTH", 5)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    for mu in (5, 64):
        a = min_dilatation_search(9, mu, jobs=1)
        b = min_dilatation_search(9, mu, jobs=2)
        assert a.to_json_dict() == b.to_json_dict()


def test_parallel_classes_keep_order():
    assert search._parallel_classes(9, 2) == list(enumerate_classes(9))


def test_jobs_clamped_to_cores(monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(search, "_PARALLEL_MIN_LENGTH", 5)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = min_dilatation_search(9, 64, jobs=10 ** 6)
    assert report.to_json_dict() == min_dilatation_search(9, 64).to_json_dict()


def test_short_search_runs_serially(monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    length = search._PARALLEL_MIN_LENGTH - 1
    report = min_dilatation_search(length, 64, jobs=2)
    assert report.classes_examined == len(list(enumerate_classes(length)))


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError):
        min_dilatation_search(5, 64, jobs=0)


def test_minimum_reproduces_trace():
    r = min_dilatation_search(5, 64)
    w = r.all_minima[0]
    assert rep.evaluate(w, 64).trace() == r.minimum.trace


def test_lcs_table_rows():
    table = lcs_table(4, 64)
    assert [row.depth for row in table] == [1, 2, 3, 4]
    assert [row.word_length for row in table] == [2, 4, 8, 16]
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


def test_word_key_order():
    # canonical letter order a < b < A < B
    assert sorted(["aB", "ba", "ab"], key=search._word_key) == \
        ["ab", "aB", "ba"]
