import random
from fractions import Fraction

import numpy as np
import pytest

from multitwist import rep
from multitwist.words import Word

from free_words import cyclically_reduced_strings, letter_product


def _int_matrix_oracle(word: str, root: int) -> np.ndarray:
    """Independent image computation for perfect-square radicands, in the
    original generators with entries +-sqrt(mu)."""
    images = {
        "a": np.array([[1, root], [0, 1]], dtype=object),
        "A": np.array([[1, -root], [0, 1]], dtype=object),
        "b": np.array([[1, 0], [-root, 1]], dtype=object),
        "B": np.array([[1, 0], [root, 1]], dtype=object),
    }
    m = np.eye(2, dtype=object)
    for c in word:
        m = m @ images[c]
    return m


def _conjugate_of_oracle(oracle: np.ndarray, root: int) -> tuple:
    """(a, b/sqrt(mu), c*sqrt(mu), d), requiring the division to be exact."""
    assert oracle[0, 1] % root == 0
    return (oracle[0, 0], oracle[0, 1] // root, oracle[1, 0] * root,
            oracle[1, 1])


def test_generator_images():
    # conjugates of [[1, sqrt(mu)], [0, 1]] and [[1, 0], [-sqrt(mu), 1]]
    for mu, entry in ((64, 8), (16, 4)):
        mat_a = rep.evaluate(Word("a"), mu)
        mat_b = rep.evaluate(Word("b"), mu)
        assert mat_a == _conjugate_of_oracle(_int_matrix_oracle("a", entry),
                                             entry)
        assert mat_b == _conjugate_of_oracle(_int_matrix_oracle("b", entry),
                                             entry)
        assert mat_b.c == -entry * entry
    assert rep.evaluate(Word("a"), 2) == (1, 1, 0, 1)
    assert rep.evaluate(Word("b"), 2) == (1, 0, -2, 1)
    with pytest.raises(ValueError):
        rep.evaluate(Word("a"), 0)


def test_evaluate_ab_mu64():
    m = rep.evaluate(Word("ab"), 64)
    # original entries [-63, 8, -8, 1], conjugated by diag(1, 8)
    assert m == (-63, 1, -64, 1)
    assert m.trace() == -62


def test_evaluate_identity():
    m = rep.evaluate(Word(""), 64)
    assert m == (1, 0, 0, 1)
    assert m.trace() == 2


def test_evaluate_against_integer_oracle():
    for word in ("abAB", "aabB", "aBab", "bbaA", "ABab"):
        reduced = Word.parse(word)
        m = rep.evaluate(reduced, 64)
        oracle = _int_matrix_oracle(reduced.letters, 8)
        assert m == _conjugate_of_oracle(oracle, 8)


def _random_reduced(rng: random.Random, n: int) -> str:
    letters = []
    while len(letters) < n:
        c = rng.choice("abAB")
        if not letters or letters[-1] != c.swapcase():
            letters.append(c)
    return "".join(letters)


def test_evaluate_by_halves_against_letter_product():
    # words above 64 letters are evaluated as products of their halves
    rng = random.Random(41)
    for mu in (1, 2, 3, 4, 64, 2 ** 100):
        for n in (0, 1, 63, 64, 65, 127, 128, 129, rng.randrange(130, 1000),
                  rng.randrange(1000, 5001)):
            word = _random_reduced(rng, n)
            assert rep.evaluate(Word(word), mu) == letter_product(word, mu)
    # (ab)^3 at mu 1 is -I, of trace -2: the identity in PSL2
    m = rep.evaluate(Word("ab" * 3), 1)
    assert m == (-1, 0, 0, -1)
    assert rep.classify(m) == rep.IDENTITY_CLASS
    m = rep.evaluate(Word("ab" * 300), 1)
    assert m == (1, 0, 0, 1)
    assert rep.classify(m) == rep.IDENTITY_CLASS


def test_abAB_trace():
    assert rep.evaluate(Word("abAB"), 64).trace() == 4098


def test_fricke_identities():
    # tr(ab) = 2 - mu and tr[a, b] = 2 + mu^2 for every mu, square or not
    for mu in range(1, 101):
        assert rep.evaluate(Word("ab"), mu).trace() == 2 - mu
        assert rep.evaluate(Word("abAB"), mu).trace() == 2 + mu * mu


def test_classify():
    assert rep.classify(rep.evaluate(Word("ab"), 64)) == rep.HYPERBOLIC
    assert rep.classify(rep.evaluate(Word("a"), 64)) == rep.PARABOLIC
    assert rep.classify(rep.evaluate(Word(""), 64)) == rep.IDENTITY_CLASS


def test_elliptic_possible_at_small_mu():
    # trace of ab at mu is 2 - mu; mu = 2 gives |trace| = 0 < 2
    assert rep.classify(rep.evaluate(Word("ab"), 2)) == rep.ELLIPTIC


def test_dilatation_examples():
    r = rep.dilatation(Word("ab"), 64)
    lam = r.dilatation_interval
    assert lam.lo <= Fraction("61.98387") <= lam.hi or \
        lam.lo > Fraction("61.98386")
    assert Fraction("4.1268") < r.log_dilatation_interval.lo
    assert r.log_dilatation_interval.hi < Fraction("4.1269")

    r16 = rep.dilatation(Word("ab"), 16)
    assert r16.trace == -14
    assert r16.log_dilatation_interval.hi < Fraction("2.634")

    rb = rep.dilatation(Word("b"), 64)
    assert rb.isometry_class == rep.PARABOLIC
    assert rb.dilatation_interval is None
    assert rb.log_dilatation_interval is None


def test_char_poly_normalized_to_dilatation():
    # x^2 - |trace| x + 1, whose largest root is the dilatation
    for word, mu, poly in (("ab", 64, ["1", "-62", "1"]),
                           ("abAB", 5, ["1", "-27", "1"])):
        r = rep.dilatation(Word(word), mu)
        assert r.to_json_dict()["char_poly"] == poly


def test_det_one_exhaustive():
    for mu in (2, 16, 64):
        for length in range(1, 7):
            for s in cyclically_reduced_strings(length):
                assert rep.evaluate(Word(s), mu).det() == 1


def test_trace_invariances():
    for mu in (2, 16, 64):
        for length in range(1, 6):
            for s in cyclically_reduced_strings(length):
                w = Word(s)
                t = rep.evaluate(w, mu).trace()
                assert rep.evaluate(w.inverse(), mu).trace() == t
                assert rep.evaluate(w.swap_generators(), mu).trace() == t
                for r in w.rotations():
                    assert rep.evaluate(r, mu).trace() == t


def test_power_law():
    base = rep.dilatation(Word("ab"), 64, precision_bits=80)
    mid = (base.log_dilatation_interval.lo
           + base.log_dilatation_interval.hi) / 2
    for n in range(1, 5):
        r = rep.dilatation(Word("ab" * n), 64, precision_bits=80)
        iv = r.log_dilatation_interval
        slack = iv.width + n * base.log_dilatation_interval.width
        assert iv.lo - slack <= n * mid <= iv.hi + slack


def test_lambda_plus_inverse_is_trace():
    # lambda + 1/lambda = |t|, and x + 1/x increases for x > 1
    for mu in (5, 16, 64):
        for length in range(1, 7):
            for s in cyclically_reduced_strings(length):
                for bits in (60, 1024):
                    r = rep.dilatation(Word(s), mu, bits)
                    if r.isometry_class != rep.HYPERBOLIC:
                        continue
                    lam, t = r.dilatation_interval, abs(r.trace)
                    assert lam.lo > 1
                    assert lam.lo + 1 / lam.lo <= t <= lam.hi + 1 / lam.hi, s
