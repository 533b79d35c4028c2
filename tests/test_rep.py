from fractions import Fraction

import numpy as np
import pytest

from multitwist import rep
from multitwist.intervals import Interval
from multitwist.search import _cyclically_reduced_strings
from multitwist.words import Word


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
    r = rep.dilatation(Word("ab"), 64)
    assert r.char_poly == (1, -62, 1)


def test_det_one_exhaustive():
    for mu in (2, 16, 64):
        for length in range(1, 7):
            for s in _cyclically_reduced_strings(length):
                assert rep.evaluate(Word(s), mu).det() == 1


def test_trace_invariances():
    for mu in (2, 64):
        for length in range(1, 6):
            for s in _cyclically_reduced_strings(length):
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
    w = Word("ab")
    power = Word("")
    for n in range(1, 5):
        power = power * w
        r = rep.dilatation(power, 64, precision_bits=80)
        iv = r.log_dilatation_interval
        slack = iv.width + n * base.log_dilatation_interval.width
        assert iv.lo - slack <= n * mid <= iv.hi + slack


def test_lambda_times_inverse_is_one():
    for s in ("ab", "aab", "abAB", "aB"):
        r = rep.dilatation(Word(s), 64)
        lam = r.dilatation_interval
        product = lam * (Interval.point(1) / lam)
        assert product.lo <= 1 <= product.hi
