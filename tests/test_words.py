import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitwist.words import Word, commutator, nested_commutator

letters = st.sampled_from("abAB")
raw_strings = st.text(alphabet="abAB", max_size=50)


def test_reduce_examples():
    assert Word.parse("").is_identity()
    assert Word.parse("aA").is_identity()
    assert str(Word.parse("abBb")) == "ab"


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word.parse("abc")
    with pytest.raises(ValueError):
        Word.parse("a b")


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError):
        Word("aA")


def test_commutator_examples():
    assert str(commutator(Word("a"), Word("b"))) == "abAB"
    assert commutator(Word("a"), Word("a")).is_identity()
    assert str(commutator(Word("abAB"), Word("b"))) == "abAbaBAB"
    assert len(commutator(Word("abAB"), Word("b"))) == 8


def test_nested_commutator_examples():
    assert str(nested_commutator(1)) == "ab"
    assert str(nested_commutator(2)) == "abAB"
    assert str(nested_commutator(3)) == "abAbaBAB"
    with pytest.raises(ValueError):
        nested_commutator(0)


def test_nested_commutator_lengths():
    for k in range(1, 17):
        assert len(nested_commutator(k)) == 2 ** k


def test_reduce_idempotent_exhaustive():
    # exhaustive through length 9; longer lengths randomized below
    for length in range(0, 10):
        for chars in itertools.product("abAB", repeat=length):
            w = Word.parse("".join(chars))
            assert Word.parse(w.letters) == w


@given(raw_strings)
def test_reduce_idempotent_random(s):
    w = Word.parse(s)
    assert Word.parse(w.letters) == w


@given(raw_strings)
def test_inverse_cancels(s):
    w = Word.parse(s)
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@given(raw_strings, raw_strings)
def test_commutator_is_product(s, t):
    u, v = Word.parse(s), Word.parse(t)
    assert commutator(u, v) == u * v * u.inverse() * v.inverse()


def test_swap_and_rotations():
    w = Word("abA")
    assert str(w.swap_generators()) == "baB"
    assert [r.letters for r in Word("ab").rotations()] == ["ab", "ba"]

