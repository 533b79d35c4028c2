import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitwist.words import Word, nested_commutator

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
    # one cancelling pair each, inside other letters
    for text in ("baAb", "bAab", "abBa", "aBba"):
        with pytest.raises(ValueError):
            Word(text)


@pytest.mark.parametrize("text, message", [
    ("abc", "invalid letter 'c'"),
    ("a\u00e9bB", "invalid letter '\u00e9'"),
    ("aA", "word 'aA' is not freely reduced"),
    ("abABbB", "word 'abABbB' is not freely reduced"),
])
def test_word_constructor_messages(text, message):
    with pytest.raises(ValueError) as info:
        Word(text)
    assert str(info.value) == message


def test_commutator_examples():
    # [u, v] = u v u^-1 v^-1, written out and reduced by Word.parse
    assert str(Word.parse("a" + "b" + "A" + "B")) == "abAB"
    assert Word.parse("a" + "a" + "A" + "A").is_identity()
    assert str(Word.parse("abAB" + "b" + "baBA" + "B")) == "abAbaBAB"
    assert nested_commutator(3) == Word.parse("abAB" + "b" + "baBA" + "B")
    assert len(nested_commutator(3)) == 8


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
    assert Word.parse(w.letters + w.inverse().letters).is_identity()
    assert Word.parse(w.inverse().letters + w.letters).is_identity()


def test_inverse_cancels_seeded():
    # the first 50 strings are verify-paper's property-suite sample
    rng = random.Random(7)
    for _ in range(500):
        w = Word.parse("".join(rng.choice("abAB") for _ in range(30)))
        assert Word.parse(w.letters + w.inverse().letters).is_identity()


def test_swap_and_rotations():
    w = Word("abA")
    assert str(w.swap_generators()) == "baB"
    assert [r.letters for r in Word("ab").rotations()] == ["ab", "ba"]



def _stack_reduce(text):
    """Oracle: free reduction by a stack, raising on the first bad letter."""
    stack = []
    for c in text:
        if c not in "abAB":
            raise ValueError(f"invalid letter {c!r}")
        if stack and stack[-1] == {"a": "A", "A": "a", "b": "B", "B": "b"}[c]:
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


def test_nested_commutator_matches_stack_reduction():
    # the closed form against the literal [w(k-1), b], reduced by a stack
    w = "ab"
    for k in range(2, 17):
        w = _stack_reduce(w + "b" + w[::-1].swapcase() + "B")
        assert nested_commutator(k).letters == w, k


def test_parse_matches_stack_reduction():
    rng = random.Random(15)
    for _ in range(5000):
        text = "".join(rng.choice("abABxé ") if rng.random() < 0.05
                       else rng.choice("abAB")
                       for _ in range(rng.randint(0, 30)))
        try:
            expected = _stack_reduce(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Word.parse(text)
            assert str(info.value) == str(exc)
        else:
            assert Word.parse(text).letters == expected


def test_parse_matches_stack_reduction_long():
    # long strings, with runs of one letter that the stack must unwind
    rng = random.Random(2035)
    for _ in range(500):
        text = "".join(rng.choice("abAB") * rng.randint(1, 40)
                       for _ in range(rng.randint(1, 120)))
        assert Word.parse(text).letters == _stack_reduce(text)


def test_reduction_is_linear():
    # a^k b^k B^k A^k cancels from its middle out, one pair at a time: a
    # loop that replaced cancelling pairs until none were left would need
    # k passes over the string, about 10^10 letter steps here
    k = 50_000
    text = "a" * k + "b" * k + "B" * k + "A" * k
    start = time.perf_counter()
    assert Word.parse(text).is_identity()
    assert time.perf_counter() - start < 5.0


def test_unchecked_builds_equal_the_checked_constructor():
    # parse, inverse, swap and the rotations of a cyclically reduced word
    # build their Words without a second check; each must equal Word()
    # applied to the stack reduction of the letters it stands for.  The
    # unchecked build sets letters alone, so Word may have no other field
    assert [f.name for f in dataclasses.fields(Word)] == ["letters"]
    invert = str.maketrans("abAB", "ABab")
    swap = str.maketrans("abAB", "baBA")
    for length in range(8):
        for chars in itertools.product("abAB", repeat=length):
            text = "".join(chars)
            reduced = _stack_reduce(text)
            w = Word.parse(text)
            assert w == Word(reduced) and type(w.letters) is str
            assert w.inverse() == Word(
                _stack_reduce(reduced[::-1].translate(invert)))
            assert w.swap_generators() == Word(
                _stack_reduce(reduced.translate(swap)))
            if reduced and reduced[0] == reduced[-1].translate(invert):
                continue
            assert w.rotations() == [
                Word(_stack_reduce(reduced[i:] + reduced[:i]))
                for i in range(max(len(reduced), 1))]


def test_rotations_of_a_word_not_cyclically_reduced_raise():
    with pytest.raises(ValueError) as info:
        Word("abA").rotations()
    assert str(info.value) == "word 'bAa' is not freely reduced"
