import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitwist.words import nested_commutator, parse_word

letters = st.sampled_from("abAB")
raw_strings = st.text(alphabet="abAB", max_size=50)


def test_reduce_examples():
    assert parse_word("") == ""
    assert parse_word("aA") == ""
    assert parse_word("abBb") == "ab"


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        parse_word("abc")
    with pytest.raises(ValueError):
        parse_word("a b")


@pytest.mark.parametrize("text, message", [
    ("abc", "invalid letter 'c'"),
    ("a\u00e9bB", "invalid letter '\u00e9'"),
])
def test_parse_word_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_word(text)
    assert str(info.value) == message


def test_commutator_examples():
    # [u, v] = u v u^-1 v^-1, written out and reduced by parse_word
    assert parse_word("a" + "b" + "A" + "B") == "abAB"
    assert parse_word("a" + "a" + "A" + "A") == ""
    assert parse_word("abAB" + "b" + "baBA" + "B") == "abAbaBAB"
    assert nested_commutator(3) == parse_word("abAB" + "b" + "baBA" + "B")
    assert len(nested_commutator(3)) == 8


def test_nested_commutator_examples():
    assert nested_commutator(1) == "ab"
    assert nested_commutator(2) == "abAB"
    assert nested_commutator(3) == "abAbaBAB"
    with pytest.raises(ValueError):
        nested_commutator(0)


def test_nested_commutator_lengths():
    for k in range(1, 17):
        assert len(nested_commutator(k)) == 2 ** k


def test_reduce_idempotent_exhaustive():
    # exhaustive through length 9; longer lengths randomized below
    for length in range(0, 10):
        for chars in itertools.product("abAB", repeat=length):
            w = parse_word("".join(chars))
            assert parse_word(w) == w


@given(raw_strings)
def test_reduce_idempotent_random(s):
    w = parse_word(s)
    assert parse_word(w) == w


@given(raw_strings)
def test_inverse_cancels(s):
    w = parse_word(s)
    inverse = w[::-1].swapcase()
    assert parse_word(w + inverse) == ""
    assert parse_word(inverse + w) == ""


def test_inverse_cancels_seeded():
    # the first 50 strings are verify-paper's property-suite sample
    rng = random.Random(7)
    for _ in range(500):
        w = parse_word("".join(rng.choice("abAB") for _ in range(30)))
        assert parse_word(w + w[::-1].swapcase()) == ""



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
        assert nested_commutator(k) == w, k


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
                parse_word(text)
            assert str(info.value) == str(exc)
        else:
            assert parse_word(text) == expected


def test_parse_matches_stack_reduction_long():
    # long strings, with runs of one letter that the stack must unwind
    rng = random.Random(2035)
    for _ in range(500):
        text = "".join(rng.choice("abAB") * rng.randint(1, 40)
                       for _ in range(rng.randint(1, 120)))
        assert parse_word(text) == _stack_reduce(text)


def test_reduction_is_linear():
    # a^k b^k B^k A^k cancels from its middle out, one pair at a time: a
    # loop that replaced cancelling pairs until none were left would need
    # k passes over the string, about 10^10 letter steps here
    k = 50_000
    text = "a" * k + "b" * k + "B" * k + "A" * k
    start = time.perf_counter()
    assert parse_word(text) == ""
    assert time.perf_counter() - start < 5.0
