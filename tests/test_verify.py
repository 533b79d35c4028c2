"""The verify-paper checks evaluate each word once per mu and certify each
distinct family matrix once; these tests show that the shared work still
catches what a check per word and per genus caught."""

import ast
import dataclasses
import itertools
from pathlib import Path

import pytest

from multitwist import families, rep, verify, words

VERIFY_SOURCE = Path(verify.__file__).read_text()

_SWAP = str.maketrans("abAB", "baBA")


def _inverse(s):
    return s[::-1].swapcase()


def _swap(s):
    return s.translate(_SWAP)


def _rotations(s):
    return [s[i:] + s[:i] for i in range(len(s))]


def _closure(s, maps):
    """The smallest set holding s and closed under each of maps."""
    seen, todo = {s}, [s]
    while todo:
        for image in maps(todo.pop()):
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def _cyclically_reduced(n):
    return {s for s in map("".join, itertools.product("abAB", repeat=n))
            if all(s[i] != s[i - 1].swapcase() for i in range(n))}


@pytest.mark.parametrize("n", range(1, 6))
def test_cyclically_reduced_words_are_closed(n):
    # the premise of property-suite's lookup: every key it reads exists
    reduced = _cyclically_reduced(n)
    for s in reduced:
        assert _inverse(s) in reduced, s
        assert _swap(s) in reduced, s
        assert set(_rotations(s)) <= reduced, s


# Each mutant changes the trace of a set of words closed under the other
# two maps, so only the named invariance can see the change: a check that
# skipped that one comparison would pass the mutant.
_MUTANTS = {
    "rotation": lambda s: [_inverse(s), _swap(s)],
    "inverse": lambda s: [_swap(s), *_rotations(s)],
    "swap": lambda s: [_inverse(s), *_rotations(s)],
}
_BROKEN = {"rotation": _rotations, "inverse": lambda s: [_inverse(s)],
           "swap": lambda s: [_swap(s)]}


@pytest.mark.parametrize("broken", sorted(_MUTANTS))
def test_property_suite_catches_one_broken_invariance(broken, monkeypatch):
    mutated = _closure("aab", _MUTANTS[broken])
    assert not set(_BROKEN[broken]("aab")) <= mutated
    evaluate = rep.evaluate

    def mutant(w, mu):
        # ab has trace 2 - mu and det 1; the mutated words have 2 - 2 mu
        return evaluate("ab" if w in mutated else w, mu)

    monkeypatch.setattr(rep, "evaluate", mutant)
    with pytest.raises(AssertionError):
        verify.check_property_spot_suite()


@pytest.mark.parametrize("target", ["", "abA", "abAbaB"])
def test_property_suite_round_trips_every_reduced_word(target, monkeypatch):
    # the first parse of the reduced target is the suite's parse of that
    # string and is right; every later one returns a longer word, which
    # only the round trip of the target can see
    parse = words.parse_word
    assert parse(target) == target
    calls = []

    def mutant(s):
        if s == target:
            calls.append(s)
            if len(calls) > 1:
                return parse("a" * (len(target) + 1))
        return parse(s)

    monkeypatch.setattr(words, "parse_word", mutant)
    with pytest.raises(AssertionError):
        verify.check_property_spot_suite()
    assert len(calls) > 1


@pytest.mark.parametrize("mu", (64, 16))
def test_pf_certificates_catch_one_wrong_size(mu, monkeypatch):
    pf_eigenvalue = families.pf_eigenvalue
    for m in range(1, 33):
        def mutant(M, m=m):
            result = pf_eigenvalue(M)
            if len(M) == m and result.value == mu:
                return dataclasses.replace(result, value=mu + 1)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(families, "pf_eigenvalue", mutant)
            with pytest.raises(AssertionError):
                verify.check_pf_certificates()


_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}
_MUTATING_METHODS = {"add", "update", "setdefault", "append", "extend",
                     "insert", "pop", "popitem", "clear", "discard",
                     "remove", "__setitem__"}


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", ""))


def _module_containers(tree):
    """Names that the module body binds to a dict or a set."""
    containers = (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)
    builders = {"dict", "set", "defaultdict", "Counter", "OrderedDict"}
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        value = getattr(node, "value", None)
        if isinstance(value, containers) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in builders):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def cache_findings(source):
    """Each functools cache decorator, global statement and mutation of a
    module-level dict or set inside a function of source."""
    tree = ast.parse(source)
    shared = _module_containers(tree)
    findings = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        findings += [f"{fn.name}: @{_decorator_name(d)}"
                     for d in fn.decorator_list
                     if _decorator_name(d) in _CACHE_DECORATORS]
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                findings.append(f"{fn.name}: global {', '.join(node.names)}")
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Name)
                  and node.value.id in shared):
                findings.append(f"{fn.name}: writes {node.value.id}[...]")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared
                  and node.func.attr in _MUTATING_METHODS):
                findings.append(f"{fn.name}: {node.func.value.id}."
                                f"{node.func.attr}()")
    return findings


def test_verify_keeps_no_cache_across_calls():
    # a one-shot verify-paper and a repeated in-process run do the same
    # work, so a speed-up of the checks cannot come from a cache
    assert cache_findings(VERIFY_SOURCE) == []


@pytest.mark.parametrize("source", [
    "import functools\n@functools.lru_cache(None)\ndef f(x):\n    return x\n",
    "from functools import cache\n@cache\ndef f(x):\n    return x\n",
    "SEEN = set()\ndef f(x):\n    SEEN.add(x)\n",
    "TRACES = {}\ndef f(w):\n    TRACES[w] = 1\n",
    "DONE = dict()\ndef f(w):\n    DONE.setdefault(w, 0)\n",
    "N = 0\ndef f():\n    global N\n    N += 1\n",
])
def test_cache_guard_sees_each_kind_of_cache(source):
    assert cache_findings(source)
