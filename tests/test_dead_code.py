"""Every function and class in the package has a caller there: code that
only tests reach is deleted, not kept for them."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/multitwist/*.py"))

# deleted with the benchmark change (ROADMAP item 2): perfbench/tracing.py
# patches these, so they stay until the tracer stops naming them.  The
# quadratic module, intervals.sqrt, sqrt_fraction and cbrt,
# bounds.m_of_k and filling_intersection_lower, and words.Word, whose
# __post_init__ the tracer counts for words.Word.constructed, are already
# stubs that raise; the tests check the enumerator through
# enumerate_classes
PINNED_MODULES = {"quadratic"}
PINNED = {("bounds", "m_of_k"), ("bounds", "filling_intersection_lower"),
          ("intervals", "sqrt"),
          ("intervals", "sqrt_fraction"), ("intervals", "cbrt"),
          ("search", "enumerate_classes"), ("words", "Word")}
TRACER = ROOT / "perfbench" / "tracing.py"


def _used_names(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _unreferenced():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    for module, tree in trees.items():
        if module in PINNED_MODULES:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a reference from the definition's own body does not count
            if used[name] == _used_names(node)[name]:
                yield module, name


def test_every_definition_is_referenced():
    # a pinned name that gains a caller or is deleted leaves PINNED too
    assert set(_unreferenced()) == PINNED


def test_every_pin_is_named_by_the_tracer():
    # a name the tracer no longer patches is deleted, not kept pinned
    tracer = TRACER.read_text()
    names = PINNED_MODULES | {name for _, name in PINNED}
    assert {name for name in names
            if not re.search(rf"\b{name}\b", tracer)} == set()
