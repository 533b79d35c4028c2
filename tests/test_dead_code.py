"""Every function and class in the package and the scripts has a caller
there: code that only tests reach is deleted, not kept for them."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/multitwist/*.py"),
                  *ROOT.glob("scripts/*.py")])

# deleted with the benchmark change (ROADMAP item 2): perfbench/tracing.py
# patches these, so they stay until the tracer stops naming them
PINNED_MODULES = {"quadratic"}
PINNED = {("bounds", "m_of_k"), ("intervals", "sqrt"),
          ("search", "enumerate_classes")}


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
