"""No module in the package reads another package module's private names:
a name that starts with one underscore belongs to its own module, and a
second module that needs it gets it under a public name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "multitwist"
SOURCES = sorted(ROOT.glob(f"src/{PACKAGE}/*.py"))
MODULES = {path.stem for path in SOURCES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _in_package(node: ast.ImportFrom) -> bool:
    """Whether a from-import reads the package or one of its modules."""
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_reads(source: str) -> list[str]:
    """Every `<package module>._name` that the source imports or reads."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node):
            for alias in node.names:
                name = f"{node.module or '.'}.{alias.name}"
                if _private(alias.name):
                    found.append(name)
                elif alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base in aliases or (base or "").split(".")[0] == PACKAGE:
                found.append(f"{base}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    reads = {path.name: private_reads(path.read_text()) for path in SOURCES}
    assert {name: r for name, r in reads.items() if r} == {}


def test_the_guard_sees_each_form_of_private_read():
    assert private_reads("from . import intervals\n"
                         "intervals._dyadic(1, 2)") == ["intervals._dyadic"]
    assert private_reads("from .intervals import _dyadic") == [
        "intervals._dyadic"]
    assert private_reads("from multitwist.rep import Interval, _bits") == [
        "multitwist.rep._bits"]
    assert private_reads("from multitwist import rep as r\nr._x") == ["r._x"]
    assert private_reads("import multitwist.rep\nmultitwist.rep._x") == [
        "multitwist.rep._x"]
    # public names, dunders, own privates and other packages' privates pass
    assert private_reads("from . import intervals\nintervals.dyadic\n"
                         "intervals.__name__\n_own()\nself._x\n"
                         "from fractions import _gcd\nimport os\nos._exit"
                         ) == []
