"""Every local that a function binds is read there: a value computed and
never looked at is either a missing check or dead code.  A name bound by
an assignment, an unpacking, a for loop or a with statement must be
loaded somewhere in the function, nested functions included, unless it
starts with an underscore."""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/multitwist/*.py"),
                  *ROOT.glob("tests/*.py")])

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For,
                         ast.AsyncFor)):
        return [node.target]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.optional_vars for item in node.items
                if item.optional_vars is not None]
    return []


def _stored_names(target):
    return {node.id for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _own_nodes(func):
    """The nodes of func's body, but not those of the functions and
    classes it defines, whose locals are checked on their own."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(func):
    loaded = {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound, declared = {}, set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        for target in _targets(node):
            for name in _stored_names(target):
                bound[name] = min(node.lineno, bound.get(name, node.lineno))
    return sorted((line, name) for name, line in bound.items()
                  if name not in loaded and name not in declared
                  and not name.startswith("_"))


def _offenders():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, _FUNCTIONS):
                for line, name in _unused_locals(func):
                    yield f"{path.relative_to(ROOT)}:{line} {func.name}: {name}"


def test_every_bound_local_is_read():
    assert list(_offenders()) == []


def test_scan_sees_each_kind_of_binding():
    func = ast.parse(textwrap.dedent("""
        def f(xs):
            a = 1
            b, (c, *d) = xs
            for e in xs:
                pass
            with open(xs) as g:
                pass
            h: int = 0
            _i = j = k = 2
            def inner():
                m = 3
                return j
            return inner
    """)).body[0]
    assert [name for _, name in _unused_locals(func)] == \
        ["a", "b", "c", "d", "e", "g", "h", "k"]
    assert [name for _, name in _unused_locals(func.body[-2])] == ["m"]
