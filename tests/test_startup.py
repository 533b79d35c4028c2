"""The start-up contract of multitwist.cli.

Importing the CLI loads only multitwist and multitwist.cli; each command
loads its own modules when it runs, and a usage error loads none.  Every
case runs in a fresh interpreter, since an import cannot be undone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multitwist

SRC = Path(multitwist.__file__).resolve().parents[1]

# Run in a fresh interpreter: snapshot the modules of the bare interpreter,
# import the CLI, run argv (if any) with its output captured, and print
# what was loaded.
PROBE = """
import sys
bare = set(sys.modules)
import contextlib, io, json
from multitwist import cli
imported = set(sys.modules)
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
print(json.dumps({"code": code,
                  "new_at_import": sorted(imported - bare),
                  "package": sorted(m[len("multitwist."):] for m in sys.modules
                                    if m.startswith("multitwist."))}))
"""


def _probe(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def test_import_loads_only_cli():
    result = _probe(None)
    assert result["package"] == ["cli"]
    assert "multitwist" in result["new_at_import"]
    # none of these, unless the bare interpreter had it already
    loaded = set(result["new_at_import"])
    assert not loaded & {"fractions", "decimal", "dataclasses"}


COMMANDS = [
    (["dilatation", "--word", "ab", "--mu", "64"],
     ["cli", "intervals", "rep", "words"]),
    (["family", "--genus", "3", "--kind", "torelli"], ["cli", "families"]),
    (["bounds", "--group", "torelli"], ["bounds", "cli", "intervals"]),
    (["tau-cc", "--genus", "3", "--log-lambda", "1/2"],
     ["bounds", "cli", "intervals"]),
    (["search", "--max-len", "4", "--mu", "64"],
     ["cli", "intervals", "rep", "search", "words"]),
    (["lcs-table", "--max-k", "3", "--mu", "64"],
     ["cli", "intervals", "rep", "search", "words"]),
    (["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "x1"],
     ["cli", "johnson"]),
    # every module but quadratic, which only the benchmark's tracer imports
    (["verify-paper"], ["bounds", "cli", "families", "intervals", "johnson",
                        "rep", "search", "verify", "words"]),
]


@pytest.mark.parametrize("argv, modules", COMMANDS,
                         ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_its_own_modules(argv, modules):
    result = _probe(argv)
    assert result["code"] == 0
    assert result["package"] == modules


def test_usage_error_loads_only_cli():
    result = _probe(["dilatation", "--word", "ab"])  # no --mu
    assert result["code"] == 2
    assert result["package"] == ["cli"]
