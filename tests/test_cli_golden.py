"""The CLI contract byte for byte: exit code, stdout and stderr of cli.run.

cli_golden.json holds, for each argv below, what cli.run gave with
COLUMNS=80, with verify-paper's seconds masked.  The corpus is help and
usage output, which reads every subparser's name, help and arguments, and
argvs whose command is not argv[0] or that name a second command as a
value.  Unlike test_payload_digests, stderr is compared too; argparse's
wording and help layout move between Python versions, so the file records
the version it was written on and the test runs only on that version.
A change that alters the contract on purpose regenerates the file, which
prints the changed keys to stderr, and logs the change in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from multitwist import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench/workloads.py"

COMMANDS = ["dilatation", "family", "bounds", "search", "lcs-table",
            "johnson-tau", "tau-cc", "verify-paper"]

# the malformed requests of perfbench's cli workload, copied; a test
# keeps the copy equal to perfbench's
MALFORMED = [
    [],
    ["frobnicate"],
    ["dilatation", "--word", "ab"],
    ["dilatation", "--word", "ab", "--mu", "x"],
    ["family", "--genus", "3", "--kind", "hexagonal"],
    ["search", "--max-len", "4", "--mu", "64", "--nonsense"],
    ["bounds"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2", "--a", "x1"],
    ["dilatation", "--word", "ab", "--mu", "64", "--precision-bits", "0"],
    ["dilatation", "--word", "ab", "--mu", "0"],
    ["family", "--genus", "1", "--kind", "torelli"],
    ["search", "--max-len", "1", "--mu", "64"],
    ["tau-cc", "--genus", "2", "--log-lambda", "1"],
    ["bounds", "--group", "brunnian", "--p", "3"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,x3", "--a", "x1"],
]

ARGVS = [
    ["-h"],
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    *MALFORMED,
    # the command is not argv[0]
    ["--", "verify-paper"],
    ["--foo", "dilatation", "--word", "ab", "--mu", "2"],
    ["--word", "family", "--genus", "3", "--kind", "torelli"],
    # a second command named as a value
    ["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "family"],
    ["dilatation", "--word", "ab", "--mu", "64", "--format", "search"],
]


def _mask_seconds(out: str) -> str:
    return re.sub(r"  +\d+\.\d{3}s  ", "  0s  ", out)


def observe(argv) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return {"code": code, "stdout": _mask_seconds(stdout.getvalue()),
            "stderr": stderr.getvalue()}


def _python() -> str:
    return "{}.{}".format(*sys.version_info)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_is_recorded():
    assert _golden()["argvs"].keys() == set(map(shlex.join, ARGVS))


def test_malformed_requests_match_the_benchmark():
    # MALFORMED in perfbench/workloads.py is a tuple of (argv, exit code,
    # known defect) literals, read here without importing perfbench
    tree = ast.parse(WORKLOADS.read_text())
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["MALFORMED"]]
    assert [list(argv) for argv, _, _ in ast.literal_eval(value)] == MALFORMED


@pytest.mark.parametrize("argv", ARGVS, ids=shlex.join)
def test_cli_contract(argv, monkeypatch):
    golden = _golden()
    if golden["python"] != _python():
        pytest.skip(f"recorded on Python {golden['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    assert observe(argv) == golden["argvs"][shlex.join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    argvs = {shlex.join(argv): observe(argv) for argv in ARGVS}
    old = _golden()["argvs"] if GOLDEN.exists() else {}
    for key in sorted(argvs.keys() | old.keys()):
        if argvs.get(key) != old.get(key):
            print(key, file=sys.stderr)
    GOLDEN.write_text(json.dumps({"python": _python(), "argvs": argvs},
                                 indent=1, sort_keys=True) + "\n")
