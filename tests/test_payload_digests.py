"""Every subcommand's stdout and exit code, pinned by one sha256 per argv.

The digests in payload_digests.json cover (exit code, stdout) of cli.run,
with verify-paper's seconds masked; stderr is left out, as argparse's
wording moves between Python versions.  A change that alters a payload on
purpose regenerates the file, which prints the changed keys to stderr,
and logs the change in CHANGES.md:

    PYTHONPATH=src python tests/test_payload_digests.py
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from multitwist import cli

DIGESTS = Path(__file__).with_name("payload_digests.json")

ARGVS = [
    [],
    ["frobnicate"],
    ["dilatation", "--word", "ab", "--mu", "64"],
    ["dilatation", "--word", "ab", "--mu", "64", "--format", "text"],
    ["dilatation", "--word", "abAB", "--mu", "5", "--precision-bits", "200"],
    ["dilatation", "--word", "aB", "--mu", "3", "--format", "text"],
    ["dilatation", "--word", "ab", "--mu", "4", "--format", "text"],
    ["dilatation", "--word", "ab", "--mu", "2"],
    ["dilatation", "--word", "", "--mu", "64", "--format", "text"],
    ["dilatation", "--word", "ab", "--mu", "0"],
    ["dilatation", "--word", "abq", "--mu", "64"],
    ["dilatation", "--word", "ab", "--mu", "x"],
    ["dilatation", "--word", "ab", "--mu", "64", "--precision-bits", "0"],
    ["dilatation", "--word", "ab", "--mu", "64", "--precision-bits", "12288"],
    ["dilatation", "--word", "abAB" * 32, "--mu", "5", "--precision-bits",
     "4096"],
    ["dilatation", "--word", "ab", "--mu", "64", "--precision-bits", "65536"],
    ["family", "--genus", "3", "--kind", "torelli"],
    ["family", "--genus", "4", "--kind", "braid", "--format", "csv"],
    ["family", "--genus", "2", "--kind", "torelli", "--format", "csv"],
    ["family", "--genus", "1", "--kind", "torelli"],
    ["family", "--genus", "1025", "--kind", "braid"],
    ["family", "--genus", "1", "--kind", "braid"],
    ["family", "--genus", "63", "--kind", "braid", "--format", "csv"],
    ["family", "--genus", "1024", "--kind", "torelli"],
    ["bounds", "--group", "torelli"],
    ["bounds", "--group", "johnson"],
    ["bounds", "--group", "congruence", "--r", "3"],
    ["bounds", "--group", "congruence", "--r", "7"],
    ["bounds", "--group", "congruence", "--r", "4"],
    ["bounds", "--group", "brunnian", "--p", "5"],
    ["bounds", "--group", "brunnian", "--p", "3"],
    ["bounds", "--group", "congruence"],
    ["bounds", "--group", "torelli", "--p", "5"],
    ["search", "--max-len", "6", "--mu", "64"],
    ["search", "--max-len", "5", "--mu", "2", "--precision-bits", "100"],
    ["search", "--max-len", "4", "--mu", "1"],
    ["search", "--max-len", "1", "--mu", "64"],
    ["search", "--max-len", "18", "--mu", "64"],
    ["search", "--max-len", "2", "--mu", "3"],
    ["search", "--max-len", "8", "--mu", "3"],
    ["search", "--max-len", "8", "--mu", "4"],
    ["search", "--max-len", "10", "--mu", "1"],
    ["lcs-table", "--max-k", "5", "--mu", "64"],
    ["lcs-table", "--max-k", "4", "--mu", "5", "--format", "json"],
    ["lcs-table", "--max-k", "3", "--mu", "4"],
    ["lcs-table", "--max-k", "19", "--mu", "64"],
    ["lcs-table", "--max-k", "12", "--mu", "5", "--format", "json"],
    ["lcs-table", "--max-k", "9", "--mu", "64"],
    ["lcs-table", "--max-k", "16", "--mu", "64"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "x1"],
    ["johnson-tau", "--genus", "4", "--pairs", "x2,y2;x3,y3", "--a", "y1"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2+x3,y2;x3,y3-y2",
     "--a", "x1"],
    ["johnson-tau", "--genus", "5", "--pairs", "x2 + x3, y2", "--a", "- x1"],
    ["johnson-tau", "--genus", "20", "--pairs", "x2,y2", "--a", "x1 3y5"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,x3", "--a", "x1"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2", "--a", "x1"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "x4"],
    ["tau-cc", "--genus", "3"],
    ["tau-cc", "--genus", "10", "--log-lambda", "1/2"],
    ["tau-cc", "--genus", "7", "--log-lambda", "0.25"],
    ["tau-cc", "--genus", "2", "--log-lambda", "1"],
    ["tau-cc", "--genus", "5", "--log-lambda", "0"],
    ["tau-cc", "--genus", "5", "--log-lambda", "1e5"],
    ["tau-cc", "--genus", "1000000"],
    ["tau-cc", "--genus", "64", "--log-lambda", "6931/10000"],
    ["tau-cc", "--genus", "3", "--log-lambda", "1/3"],
    ["bounds", "--group", "brunnian", "--p", "97"],
    ["bounds", "--group", "congruence", "--r", "1000"],
    ["verify-paper"],
    ["verify-paper", "--format", "json"],
    ["dilatation", "--word", "aB" * 24, "--mu", "64"],
    ["dilatation", "--word", "ab", "--mu", "2361183241434822606849"],
    ["dilatation", "--word", "ab", "--mu", "2361183241434822606850"],
    ["dilatation", "--word", "aB", "--mu", "3", "--precision-bits", "504"],
    ["dilatation", "--word", "aB", "--mu", "3", "--precision-bits", "505"],
    ["dilatation", "--word", "aabAB" * 40, "--mu", "7", "--precision-bits",
     "1024"],
    ["lcs-table", "--max-k", "6", "--mu", "16", "--format", "json",
     "--precision-bits", "4096"],
]


def _mask_seconds(out: str) -> str:
    out = re.sub(r'"seconds": [^,\n]+', '"seconds": 0', out)
    return re.sub(r"  +\d+\.\d{3}s  ", "  0s  ", out)


def digest(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    out = stdout.getvalue()
    if argv[:1] == ["verify-paper"]:
        out = _mask_seconds(out)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def current() -> dict:
    return {shlex.join(argv): digest(argv) for argv in ARGVS}


def changed_keys(expected: dict, actual: dict) -> list:
    """Keys whose digest differs, or that only one of the two has."""
    return [key for key in [*actual, *(k for k in expected if k not in actual)]
            if expected.get(key) != actual.get(key)]


def test_payload_digests():
    expected = json.loads(DIGESTS.read_text())
    assert changed_keys(expected, current()) == []
    assert len(expected) == len(ARGVS)


if __name__ == "__main__":
    digests = current()
    for key in changed_keys(json.loads(DIGESTS.read_text()), digests):
        print(key, file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
