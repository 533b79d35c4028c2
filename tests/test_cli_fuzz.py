"""A seeded argv fuzz of the command line: mutations of valid requests over
every subcommand, digit strings inflated past str()'s 4300-digit limit
among them, must end in exit code 0, 1 or 2 with no escaping exception,
print something on exit 0 and nothing on exit 2.  Every value the
mutations draw is cheap to compute with, so the whole fuzz runs in well
under two seconds.  The same argvs, with the golden corpus, also check
that the parser build_parser(argv) fills in parses as the full one."""

import contextlib
import io
import random
import re

import pytest

from multitwist import verify
from multitwist.cli import build_parser, run

from test_cli_golden import ARGVS, COMMANDS

VALID = [
    ["dilatation", "--word", "abAB", "--mu", "3"],
    ["dilatation", "--word", "ab", "--mu", "64", "--format", "text",
     "--precision-bits", "60"],
    ["family", "--genus", "5", "--kind", "torelli"],
    ["family", "--genus", "4", "--kind", "braid", "--format", "csv"],
    ["bounds", "--group", "torelli"],
    ["bounds", "--group", "johnson"],
    ["bounds", "--group", "congruence", "--r", "3"],
    ["bounds", "--group", "brunnian", "--p", "8"],
    ["search", "--max-len", "4", "--mu", "64"],
    ["lcs-table", "--max-k", "3", "--mu", "64"],
    ["lcs-table", "--max-k", "2", "--mu", "5", "--format", "json"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "x1"],
    ["johnson-tau", "--genus", "4", "--pairs", "x2+7x3,y2+7x4", "--a", "x1"],
    ["tau-cc", "--genus", "3"],
    ["tau-cc", "--genus", "8", "--log-lambda", "0.6931"],
    ["verify-paper"],
    ["verify-paper", "--format", "json"],
]
FLAGS = sorted({t for argv in VALID for t in argv if t.startswith("--")})
# the values of VALID and some malformed ones, all small: a large genus,
# length or precision is slow, not wrong
VALUES = sorted({t for argv in VALID for t in argv[1:]
                 if not t.startswith("--")} | {
    "", "0", "1", "2", "-1", "+5", " 4", "1_0", "٣", "1e3", "1/0", "0.5",
    "-7/3", "aA", "x1", "y3", "2x1-3y2", "x0", "x2,y2;x3,y3", "x2;y2",
    "--", "-", "-h", "nan"})
# the inputs that once ended in the int-to-str digit limit's message
FIXED = [
    ["johnson-tau", "--genus", "4",
     "--pairs", f"x2+{'7' * 3000}x3,y2+{'7' * 3000}x4", "--a", "x1"],
    ["johnson-tau", "--genus", "4", "--a", "x" + "5" * 5000],
    ["tau-cc", "--genus", "9" + "0" * 4299, "--log-lambda", "99999"],
]


def _replace_digits(rng, token, new):
    """token with one of its digit runs, or the whole token if it has
    none, replaced by new(run)."""
    runs = list(re.finditer(r"\d+", token))
    if not runs:
        return new("0")
    m = rng.choice(runs)
    return token[:m.start()] + new(m.group()) + token[m.end():]


def _mutate(rng, argv):
    """One or two mutations, most of them of a flag's value: a drawn
    value, a short number moved by at most 2, or 4301-4400 digits."""
    argv = list(argv)
    for _ in range(rng.randrange(1, 3)):
        values = [i for i, t in enumerate(argv)
                  if i and not t.startswith("--")] or [0]
        i = rng.choice(values)
        op = rng.randrange(10)
        if op < 3:
            argv[i] = rng.choice(VALUES)
        elif op < 5:
            argv[i] = _replace_digits(rng, argv[i], lambda run: run if len(
                run) > 9 else str(int(run) + rng.randint(-2, 2)))
        elif op < 7:
            digits = str(rng.randrange(1, 10)) * rng.randrange(4301, 4401)
            argv[i] = _replace_digits(rng, argv[i], lambda run: digits)
        elif op == 7 and len(argv) > 1:
            del argv[rng.randrange(len(argv))]
        elif op == 8:
            j, k = rng.randrange(len(argv)), rng.randrange(len(argv))
            argv[j], argv[k] = argv[k], argv[j]
        else:
            argv += [rng.choice(FLAGS), rng.choice(VALUES)]
    return argv


def _cases():
    rng = random.Random(20061019)
    return FIXED + [_mutate(rng, rng.choice(VALID)) for _ in range(300)]


@pytest.fixture(scope="module")
def paper_results():
    """One real verify-paper table, served to every fuzzed verify-paper
    request: its 12 checks take about 0.15 s a run."""
    return verify.run_all()


def test_fuzzed_argv_exit_codes(capsys, monkeypatch, paper_results):
    monkeypatch.setattr(verify, "run_all", lambda: paper_results)
    codes = []
    for argv in _cases():
        try:
            code = run(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{type(exc).__name__} escaped for {argv!r}: {exc}")
        out = capsys.readouterr().out
        assert code in (0, 1, 2), argv
        if code == 0:
            assert out, argv
        if code == 2:
            assert not out, argv
        codes.append(code)
    # the mutations reach every exit code
    assert set(codes) == {0, 1, 2}


def _usage_phase(parser, argv):
    """What parser's usage phase gives, as cli.run meets it (parse_args,
    then the check that joins flags): exit code, stdout, stderr, and the
    parsed values, with each callable read as its name and the prog of the
    parser it is bound to."""
    def value(v):
        if not callable(v):
            return v
        return v.__qualname__, getattr(getattr(v, "__self__", None), "prog",
                                       None)

    stdout, stderr = io.StringIO(), io.StringIO()
    code = values = None
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            args = parser.parse_args(argv)
            if hasattr(args, "check"):
                args.check(args)
            values = {k: value(v) for k, v in vars(args).items()}
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), values


def test_partial_build_parses_as_the_full_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = set()
    for argv in ARGVS + _cases():
        partial = _usage_phase(build_parser(argv), argv)
        assert partial == _usage_phase(build_parser(COMMANDS), argv), argv
        outcomes.add(partial[0])
    # help (0), usage errors (2) and parsed requests (None) all occur
    assert outcomes == {0, 2, None}
