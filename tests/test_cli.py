import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multitwist
from multitwist import rep, search, verify, words
from multitwist.cli import run
from multitwist.intervals import PrecisionError
from multitwist.words import Word


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dilatation_json(capsys):
    code, payload = _run_json(capsys, ["dilatation", "--word", "ab",
                                       "--mu", "64"])
    assert code == 0
    assert payload["trace"]["a"] == "-62"
    lo, hi = (float(Fraction(x)) for x in payload["log_lambda"])
    assert 4.1268 < lo <= hi < 4.1269


def test_dilatation_identity_text(capsys):
    code = run(["dilatation", "--word", "", "--mu", "64", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "identity; no dilatation" in out


def test_dilatation_word_round_trip(capsys):
    code, payload = _run_json(capsys, ["dilatation", "--word", "abAbaBAB",
                                       "--mu", "64"])
    assert code == 0
    assert Word.parse(payload["word"]) == Word("abAbaBAB")


def test_family_json(capsys):
    code, payload = _run_json(capsys, ["family", "--genus", "5",
                                       "--kind", "torelli"])
    assert code == 0
    assert payload["N"] == [[4, 0, 4], [4, 4, 0], [0, 4, 4]]
    assert payload["pf"] == {"lower": "64", "upper": "64", "exact": True,
                             "eigenvector": ["1", "1", "1"]}


def test_family_csv(capsys):
    code = run(["family", "--genus", "5", "--kind", "braid",
                "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("section,row,values\n")
    assert "PF,lower,16" in out


def test_bounds_subcommand(capsys):
    code, payload = _run_json(capsys, ["bounds", "--group", "torelli"])
    assert code == 0
    assert payload["binding_case"] == "case2_cubic"
    assert payload["direction"] == "lower_bound_on_log_dilatation"

    code, payload = _run_json(capsys, ["bounds", "--group", "brunnian",
                                       "--p", "8"])
    assert code == 0
    lo, hi = payload["bound_float"]
    assert 0.6931 < lo <= hi < 0.6932


def test_bounds_missing_parameter(capsys):
    code = run(["bounds", "--group", "congruence"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_search_subcommand(capsys):
    code, payload = _run_json(capsys, ["search", "--max-len", "4",
                                       "--mu", "64"])
    assert code == 0
    assert payload["all_minima"] == ["ab"]
    assert "word length <= 4" in payload["note"]


def test_search_jobs_deterministic(capsys, monkeypatch):
    # start the worker pool at length 9 on any machine
    monkeypatch.setattr(search, "_PARALLEL_MIN_LENGTH", 5)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    code1, p1 = _run_json(capsys, ["search", "--max-len", "9", "--mu", "64",
                                   "--jobs", "1"])
    code2, p2 = _run_json(capsys, ["search", "--max-len", "9", "--mu", "64",
                                   "--jobs", "2"])
    assert code1 == code2 == 0
    assert p1 == p2


def test_lcs_table_default_csv(capsys):
    code = run(["lcs-table", "--max-k", "3", "--mu", "64"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "k,word,length,trace,log_lambda_lo,log_lambda_hi"
    assert lines[2].startswith("2,abAB,4,4098,")


def test_johnson_tau_subcommand(capsys):
    code, payload = _run_json(capsys, ["johnson-tau", "--genus", "3",
                                       "--pairs", "x2,y2", "--a", "x1"])
    assert code == 0
    assert payload["is_zero"] is False

    code = run(["johnson-tau", "--genus", "3", "--pairs", "x2,x3",
                "--a", "x1"])
    assert code == 1


def test_tau_cc_subcommand(capsys):
    code, payload = _run_json(capsys, ["tau-cc", "--genus", "3"])
    assert code == 0
    lo, hi = payload["bound_float"]
    assert 1.91636 < lo <= hi < 1.91637

    # hypothesis violation is a computation error, exit 1
    code = run(["tau-cc", "--genus", "2", "--log-lambda", "1"])
    assert code == 1
    assert "hypothesis" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["dilatation", "--word", "ab"]) == 2  # missing --mu
    assert run(["dilatation", "--word", "ab", "--mu", "64",
                "--nonsense"]) == 2
    capsys.readouterr()


def test_computation_error_exit_code(capsys):
    assert run(["dilatation", "--word", "ab", "--mu", "0"]) == 1
    assert run(["family", "--genus", "1", "--kind", "torelli"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("pairs", ["x2", "x2,y2;x3", "x2,y2,x3"])
def test_johnson_tau_malformed_pair_is_usage_error(capsys, pairs):
    code = run(["johnson-tau", "--genus", "3", "--pairs", pairs,
                "--a", "x1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err and "--pairs" in captured.err


@pytest.mark.parametrize("bits", ["0", "-5"])
def test_precision_bits_below_one_is_usage_error(capsys, bits):
    code = run(["dilatation", "--word", "ab", "--mu", "64",
                "--precision-bits", bits])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--precision-bits" in captured.err


def test_precision_error_exit_code(capsys, monkeypatch):
    def fail(*_args):
        raise PrecisionError("log enclosure did not converge at 60 bits")

    monkeypatch.setattr(rep, "dilatation", fail)
    code = run(["dilatation", "--word", "ab", "--mu", "64"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: log enclosure did not converge")


def _int_beyond_limit(text):
    """int(text) for a numeral longer than the int-to-str digit limit; the
    limit is lifted only inside this call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_lcs_table_prints_traces_beyond_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code = run(["lcs-table", "--max-k", "13", "--mu", "64"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert sys.get_int_max_str_digits() == limit
    k, word, length, trace = captured.out.split("\n")[13].split(",")[:4]
    assert (k, length) == ("13", "8192")
    assert limit == 0 or len(trace) > limit
    expected = rep.evaluate(words.nested_commutator(13), 64).trace()
    assert _int_beyond_limit(trace) == expected


def test_dilatation_prints_endpoints_beyond_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, payload = _run_json(capsys, ["dilatation", "--word", "ab",
                                       "--mu", "64",
                                       "--precision-bits", "16384"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    report = rep.dilatation(Word("ab"), 64, 16384)
    for key, iv in (("lambda", report.dilatation_interval),
                    ("log_lambda", report.log_dilatation_interval)):
        for text, end in zip(payload[key], (iv.lo, iv.hi)):
            numerator, denominator = text.split("/")
            assert Fraction(_int_beyond_limit(numerator),
                            _int_beyond_limit(denominator)) == end
    assert limit == 0 or len(payload["lambda"][0]) > limit


@pytest.mark.parametrize("argv", [
    ["dilatation", "--word", "ab", "--mu", "64", "--format", "csv"],
    ["family", "--genus", "5", "--kind", "braid", "--format", "text"],
    ["family", "--genus", "5", "--kind", "braid", "--precision-bits", "7"],
    ["bounds", "--group", "torelli", "--genus", "99"],
    ["bounds", "--group", "torelli", "--precision-bits", "7"],
    ["bounds", "--group", "torelli", "--format", "json"],
    ["search", "--max-len", "4", "--mu", "64", "--format", "json"],
    ["lcs-table", "--max-k", "3", "--mu", "64", "--format", "text"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "x1",
     "--format", "json"],
    ["johnson-tau", "--genus", "3", "--pairs", "x2,y2", "--a", "x1",
     "--precision-bits", "7"],
    ["tau-cc", "--genus", "3", "--format", "json"],
    ["tau-cc", "--genus", "3", "--precision-bits", "7"],
    ["verify-paper", "--format", "csv"],
    ["verify-paper", "--precision-bits", "7"],
])
def test_unhonoured_flag_is_usage_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code = run(["search", "--max-len", "4", "--mu", "64", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--jobs" in captured.err


def test_verify_paper_json(capsys, monkeypatch):
    def broken():
        raise AssertionError("off by one")

    monkeypatch.setattr(verify, "CHECKS", [
        ("fine", "always passes", lambda: None),
        ("broken", "always fails", broken)])
    code, payload = _run_json(capsys, ["verify-paper", "--format", "json"])
    assert code == 1
    assert [(r["key"], r["ok"], r["error"]) for r in payload] == [
        ("fine", True, ""), ("broken", False, "AssertionError: off by one")]
    assert all(set(r) == {"key", "ok", "seconds", "error"} for r in payload)
    assert all(r["seconds"] >= 0 for r in payload)


def test_reader_closing_early_leaves_no_traceback():
    src = str(Path(multitwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "multitwist", "lcs-table", "--max-k", "10",
         "--mu", "64", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # no reader is left before the first write, so every write fails
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
