import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import multitwist
from multitwist import bounds, rep, search, verify, words
from multitwist.cli import run
from multitwist.intervals import Interval, PrecisionError
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


def test_family_genus_cap(capsys):
    code = run(["family", "--genus", "1024", "--kind", "torelli",
                "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\nNNt,") == 512 and "PF,exact,true" in out
    for genus in ("1025", "100000000"):
        code = run(["family", "--genus", genus, "--kind", "braid"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err and "--genus" in captured.err
    assert run(["family", "--help"]) == 0
    assert "at most 1024" in capsys.readouterr().out



def test_johnson_tau_genus_cap(capsys):
    code = run(["johnson-tau", "--genus", "64", "--pairs", "x2,y2",
                "--a", "x1"])
    captured = capsys.readouterr()
    assert code == 0
    # x1^x2^y2 = omega^x1 - sum over i >= 3 of x1^xi^yi, and x1^x2^y2 is
    # the pivot of omega^x1
    expected = {"coset": {f"x1^x{i}^y{i}": -1 for i in range(3, 65)},
                "genus": 64, "is_zero": False}
    assert captured.out == json.dumps(expected, indent=2,
                                      sort_keys=True) + "\n"
    assert captured.err == ""
    for genus in ("65", "100000000"):
        code = run(["johnson-tau", "--genus", genus, "--pairs", "x2,y2",
                    "--a", "x1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err and "--genus" in captured.err
    for genus in ("1", "0", "-3"):
        assert run(["johnson-tau", "--genus", genus, "--a", "x1"]) == 1
    capsys.readouterr()
    assert run(["johnson-tau", "--help"]) == 0
    assert "at most 64" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["family", "--genus", "x", "--kind", "torelli"],
    ["johnson-tau", "--genus", "2.5", "--a", "x1"],
    ["dilatation", "--word", "ab", "--mu", "64", "--precision-bits", "x"],
    ["search", "--max-len", "4", "--mu", "64", "--jobs", "two"],
])
def test_non_integer_argument_message_is_plain(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected an integer, got" in captured.err
    # argparse names the type function only when it raises ValueError
    assert "invalid" not in captured.err and "_int" not in captured.err
    assert "_genus" not in captured.err

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


def test_precision_bits_cap(capsys):
    code, payload = _run_json(capsys, ["dilatation", "--word", "ab",
                                       "--mu", "64",
                                       "--precision-bits", "65536"])
    assert code == 0
    lo, hi = (float(Fraction(*map(_int_beyond_limit, text.split("/"))))
              for text in payload["log_lambda"])
    assert 4.1268 < lo <= hi < 4.1269
    for argv in (["dilatation", "--word", "ab", "--mu", "64"],
                 ["search", "--max-len", "4", "--mu", "64"],
                 ["lcs-table", "--max-k", "2", "--mu", "64"]):
        for bits in ("65537", "100000000"):
            code = run(argv + ["--precision-bits", bits])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "usage:" in captured.err
            assert f"must be <= 65536, got {bits}" in captured.err
        assert run([argv[0], "--help"]) == 0
        assert "at most 65536" in capsys.readouterr().out


def test_lcs_table_depth_cap(capsys):
    for k in ("19", "30"):
        code = run(["lcs-table", "--max-k", k, "--mu", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"--max-k: must be <= 18, got {k}" in captured.err
    assert run(["lcs-table", "--help"]) == 0
    assert "at most 18" in capsys.readouterr().out


def test_search_length_cap(capsys):
    for n in ("17", "100"):
        code = run(["search", "--max-len", n, "--mu", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"--max-len: must be <= 16, got {n}" in captured.err
    # below the search's own minimum it stays a computation error
    assert run(["search", "--max-len", "1", "--mu", "64"]) == 1
    assert "max_length must be >= 2" in capsys.readouterr().err
    assert run(["search", "--help"]) == 0
    assert "at most 16" in capsys.readouterr().out


def test_dilatation_text_unchanged_in_float_range(capsys):
    assert run(["dilatation", "--word", "ab", "--mu", "64",
                "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "word ab: hyperbolic, |trace| = 62, lambda in [61.983866769659336, "
        "61.983866769659336], log(lambda) in [4.126874137791121, "
        "4.126874137791121]\n")


def test_dilatation_text_beyond_float_range(capsys):
    # lambda of (ab)^200 at mu 64 is about 2.86e358, past the float range
    word = "ab" * 200
    code = run(["dilatation", "--word", word, "--mu", "64",
                "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    head, lam, log_lam = out.split("[")
    assert head.startswith(f"word {word}: hyperbolic, |trace| = ")
    lam_lo, lam_hi = (Fraction(x) for x in lam.split("]")[0].split(", "))
    log_lo, log_hi = (float(x) for x in log_lam.split("]")[0].split(", "))
    mpmath.mp.prec = 80
    t = mpmath.mpf(62)
    exact = ((t + mpmath.sqrt(t * t - 4)) / 2) ** 200
    for x in (lam_lo, lam_hi):
        assert abs(mpmath.mpf(x.numerator) / x.denominator / exact - 1) < 1e-15
    assert log_lo == log_hi == pytest.approx(float(mpmath.log(exact)),
                                             rel=1e-15)


def test_tau_cc_hypothesis_message_beyond_float_range(capsys):
    big = "1" + "0" * 399
    code = run(["tau-cc", "--genus", "3", "--log-lambda", big])
    err = capsys.readouterr().err
    assert code == 1
    assert (f"log(lambda) upper endpoint {big}.000000 exceeds certified "
            f"log(5/2) >= 0.916291" in err)
    # exponents are refused before any work, so 1e309 is a usage error
    assert run(["tau-cc", "--genus", "3", "--log-lambda", "1e309"]) == 2
    # so is a numerator past the int-from-str digit limit, plainly worded
    assert run(["tau-cc", "--genus", "3", "--log-lambda", "1" * 5000]) == 2
    err = capsys.readouterr().err
    assert "Exceeds the limit" in err and "_rational" not in err


@pytest.mark.parametrize("text, value", [
    ("1", 1), ("-2", -2), ("+3", 3), ("6931/10000", Fraction(6931, 10000)),
    ("0.5", Fraction(1, 2)), (".5", Fraction(1, 2)), ("2.", 2),
])
def test_log_lambda_accepts_rationals(capsys, text, value):
    code, payload = _run_json(capsys, ["tau-cc", "--genus", "64",
                                       "--log-lambda", text])
    assert code == 0
    expected = bounds.tau_cc_upper(64, Interval.point(Fraction(value)))
    assert payload == json.loads(json.dumps(expected.to_json_dict()))


@pytest.mark.parametrize("text", ["abc", "1/0", "1e3", "1e1000000", "0x10",
                                  "1/2/3", "1.5/2", "", "inf", "nan"])
def test_log_lambda_refuses_non_rationals(capsys, text):
    code = run(["tau-cc", "--genus", "3", "--log-lambda", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "--log-lambda" in captured.err


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
