import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import multitwist
from multitwist import bounds, cli, johnson, rep, search, verify, words
from multitwist.cli import build_parser, run
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


@pytest.mark.parametrize("kind", ["torelli", "braid"])
@pytest.mark.parametrize("genus", range(1, 65))
def test_family_csv_matches_json(capsys, kind, genus):
    argv = ["family", "--genus", str(genus), "--kind", kind]
    code = run(argv)
    out, err = capsys.readouterr()
    if code:  # the torelli family starts at genus 2
        assert (kind, genus, code) == ("torelli", 1, 1)
        assert run(argv + ["--format", "csv"]) == 1
        assert capsys.readouterr() == ("", err)
        return
    payload = json.loads(out)
    assert run(argv + ["--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n")
    rows = [line.split(",") for line in text[:-1].split("\n")]
    m, pf = payload["m"], payload["pf"]
    assert len(rows) == 1 + 2 * m + 4
    assert rows[0] == ["section", "row", "values"]
    for offset, name in ((1, "N"), (1 + m, "NNt")):
        assert rows[offset:offset + m] == [
            [name, str(i), " ".join(map(str, row))]
            for i, row in enumerate(payload[name])]
    assert rows[1 + 2 * m:] == [
        ["PF", "lower", pf["lower"]], ["PF", "upper", pf["upper"]],
        ["PF", "exact", "true" if pf["exact"] else "false"],
        ["PF", "eigenvector", " ".join(pf["eigenvector"])]]


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
    for group, flag in (("congruence", "--r"), ("brunnian", "--p")):
        code = run(["bounds", "--group", group])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: {flag} is required for --group {group}" in \
            captured.err


@pytest.mark.parametrize("argv, message", [
    (["--group", "torelli", "--r", "5"],
     "--r is only valid with --group congruence"),
    (["--group", "johnson", "--p", "8"],
     "--p is only valid with --group brunnian"),
    (["--group", "congruence", "--r", "3", "--p", "7"],
     "--p is only valid with --group brunnian"),
    (["--group", "brunnian", "--p", "8", "--r", "3"],
     "--r is only valid with --group congruence"),
])
def test_bounds_parameter_of_another_group_is_usage_error(capsys, argv,
                                                          message):
    code = run(["bounds", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"multitwist bounds: error: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_bounds_parameter_out_of_range_is_computation_error(capsys):
    code = run(["bounds", "--group", "brunnian", "--p", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: Brunnian bound requires p >= 5\n"


def test_search_subcommand(capsys):
    code, payload = _run_json(capsys, ["search", "--max-len", "4",
                                       "--mu", "64"])
    assert code == 0
    assert payload["all_minima"] == ["ab"]
    assert "word length <= 4" in payload["note"]


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


def test_parser_builds_only_the_named_command():
    parser = build_parser(["dilatation", "--word", "ab", "--mu", "2"])
    [sub] = [action for action in parser._actions
             if isinstance(action, argparse._SubParsersAction)]
    assert len(sub.choices) == 8
    assert {name for name, p in sub.choices.items() if p._actions} == {
        "dilatation"}
    assert type(sub.choices["dilatation"]._actions[0]) is argparse._HelpAction


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
    ["search", "--max-len", "four", "--mu", "64"],
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

# Arabic-Indic digits, which int() and an unflagged \d accept: the
# documented syntax is ASCII
@pytest.mark.parametrize("argv", [
    ["dilatation", "--word", "ab", "--mu", "\u0666\u0664"],
    ["lcs-table", "--max-k", "3", "--mu", "\u0666\u0664"],
    ["family", "--genus", "\u0663", "--kind", "torelli"],
    ["bounds", "--group", "brunnian", "--p", "\u0665"],
    ["bounds", "--group", "congruence", "--r", "\u0663"],
    ["tau-cc", "--genus", "\u0663", "--log-lambda", "\u0660.\u0665"],
    ["tau-cc", "--genus", "3", "--log-lambda", "\u0660.\u0665"],
    # also beyond what the int grammar allows: underscores and spaces
    ["dilatation", "--word", "ab", "--mu", "6_4"],
    ["search", "--max-len", " 4", "--mu", "64"],
    ["tau-cc", "--genus", "3 "],
])
def test_non_ascii_digits_are_usage_errors(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err and "expected" in captured.err


@pytest.mark.parametrize("a, pairs", [("x\u0661", "x2,y2"),
                                      ("x1", "x\u0662,y2")])
def test_non_ascii_digit_in_a_class_is_computation_error(capsys, a, pairs):
    code = run(["johnson-tau", "--genus", "3", "--pairs", pairs, "--a", a])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cannot parse homology class" in captured.err


@pytest.mark.parametrize("pairs", ["x2", "x2,y2;x3", "x2,y2,x3"])
def test_johnson_tau_malformed_pair_is_usage_error(capsys, pairs):
    code = run(["johnson-tau", "--genus", "3", "--pairs", pairs,
                "--a", "x1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err and "--pairs" in captured.err


@pytest.mark.parametrize("a", ["0x1", "x1-x1", "2x1", "3y1"])
def test_johnson_tau_refuses_an_imprimitive_class(capsys, a):
    # a nonseparating curve's class has coordinates with gcd 1; the zero
    # class and the multiples of x1 and y1 used to print a coset
    code = run(["johnson-tau", "--genus", "3", "--pairs", "x2,y2",
                f"--a={a}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "primitive" in captured.err


def test_johnson_tau_negated_class_negates_the_coset(capsys):
    argv = ["johnson-tau", "--genus", "3", "--pairs", "x2,y2"]
    code, x1 = _run_json(capsys, [*argv, "--a=x1"])
    assert code == 0
    code, minus_x1 = _run_json(capsys, [*argv, "--a=-x1"])
    assert code == 0
    assert minus_x1["coset"] == {k: -c for k, c in x1["coset"].items()}
    assert minus_x1["is_zero"] is False


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
    # the depth has no cap of its own; at mu 64 the trace budget ends it
    for k in ("19", "30"):
        code = run(["lcs-table", "--max-k", k, "--mu", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert (f"--max-k {k} with a 7-bit --mu needs a trace of about "
                f"{7 << (int(k) - 1)} bits; at most 917504 are allowed"
                in captured.err)
    assert run(["lcs-table", "--help"]) == 0
    assert "at most 18" not in capsys.readouterr().out


@pytest.mark.parametrize("max_k, mu, err", [
    ("3", "0", "error: mu must be >= 1\n"),
    ("14", str(-2 ** 200), "error: mu must be >= 1\n"),
    *[(k, str(mu), "error: nested commutator at k=1 is not hyperbolic\n")
      for k in ("3", "19") for mu in range(1, 5)],
    ("20", "1", "error: nested commutator at k=1 is not hyperbolic\n"),
])
def test_lcs_table_non_hyperbolic_mu(capsys, max_k, mu, err):
    code = run(["lcs-table", "--max-k", max_k, "--mu", mu])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", err)


def test_lcs_table_trace_size_cap(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(search, "lcs_table",
                        lambda *args: built.append(args) or [])
    # the size is told in full below depth 65; a huge depth costs nothing
    for k, mu, bits in (("14", 2 ** 200, 201 << 13), ("18", 128, 8 << 17),
                        ("19", 8, 4 << 18), ("20", 5, 3 << 19),
                        ("100000", 64, "7 * 2^99999"),
                        (str(10 ** 30), 64, f"7 * 2^{10 ** 30 - 1}")):
        code = run(["lcs-table", "--max-k", k, "--mu", str(mu)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert (f"--max-k {k} with a {mu.bit_length()}-bit --mu needs a "
                f"trace of about {bits} bits; at most 917504 are "
                f"allowed") in captured.err
    assert built == []
    # the largest mu at depth 18 has 7 bits, the size at --mu 64, and at
    # depth 19 it has 3 bits
    for k, mu in (("18", "127"), ("19", "5"), ("19", "7")):
        assert run(["lcs-table", "--max-k", k, "--mu", mu]) == 0
    assert built == [(18, 127, 60), (19, 5, 60), (19, 7, 60)]
    assert run(["lcs-table", "--help"]) == 0
    assert "(bits of mu) at most 917504" in " ".join(
        capsys.readouterr().out.split())


def test_dilatation_trace_size_cap(capsys, monkeypatch):
    # below mu 1 the size is not checked, and rep refuses the request
    assert run(["dilatation", "--word", "ab" * 500_000, "--mu", "0"]) == 1
    assert capsys.readouterr().err == "error: mu must be >= 1\n"
    identity = rep.dilatation(Word(""), 64)
    built = []
    monkeypatch.setattr(rep, "dilatation",
                        lambda *args: built.append(args) or identity)
    # the size counts the bits of mu + 1: 8 at mu 127, 7 at mu 64
    for word, mu, bits in (("ab" * 2000, 2 ** 300, 4000 * 301),
                           ("ab" * 65536 + "a", 64, 131073 * 7),
                           ("ab" * 57344 + "a", 127, 114689 * 8)):
        code = run(["dilatation", "--word", word, "--mu", str(mu)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert (f"a {len(word)}-letter --word may need a {bits}-bit trace; "
                f"at most 917504 are allowed") in captured.err
    assert built == []
    # (ab)^1792 at mu 2^255 is exactly 3584 * 256 = 917504 bits
    assert run(["dilatation", "--word", "ab" * 1792,
                "--mu", str(2 ** 255)]) == 0
    assert built == [(Word("ab" * 1792), 2 ** 255, 60)]
    assert json.loads(capsys.readouterr().out)["class"] == "identity"
    assert run(["dilatation", "--help"]) == 0
    assert "bit_length(mu + 1) at most 917504" in " ".join(
        capsys.readouterr().out.split())


def _power_trace(t1: int, n: int) -> int:
    """tr M^n for M in SL2 of trace t1, by the recurrence t_n = t1 * t_(n-1)
    - t_(n-2) from t_0 = 2 (Cayley-Hamilton), taken by doubling: M^m has
    trace t_m and M^(2m) trace t_m^2 - 2, and t_(2m+1) = t_m t_(m+1) - t1."""
    lo, hi = 2, t1  # t_m, t_(m+1), m running over the prefixes of n
    for bit in bin(n)[2:]:
        if bit == "1":
            lo, hi = lo * hi - t1, hi * hi - 2
        else:
            lo, hi = lo * lo - 2, lo * hi - t1
    return lo


def test_power_trace_follows_the_recurrence():
    for t1 in (-62, 4, 2 - 2 ** 255):
        t = [2, t1]
        for _ in range(300):
            t.append(t1 * t[-1] - t[-2])
        assert [_power_trace(t1, n) for n in range(302)] == t


def test_dilatation_words_at_the_trace_cap(capsys):
    # words of up to 458,752 letters, each at the 917504 trace bits allowed;
    # aB has trace mu + 2 and ab trace 2 - mu
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for pair, n, mu in (("aB", 229376, 2), ("ab", 65536, 64),
                            ("ab", 1792, 2 ** 255)):
            trace = _power_trace(mu + 2 if pair == "aB" else 2 - mu, n)
            assert len(pair) * n * (mu + 1).bit_length() == 917504
            for fmt in ("json", "text"):
                start = time.perf_counter()
                code = run(["dilatation", "--word", pair * n, "--mu", str(mu),
                            "--format", fmt])
                seconds = time.perf_counter() - start
                out = capsys.readouterr().out
                assert code == 0, (pair, n, fmt)
                assert seconds < 2, (pair, n, fmt, seconds)
                if fmt == "json":
                    assert int(json.loads(out)["trace"]["a"]) == trace
                else:
                    assert int(out.split("|trace| = ")[1].split(",")[0]) == (
                        abs(trace))
    finally:
        sys.set_int_max_str_digits(limit)


class _Refused(Exception):
    pass


def _size_refusal(letters, mu):
    """The usage error of _check_dilatation_size for a word of so many
    letters at mu, or None when it passes."""
    def refuse(message):
        raise _Refused(message)

    try:
        cli._check_dilatation_size(argparse.Namespace(
            word="a" * letters, mu=mu, usage_error=refuse))
    except _Refused as exc:
        return str(exc)
    return None


def test_dilatation_trace_bits_message_is_kept():
    # one bit past the bound at mu 64, the trace bits' message
    assert _size_refusal(131073, 64) == (
        "a 131073-letter --word may need a 917511-bit trace; at most 917504 "
        "are allowed")


def test_search_length_cap(capsys):
    for n in ("18", "100"):
        code = run(["search", "--max-len", n, "--mu", "64"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"--max-len: must be <= 17, got {n}" in captured.err
    # below the search's own minimum it stays a computation error
    assert run(["search", "--max-len", "1", "--mu", "64"]) == 1
    assert "max_length must be >= 2" in capsys.readouterr().err
    assert run(["search", "--help"]) == 0
    assert "at most 17" in capsys.readouterr().out


def test_search_mu_cap(capsys):
    # from mu 5 the search enumerates nothing, so a huge mu costs one
    # certificate; only the int-from-str digit limit bounds it
    for mu in (2 ** 64, int("9" * 4300)):
        code, payload = _run_json(capsys, ["search", "--max-len", "17",
                                           "--mu", str(mu)])
        assert code == 0
        assert payload["all_minima"] == ["ab"]
    code = run(["search", "--max-len", "4", "--mu", "9" * 4301])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "--mu: expected an integer" in captured.err
    # below 1 it stays a computation error
    assert run(["search", "--max-len", "4", "--mu", "0"]) == 1
    assert capsys.readouterr().err == "error: mu must be >= 1\n"


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
    with mpmath.workprec(80):
        t = mpmath.mpf(62)
        exact = ((t + mpmath.sqrt(t * t - 4)) / 2) ** 200
        for x in (lam_lo, lam_hi):
            assert abs(mpmath.mpf(x.numerator) / x.denominator / exact
                       - 1) < 1e-15
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


def test_tau_cc_hypothesis_message_of_a_genus_at_the_digit_limit(capsys):
    # g - 1/2 = (2g - 1)/2 has one digit more than the 4300 of g
    genus = "9" + "0" * 4299
    code = run(["tau-cc", "--genus", genus, "--log-lambda", "99999"])
    captured = capsys.readouterr()
    shown = "17" + "9" * 4299 + "/2"
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: hypothesis lambda <= g - 1/2 = "
                                   f"{shown} not certified: ")
    assert f"certified log({shown}) >= " in captured.err


def _johnson_family(k):
    """omega(x2 + k x3, y2 + k x4) = 1, and the coset has the term k^2
    x1^x3^x4."""
    return ["johnson-tau", "--genus", "4",
            "--pairs", f"x2+{k}x3,y2+{k}x4", "--a", "x1"]


def test_johnson_tau_coefficient_digit_bound(capsys):
    k = "7" * johnson.MAX_COEFFICIENT_DIGITS
    code, payload = _run_json(capsys, _johnson_family(k))
    assert code == 0
    assert payload["coset"]["x1^x3^x4"] == int(k) ** 2
    # a 3000-digit k would print the 6000-digit k^2
    assert run(_johnson_family("7" * 3000)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coefficient of 3000 digits; at most "
                            f"{johnson.MAX_COEFFICIENT_DIGITS} are allowed\n")


def test_johnson_tau_long_index_is_out_of_range(capsys):
    index = "5" * 5000
    assert run(["johnson-tau", "--genus", "4", "--a", "x" + index]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: index {index} out of range for genus 4\n"


@pytest.mark.parametrize("text, value", [
    ("1", 1), ("-2", -2), ("+3", 3), ("6931/10000", Fraction(6931, 10000)),
    ("0.5", Fraction(1, 2)), (".5", Fraction(1, 2)), ("2.", 2),
    ("-.5", Fraction(-1, 2)), ("0", 0),
])
def test_log_lambda_accepts_rationals(capsys, text, value):
    if value <= 0:
        # parsed, then refused by the hypothesis lambda > 1
        code = run(["tau-cc", "--genus", "64", "--log-lambda", text])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: hypothesis lambda > 1 not certified: "
                                "log(lambda) lower endpoint is not positive\n")
        return
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


def test_precision_error_is_an_arithmetic_error():
    assert issubclass(PrecisionError, ArithmeticError)


def test_arithmetic_error_exit_code(capsys, monkeypatch):
    def fail(*_args):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(rep, "dilatation", fail)
    code = run(["dilatation", "--word", "ab", "--mu", "64"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: int too large to convert to float\n"


@pytest.mark.parametrize("genus", ["-1", "0", "1", "2"])
def test_tau_cc_names_the_genus_out_of_scope(capsys, genus):
    code = run(["tau-cc", "--genus", genus])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: asymptotic curve-complex bound requires "
                            f"g >= 3; genus {genus} is out of scope\n")


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
    assert word == str(words.nested_commutator(13))
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
    ["search", "--max-len", "4", "--mu", "64", "--jobs", "2"],
])
def test_unhonoured_flag_is_usage_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "usage:" in captured.err


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
