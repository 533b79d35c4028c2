"""Seeded request lists for the four workloads, each request with its check.

A workload is a list of CLI argv lists built from the seed alone; the
program under test sees only those argv lists.  Every request carries a
check that judges the exit code and captured stdout against the
independent oracle in oracle.py.  README.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

SEARCH_LENGTHS = (6, 7, 8)
SEARCH_MUS = (2, 3, 5, 16, 64)
CERTIFY_MUS = (2, 3, 5, 7, 16, 64)
# 16384 bits is left out: the CLI cannot print endpoints that long (see
# the 16384-bit known defect in the cli workload and README.md)
CERTIFY_BITS = (64, 1024, 4096, 12288)
DEFAULT_BITS = 60
CLI_SEARCH_MAX = 5

PAPER_CHECKS = ("trace-identity", "torelli-upper", "braid-upper",
                "pf-certificates", "torelli-lower", "johnson-congruence",
                "brunnian", "curve-complex", "minimality", "lcs-table",
                "johnson-tau", "property-suite")


@dataclass(frozen=True)
class Request:
    """One CLI call.

    check(code, stdout) returns a list of failure messages; work is what
    the request counts for ops_per_s; attempted is how many items the check
    judges (the 12 checks of verify-paper, otherwise 1).  A request whose
    failure is a documented defect of the program names it in known_defect.
    """

    argv: tuple[str, ...]
    check: Callable[[object, str], list]
    work: int = 1
    attempted: int = 1
    known_defect: str = ""


def _exit_ok(code) -> list:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


# --- checks -------------------------------------------------------------

def dilatation_failures(payload, word: str, mu: int, bits: int) -> list:
    """Failures of a DilatationReport JSON object against the oracle."""
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    m = oracle.word_matrix(word, mu)
    t = m[0] + m[3]
    cls = oracle.classify_matrix(m)
    fails = []
    if payload.get("word") != word or payload.get("mu") != mu:
        fails.append(f"word/mu echo {payload.get('word')!r}/{payload.get('mu')}")
    if payload.get("trace") != {"a": str(t), "b": "0", "mu": mu}:
        fails.append(f"trace {payload.get('trace')} != {t}")
    if payload.get("class") != cls:
        fails.append(f"class {payload.get('class')} != {cls}")
    if payload.get("char_poly") != ["1", str(-abs(t)), "1"]:
        fails.append(f"char_poly {payload.get('char_poly')}")
    if cls != oracle.HYPERBOLIC:
        if "lambda" in payload or "log_lambda" in payload:
            fails.append("dilatation reported for a non-hyperbolic class")
        return fails
    try:
        lo, hi = (Fraction(x) for x in payload["lambda"])
        log_lo, log_hi = (Fraction(x) for x in payload["log_lambda"])
    except (KeyError, TypeError, ValueError):
        return fails + ["lambda/log_lambda missing or malformed"]
    if not oracle.lambda_bracket_ok(lo, hi, abs(t), bits):
        fails.append("lambda interval fails the bracket test")
    if not oracle.log_lambda_ok(log_lo, log_hi, lo, bits):
        fails.append("log_lambda interval fails the width/value test")
    return fails


def check_dilatation(word: str, mu: int, bits: int, fmt: str = "json"):
    def check(code, out):
        if code != 0:
            return _exit_ok(code)
        if fmt == "json":
            return dilatation_failures(_json(out), word, mu, bits)
        return _text_dilatation_failures(out, word, mu)
    return check


_TEXT = re.compile(r"word (\S+): hyperbolic, \|trace\| = (\d+), lambda in "
                   r"\[(\S+), (\S+)\], log\(lambda\) in \[(\S+), (\S+)\]\n")


def _text_dilatation_failures(out: str, word: str, mu: int) -> list:
    m = oracle.word_matrix(word, mu)
    cls = oracle.classify_matrix(m)
    if cls != oracle.HYPERBOLIC:
        expected = f"{cls}; no dilatation\n"
        return [] if out == expected else [f"text {out!r} != {expected!r}"]
    match = _TEXT.fullmatch(out)
    t = abs(m[0] + m[3])
    if not match or match.group(1) != (word or "1") or int(match.group(2)) != t:
        return [f"text output {out[:120]!r}"]
    lam = (t + math.sqrt(t * t - 4)) / 2
    values = [float(x) for x in match.groups()[2:]]
    if not (all(math.isclose(v, lam, rel_tol=1e-12) for v in values[:2])
            and all(math.isclose(v, math.log(lam), rel_tol=1e-12)
                    for v in values[2:])):
        return [f"text floats {values} vs lambda {lam}"]
    return []


def check_search(max_len: int, mu: int, table: oracle.SearchTable):
    expected = table.minimum[(max_len, mu)]

    def check(code, out):
        if expected is None:
            return [] if code == 1 else [f"exit code {code}, expected 1"]
        if code != 0:
            return _exit_ok(code)
        payload = _json(out)
        if not isinstance(payload, dict):
            return ["output is not a JSON object"]
        best, reps = expected
        fails = []
        if payload.get("classes_examined") != table.classes[max_len]:
            fails.append(f"classes_examined {payload.get('classes_examined')}"
                         f" != {table.classes[max_len]}")
        if payload.get("all_minima") != reps:
            fails.append(f"all_minima {payload.get('all_minima')} != {reps}")
        if payload.get("mu") != mu or payload.get("max_length") != max_len:
            fails.append("mu/max_length echo")
        if f"word length <= {max_len}" not in str(payload.get("note")):
            fails.append("note does not state the radius")
        minimum = payload.get("minimum")
        fails += dilatation_failures(minimum, reps[0], mu, DEFAULT_BITS)
        if isinstance(minimum, dict) and minimum.get("trace", {}).get(
                "a", "").lstrip("-") != str(best):
            fails.append(f"minimum |trace| is not {best}")
        return fails
    return check


def _band(m: int, value: int):
    if m == 1:
        return [[2 * value]]
    return [[value if j in (i, (i - 1) % m) else 0 for j in range(m)]
            for i in range(m)]


def check_family(genus: int, kind: str, fmt: str):
    value, mu, name = {"torelli": (4, 64, "torelli_separating"),
                       "braid": (2, 16, "braid_sphere")}[kind]
    m = math.ceil(genus / 2)
    n = _band(m, value)
    nnt = [[sum(n[i][k] * n[j][k] for k in range(m)) for j in range(m)]
           for i in range(m)]
    # equal row sums S make S the exact Perron-Frobenius eigenvalue with
    # the all-ones eigenvector; the family constant requires S == mu
    sums = {sum(row) for row in nnt}
    assert sums == {mu}, (genus, kind, sums)

    def check(code, out):
        if code != 0:
            return _exit_ok(code)
        if fmt == "csv":
            expected = ["section,row,values"]
            expected += [f"N,{i},{' '.join(map(str, r))}" for i, r in enumerate(n)]
            expected += [f"NNt,{i},{' '.join(map(str, r))}"
                         for i, r in enumerate(nnt)]
            expected += [f"PF,lower,{mu}", f"PF,upper,{mu}", "PF,exact,true",
                         f"PF,eigenvector,{' '.join(['1'] * m)}"]
            return [] if out == "\n".join(expected) + "\n" else ["family CSV"]
        expected = {"family": name, "genus": genus, "m": m, "mu": mu,
                    "N": n, "NNt": nnt,
                    "pf": {"lower": str(mu), "upper": str(mu), "exact": True,
                           "eigenvector": ["1"] * m}}
        return [] if _json(out) == expected else ["family JSON"]
    return check


def _interval_failures(payload, value: float, direction: str,
                       binding: str = "") -> list:
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    try:
        lo, hi = (Fraction(x) for x in payload["bound"])
    except (KeyError, TypeError, ValueError):
        return ["bound missing or malformed"]
    fails = []
    if not (lo <= hi and oracle.float_in(lo, hi, value)):
        fails.append(f"bound [{float(lo)}, {float(hi)}] misses {value}")
    if oracle.relative_width(lo, hi) > Fraction(1, 10 ** 12):
        fails.append("bound wider than 1e-12")
    if payload.get("direction") != direction:
        fails.append(f"direction {payload.get('direction')}")
    if payload.get("binding_case", "") != binding:
        fails.append(f"binding_case {payload.get('binding_case')!r}")
    return fails


LOWER = "lower_bound_on_log_dilatation"
UPPER_TAU = "upper_bound_on_tau_C"


def check_bounds(group: str, param: int = 0):
    cubic = math.log(oracle.cubic_root())
    if group == "torelli":
        value, binding = cubic, "case2_cubic"
    elif group == "johnson":
        value, binding = math.log(2), ""
    elif group == "congruence":
        # level 3: min(log(3/2)/2, log root); level >= 4: the Torelli bound
        value, binding = cubic, "case2_cubic"
        assert param >= 4 or cubic < math.log(1.5) / 2
    else:
        value, binding = math.log(param / 4), ""

    def check(code, out):
        if code != 0:
            return _exit_ok(code)
        return _interval_failures(_json(out), value, LOWER, binding)
    return check


def check_tau_cc(genus: int, log_lambda):
    if log_lambda is None:
        value = (4 * math.log(2 + math.sqrt(3))
                 / (genus * math.log(genus - 0.5)))
    else:
        value = 4 * float(log_lambda) / math.log(genus - 0.5)

    def check(code, out):
        if code != 0:
            return _exit_ok(code)
        return _interval_failures(_json(out), value, UPPER_TAU)
    return check


def check_lcs(k_max: int, mu: int, fmt: str):
    rows = []
    for k in range(1, k_max + 1):
        word = oracle.nested_commutator(k)
        t = oracle.trace(word, mu)
        assert abs(t) > 2, (k, mu)
        lam = (abs(t) + math.sqrt(float(t) ** 2 - 4)) / 2
        rows.append((k, word, t, math.log(lam)))

    def check(code, out):
        if code != 0:
            return _exit_ok(code)
        if fmt == "csv":
            lines = out.split("\n")
            if lines[0] != "k,word,length,trace,log_lambda_lo,log_lambda_hi" \
                    or len(lines) != k_max + 2 or lines[-1] != "":
                return ["lcs CSV shape"]
            for line, (k, word, t, log_lam) in zip(lines[1:], rows):
                f = line.split(",")
                if f[:4] != [str(k), word, str(len(word)), str(t)] or not (
                        float(f[4]) <= float(f[5]) and math.isclose(
                            float(f[4]), log_lam, rel_tol=1e-12)):
                    return [f"lcs CSV row {line[:80]!r}"]
            return []
        payload = _json(out)
        if not isinstance(payload, dict) or len(payload.get("rows", ())) != k_max:
            return ["lcs JSON shape"]
        for row, (k, word, t, log_lam) in zip(payload["rows"], rows):
            lo, hi = (Fraction(x) for x in row["log_lambda"])
            if (row["k"], row["word"], row["length"], row["trace"]) != (
                    k, word, len(word), {"a": str(t), "b": "0", "mu": mu}) \
                    or oracle.relative_width(lo, hi) > Fraction(1, 2 ** 60) \
                    or not math.isclose(float(lo), log_lam, rel_tol=1e-12):
                return [f"lcs JSON row k={k}"]
        return []
    return check


def check_johnson(genus: int, pairs, a):
    total = {}
    for u, v in pairs:
        for key, c in oracle.wedge(u, v, a).items():
            total[key] = total.get(key, 0) + c

    def check(code, out):
        if code != 0:
            return _exit_ok(code)
        payload = _json(out)
        if not isinstance(payload, dict) or payload.get("genus") != genus:
            return ["johnson JSON shape"]
        diff = dict(total)
        for name, c in payload.get("coset", {}).items():
            key = tuple(oracle.homology_index(x) for x in name.split("^"))
            if list(key) != sorted(key) or len(key) != 3 or not c:
                return [f"johnson coordinate {name}={c}"]
            diff[key] = diff.get(key, 0) - c
        fails = []
        if not oracle.in_omega_wedge_h(diff, genus):
            fails.append("representative is not in the coset of tau")
        if payload.get("is_zero") != (not payload.get("coset")):
            fails.append("is_zero disagrees with the coset")
        return fails
    return check


def check_exit(expected: int):
    def check(code, out):
        if code != expected:
            return [f"exit code {code}, expected {expected}"]
        return [] if out == "" else ["error request printed to stdout"]
    return check


_PAPER_LINE = re.compile(r"(PASS|FAIL)  (\S+) ")
_PAPER_SECONDS = re.compile(r"(?m)^((?:PASS|FAIL)  \S+ +)\d+\.\d+s")


def timing_free(out: str) -> str:
    """Output with verify-paper's per-check seconds masked, the only part
    of any stdout that legitimately differs between two runs."""
    return _PAPER_SECONDS.sub(r"\1<seconds>", out)


def check_paper(code, out):
    status = {}
    for line in out.splitlines():
        match = _PAPER_LINE.match(line)
        if match:
            status[match.group(2)] = match.group(1)
    fails = [f"check {key}: {status.get(key, 'missing')}"
             for key in PAPER_CHECKS if status.get(key) != "PASS"]
    passed = len(PAPER_CHECKS) - len(fails)
    summary = f"{passed}/{len(PAPER_CHECKS)} checks passed"
    if not fails and (code != 0 or summary not in out):
        fails.append(f"exit code {code} or summary line missing")
    return fails


# --- generators ---------------------------------------------------------

def random_reduced_word(rng: random.Random, length: int,
                        cyclic: bool = False) -> str:
    """Uniform letters subject to free (and optionally cyclic) reduction."""
    word = []
    for i in range(length):
        banned = {word[-1].swapcase()} if word else set()
        if cyclic and i == length - 1 and length > 1:
            banned.add(word[0].swapcase())
        word.append(rng.choice([c for c in oracle.ALPHABET if c not in banned]))
    return "".join(word)


def _dilatation_argv(word, mu, bits=None, fmt=None):
    argv = ["dilatation", "--word", word, "--mu", str(mu)]
    if bits is not None:
        argv += ["--precision-bits", str(bits)]
    if fmt is not None:
        argv += ["--format", fmt]
    return tuple(argv)


def search_requests(seed: int, table: oracle.SearchTable) -> list:
    """Every (L, mu) pair of the grid once, in seeded order."""
    grid = [(n, mu) for n in SEARCH_LENGTHS for mu in SEARCH_MUS]
    random.Random(seed).shuffle(grid)
    return [Request(("search", "--max-len", str(n), "--mu", str(mu)),
                    check_search(n, mu, table), work=table.classes[n])
            for n, mu in grid]


def certify_requests(seed: int) -> list:
    """Five requests per (precision, mu) pair: four random cyclically
    reduced words, one from each quarter of the length range 16-255, and
    one nested commutator; the seed draws the words and the order."""
    rng = random.Random(seed)
    pairs = [(bits, mu) for bits in CERTIFY_BITS for mu in CERTIFY_MUS]
    depths = [1 + i % 9 for i in range(len(pairs))]
    rng.shuffle(depths)
    out = []
    for (bits, mu), depth in zip(pairs, depths):
        words = [random_reduced_word(rng, rng.randint(16 + 60 * q, 75 + 60 * q),
                                     cyclic=True) for q in range(4)]
        words.append(oracle.nested_commutator(depth))
        out += [Request(_dilatation_argv(w, mu, bits),
                        check_dilatation(w, mu, bits)) for w in words]
    rng.shuffle(out)
    return out


def _symplectic_family(rng: random.Random, genus: int):
    """Pairs (u_i, v_i) on handles 2..g, mixed by symplectic moves.

    The move (u_i, v_j) -> (u_i + u_j, v_j - v_i) keeps omega(u_i, v_j) =
    delta_ij and isotropy, so the family stays valid for a = x1 or y1.
    """
    size = 2 * genus
    handles = rng.sample(range(2, genus + 1), rng.randint(1, min(3, genus - 1)))
    pairs = []
    for h in handles:
        u, v = [0] * size, [0] * size
        u[2 * h - 2], v[2 * h - 1] = 1, 1
        pairs.append((u, v))
    for _ in range(rng.randint(0, 2) if len(pairs) > 1 else 0):
        i, j = rng.sample(range(len(pairs)), 2)
        pairs[i] = ([x + y for x, y in zip(pairs[i][0], pairs[j][0])], pairs[i][1])
        pairs[j] = (pairs[j][0], [x - y for x, y in zip(pairs[j][1], pairs[i][1])])
    for i, (ui, vi) in enumerate(pairs):
        for j, (uj, vj) in enumerate(pairs):
            assert oracle.pairing(ui, vj) == (i == j)
            assert oracle.pairing(ui, uj) == 0 == oracle.pairing(vi, vj)
    return pairs


def _homology_text(coords) -> str:
    terms = []
    for index, c in enumerate(coords):
        if c:
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = "" if abs(c) == 1 else str(abs(c))
            terms.append(f"{sign}{mag}{oracle.homology_name(index)}")
    return "".join(terms)


# Malformed requests: the README contract says usage errors exit 2 and
# computation errors exit 1.  Known defects stay in the mix on purpose.
MALFORMED = (
    ((), 2, ""),
    (("frobnicate",), 2, ""),
    (("dilatation", "--word", "ab"), 2, ""),
    (("dilatation", "--word", "ab", "--mu", "x"), 2, ""),
    (("family", "--genus", "3", "--kind", "hexagonal"), 2, ""),
    (("search", "--max-len", "4", "--mu", "64", "--nonsense"), 2, ""),
    (("bounds",), 2, ""),
    (("johnson-tau", "--genus", "3", "--pairs", "x2", "--a", "x1"), 2,
     "a pair without a comma exits 1 (unpacking error), not usage error 2"),
    (("dilatation", "--word", "ab", "--mu", "64", "--precision-bits", "0"), 2,
     "--precision-bits 0 is accepted"),
    (("dilatation", "--word", "ab", "--mu", "0"), 1, ""),
    (("family", "--genus", "1", "--kind", "torelli"), 1, ""),
    (("search", "--max-len", "1", "--mu", "64"), 1, ""),
    (("tau-cc", "--genus", "2", "--log-lambda", "1"), 1, ""),
    (("bounds", "--group", "brunnian", "--p", "3"), 1, ""),
    (("johnson-tau", "--genus", "3", "--pairs", "x2,x3", "--a", "x1"), 1, ""),
)
PRINT_LIMIT_DEFECT = ("endpoints at 16384 bits exceed Python's 4300-digit "
                      "int-to-str limit, so the valid request exits 1")


def cli_requests(seed: int, table: oracle.SearchTable) -> list:
    """A fixed mix of small requests over every subcommand, seeded values.

    The costliest parameters are fixed per pass, so that the seed moves a
    pass's time little: the family genera are drawn one from each of 50
    equal slices of 2-64, the lcs-table depths cycle through 1-6, and the
    searches cover every pair of max-len 3-5 and mu once.
    """
    rng = random.Random(seed)
    out = []
    for i in range(80):
        word = random_reduced_word(rng, rng.randint(0, 12))
        mu = rng.choice(CERTIFY_MUS)
        fmt = "text" if i % 4 == 0 else None
        bits = DEFAULT_BITS if i % 2 else None
        out.append(Request(_dilatation_argv(word, mu, bits, fmt),
                           check_dilatation(word, mu, DEFAULT_BITS,
                                            fmt or "json")))
    for i in range(50):
        genus = rng.randint(2 + 62 * i // 50, 2 + 62 * (i + 1) // 50)
        kind = ("torelli", "braid")[i % 2]
        fmt = "csv" if i % 4 >= 2 else "json"
        out.append(Request(("family", "--genus", str(genus), "--kind", kind,
                            "--format", fmt), check_family(genus, kind, fmt)))
    for i in range(40):
        group = ("torelli", "johnson", "congruence", "brunnian")[i % 4]
        argv, param = ["bounds", "--group", group], 0
        if group == "congruence":
            param = rng.randint(3, 12)
            argv += ["--r", str(param)]
        elif group == "brunnian":
            param = rng.randint(5, 100)
            argv += ["--p", str(param)]
        out.append(Request(tuple(argv), check_bounds(group, param)))
    for _ in range(40):
        genus = rng.randint(3, 10)
        pairs = _symplectic_family(rng, genus)
        a = [0] * (2 * genus)
        a[rng.choice((0, 1))] = 1
        text = ";".join(f"{_homology_text(u)},{_homology_text(v)}"
                        for u, v in pairs)
        out.append(Request(("johnson-tau", "--genus", str(genus), "--pairs",
                            text, "--a", _homology_text(a)),
                           check_johnson(genus, pairs, a)))
    for i in range(25):
        genus = rng.randint(3, 64)
        argv, log_lambda = ["tau-cc", "--genus", str(genus)], None
        if i % 2:
            # well inside the certified hypothesis lambda <= g - 1/2
            log_lambda = Fraction(rng.randint(1, 900), 1000) * Fraction(
                int(1000 * math.log(genus - 0.5)), 1000)
            argv += ["--log-lambda", str(log_lambda)]
        out.append(Request(tuple(argv), check_tau_cc(genus, log_lambda)))
    for i in range(20):
        k, mu = 1 + i % 6, rng.choice((5, 7, 16, 64))
        fmt = "json" if i % 4 == 0 else "csv"
        argv = ("lcs-table", "--max-k", str(k), "--mu", str(mu))
        argv += ("--format", "json") if fmt == "json" else ()
        out.append(Request(argv, check_lcs(k, mu, fmt)))
    for n in range(3, CLI_SEARCH_MAX + 1):
        for mu in SEARCH_MUS:
            out.append(Request(("search", "--max-len", str(n),
                                "--mu", str(mu)), check_search(n, mu, table)))
    for argv, code, defect in MALFORMED * 2:
        out.append(Request(argv, check_exit(code), known_defect=defect))
    for _ in range(2):
        out.append(Request(_dilatation_argv("ab", 64, 16384),
                           check_dilatation("ab", 64, 16384),
                           known_defect=PRINT_LIMIT_DEFECT))
    rng.shuffle(out)
    return out


def paper_requests(seed: int) -> list:
    """The fixed verify-paper table; the seed does not apply."""
    del seed
    return [Request(("verify-paper",), check_paper, work=len(PAPER_CHECKS),
                    attempted=len(PAPER_CHECKS))]


WORKLOADS = ("search", "certify", "cli", "paper")


def build(name: str, seed: int) -> list:
    """The request list of one workload pass (oracle tables built here)."""
    if name == "certify":
        return certify_requests(seed)
    if name == "paper":
        return paper_requests(seed)
    if name == "search":
        return search_requests(
            seed, oracle.SearchTable(max(SEARCH_LENGTHS), SEARCH_MUS))
    return cli_requests(seed, oracle.SearchTable(CLI_SEARCH_MAX, SEARCH_MUS))
