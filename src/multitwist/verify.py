"""One-shot reproduction of every headline constant, runnable from the CLI.

Each check raises AssertionError on failure; the runner reports one
pass/fail line per check.  The same checks back tests/test_acceptance.py.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import bounds, families, johnson, rep, search, words
from .intervals import Interval


def _within(iv: Interval, lo: str, hi: str) -> bool:
    return Fraction(lo) <= iv.lo and iv.hi <= Fraction(hi)


def check_trace_identity():
    m = rep.evaluate("ab", 64)
    assert m.trace() == -62, f"trace {m.trace()}"
    assert m.det() == 1


def check_torelli_upper():
    r = rep.dilatation("ab", 64, precision_bits=60)
    iv = r.log_dilatation_interval
    assert iv.width <= Fraction(1, 10 ** 9)
    assert _within(iv, "4.1268", "4.1269"), iv.as_floats()
    assert iv.hi < Fraction("4.127")
    assert r.trace == -62
    lam = r.dilatation_interval
    # x^2 - 62x + 1 is negative between its roots 31 -+ sqrt(960), so the
    # signs at the endpoints put lambda = 31 + sqrt(960) inside
    assert lam.lo * (lam.lo - 62) + 1 < 0 < lam.hi * (lam.hi - 62) + 1
    assert _within(lam, "61.9838", "61.9839")


def check_braid_upper():
    r = rep.dilatation("ab", 16, precision_bits=60)
    assert r.trace == -14
    iv = r.log_dilatation_interval
    assert iv.width <= Fraction(1, 10 ** 9)
    assert _within(iv, "2.6339", "2.6340"), iv.as_floats()
    assert iv.hi < Fraction("2.634")


def check_pf_certificates():
    # both builders depend on g only through ceil(g / 2), so every g goes
    # through its builder and each distinct N is certified once
    certified = set()
    for build, genera, mu in ((families.torelli_family, range(2, 65), 64),
                              (families.braid_family, range(1, 65), 16)):
        for g in genera:
            N = build(g)
            if N in certified:
                continue
            certified.add(N)
            prod = families.nnt(N)
            # N * N^t row by row, the oracle of families.nnt
            assert g > 8 or prod == [[sum(x * y for x, y in zip(u, v))
                                      for v in N] for u in N], (mu, g)
            assert families.pf_eigenvalue(prod).value == mu, (mu, g)


def check_torelli_lower():
    # true root 1.21877658... (the 5-digit rounding 1.21878 printed
    # elsewhere is above it)
    root = bounds.torelli_cubic_root(precision_bits=60)
    assert root.width <= Fraction(1, 10 ** 9)
    assert _within(root, "1.21877", "1.21878"), root.as_floats()
    # f = x^3 + 2x^2 + x - 6 increases on (1, 2), which holds the bracket,
    # so f(lo) <= 0 < f(hi) puts the root in it
    at_lo, at_hi = (((x + 2) * x + 1) * x for x in (root.lo, root.hi))
    assert at_lo <= 6 < at_hi, "no sign change"
    # r^2 < 2 puts log r below case 1, log sqrt(2)
    assert root.hi ** 2 < 2
    result = bounds.torelli_lower()
    assert _within(result.value, "0.19784", "0.19785"), result.value.as_floats()
    assert result.value.lo > Fraction("0.197")


def check_johnson_congruence():
    j = bounds.surgery_lower(4, 1)
    assert _within(j.value, "0.6931", "0.6932")
    s32 = bounds.surgery_lower(3, 2)
    assert _within(s32.value, "0.20273", "0.20274"), s32.value.as_floats()
    # level 3 is the Torelli bound, as congruence_lower's docstring proves
    c3 = bounds.congruence_lower(3)
    assert c3.value == bounds.torelli_lower().value
    assert c3.binding_case == "case2_cubic"
    # r^2 < 3/2 puts log r below case 1, surgery(3,2) = log(3/2)/2
    assert bounds.torelli_cubic_root(60).hi ** 2 < Fraction(3, 2)


def check_brunnian():
    # log(p/4) + log 2 = log(p/2), the sum taken endpoint by endpoint
    log2 = bounds.surgery_lower(4).value
    for p in range(5, 101):
        b = bounds.brunnian_lower(p)
        total = Interval(b.value.lo + log2.lo, b.value.hi + log2.hi)
        assert total.overlaps(bounds.surgery_lower(p).value), p
    p5 = bounds.brunnian_lower(5)
    assert _within(p5.value, "0.22314", "0.22315"), p5.value.as_floats()


def check_curve_complex():
    # 4*log(2+sqrt(3))/(3*log(5/2)) = 1.9163610...; bracket per the
    # formula oracle
    t3 = bounds.tau_cc_infs_upper(3)
    assert _within(t3.value, "1.91636", "1.91637"), t3.value.as_floats()
    try:
        bounds.tau_cc_upper(2, Interval.point(1))
    except bounds.HypothesisViolation:
        pass
    else:
        raise AssertionError("hypothesis violation not detected")


def brute_force_min_abs_trace(max_length: int, mu: int):
    """No-dedup oracle: minimum |trace| over ALL cyclically reduced words,
    and every word that attains it, by length and then in the letter
    order a < b < A < B.

    Independent of rep and search: a depth-first walk over the freely
    reduced words carries each prefix's product of the original generators
    [[1, r], [0, 1]] and [[1, 0], [-r, 1]], r = sqrt(mu), as a plain-int
    matrix, so mu must be a perfect square.  Each word is judged in its
    parent, from the parent's product and the letter's image; the word is
    built only when it ties or beats the least so far, and only a word
    shorter than max_length is pushed.  A single letter has trace 2 and is
    never a minimum.  Only the current minima are kept.
    """
    r = isqrt(mu)
    if r * r != mu:
        raise ValueError(f"mu = {mu} is not a perfect square")
    images = {"a": (1, r, 0, 1), "A": (1, -r, 0, 1),
              "b": (1, 0, -r, 1), "B": (1, 0, r, 1)}
    follow = {c: [d for d in images if d != c.swapcase()] for c in images}
    best = None
    best_words = []
    # every word on the stack is shorter than max_length
    stack = [(c, *images[c]) for c in images] if max_length > 1 else []
    while stack:
        s, p, q, u, v = stack.pop()
        push = len(s) + 1 < max_length
        first_inverse = s[0].swapcase()
        for c in follow[s[-1]]:
            e, f, g, h = images[c]
            # the diagonal of the child's product, its word s + c; the
            # last letter must not cancel the first, and |trace| <= 2 is
            # the identity, elliptic or parabolic
            pe, vh = p * e + q * g, u * f + v * h
            t = abs(pe + vh)
            if t > 2 and c != first_inverse and (best is None or t <= best):
                if best is None or t < best:
                    best, best_words = t, [s + c]
                else:
                    best_words.append(s + c)
            if push:
                stack.append((s + c, pe, p * f + q * h, u * e + v * g, vh))
    order = str.maketrans("abAB", "0123")
    best_words.sort(key=lambda w: (len(w), w.translate(order)))
    return best, best_words


def check_minimality():
    report = search.min_dilatation_search(8, 64)
    assert len(report.all_minima) == 1
    assert report.all_minima[0] == "ab"
    assert abs(report.minimum.trace) == 62
    oracle_min, oracle_words = brute_force_min_abs_trace(8, 64)
    assert oracle_min == 62
    dedup = {search.orbit_representative(s) for s in oracle_words}
    assert dedup == {"ab"}


def check_lcs_table():
    # rep.evaluate shares no code with the closed-form traces of lcs_table,
    # nor parse_word's reduction of the literal commutator with its
    # closed-form words; each row's log is rep's log of the evaluated trace
    table = search.lcs_table(8, 64)
    assert table[0].word == "ab"
    for prev, row in zip(table, table[1:]):
        u = prev.word
        assert row.word == words.parse_word(u + "b" + u[::-1].swapcase() + "B")
    for row in table:
        assert len(row.word) == 2 ** row.depth
        r = rep.dilatation(row.word, 64)
        assert row.trace == r.trace, row.depth
        assert row.log_dilatation == r.log_dilatation_interval, row.depth
        assert row.log_dilatation.lo > 0
    assert table[1].trace == 4098


def check_johnson_tau():
    assert johnson.lantern_check(3)
    assert johnson.lantern_check(4)
    for g in (2, 3, 4):
        # 2g vectors with pairwise disjoint supports, each with an entry 1:
        # x -> sum of x_c v, c the index of v's entry 1, is the identity on
        # their span, so they span a direct summand of rank 2g
        basis = johnson.omega_wedge_basis(g)
        supports = [{c for c, x in enumerate(v) if x} for v in basis]
        assert len(basis) == 2 * g and all(1 in v for v in basis), g
        assert sum(map(len, supports)) == len(set().union(*supports)), g
        assert johnson.quotient_rank(g) == len(basis[0]) - 2 * g, g
    # basis independence at g = 3: a symplectic change of basis of the
    # complement of a = x1 gives the same coset
    g = 3
    # the parser of the johnson-tau command
    parse = johnson.HomologyClass.parse
    a = parse("x1", g)
    x2, y2, x3, y3 = (parse(text, g) for text in ("x2", "y2", "x3", "y3"))
    original = johnson.tau_bounding_pair(g, [(x2, y2), (x3, y3)], a)
    transformed = johnson.tau_bounding_pair(
        g, [(parse("x2+x3", g), y2), (x3, parse("y3-y2", g))], a)
    assert johnson.coset_equal(original, transformed)
    # a genuine genus-1 bounding pair is never in the kernel
    for gg in (3, 4):
        one_pair = johnson.tau_bounding_pair(
            gg, [(parse("x2", gg), parse("y2", gg))], parse("x1", gg))
        assert not one_pair.is_zero_coset(), gg
    # the two sides of one bounding pair agree only modulo omega ^ H
    other_side = johnson.tau_bounding_pair(g, [(x3, y3)], parse("-x1", g))
    one_side = johnson.tau_bounding_pair(g, [(x2, y2)], a)
    assert johnson.coset_equal(one_side, other_side)
    assert one_side.representative != other_side.representative


def check_property_spot_suite():
    # condensed versions of the module property suites; the pytest
    # suite runs the full-depth variants
    # every string of length 0-6 is parsed; the round trip depends only on
    # the result, so each distinct result makes it once
    reduced = set()
    cyclically_reduced = []
    for length in range(0, 7):
        for chars in itertools.product(words.ALPHABET, repeat=length):
            s = "".join(chars)
            w = words.parse_word(s)
            reduced.add(w)
            # freely reduced, and the last letter does not cancel the first
            if 0 < length < 6 and w == s and s[-1] != s[0].swapcase():
                cyclically_reduced.append(w)
    for w in reduced:
        assert words.parse_word(w) == w
    for k in range(1, 13):
        assert len(words.nested_commutator(k)) == 2 ** k
    rng = random.Random(7)
    for _ in range(50):
        s = "".join(rng.choice(words.ALPHABET) for _ in range(30))
        w = words.parse_word(s)
        assert words.parse_word(w + w[::-1].swapcase()) == ""
    # Each word's inverse, swap and rotations are built once, each word is
    # evaluated once per mu, and the invariances are checked by lookup.
    # Every key is present: if no letter of c_1 ... c_n cancels its cyclic
    # successor, then neither does one of its inverse C_n ... C_1
    # (C_(i+1) cancels C_i only if c_(i+1) cancels c_i), nor of its swap
    # (a letter bijection that commutes with inversion), nor of a rotation
    # (the same cyclic sequence).  All three keep the length, so they map
    # the cyclically reduced words of each length 1-5 to themselves.  A
    # missing key would raise KeyError, a failed check.
    swap = str.maketrans("abAB", "baBA")
    images = [(w, [w[::-1].swapcase(), w.translate(swap),
                   *(w[i:] + w[:i] for i in range(len(w)))])
              for w in cyclically_reduced]
    for mu in (2, 16, 64):
        traces = {}
        for w in cyclically_reduced:
            m = rep.evaluate(w, mu)
            assert m.det() == 1
            traces[w] = m.trace()
        for w, orbit in images:
            t = traces[w]
            for image in orbit:
                assert traces[image] == t
    g = 3
    h = [johnson.HomologyClass(g, tuple(rng.randint(-3, 3) for _ in range(6)))
         for _ in range(3)]
    base = johnson.wedge3(*h)
    for perm in itertools.permutations(range(3)):
        sign = 1 if perm in {(0, 1, 2), (1, 2, 0), (2, 0, 1)} else -1
        permuted = johnson.wedge3(h[perm[0]], h[perm[1]], h[perm[2]])
        assert permuted.representative == tuple(
            (t, sign * c) for t, c in base.representative)


@dataclass
class CheckResult:
    key: str
    description: str
    ok: bool
    seconds: float
    error: str = ""


CHECKS = [
    ("trace-identity", "T_A T_B image has trace -62 and det 1 at mu=64",
     check_trace_identity),
    ("torelli-upper", "log(lambda) in (4.1268, 4.1269), < 4.127; "
                      "char poly x^2 - 62x + 1", check_torelli_upper),
    ("braid-upper", "trace -14 at mu=16; log(lambda) < 2.634",
     check_braid_upper),
    ("pf-certificates", "PF eigenvalue exactly 64 (torelli) / 16 (braid), "
                        "g up to 64", check_pf_certificates),
    ("torelli-lower", "cubic root 1.21877..., log > .197, sign change at "
                      "the bracket's ends", check_torelli_lower),
    ("johnson-congruence", "log 2 = .693...; surgery(3,2) = .20273...; "
                           "level 3 > .197", check_johnson_congruence),
    ("brunnian", "brunnian = punctured surgery = log(p/4), p in 5..100",
     check_brunnian),
    ("curve-complex", "asymptotic bound at g=3; hypothesis enforcement",
     check_curve_complex),
    ("minimality", "ab is the unique minimal class through length 8 "
                   "(brute-force oracle)", check_minimality),
    ("lcs-table", "nested commutators: lengths 2^k, k=2 trace 4098, all "
                  "hyperbolic", check_lcs_table),
    ("johnson-tau", "lantern inequality at g=3,4; quotient ranks; basis "
                    "independence", check_johnson_tau),
    ("property-suite", "spot checks of the module invariants",
     check_property_spot_suite),
]


def run_all() -> list[CheckResult]:
    results = []
    for key, description, fn in CHECKS:
        start = time.perf_counter()
        try:
            fn()
            results.append(CheckResult(key, description, True,
                                       time.perf_counter() - start))
        except Exception as exc:  # report, never abort the table
            results.append(CheckResult(key, description, False,
                                       time.perf_counter() - start,
                                       f"{type(exc).__name__}: {exc}"))
    return results
