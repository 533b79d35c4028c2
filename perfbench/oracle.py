"""Independent reference answers for the benchmark's output checks.

Nothing here imports the package under test.  Word traces come from
plain-int 2x2 products of the integer conjugates of the two twists,
T_A -> [[1, 1], [0, 1]] and T_B -> [[1, 0], [-mu, 1]] (conjugation by
diag(1, sqrt(mu)) leaves every trace unchanged), so a trace is an exact
Python int and the isometry class is an exact comparison of |t| with 2.
Certified intervals are checked with exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

ALPHABET = "abAB"
_INVERSE = str.maketrans("abAB", "ABab")
_SWAP = str.maketrans("abAB", "baBA")
_ORDER = str.maketrans("abAB", "0123")  # letter order a < b < A < B

IDENTITY = "identity"
ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


def letter_matrices(mu: int) -> dict:
    return {"a": (1, 1, 0, 1), "A": (1, -1, 0, 1),
            "b": (1, 0, -mu, 1), "B": (1, 0, mu, 1)}


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def word_matrix(word: str, mu: int):
    gens = letter_matrices(mu)
    m = (1, 0, 0, 1)
    for ch in word:
        m = mat_mul(m, gens[ch])
    return m


def trace(word: str, mu: int) -> int:
    a, _, _, d = word_matrix(word, mu)
    return a + d


def classify_matrix(m) -> str:
    a, b, c, d = m
    if b == 0 and c == 0 and a == d and a in (1, -1):
        return IDENTITY
    return classify_trace(a + d)


def classify_trace(t: int) -> str:
    t = abs(t)
    if t < 2:
        return ELLIPTIC
    return PARABOLIC if t == 2 else HYPERBOLIC


def reduce_word(word: str) -> str:
    stack = []
    for ch in word:
        if stack and stack[-1] == ch.translate(_INVERSE):
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def inverse(word: str) -> str:
    return word[::-1].translate(_INVERSE)


def commutator(u: str, v: str) -> str:
    return reduce_word(u + v + inverse(u) + inverse(v))


def nested_commutator(k: int) -> str:
    """w(1) = ab, w(k) = [w(k-1), b]."""
    w = "ab"
    for _ in range(k - 1):
        w = commutator(w, "b")
    return w


def orbit_key(word: str) -> str:
    """Least word of the orbit under rotation, inversion and a<->b swap."""
    best = None
    for base in (word, inverse(word)):
        for variant in (base, base.translate(_SWAP)):
            for i in range(len(variant)):
                rot = variant[i:] + variant[:i]
                if best is None or rot.translate(_ORDER) < best.translate(_ORDER):
                    best = rot
    return best


def word_order_key(word: str) -> str:
    return word.translate(_ORDER)


def cyclically_reduced_words(length: int):
    """Every cyclically reduced word of the given length (>= 1)."""
    if length == 1:
        yield from ALPHABET
        return
    stack = [(ch,) for ch in ALPHABET]
    while stack:
        prefix = stack.pop()
        if len(prefix) == length:
            if prefix[0] != prefix[-1].translate(_INVERSE):
                yield "".join(prefix)
            continue
        bad = prefix[-1].translate(_INVERSE)
        stack.extend(prefix + (ch,) for ch in ALPHABET if ch != bad)


class SearchTable:
    """Brute-force minimal |trace| over all cyclically reduced words.

    For each radius L and mu it holds the number of symmetry classes of
    word length <= L, the minimal |trace| over hyperbolic words and the
    sorted class representatives that reach it.
    """

    def __init__(self, max_length: int, mus):
        by_length = [list(cyclically_reduced_words(n))
                     for n in range(1, max_length + 1)]
        keys = {w: orbit_key(w) for ws in by_length for w in ws}
        self.classes = {}
        total = 0
        for n, ws in enumerate(by_length, start=1):
            total += len({keys[w] for w in ws})
            self.classes[n] = total
        self.minimum = {}
        for mu in mus:
            best, reps = None, set()
            for n, ws in enumerate(by_length, start=1):
                for w in ws:
                    m = word_matrix(w, mu)
                    if classify_matrix(m) != HYPERBOLIC:
                        continue
                    t = abs(m[0] + m[3])
                    if best is None or t < best:
                        best, reps = t, {keys[w]}
                    elif t == best:
                        reps.add(keys[w])
                self.minimum[(n, mu)] = (
                    best, sorted(reps, key=word_order_key)) if best else None


def relative_width(lo: Fraction, hi: Fraction) -> Fraction:
    return (hi - lo) / max(Fraction(1), abs(lo), abs(hi))


def lambda_bracket_ok(lo: Fraction, hi: Fraction, abs_trace: int,
                      bits: int) -> bool:
    """[lo, hi] encloses the larger root of x^2 - |t| x + 1 within 2^-bits.

    Right of the vertex |t|/2 the polynomial is increasing, so lo <= lambda
    iff f(lo) <= 0 and lambda <= hi iff f(hi) >= 0.
    """
    def f(x):
        return x * x - abs_trace * x + 1

    return (2 * lo >= abs_trace and lo <= hi and f(lo) <= 0 <= f(hi)
            and relative_width(lo, hi) <= Fraction(1, 2 ** bits))


def log_fraction(x: Fraction) -> float:
    """Natural log of a positive Fraction of any size, as a float."""
    return math.log(x.numerator) - math.log(x.denominator)


def log_lambda_ok(lo: Fraction, hi: Fraction, lam_lo: Fraction,
                  bits: int) -> bool:
    """Width within 2^-bits and agreement with log(lambda) in floats."""
    if not (lo <= hi and relative_width(lo, hi) <= Fraction(1, 2 ** bits)):
        return False
    return math.isclose(float(lo), log_fraction(lam_lo), rel_tol=1e-9)


def cubic_root() -> float:
    """Real root of x^3 + 2x^2 + x - 6 by float bisection."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** 3 + 2 * mid ** 2 + mid - 6 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def float_in(lo: Fraction, hi: Fraction, value: float,
             rel_tol: float = 1e-13) -> bool:
    slack = rel_tol * max(1.0, abs(value))
    return float(lo) - slack <= value <= float(hi) + slack


# --- Lambda^3 H / (omega ^ H) -------------------------------------------

def homology_index(name: str) -> int:
    """x<i> -> 2(i-1), y<i> -> 2(i-1)+1."""
    return 2 * (int(name[1:]) - 1) + (0 if name[0] == "x" else 1)


def homology_name(index: int) -> str:
    return f"{'xy'[index % 2]}{index // 2 + 1}"


def pairing(u, v) -> int:
    """omega(u, v) with omega(x_i, y_i) = 1, on coordinate lists."""
    return sum(u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
               for i in range(len(u) // 2))


def _permutation_sign(items) -> int:
    items = list(items)
    sign = 1
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def wedge(u, v, w) -> dict:
    """u ^ v ^ w as {sorted index triple: coefficient}."""
    out = {}
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                det = (u[i] * (v[j] * w[k] - v[k] * w[j])
                       - u[j] * (v[i] * w[k] - v[k] * w[i])
                       + u[k] * (v[i] * w[j] - v[j] * w[i]))
                if det:
                    out[(i, j, k)] = det
    return out


def omega_wedge(e: int, genus: int) -> dict:
    out = {}
    for i in range(genus):
        x, y = 2 * i, 2 * i + 1
        if e in (x, y):
            continue
        out[tuple(sorted((x, y, e)))] = _permutation_sign((x, y, e))
    return out


def in_omega_wedge_h(vector: dict, genus: int) -> bool:
    """Whether an integer vector of Lambda^3 H lies in omega ^ H.

    Each generator omega ^ e owns one coordinate no other generator
    touches (x1^y1^e, or x2^y2^e for e in {x1, y1}) with coefficient +-1,
    so the only candidate coefficients are read off those coordinates;
    the vector is in the lattice iff the residual is zero.
    """
    rest = {k: c for k, c in vector.items() if c}
    for e in range(2 * genus):
        gen = omega_wedge(e, genus)
        pair = 1 if e >= 2 else 2
        own = tuple(sorted((2 * pair - 2, 2 * pair - 1, e)))
        coeff = rest.get(own, 0) * gen[own]
        if coeff:
            for key, c in gen.items():
                value = rest.get(key, 0) - coeff * c
                if value:
                    rest[key] = value
                else:
                    rest.pop(key, None)
    return not rest
