"""Minimal-dilatation search over conjugacy classes in <T_A, T_B>, and the
lower-central-series table of nested-commutator dilatations.

Conjugacy classes of cyclically reduced words are deduplicated under
cyclic rotation, inversion, and the a<->b swap; all three leave the trace
of the PSL2 image unchanged.  Minimization is on |trace|, an exact and
strictly monotone proxy for the dilatation of hyperbolic elements.

Each class is represented by the least word of its orbit in the letter
order a < b < A < B.  _necklaces is the one search over words: a
depth-first search over freely reduced words with the FKM prenecklace
rule (Ruskey, Savage and Wang, "Generating necklaces", J. Algorithms
1992) that visits only words that can start a least rotation, cuts every
word with a letter run longer than its leading run of a's, which can
start no least word, and yields each cyclically reduced necklace in the
letter order, a word before its extensions, together with its trace.
Each node carries the image of its word, so a child costs one column
operation and the search holds only its stack of at most
3 * max_length open nodes.

enumerate_classes keeps the candidates that no rotation of their inverse,
swap or swapped inverse undercuts.  At mu <= 4, min_dilatation_search
keeps those at the lemma's least |trace| (below).  It counts the classes
it covers by Burnside's lemma (_class_count).  orbit_representative is
the definitional canonical form that the tests check all of this
against, on words they build themselves.

The least |trace| is known in advance.  Lemma: every trace is 2 mod mu,
so a hyperbolic class has |trace| >= F(mu), where F(mu) = 3, 4, 4, 6 at
mu = 1-4 and F(mu) = mu - 2 from mu = 5.  Proof: T_B = [[1, 0], [-mu, 1]]
is I mod mu, so every word is a power of T_A = [[1, 1], [0, 1]] mod mu,
of trace 2.  A trace 2 + k mu with |2 + k mu| > 2 is at least mu + 2 or
at most 2 - k mu with k mu > 4, and the least such |trace| is F(mu).

From mu = 5 the least class is known too, so min_dilatation_search
enumerates nothing there.  Syllable lemma: let mu >= 5 and
w = a^p1 b^q1 ... a^pn b^qn with n >= 1 and every p_i, q_i != 0.  Then
|tr w| >= |tr (ab)^n|, with equality only when every exponent is 1 or
every exponent is -1 (cf. Lyndon and Ullman, Canad. J. Math. 21, 1969).
Proof: in the original representation, with s = sqrt(mu) > 2,
U(x) = [[1, x], [0, 1]] and J = [[0, -1], [1, 0]], T_A^p = U(ps) and
T_B^q = J^-1 U(qs) J with J^-1 = -J.  So w maps to (-1)^n M(x_1) ...
M(x_2n), where M(x) = U(x) J = [[x, -1], [1, 0]] and
x = (p1 s, q1 s, ..., qn s), every |x_j| >= s.  Let r > 1 solve
r + 1/r = s.  M(x) takes (u, v) to (xu - v, u), so applying the 2n
factors to (u, v) one at a time, x_j the entry of the j-th factor
applied, gives first coordinates K_j = x_j K_(j-1) - K_(j-2), from
K_0 = u and K_-1 = v: a continuant (Graham, Knuth and Patashnik,
Concrete Mathematics, 6.7).  If |v| <= |u| / r, then
|xu - v| >= s|u| - |u| / r = r|u|: the cone |v| <= |u| / r is mapped into
itself with its first coordinate stretched by r at least.  The product P
of the 2n factors maps the cone's interval of slopes v / u, [-1/r, 1/r],
into itself, so it fixes a slope there: P has an eigenvector in the cone
whose eigenvalue has |lambda| >= r^2n, and
|tr w| = |lambda| + 1/|lambda| >= r^2n + r^-2n.  The image of ab has
eigenvalues -r^2 and -r^-2 (its trace is 2 - mu = -(r^2 + r^-2)), so
|tr (ab)^n| = r^2n + r^-2n.  Equality forces |lambda| = r^2n, so for
the eigenvector every step of the chain is tight: |x_j| = s,
|K_(j-2)| = |K_(j-1)| / r > 0, and K_(j-2) has the sign of
x_j K_(j-1).  Then K_j has the sign of K_(j-2), x_j that of
K_(j-1) K_(j-2), and x_(j+1) that of K_j K_(j-1), the same: every
exponent is 1, or every one is -1.
Every cyclically reduced word with both letters is a rotation of such a
w, and a power of a or of b alone has trace 2.  As r^2n + r^-2n grows
with n, the least |trace| is mu - 2, taken at n = 1 by ab, ba, AB and BA
only: the orbit of ab, alone, at every length.  At mu <= 4, s <= 2 and the cone
argument fails (aB and aab tie at |trace| 6 at mu = 4), so the search
enumerates there.

lcs_table takes each word w(k) from words.nested_commutator and each
trace from a closed form, and only row 1 can fail to be hyperbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from . import rep, words
from .intervals import Interval, decimal_str, endpoint_strs, float_str


# letter order a < b < A < B for canonical representatives; the keys
# 0 1 2 3 compare in that order
_LEX_KEY = str.maketrans("abAB", "0123")
_FROM_KEY = str.maketrans("0123", "abAB")
_SWAP = str.maketrans("abAB", "baBA")
# keys that may follow each key in a freely reduced word, in decreasing
# order, the order in which _necklaces pushes them, and in increasing
# order, the order in which it tests leaves
_FOLLOWERS = {"0": "310", "1": "210", "2": "321", "3": "320"}
_RISING_FOLLOWERS = {k: v[::-1] for k, v in _FOLLOWERS.items()}
# letter maps that, applied to a reversed key, give the inverse word and
# the swapped inverse word; _SWAP_KEYS alone gives the swapped word
_INVERT_KEYS = str.maketrans("0123", "2301")
_SWAP_KEYS = str.maketrans("0123", "1032")
_SWAP_INVERT_KEYS = str.maketrans("0123", "3210")


def _word_key(s: str) -> str:
    return s.translate(_LEX_KEY)


def orbit_representative(w: str) -> str:
    """Least word (letter order a < b < A < B) in the orbit of a
    cyclically reduced w under cyclic rotation, inversion, and the
    generator swap (definitional, no canonical-form shortcuts)."""
    inverse = w[::-1].swapcase()
    return min((v[i:] + v[:i]
                for v in (w, inverse, w.translate(_SWAP),
                          inverse.translate(_SWAP))
                for i in range(max(len(w), 1))), key=_word_key)


def _least_in_orbit(key: str, lead: int) -> bool:
    """Whether a necklace key whose leading run of 0s has length lead is
    no greater than any rotation of its inverse, swap and swapped
    inverse."""
    n = len(key)
    # only a rotation that starts with lead 0s can be smaller than key
    head = key[:lead]
    for variant in (key[::-1].translate(_INVERT_KEYS),
                    key.translate(_SWAP_KEYS),
                    key[::-1].translate(_SWAP_INVERT_KEYS)):
        doubled = variant + variant
        i = doubled.find(head)
        while -1 < i < n:
            if doubled[i:i + n] < key:
                return False
            i = doubled.find(head, i + 1)
    return True


def _necklaces(max_length: int, mu: int) -> Iterator[tuple[str, int, int]]:
    """(key, lead, trace) for every cyclically reduced necklace key of
    length <= max_length that survives the run cut, in increasing key
    order, a key before its extensions: lead is the length of its leading
    run of 0s and trace that of its conjugate image at mu.

    An explicit-stack depth-first search over keys, each carrying its FKM
    period, the length of its leading run of 0s, the length of its last
    run, and its image (a, b, c, d) under rep.evaluate's column
    operations, so that a child costs one of them.  A node's children are
    pushed in decreasing key order, so they pop in increasing order and
    the preorder is increasing string order.  The children at max_length
    are leaves: the parent tests them in increasing order itself, since
    only their trace is needed, and pushes none of them.

    The search cuts every child in which a run of one letter would be
    longer than the leading run.  The cut is sound.  The word itself, its
    swap, its inverse and its swapped inverse carry a run of a, b, A or B
    respectively to a run of a of the same length.  Once a key has a
    letter other than 0, all its extensions start with exactly its leading
    run of 0s, so an extension holding a longer run has a rotation of one
    of those variants that starts with more 0s and is therefore smaller
    than the extension: it is never the least word of its orbit.
    """
    # every orbit has a word starting with a, so the tree has one root
    stack = [("0", 1, 1, 1, 1, 1, 0, 1)]
    while stack:
        key, period, lead, run, a, b, c, d = stack.pop()
        n = len(key)
        last = key[-1]
        # every key starts with 0, so it is cyclically reduced unless it
        # ends with 2 (a word ending in A)
        if n % period == 0 and last != "2":
            yield key, lead, a + d
        if n == max_length:  # only the root, when max_length is 1
            continue
        ref = key[n - period]
        if n + 1 == max_length:
            t = a + d
            for ch in _RISING_FOLLOWERS[last]:
                # a leaf is kept when it is a necklace (a child above ref
                # is a Lyndon word) and does not end with 2
                if ch < ref or ch == "2" or (ch == ref and max_length % period):
                    continue
                if ch != last:
                    child_lead = lead
                elif lead == n:
                    child_lead = max_length
                elif run < lead:
                    child_lead = lead
                else:
                    continue
                if ch == "0":
                    yield key + ch, child_lead, t + c
                elif ch == "1":
                    yield key + ch, child_lead, t - mu * b
                else:
                    yield key + ch, child_lead, t + mu * b
            continue
        for ch in _FOLLOWERS[last]:
            if ch < ref:
                break
            if ch != last:
                child_lead, child_run = lead, 1
            elif lead == n:  # the key is all 0s and ch extends that run
                child_lead = child_run = n + 1
            elif run < lead:
                child_lead, child_run = lead, run + 1
            else:
                continue
            child = key + ch
            child_period = n + 1 if ch > ref else period
            if ch == "0":
                stack.append((child, child_period, child_lead, child_run,
                              a, b + a, c, d + c))
            elif ch == "1":
                stack.append((child, child_period, child_lead, child_run,
                              a - mu * b, b, c - mu * d, d))
            elif ch == "2":
                stack.append((child, child_period, child_lead, child_run,
                              a, b - a, c, d - c))
            else:
                stack.append((child, child_period, child_lead, child_run,
                              a + mu * b, b, c + mu * d, d))


def enumerate_classes(max_length: int) -> Iterator[str]:
    """One representative per symmetry orbit of cyclically reduced words
    of length <= max_length: the least word of the orbit in the letter
    order a < b < A < B.  The words come in that order, a word before its
    extensions, each as soon as the search finds it: the candidates of
    _necklaces that _least_in_orbit keeps.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    # the traces are not needed, and mu = 1 keeps their ints smallest
    for key, lead, _ in _necklaces(max_length, 1):
        if _least_in_orbit(key, lead):
            yield key.translate(_FROM_KEY)


def _class_count(max_length: int) -> int:
    """Number of symmetry orbits of cyclically reduced words of length
    1..max_length, by Burnside's lemma: the mean, over the group, of the
    number of words each element fixes.

    On the cyclically reduced words of length n act the rotations r^k
    (0 <= k < n), the swap s and the inversion i, which reverses a word
    and inverts its letters.  s commutes with both others and
    i r^k i = r^-k, so the group has the 4n elements r^k, s r^k, i r^k
    and s i r^k.

    Let M be the 4x4 letter matrix with M[x][y] = 1 when y may follow x
    (y != x^-1) and P the permutation matrix of the swap.  M is the
    all-ones matrix minus the inversion's permutation matrix, so it
    commutes with P, and on the common eigenvectors (1, 1, 1, 1),
    (1, 1, -1, -1), (1, -1, 1, -1) and (1, -1, -1, 1), letters in the
    order a b A B, M takes 3, 1, -1, 1 and P takes 1, 1, -1, -1.
    Hence tr M^d = 3^d + (-1)^d + 2 and tr M^d P = 3^d - (-1)^d.

    - r^k with d = gcd(k, n) fixes the words of period d, the n/d-th
      powers of the cyclically reduced words of length d: the closed
      walks of length d in M, tr M^d of them.
    - s r^k fixes w when w[j + k] = s(w[j]) for every position j (indices
      mod n).  Write k = d k' with k' prime to n/d.  If n/d is odd, n/d
      steps of k return to j and give w[j] = s(w[j]), but the swap fixes
      no letter.  If n/d is even, k' and its inverse mod n/d are odd, so
      w[j + t d] = s^t(w[j]) and w = (u s(u))^(n / 2d) for the first d
      letters u.  w is cyclically reduced when u is reduced and s(u[0])
      may follow u[d - 1]: the walks of length d from x to s(x) in M,
      tr M^d P of them.
    - i r^k reflects the cycle of positions: w[c - j] = w[j]^-1 for a
      fixed c.  Every reflection of an n-cycle maps a position to itself
      or swaps two neighbouring positions; the first needs a letter equal
      to its inverse, the second puts a letter beside its inverse.  It
      fixes no cyclically reduced word.
    - s i r^k maps w[j] to s(w[c - j])^-1, which again no letter equals.
      For n odd every reflection has a fixed position and fixes no word.
      For n even, the n/2 reflections about the axes through two edges
      fix no position; they pair the neighbours x, s(x)^-1, which never
      cancel, so their fixed words are u followed by the reversed,
      swapped inverse of u, cyclically reduced when u is reduced:
      4 * 3^(n/2 - 1) words for each axis.
    """
    total = 0
    for n in range(1, max_length + 1):
        fixed = 0
        for k in range(n):
            d = gcd(k, n)
            fixed += 3 ** d + (-1) ** d + 2
            if n // d % 2 == 0:
                fixed += 3 ** d - (-1) ** d
        if n % 2 == 0:
            fixed += n // 2 * 4 * 3 ** (n // 2 - 1)
        total += fixed // (4 * n)
    return total


@dataclass(frozen=True)
class SearchReport:
    mu: int
    max_length: int
    classes_examined: int
    minimum: rep.DilatationReport
    all_minima: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "max_length": self.max_length,
            "classes_examined": self.classes_examined,
            "minimum": self.minimum.to_json_dict(),
            "all_minima": list(self.all_minima),
            "note": (f"minimality certified only among conjugacy classes of "
                     f"word length <= {self.max_length}"),
        }


def _least_keys(max_length: int, mu: int) -> list[str]:
    """Keys of the least words of the orbits of least |trace| > 2, up to
    max_length >= 2, in increasing order: the candidates of _necklaces at
    that |trace| that _least_in_orbit keeps, as in enumerate_classes.

    That |trace| is the least > 2 of |tr ab| = |2 - mu|, |tr aB| = mu + 2
    and, from max_length 3, |tr aab| = |2 - 2 mu|.  From length 3 one of
    them attains the lemma's floor F(mu); at length 2 the only other
    candidates are a and aa, of trace 2.
    """
    traces = (abs(2 - mu), mu + 2, abs(2 - 2 * mu) if max_length > 2 else 0)
    least = min(t for t in traces if t > 2)
    minima: list[str] = []
    for key, lead, t in _necklaces(max_length, mu):
        if abs(t) == least and _least_in_orbit(key, lead):
            minima.append(key)
    return minima


def min_dilatation_search(max_length: int, mu: int,
                          precision_bits: int = 60) -> SearchReport:
    """Exact minimum of |trace| over hyperbolic classes up to max_length.

    From mu = 5 the syllable lemma of the module docstring gives the
    answer, the class of ab, key 01, alone, at every max_length >= 2;
    below, _least_keys enumerates.  Words are built only for the minima.
    classes_examined is _class_count(max_length), the number of classes
    the search covers, whether or not they were tested.
    """
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    if mu < 1:
        raise ValueError("mu must be >= 1")

    minima = ["01"] if mu >= 5 else _least_keys(max_length, mu)
    all_minima = tuple(key.translate(_FROM_KEY) for key in minima)
    report = rep.dilatation(all_minima[0], mu, precision_bits)
    return SearchReport(mu, max_length, _class_count(max_length), report,
                        all_minima)


@dataclass(frozen=True)
class LcsRow:
    depth: int
    word: str
    mu: int
    trace: int
    log_dilatation: Interval

    def to_json_dict(self) -> dict:
        return {
            "k": self.depth,
            "word": self.word,
            "length": len(self.word),
            "trace": rep.trace_json(self.trace, self.mu),
            "log_lambda": endpoint_strs(self.log_dilatation),
        }


def lcs_table(k_max: int, mu: int, precision_bits: int = 60) -> list[LcsRow]:
    """Nested-commutator words w(k) and their certified log dilatations.
    w(k) lies in gamma_k of <T_A, T_B> (gamma_1 = F) by construction, so
    row k bounds the least dilatation in gamma_k from above at any genus.

    tr w(1) = 2 - mu and tr w(k) = mu^(2^(k-1)) + 2 for k >= 2, so one
    int is squared per level and no matrix is formed.  Proof: in SL2,
    tr[u, v] = tr^2 u + tr^2 v + tr^2 uv - tr u tr v tr uv - 2 (Fricke),
    and tr a = tr b = 2, tr ab = 2 - mu give tr w(2) = mu^2 + 2.  For
    k >= 2, w(k) b = w(k-1) b w(k-1)^-1 is conjugate to b, so
    tr w(k) b = 2 and tr w(k+1) = tr[w(k), b] = (tr w(k) - 2)^2 + 2.
    Every row past the first is thus hyperbolic, and only row 1 is tested.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mu < 1:
        raise ValueError("mu must be >= 1")
    power, trace = mu, 2 - mu
    # |trace| <= 2 is the identity, elliptic or parabolic
    if abs(trace) <= 2:
        raise RuntimeError("nested commutator at k=1 is not hyperbolic")
    table = []
    for k in range(1, k_max + 1):
        if k > 1:
            power *= power
            trace = power + 2
        _, log_lam = rep.hyperbolic_dilatation(trace, precision_bits)
        table.append(LcsRow(k, words.nested_commutator(k), mu, trace,
                            log_lam))
    return table


def lcs_csv(rows: list[LcsRow]) -> str:
    lines = ["k,word,length,trace,log_lambda_lo,log_lambda_hi"] + [
        f"{r.depth},{r.word},{len(r.word)},{decimal_str(r.trace)},"
        f"{float_str(r.log_dilatation.lo)},{float_str(r.log_dilatation.hi)}"
        for r in rows]
    return "\n".join(lines) + "\n"
