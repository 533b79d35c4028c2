"""The Johnson homomorphism target: Lambda^3 H modulo omega wedge H.

H = Z^{2g} with symplectic basis x1, y1, ..., xg, yg and intersection
form omega = sum x_i ^ y_i.  A coset is represented by sparse terms
((i, j, k), c) of Lambda^3 H: triples i < j < k < 2g of basis indices,
sorted and distinct, each with a nonzero int c.  The 2g generators
omega ^ e of the sublattice have pairwise disjoint supports with entries
+1, so they are their own Hermite echelon form: the canonical
representative of a coset zeroes one pivot coordinate per generator, and
the quotient is free of rank C(2g, 3) - 2g.  Two cosets are equal iff
their canonical representatives are.  Only `omega_wedge_basis` walks all
C(2g, 3) triples.

The closed formula for a bounding-pair map T_a T_b^{-1} with capped-off
side R carrying a symplectic family (u_1, v_1), ..., (u_k, v_k) is
(sum u_i ^ v_i) ^ [a].
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd


# one term of HomologyClass.parse: [sign][coefficient](x|y)<index>, with
# spaces allowed around the term and between the sign and the rest
_TERM = re.compile(r" *([+-]?) *(\d*)([xy])(\d+) *", re.ASCII)
# the most digits of a coefficient in HomologyClass.parse.  Every coset
# coefficient then has fewer than str()'s limit of 4300 digits: a string
# and a list hold fewer than 2^63 items, so a class has n < 2^62 terms of
# at least two characters, and g < 2^62.  Its coordinates are below
# n 10^1000 < 10^1019, the 3x3 minors of wedge3 below 6 10^3057, and
# tau_bounding_pair's sum over at most g - 1 pairs below 10^3077: g
# symplectic pairs span H, which leaves no nonzero [a] orthogonal to
# them.  reduce subtracts at most one such coefficient from each, as the
# generators' supports are disjoint, which leaves it below 10^3078.
MAX_COEFFICIENT_DIGITS = 1000


class GenusMismatch(ValueError):
    pass


class NotSymplecticError(ValueError):
    """Input pairs fail the symplectic-family check."""


@dataclass(frozen=True)
class HomologyClass:
    genus: int
    coordinates: tuple[int, ...]

    def __post_init__(self):
        if len(self.coordinates) != 2 * self.genus:
            raise ValueError("coordinate length must be 2g")

    @classmethod
    def parse(cls, text: str, g: int) -> "HomologyClass":
        """Named-coordinate syntax: sums of [coeff]x<i> / [coeff]y<i>.

        Every term after the first starts with + or -; spaces may stand
        between terms and around signs, but not inside a term.
        Examples: "x1", "x2+y2", "2x1-3y2", "x2 - 3y2".
        """
        v = [0] * (2 * g)
        if not text.strip(" "):
            raise ValueError("empty homology class")
        pos = 0
        while pos < len(text):
            m = _TERM.match(text, pos)
            if not m or (pos and not m.group(1)):
                raise ValueError(f"cannot parse homology class {text!r} at "
                                 f"{text[pos:].strip(' ')!r}")
            sign, coeff, kind, idx = m.groups()
            if len(coeff) > MAX_COEFFICIENT_DIGITS:
                raise ValueError(f"coefficient of {len(coeff)} digits; at "
                                 f"most {MAX_COEFFICIENT_DIGITS} are allowed")
            c = int(coeff) if coeff else 1
            if sign == "-":
                c = -c
            # an index of more digits exceeds every genus
            i = int(idx) if len(idx) <= MAX_COEFFICIENT_DIGITS else 0
            if not 1 <= i <= g:
                raise ValueError(f"index {idx} out of range for genus {g}")
            v[2 * (i - 1) + (0 if kind == "x" else 1)] += c
            pos = m.end()
        return cls(g, tuple(v))


def symplectic_pairing(u: HomologyClass, v: HomologyClass) -> int:
    """omega(u, v) with omega(x_i, y_i) = 1."""
    if u.genus != v.genus:
        raise GenusMismatch("genus mismatch")
    total = 0
    for i in range(u.genus):
        total += (u.coordinates[2 * i] * v.coordinates[2 * i + 1]
                  - u.coordinates[2 * i + 1] * v.coordinates[2 * i])
    return total


def coordinate_name(index: int) -> str:
    return f"{'x' if index % 2 == 0 else 'y'}{index // 2 + 1}"


def _sorted_terms(terms: dict) -> tuple:
    return tuple(sorted((t, c) for t, c in terms.items() if c))


@dataclass(frozen=True)
class Wedge3Coset:
    genus: int
    representative: tuple[tuple[tuple[int, int, int], int], ...]

    def __post_init__(self):
        previous = ()
        for (i, j, k), c in self.representative:
            if not (0 <= i < j < k < 2 * self.genus and (i, j, k) > previous
                    and isinstance(c, int) and c):
                raise ValueError("need sorted distinct ((i, j, k), c) terms "
                                 "with 0 <= i < j < k < 2g and int c != 0")
            previous = (i, j, k)

    def reduce(self) -> "Wedge3Coset":
        """Canonical representative modulo omega wedge H."""
        lat = _EchelonLattice(_omega_wedge_rows(self.genus))
        return Wedge3Coset(self.genus, _sorted_terms(
            lat.canonical(self.representative)))

    def is_zero_coset(self) -> bool:
        return not self.reduce().representative

    def to_json_dict(self) -> dict:
        nonzero = {"^".join(coordinate_name(i) for i in t): c
                   for t, c in self.reduce().representative}
        return {"genus": self.genus, "coset": nonzero,
                "is_zero": not nonzero}


def wedge3(h1: HomologyClass, h2: HomologyClass, h3: HomologyClass) -> Wedge3Coset:
    """Alternating trilinear expansion over triples of the joint support."""
    if not (h1.genus == h2.genus == h3.genus):
        raise GenusMismatch("genus mismatch")
    c1, c2, c3 = h1.coordinates, h2.coordinates, h3.coordinates
    support = [n for n in range(2 * h1.genus) if c1[n] or c2[n] or c3[n]]
    terms = []
    for t in itertools.combinations(support, 3):
        i, j, k = t
        det = (c1[i] * (c2[j] * c3[k] - c2[k] * c3[j])
               - c1[j] * (c2[i] * c3[k] - c2[k] * c3[i])
               + c1[k] * (c2[i] * c3[j] - c2[j] * c3[i]))
        if det:
            terms.append((t, det))
    return Wedge3Coset(h1.genus, tuple(terms))


@lru_cache(maxsize=None)
def _omega_wedge_rows(
        g: int) -> tuple[tuple[tuple[tuple[int, int, int], int], ...], ...]:
    """Each generator omega ^ e as sparse (triple, 1) entries.

    omega ^ e = sum over i with e not in {x_i, y_i} of x_i ^ y_i ^ e, so
    each of the 2g generators has g - 1 entries, and the triple
    {x_i, y_i, e} names e: no two supports meet.  Entries are +1 and in
    triple order: x_i, y_i are the adjacent indices 2i, 2i + 1, so e lies
    below or above both and sorts (x_i, y_i, e) by an even permutation.
    """
    if g < 2:
        raise ValueError("quotient needs g >= 2")
    rows = []
    for e in range(2 * g):
        row = []
        for i in range(g):
            xi, yi = 2 * i, 2 * i + 1
            if e not in (xi, yi):
                row.append((tuple(sorted((xi, yi, e))), 1))
        rows.append(tuple(sorted(row)))
    return tuple(rows)


def omega_wedge_basis(g: int) -> list[tuple[int, ...]]:
    """The 2g generators omega ^ e, dense over the lexicographic triples."""
    rows = _omega_wedge_rows(g)
    triples = list(itertools.combinations(range(2 * g), 3))
    return [tuple(dict(row).get(t, 0) for t in triples) for row in rows]


class _EchelonLattice:
    """Lattice spanned by sparse rows with pairwise disjoint supports, each
    led by a pivot entry of 1.

    Such rows are already in Hermite echelon form, so a coset of the
    lattice has exactly one representative that is zero at every pivot.
    """

    def __init__(self, rows):
        if any(row[0][1] != 1 for row in rows):
            raise ValueError("pivot entry must be 1")
        support = [n for row in rows for n, _ in row]
        if len(set(support)) != len(support):
            raise ValueError("generator supports overlap")
        self.rows = rows

    def canonical(self, terms) -> dict:
        """Coset representative of the (key, c) terms, zero at every pivot."""
        w = dict(terms)
        for row in self.rows:
            q = w.get(row[0][0], 0)
            if q:
                for n, x in row:
                    w[n] = w.get(n, 0) - q * x
        return w


def quotient_rank(g: int) -> int:
    """Rank of Lambda^3 H / (omega ^ H) as a free abelian group."""
    if g < 2:
        raise ValueError("quotient needs g >= 2")
    return comb(2 * g, 3) - 2 * g


def coset_equal(u: Wedge3Coset, v: Wedge3Coset) -> bool:
    """True iff u - v lies in the omega ^ H sublattice: _EchelonLattice
    gives each coset exactly one representative zero at every pivot."""
    if u.genus != v.genus:
        raise GenusMismatch("genus mismatch")
    return u.reduce() == v.reduce()


def tau_bounding_pair(g: int, pairs, a: HomologyClass) -> Wedge3Coset:
    """(sum u_i ^ v_i) ^ [a] for a symplectic family on the capped side.

    The family must satisfy omega(u_i, v_j) = delta_ij and
    omega(u_i, u_j) = omega(v_i, v_j) = 0, with every class lying in the
    omega-complement of [a] (representatives of H_1 of the capped side).
    """
    if a.genus != g:
        raise GenusMismatch("genus mismatch")
    if gcd(*a.coordinates) != 1:
        raise NotSymplecticError("[a] must be primitive (coordinates with "
                                 "gcd 1), as a nonseparating class is")
    pairs = list(pairs)
    for h in itertools.chain(*pairs):
        if symplectic_pairing(h, a) != 0:
            raise NotSymplecticError(
                "family classes must pair trivially with [a]")
    for i, (ui, vi) in enumerate(pairs):
        for j, (uj, vj) in enumerate(pairs):
            if symplectic_pairing(ui, vj) != (1 if i == j else 0):
                raise NotSymplecticError(f"omega(u{i}, v{j}) wrong")
            if symplectic_pairing(ui, uj) != 0 or symplectic_pairing(vi, vj) != 0:
                raise NotSymplecticError(f"pair ({i}, {j}) not isotropic")
    total = {}
    for u, v in pairs:
        for t, c in wedge3(u, v, a).representative:
            total[t] = total.get(t, 0) + c
    return Wedge3Coset(g, _sorted_terms(total))


def lantern_check(g: int) -> bool:
    """tau(T_z T_d^{-1}) != tau(T_d T_w^{-1}) for the canonical fixture.

    Fixture: [d] = x1; the region between z and d carries (x2, y2), the
    region between d and w carries (x3, y3); two disjoint genus-1 regions
    besides the channel handle force g >= 3.  With each region placed to
    the left of its twisting curve, both formulas orient the common
    homology class the same way, so the inequality is the nonvanishing
    of (x2^y2 - x3^y3)^x1 in the quotient.
    """
    if g < 3:
        raise ValueError("lantern fixture needs g >= 3")
    d = HomologyClass.parse("x1", g)
    tau_z_d = tau_bounding_pair(
        g, [(HomologyClass.parse("x2", g), HomologyClass.parse("y2", g))], d)
    tau_d_w = tau_bounding_pair(
        g, [(HomologyClass.parse("x3", g), HomologyClass.parse("y3", g))], d)
    return not coset_equal(tau_z_d, tau_d_w)
