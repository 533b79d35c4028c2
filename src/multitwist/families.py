"""Genus-parametrized multicurve intersection matrices and PF certificates.

Two built-in families: the separating-curve family on the closed genus-g
surface (intersection numbers 4, N*N^t row sums 64) and its sphere/braid
quotient (intersection numbers 2, row sums 16).  Perron-Frobenius
eigenvalues are certified exactly by equal integer row sums (the all-ones
eigenvector); unequal row sums fall back to Collatz-Wielandt brackets from
power iteration in ints with a common denominator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

TORELLI = "torelli_separating"
BRAID = "braid_sphere"

TORELLI_MU = 64
BRAID_MU = 16
# power-iteration steps before pf_eigenvalue gives up on its bracket
_PF_MAX_ITERATIONS = 10_000

_INT_TYPE = {int}


class ReducibleMatrixError(ValueError):
    """PF certificate requested for a reducible matrix."""


@dataclass(frozen=True)
class IntersectionFamily:
    family: str
    m: int
    N: tuple[tuple[int, ...], ...]
    genus: Optional[int] = None
    mu: Optional[int] = None

    def nnt(self) -> list[list[int]]:
        """N * N^t, summed over the nonzero entries of each column of N:
        O(sum of nnz_k^2) for the band matrices instead of O(m^3)."""
        n = self.m
        prod = [[0] * n for _ in range(n)]
        for k in range(n):
            column = [(i, row[k]) for i, row in enumerate(self.N) if row[k]]
            for i, x in column:
                out = prod[i]
                for j, y in column:
                    out[j] += x * y
        return prod


def _cyclic_band(m: int, value: int) -> tuple[tuple[int, ...], ...]:
    if m == 1:
        return ((2 * value,),)
    rows = []
    for i in range(m):
        row = [0] * m
        row[i] = value
        row[(i - 1) % m] = value
        rows.append(tuple(row))
    return tuple(rows)


def torelli_family(g: int) -> IntersectionFamily:
    """Separating-curve pair on the closed genus-g surface; mu = 64."""
    if g < 2:
        raise ValueError("torelli family needs g >= 2")
    m = math.ceil(g / 2)
    return IntersectionFamily(TORELLI, m, _cyclic_band(m, 4), genus=g,
                              mu=TORELLI_MU)


def braid_family(g: int) -> IntersectionFamily:
    """Sphere multicurves before the double cover; models PB_{2g+1}, mu = 16."""
    if g < 1:
        raise ValueError("braid family needs g >= 1")
    m = math.ceil(g / 2)
    return IntersectionFamily(BRAID, m, _cyclic_band(m, 2), genus=g,
                              mu=BRAID_MU)


@dataclass(frozen=True)
class PFResult:
    value_lower: Fraction
    value_upper: Fraction
    eigenvector: tuple[Fraction, ...]
    exact_flag: bool
    iterations: int = 0


def _check_matrix(M) -> None:
    """A square matrix of nonnegative ints or Fractions; floats are refused,
    because two float row sums that round equal would certify "exact"."""
    n = len(M)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    for row in M:
        if len(row) != n:
            raise ValueError("matrix must be square")
        # a row of plain nonnegative ints passes without the slow ABC test
        if set(map(type, row)) == _INT_TYPE and min(row) >= 0:
            continue
        for x in row:
            if not isinstance(x, numbers.Rational):
                raise TypeError(f"matrix entry {x!r} is not an int or a "
                                f"Fraction")
            if x < 0:
                raise ValueError("matrix must be nonnegative")


def _is_irreducible(M) -> bool:
    """Strong connectivity of the digraph with an edge i->j iff M[i][j] > 0.

    Every vertex must be reachable from 0 along the edges and along the
    reversed edges; both walks use adjacency lists built once.
    """
    n = len(M)
    successors = [[j for j, x in enumerate(row) if x] for row in M]
    predecessors = [[] for _ in range(n)]
    for i, row in enumerate(successors):
        for j in row:
            predecessors[j].append(i)

    def reaches_all(adjacent) -> bool:
        seen = [False] * n
        seen[0] = True
        frontier = [0]
        count = 1
        while frontier:
            for j in adjacent[frontier.pop()]:
                if not seen[j]:
                    seen[j] = True
                    count += 1
                    frontier.append(j)
        return count == n

    return reaches_all(successors) and reaches_all(predecessors)


def pf_eigenvalue(M, tol=Fraction(1, 10 ** 9)) -> PFResult:
    """Perron-Frobenius eigenvalue with an exact rational certificate.

    M is a square matrix of nonnegative ints or Fractions (floats raise
    TypeError).  Equal row sums, taken on the entries as given, give the
    exact answer with the all-ones eigenvector.  Otherwise power iteration
    with M + I (primitive for irreducible M), in ints with a common
    denominator, tightens the Collatz-Wielandt bracket of M below tol; the
    bracket endpoints and the eigenvector are exact Fractions.
    """
    _check_matrix(M)
    n = len(M)
    if not _is_irreducible(M):
        raise ReducibleMatrixError("matrix is reducible")
    # n references to one Fraction, not a tuple built from a generator: the
    # generator form leaves freed objects in CPython's free lists, which
    # only a full collection clears, and this fast path triggers almost
    # none; it raised verify-paper's peak RSS by about 3%
    ones = (Fraction(1),) * n
    row_sums = {sum(row) for row in M}
    if len(row_sums) == 1:
        s = Fraction(row_sums.pop())
        return PFResult(s, s, ones, exact_flag=True)

    # v = V / max(V) with the int vector V = (D*M + D*I)^it * 1, where D is
    # the common denominator of M: the ratios (M*v)_i / v_i are the
    # Fractions (D*M*V)_i / (D*V_i), and no step needs a gcd
    fractions = [[Fraction(x) for x in row] for row in M]
    D = math.lcm(*(x.denominator for row in fractions for x in row))
    DM = [[x.numerator * (D // x.denominator) for x in row]
          for row in fractions]
    V = [1] * n
    for it in range(_PF_MAX_ITERATIONS):
        # D*M*V gives both the Collatz-Wielandt bracket at V and the next step
        DMV = [sum(x * y for x, y in zip(row, V)) for row in DM]
        ratios = [Fraction(x, D * y) for x, y in zip(DMV, V)]
        if it:
            lo, hi = max(lo, min(ratios)), min(hi, max(ratios))
        else:
            lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol:
            top = max(V)
            return PFResult(lo, hi, tuple(Fraction(x, top) for x in V),
                            exact_flag=False, iterations=it)
        # iterate with M + I to handle periodic irreducible matrices
        V = [x + D * y for x, y in zip(DMV, V)]
    raise RuntimeError(f"PF bracket did not reach tol={tol} "
                       f"in {_PF_MAX_ITERATIONS} iterations")
