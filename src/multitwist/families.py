"""Genus-parametrized multicurve intersection matrices and PF certificates.

Two built-in families, each given by its intersection matrix N: the
separating-curve family on the closed genus-g surface (intersection
numbers 4, N*N^t row sums 64) and its sphere/braid quotient (intersection
numbers 2, row sums 16).  The Perron-Frobenius eigenvalue of N*N^t is
certified exactly by its equal integer row sums, with the all-ones
eigenvector.  Matrices with unequal row sums are refused (ValueError), and
so are entries that are not ints: floats, Fractions and bools (TypeError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TORELLI = "torelli_separating"
BRAID = "braid_sphere"


def nnt(N) -> list[list[int]]:
    """N * N^t for N with any number of columns, summed over the nonzero
    entries of each column: O(sum of nnz_k^2) for the band matrices
    instead of O(m^3)."""
    n = len(N)
    prod = [[0] * n for _ in range(n)]
    for col in zip(*N):
        column = [(i, x) for i, x in enumerate(col) if x]
        for i, x in column:
            out = prod[i]
            for j, y in column:
                out[j] += x * y
    return prod


def _cyclic_band(m: int, value: int) -> tuple[tuple[int, ...], ...]:
    """value at (i, i) and at (i, i - 1 mod m), so [[2 * value]] at m = 1."""
    rows = []
    for i in range(m):
        row = [0] * m
        row[i] += value
        row[(i - 1) % m] += value
        rows.append(tuple(row))
    return tuple(rows)


def torelli_family(g: int) -> tuple[tuple[int, ...], ...]:
    """N of the separating-curve pair on the closed genus-g surface;
    N * N^t certifies mu = 64."""
    if g < 2:
        raise ValueError("torelli family needs g >= 2")
    return _cyclic_band(math.ceil(g / 2), 4)


def braid_family(g: int) -> tuple[tuple[int, ...], ...]:
    """N of the sphere multicurves before the double cover, a model of
    PB_{2g+1}; N * N^t certifies mu = 16."""
    if g < 1:
        raise ValueError("braid family needs g >= 1")
    return _cyclic_band(math.ceil(g / 2), 2)


@dataclass(frozen=True)
class PFResult:
    value: int
    eigenvector: tuple[int, ...]
    # always 0: perfbench/tracing.py reads it for families.pf_iterations
    iterations: int = 0


def pf_eigenvalue(M) -> PFResult:
    """The Perron-Frobenius eigenvalue s of a nonempty square matrix of
    nonnegative ints whose rows all sum to s, with the all-ones eigenvector.

    Proof: let M x = lambda x with x != 0, and take i with |x_i| maximal.
    Then |lambda| |x_i| = |sum_j M_ij x_j| <= sum_j M_ij |x_i| = s |x_i|,
    so every eigenvalue has modulus at most s = ||M||_inf; and M 1 = s 1.
    So s is the spectral radius, whether or not M is irreducible.

    Unequal row sums raise ValueError.  Entries that are not ints raise
    TypeError: two float row sums that round equal would certify a false
    value, and a bool is not an intersection number.
    """
    n = len(M)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    for row in M:
        if len(row) != n:
            raise ValueError("matrix must be square")
        # the type test runs at C speed; a bool's type is bool, not int
        if not set(map(type, row)) <= {int}:
            bad = next(x for x in row if type(x) is not int)
            raise TypeError(f"matrix entry {bad!r} is not an int")
        if min(row) < 0:
            raise ValueError("matrix must be nonnegative")
    row_sums = set(map(sum, M))
    if len(row_sums) != 1:
        raise ValueError(f"row sums differ ({min(row_sums)} to "
                         f"{max(row_sums)}), so no row-sum certificate")
    return PFResult(row_sums.pop(), (1,) * n)
