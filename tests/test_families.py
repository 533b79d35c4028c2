import random
from fractions import Fraction

import numpy as np
import pytest

from multitwist.families import (PFResult, braid_family, nnt, pf_eigenvalue,
                                 torelli_family)


def test_torelli_examples():
    assert torelli_family(5) == ((4, 0, 4), (4, 4, 0), (0, 4, 4))
    assert torelli_family(2) == ((8,),)
    assert torelli_family(4) == ((4, 4), (4, 4))
    with pytest.raises(ValueError):
        torelli_family(1)


def test_braid_examples():
    assert braid_family(5) == ((2, 0, 2), (2, 2, 0), (0, 2, 2))
    # g = 2 is the degenerate m = 1 case, half the torelli entry
    assert braid_family(2) == ((4,),)
    assert braid_family(1) == ((4,),)
    with pytest.raises(ValueError):
        braid_family(0)


def test_nnt_examples():
    assert nnt(torelli_family(5)) == [[32, 16, 16], [16, 32, 16], [16, 16, 32]]
    assert nnt(torelli_family(2)) == [[64]]
    assert nnt(braid_family(5)) == [[8, 4, 4], [4, 8, 4], [4, 4, 8]]


def test_nnt_band_structure_large_genus():
    prod = nnt(torelli_family(16))  # m = 8, genuine band
    m = len(prod)
    for i in range(m):
        for j in range(m):
            d = min((i - j) % m, (j - i) % m)
            expected = 32 if d == 0 else (16 if d == 1 else 0)
            assert prod[i][j] == expected


def test_pf_exact_cases():
    pf = pf_eigenvalue(nnt(torelli_family(5)))
    assert pf.value == 64
    assert pf.eigenvector == (1, 1, 1)
    assert pf.iterations == 0
    # reducible, and certified all the same: every row sums to 1
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert pf_eigenvalue(identity) == PFResult(1, (1, 1, 1))
    assert pf_eigenvalue([[0]]).value == 0
    assert pf_eigenvalue(((3, 0), (1, 2))).value == 3


def test_pf_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        pf_eigenvalue([])
    for ragged in ([[1, 2, 3], [4, 5, 6]], [[1, 0], [1]]):
        with pytest.raises(ValueError, match="square"):
            pf_eigenvalue(ragged)
    with pytest.raises(ValueError, match="nonnegative"):
        pf_eigenvalue([[2, -1], [1, 0]])
    # unequal row sums, irreducible or not, have no row-sum certificate
    for unequal in ([[2, 1], [1, 1]], [[1, 1], [0, 1]], [[0, 1], [2, 0]]):
        with pytest.raises(ValueError, match="row sums differ"):
            pf_eigenvalue(unequal)


def test_pf_refuses_fraction_and_bool_entries():
    for bad in (Fraction(1), True, np.int64(1)):
        with pytest.raises(TypeError, match="is not an int"):
            pf_eigenvalue([[1, 0], [0, bad]])
    # Fraction rows with equal sums are refused too
    with pytest.raises(TypeError):
        pf_eigenvalue([[Fraction(1, 2), Fraction(1, 2)], [1, 0]])
    with pytest.raises(TypeError):
        pf_eigenvalue([[True]])


def _equal_row_sums(rng, n, s):
    """A random n x n nonnegative int matrix whose rows all sum to s: each
    row is s cut at n - 1 random points, its parts scattered."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, s) for _ in range(n - 1))
        row = [b - a for a, b in zip([0, *cuts], [*cuts, s])]
        rng.shuffle(row)
        rows.append(row)
    return rows


def _block_diagonal(A, B):
    n, m = len(A), len(B)
    return [row + [0] * m for row in A] + [[0] * n + row for row in B]


def _permuted(rng, M):
    """P M P^t for a random permutation P: the same digraph, relabelled."""
    order = list(range(len(M)))
    rng.shuffle(order)
    return [[M[i][j] for j in order] for i in order]


def test_pf_matches_numpy_spectral_radius():
    rng = random.Random(1988)
    cases = [[[0]], [[0, 0], [0, 0]], [[5]]]
    for _ in range(120):
        n, s = rng.randint(1, 8), rng.randint(0, 40)
        cases.append(_equal_row_sums(rng, n, s))
    for _ in range(40):  # reducible: two blocks with the same row sum
        n1 = rng.randint(1, 7)
        n2, s = rng.randint(1, 8 - n1), rng.randint(1, 40)
        M = _block_diagonal(_equal_row_sums(rng, n1, s),
                            _equal_row_sums(rng, n2, s))
        cases.append(_permuted(rng, M) if rng.random() < 0.5 else M)
    for _ in range(30):  # s times a permutation matrix
        n, s = rng.randint(1, 8), rng.randint(1, 40)
        image = list(range(n))
        rng.shuffle(image)
        cases.append([[s * (j == image[i]) for j in range(n)]
                      for i in range(n)])
    for n in range(1, 9):  # s * I and the zero matrix
        s = rng.randint(1, 40)
        cases.append([[s * (i == j) for j in range(n)] for i in range(n)])
        cases.append([[0] * n for _ in range(n)])
    assert len(cases) >= 200
    for M in cases:
        s = sum(M[0])
        pf = pf_eigenvalue(M)
        assert pf == PFResult(s, (1,) * len(M)), M
        radius = max(abs(np.linalg.eigvals(np.array(M, dtype=float))))
        assert abs(radius - s) <= 1e-9 * max(s, 1), M


def test_pf_exact_across_genus():
    for g in range(2, 65):
        pf = pf_eigenvalue(nnt(torelli_family(g)))
        assert pf.value == 64, g
    for g in range(1, 65):
        pf = pf_eigenvalue(nnt(braid_family(g)))
        assert pf.value == 16, g


def test_mu_is_square_of_offdiagonal_entry():
    # mu is certified from N, and sqrt(mu) is the off-diagonal entry of
    # the image of T_A
    assert pf_eigenvalue(nnt(torelli_family(3))).value == 8 * 8 == 64
    assert pf_eigenvalue(nnt(braid_family(3))).value == 4 * 4 == 16


def _dense_nnt(N):
    n, columns = len(N), len(N[0])
    return [[sum(N[i][k] * N[j][k] for k in range(columns))
             for j in range(n)] for i in range(n)]


def test_nnt_matches_dense_triple_loop():
    rng = random.Random(2004)
    for _ in range(200):
        m = rng.randint(1, 9)
        if rng.random() < 0.5:  # cyclic band with random entries
            N = [[0] * m for _ in range(m)]
            for i in range(m):
                N[i][i] += rng.randint(0, 9)
                N[i][(i - 1) % m] += rng.randint(0, 9)
        else:  # arbitrary sparsity and column count
            density, columns = rng.random(), rng.randint(1, 9)
            N = [[rng.randint(1, 9) if rng.random() < density else 0
                  for _ in range(columns)] for _ in range(m)]
        assert nnt(N) == _dense_nnt(N)
    for g in range(2, 40):
        assert nnt(torelli_family(g)) == _dense_nnt(torelli_family(g)), g


@pytest.mark.parametrize("N", [
    [[1, 0, 2], [0, 3, 4]],                  # 2 x 3
    [[1, 2], [0, 3], [5, 0], [0, 0]],        # 4 x 2, with a zero row
    [[2, 0, 1], [3, 0, 0], [0, 0, 4]],       # an all-zero column
    [[0, 0], [0, 0]],
    [[7]],
    [[0]],
])
def test_nnt_reads_every_column(N):
    # nnt walks the columns of N, so their count need not equal the rows'
    assert nnt(N) == _dense_nnt(N)


def test_pf_refuses_float_entries():
    # the float row sums 2^53 + 1 and 2^53 round equal, which would
    # certify an exact eigenvalue of 2^53 for a matrix whose PF
    # eigenvalue is irrational
    with pytest.raises(TypeError):
        pf_eigenvalue([[2.0 ** 53, 1.0], [2.0 ** 53, 0.0]])
    with pytest.raises(TypeError):
        pf_eigenvalue([[2, 1], [1, 1.0]])
    with pytest.raises(TypeError):
        pf_eigenvalue(np.array([[2.0, 1.0], [1.0, 1.0]]))
