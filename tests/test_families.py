import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multitwist import families
from multitwist.families import (IntersectionFamily, ReducibleMatrixError,
                                 _is_irreducible, braid_family,
                                 pf_eigenvalue, torelli_family)


def test_torelli_examples():
    f5 = torelli_family(5)
    assert f5.m == 3
    assert [list(r) for r in f5.N] == [[4, 0, 4], [4, 4, 0], [0, 4, 4]]
    assert [list(r) for r in torelli_family(2).N] == [[8]]
    assert [list(r) for r in torelli_family(4).N] == [[4, 4], [4, 4]]
    with pytest.raises(ValueError):
        torelli_family(1)


def test_braid_examples():
    assert [list(r) for r in braid_family(5).N] == [[2, 0, 2], [2, 2, 0], [0, 2, 2]]
    # g = 2 is the degenerate m = 1 case, half the torelli entry
    assert [list(r) for r in braid_family(2).N] == [[4]]
    assert [list(r) for r in braid_family(1).N] == [[4]]
    with pytest.raises(ValueError):
        braid_family(0)


def test_nnt_examples():
    assert torelli_family(5).nnt() == [[32, 16, 16], [16, 32, 16], [16, 16, 32]]
    assert torelli_family(2).nnt() == [[64]]
    assert braid_family(5).nnt() == [[8, 4, 4], [4, 8, 4], [4, 4, 8]]


def test_nnt_band_structure_large_genus():
    prod = torelli_family(16).nnt()  # m = 8, genuine band
    m = len(prod)
    for i in range(m):
        for j in range(m):
            d = min((i - j) % m, (j - i) % m)
            expected = 32 if d == 0 else (16 if d == 1 else 0)
            assert prod[i][j] == expected


def test_pf_exact_cases():
    pf = pf_eigenvalue(torelli_family(5).nnt())
    assert pf.exact_flag and pf.value_lower == pf.value_upper == 64
    assert pf.eigenvector == (1, 1, 1)
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ReducibleMatrixError):
        pf_eigenvalue(identity)


def test_pf_bracket_golden_like():
    pf = pf_eigenvalue([[2, 1], [1, 1]], tol=Fraction(1, 10 ** 9))
    golden_sq = Fraction(2618033988749894848, 10 ** 18)  # (3+sqrt 5)/2
    assert pf.value_upper - pf.value_lower <= Fraction(1, 10 ** 9)
    assert pf.value_lower <= golden_sq + Fraction(1, 10 ** 9)
    assert pf.value_upper >= golden_sq - Fraction(1, 10 ** 9)
    assert not pf.exact_flag


def test_pf_gives_up_after_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(families, "_PF_MAX_ITERATIONS", 3)
    with pytest.raises(RuntimeError, match=r"^PF bracket did not reach "
                       r"tol=1/1000000000 in 3 iterations$"):
        pf_eigenvalue([[2, 1], [1, 1]])


def test_pf_rejects_bad_input():
    with pytest.raises(ValueError):
        pf_eigenvalue([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        pf_eigenvalue([[1, -1], [1, 1]])
    with pytest.raises(ReducibleMatrixError):
        pf_eigenvalue([[1, 1], [0, 1]])


def test_pf_exact_across_genus():
    for g in range(2, 65):
        pf = pf_eigenvalue(torelli_family(g).nnt())
        assert pf.exact_flag and pf.value_lower == 64, g
    for g in range(1, 65):
        pf = pf_eigenvalue(braid_family(g).nnt())
        assert pf.exact_flag and pf.value_lower == 16, g


def test_mu_is_square_of_offdiagonal_entry():
    assert torelli_family(3).mu == 64 and 8 * 8 == 64
    assert braid_family(3).mu == 16 and 4 * 4 == 16


def test_collatz_wielandt_soundness():
    # pf_eigenvalue's brackets at shrinking tol: each holds numpy's PF
    # eigenvalue and lies inside the last
    rng = random.Random(99)
    for _ in range(100):
        mat = [[Fraction(rng.randint(1, 9)) for _ in range(5)] for _ in range(5)]
        true_pf = max(abs(x) for x in
                      np.linalg.eigvals(np.array(mat, dtype=float)))
        prev_lo, prev_hi = 0, math.inf
        for digits in (1, 3, 6, 9):
            pf = pf_eigenvalue(mat, tol=Fraction(1, 10 ** digits))
            lo, hi = pf.value_lower, pf.value_upper
            assert prev_lo <= lo <= hi <= prev_hi
            assert hi - lo <= Fraction(1, 10 ** digits)
            assert (float(lo) * (1 - 1e-12) <= true_pf
                    <= float(hi) * (1 + 1e-12))
            prev_lo, prev_hi = lo, hi


def _pf_two_products(mat, tol):
    """The power iteration with M*v formed twice per step: once for the
    next vector, once more for the bracket at it."""
    n = len(mat)

    def bracket(v):
        ratios = [sum(mat[i][j] * v[j] for j in range(n)) / v[i]
                  for i in range(n)]
        return min(ratios), max(ratios)

    v = [Fraction(1)] * n
    lo, hi = bracket(v)
    for it in range(1, 10_001):
        if hi - lo <= tol:
            return lo, hi, tuple(v), it - 1
        w = [sum(mat[i][j] * v[j] for j in range(n)) + v[i] for i in range(n)]
        top = max(w)
        v = [x / top for x in w]
        new_lo, new_hi = bracket(v)
        lo, hi = max(lo, new_lo), min(hi, new_hi)
    raise AssertionError("no convergence")


def test_pf_one_product_per_step_matches_two():
    # the 10 matrices of verify.check_property_spot_suite, drawn after
    # its 50 random words
    rng = random.Random(7)
    for _ in range(50):
        for _ in range(30):
            rng.choice("abAB")
    tol = Fraction(1, 10 ** 6)
    iterations = []
    for _ in range(10):
        mat = [[Fraction(rng.randint(1, 9)) for _ in range(4)]
               for _ in range(4)]
        pf = pf_eigenvalue(mat, tol=tol)
        assert not pf.exact_flag
        assert ((pf.value_lower, pf.value_upper, pf.eigenvector,
                 pf.iterations) == _pf_two_products(mat, tol))
        iterations.append(pf.iterations)
    assert iterations == [12, 8, 12, 12, 9, 9, 9, 17, 12, 13]


def _dense_nnt(N):
    n = len(N)
    return [[sum(N[i][k] * N[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_nnt_matches_dense_triple_loop():
    rng = random.Random(2004)
    for _ in range(200):
        m = rng.randint(1, 9)
        if rng.random() < 0.5:  # cyclic band with random entries
            N = [[0] * m for _ in range(m)]
            for i in range(m):
                N[i][i] += rng.randint(0, 9)
                N[i][(i - 1) % m] += rng.randint(0, 9)
        else:  # arbitrary sparsity
            density = rng.random()
            N = [[rng.randint(1, 9) if rng.random() < density else 0
                  for _ in range(m)] for _ in range(m)]
        fam = IntersectionFamily("random", m, tuple(map(tuple, N)))
        assert fam.nnt() == _dense_nnt(N)
    for g in range(2, 40):
        fam = torelli_family(g)
        assert fam.nnt() == _dense_nnt(fam.N), g


def _warshall_strongly_connected(M) -> bool:
    n = len(M)
    reach = [[bool(M[i][j]) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return all(all(row) for row in reach)


def test_is_irreducible_matches_transitive_closure():
    rng = random.Random(1969)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 8)
        density = rng.random()
        M = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        expected = _warshall_strongly_connected(M)
        assert _is_irreducible(M) == expected, M
        seen.add(expected)
    assert seen == {True, False}


def test_pf_int_input_equals_fraction_input():
    rng = random.Random(64)
    exact = [torelli_family(g).nnt() for g in (2, 5, 16)]
    exact.append([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
    iterated = [[[2, 1], [1, 1]]]
    iterated += [[[rng.randint(1, 9) for _ in range(4)] for _ in range(4)]
                 for _ in range(5)]
    cases = [(m, True) for m in exact] + [(m, False) for m in iterated]
    for mat, exact_flag in cases:
        as_fractions = [[Fraction(x) for x in row] for row in mat]
        pf = pf_eigenvalue(mat, tol=Fraction(1, 10 ** 6))
        assert pf.exact_flag is exact_flag
        assert pf == pf_eigenvalue(as_fractions, tol=Fraction(1, 10 ** 6))
        assert all(type(x) is Fraction for x in
                   (pf.value_lower, pf.value_upper, *pf.eigenvector))


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


def _fraction_power_iteration(M, tol):
    """Oracle: the Collatz-Wielandt loop in Fractions, normalising v by its
    largest entry at every step."""
    rows = [[Fraction(x) for x in row] for row in M]
    n = len(rows)
    v = [Fraction(1)] * n
    for it in range(10_000):
        mv = [sum(row[j] * v[j] for j in range(n)) for row in rows]
        ratios = [x / y for x, y in zip(mv, v)]
        if it:
            lo, hi = max(lo, min(ratios)), min(hi, max(ratios))
        else:
            lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol:
            return lo, hi, tuple(v), it
        w = [x + y for x, y in zip(mv, v)]
        top = max(w)
        v = [x / top for x in w]
    raise AssertionError("oracle did not converge")


def test_int_power_iteration_matches_fraction_loop():
    rng = random.Random(61)
    cases = [[[2, 1], [1, 1]], [[0, 1], [1, 0]], [[0, 2], [3, 0]]]
    for _ in range(20):
        n = rng.randint(2, 5)
        cases.append([[rng.randint(0, 9) for _ in range(n)] for _ in range(n)])
        # entries k/6: the common denominator D is 6, 3 or 2
        cases.append([[Fraction(rng.randint(0, 12), 6) for _ in range(n)]
                      for _ in range(n)])
        cases.append([[Fraction(rng.randint(1, 9), rng.randint(1, 7)) if
                       rng.random() < 0.7 else 0 for _ in range(n)]
                      for _ in range(n)])
    checked, denominators = 0, set()
    for mat in cases:
        if not _is_irreducible(mat) or len({sum(r) for r in mat}) == 1:
            continue
        denominators.add(math.lcm(*(Fraction(x).denominator
                                    for row in mat for x in row)))
        for tol in (Fraction(1, 10 ** 3), Fraction(1, 10 ** 9)):
            pf = pf_eigenvalue(mat, tol=tol)
            lo, hi, v, it = _fraction_power_iteration(mat, tol)
            assert not pf.exact_flag
            assert (pf.value_lower, pf.value_upper) == (lo, hi), mat
            assert pf.eigenvector == v, mat
            assert pf.iterations == it, mat
        checked += 1
    assert checked >= 40
    assert {1, 6} <= denominators
