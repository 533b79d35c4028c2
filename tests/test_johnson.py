import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from multitwist import cli, johnson
from multitwist.johnson import (GenusMismatch, HomologyClass,
                                NotSymplecticError, Wedge3Coset, coset_equal,
                                lantern_check, omega_wedge_basis,
                                quotient_rank, tau_bounding_pair, wedge3)
from sympy.matrices.normalforms import smith_normal_form

# the even permutations of (0, 1, 2): the identity and the two 3-cycles
EVEN_PERMUTATIONS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def _x(i, g):
    return HomologyClass.basis_x(i, g)


def _y(i, g):
    return HomologyClass.basis_y(i, g)


def _triples(g):
    return list(itertools.combinations(range(2 * g), 3))


def _coset(g, dense):
    """The coset of a dense vector over the lexicographic triples."""
    return Wedge3Coset(g, tuple((t, c) for t, c in zip(_triples(g), dense)
                                if c))


def _dense(coset):
    terms = dict(coset.representative)
    return tuple(terms.get(t, 0) for t in _triples(coset.genus))


def _unit(g, triple):
    return _coset(g, [int(t == triple) for t in _triples(g)])


def test_wedge3_basis_triple():
    g = 2
    # x1, y1, x2 occupy indices 0, 1, 2
    assert wedge3(_x(1, g), _y(1, g), _x(2, g)) == _unit(g, (0, 1, 2))


def test_wedge3_alternation_zero():
    g = 2
    out = wedge3(_x(1, g), _x(1, g), _y(2, g))
    assert out == Wedge3Coset.zero(g)


def test_wedge3_multilinearity():
    g = 2
    lhs = wedge3(_x(1, g) + _y(1, g), _y(1, g), _x(2, g))
    assert lhs == wedge3(_x(1, g), _y(1, g), _x(2, g))


def test_wedge3_genus_mismatch():
    with pytest.raises(GenusMismatch):
        wedge3(_x(1, 2), _x(1, 3), _y(1, 3))


def _leibniz_det(rows):
    total = 0
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[a] > perm[b]
                         for a in range(3) for b in range(a + 1, 3))
        term = -1 if inversions % 2 else 1
        for r in range(3):
            term *= rows[r][perm[r]]
        total += term
    return total


def test_wedge3_matches_dense_expansion():
    # every 3x3 minor of the 3 x 2g coordinate matrix, by Leibniz, over
    # all C(2g, 3) triples
    rng = random.Random(23)
    for g in range(2, 7):
        n = 2 * g
        pool = [HomologyClass(g, (0,) * n),
                HomologyClass(g, tuple(rng.choice((-1, 1)) * rng.randint(1, 5)
                                       for _ in range(n)))]
        for _ in range(6):
            pool.append(HomologyClass(g, tuple(
                rng.randint(-3, 3) if rng.random() < 0.4 else 0
                for _ in range(n))))
        for _ in range(12):
            h = [rng.choice(pool) for _ in range(3)]
            if rng.random() < 0.3:
                h = [HomologyClass(g, tuple(rng.randint(1, 6)
                                            for _ in range(n)))
                     for _ in range(3)]
            expected = tuple(
                _leibniz_det([[hh.coordinates[i] for i in t] for hh in h])
                for t in _triples(g))
            out = wedge3(*h)
            assert _dense(out) == expected
            assert out == _coset(g, expected)


@pytest.mark.parametrize("terms", [
    (((0, 1, 2), 0),),
    (((0, 1, 3), 1), ((0, 1, 2), 1)),
    (((0, 1, 2), 1), ((0, 1, 2), 2)),
    (((0, 0, 2), 1),),
    (((0, 1, 4), 1),),
    (((-1, 1, 2), 1),),
    (((0, 1, 2), Fraction(1)),),
])
def test_wedge3_coset_refuses_malformed_terms(terms):
    # genus 2: indices 0..3
    with pytest.raises(ValueError):
        Wedge3Coset(2, terms)


def test_wedge3_full_alternation_random():
    rng = random.Random(11)
    g = 3
    for _ in range(20):
        h = [HomologyClass(g, tuple(rng.randint(-4, 4) for _ in range(6)))
             for _ in range(3)]
        base = wedge3(*h)
        for perm in itertools.permutations(range(3)):
            sign = 1 if perm in EVEN_PERMUTATIONS else -1
            permuted = wedge3(h[perm[0]], h[perm[1]], h[perm[2]])
            expected = base if sign == 1 else -base
            assert permuted.representative == expected.representative


def test_omega_wedge_basis_g2():
    vecs = omega_wedge_basis(2)
    assert len(vecs) == 4
    # omega ^ x1 = x2 ^ y2 ^ x1 = + x1 ^ x2 ^ y2 (even permutation)
    expected = _dense(_unit(2, (0, 2, 3)))
    assert vecs[0] == expected
    with pytest.raises(ValueError):
        omega_wedge_basis(1)


def test_omega_wedge_rows_signs_by_inversions():
    # omega ^ e = sum of x_i ^ y_i ^ e; each entry is the sign of the sort
    # of (x_i, y_i, e), counted here by its inversions
    for g in (2, 3, 4, 5, 17, 64):
        for e, row in enumerate(johnson._omega_wedge_rows(g)):
            expected = {}
            for i in range(g):
                t = (2 * i, 2 * i + 1, e)
                if e not in t[:2]:
                    inversions = sum(p > q for p, q in
                                     itertools.combinations(t, 2))
                    expected[tuple(sorted(t))] = (-1) ** inversions
            assert dict(row) == expected


def test_omega_wedge_basis_independent():
    # sympy is the oracle: rank 2g, and every elementary divisor 1, so
    # Lambda^3 H / (omega ^ H) is torsion-free
    for g in (2, 3, 4, 5):
        m = sympy.Matrix(omega_wedge_basis(g))
        assert m.rank() == 2 * g
        snf = smith_normal_form(m, domain=sympy.ZZ)
        assert [snf[i, i] for i in range(2 * g)] == [1] * (2 * g)


def test_quotient_rank():
    for g in (2, 3, 4):
        n = 2 * g
        assert quotient_rank(g) == math.comb(n, 3) - n
    with pytest.raises(ValueError):
        quotient_rank(1)


def test_reduce_moves_by_a_lattice_vector():
    # the quotient is torsion-free, so v - reduce(v) lies in omega ^ H iff
    # it lies in the rational span of the generators
    rng = random.Random(3)
    for g in (2, 3, 4):
        basis = sympy.Matrix(omega_wedge_basis(g))
        dim = basis.shape[1]
        for _ in range(5):
            v = tuple(rng.randint(-5, 5) for _ in range(dim))
            shift = [a - b for a, b in zip(v, _dense(_coset(g, v).reduce()))]
            assert basis.col_join(sympy.Matrix([shift])).rank() == 2 * g


def test_reduce_is_idempotent_and_compares_equal():
    assert Wedge3Coset.zero(3).reduce() == Wedge3Coset.zero(3)
    g = 3
    out = tau_bounding_pair(g, [(_x(2, g), _y(2, g))], _x(1, g)).reduce()
    assert out.reduce() == out


def test_lattice_refuses_rows_outside_the_closed_form():
    with pytest.raises(ValueError):
        johnson._EchelonLattice([[(0, 1), (2, -1)], [(1, 1), (2, 1)]])
    with pytest.raises(ValueError):
        johnson._EchelonLattice([[(0, 2), (1, 1)]])
    with pytest.raises(ValueError):
        johnson._EchelonLattice([[(0, -1), (1, 3)]])


def test_coset_equal_examples():
    g = 3
    omega_x1 = _coset(g, omega_wedge_basis(g)[0])
    zero = Wedge3Coset.zero(g)
    assert coset_equal(omega_x1, zero)
    basis_elt = _unit(g, (0, 1, 2))  # x1 ^ y1 ^ x2
    assert not coset_equal(basis_elt, zero)
    assert coset_equal(basis_elt, basis_elt)
    with pytest.raises(GenusMismatch):
        coset_equal(zero, Wedge3Coset.zero(2))


def test_tau_empty_family_is_zero():
    out = tau_bounding_pair(3, [], _x(1, 3))
    assert out == Wedge3Coset.zero(3)


def test_tau_single_pair_nonzero():
    g = 3
    out = tau_bounding_pair(g, [(_x(2, g), _y(2, g))], _x(1, g))
    assert not out.is_zero_coset()


def test_tau_rejects_non_symplectic():
    g = 3
    with pytest.raises(NotSymplecticError):
        tau_bounding_pair(g, [(_x(2, g), _x(3, g))], _x(1, g))
    with pytest.raises(NotSymplecticError):
        # y1 pairs with a = x1
        tau_bounding_pair(g, [(_y(1, g), _x(2, g))], _x(1, g))
    with pytest.raises(NotSymplecticError):
        # two pairs that are not mutually isotropic
        tau_bounding_pair(g, [(_x(2, g), _y(2, g)),
                              (_x(2, g) + _x(3, g), _y(3, g) + _y(2, g))],
                          _x(1, g))


def test_lantern_inequality():
    assert lantern_check(3)
    assert lantern_check(4)
    assert lantern_check(5)
    with pytest.raises(ValueError):
        lantern_check(2)


def test_lantern_sum_form():
    # the two-sided sum with pairs (x2,y2) and (x3,y3) is nonzero
    g = 3
    a = _x(1, g)
    total = (tau_bounding_pair(g, [(_x(2, g), _y(2, g))], a)
             - tau_bounding_pair(g, [(_x(3, g), _y(3, g))], a))
    assert not total.is_zero_coset()


def test_basis_independence():
    g = 3
    a = _x(1, g)
    x2, y2, x3, y3 = _x(2, g), _y(2, g), _x(3, g), _y(3, g)
    original = tau_bounding_pair(g, [(x2, y2), (x3, y3)], a)
    transformed = tau_bounding_pair(g, [(x2 + x3, y2), (x3, y3 - y2)], a)
    assert coset_equal(original, transformed)


def test_canonical_invariant_under_lattice_shifts():
    g = 3
    rng = random.Random(5)
    basis = omega_wedge_basis(g)
    dim = len(_triples(g))
    for _ in range(30):
        v = tuple(rng.randint(-5, 5) for _ in range(dim))
        coset = _coset(g, v)
        shift = [0] * dim
        for b in basis:
            c = rng.randint(-3, 3)
            shift = [s + c * x for s, x in zip(shift, b)]
        shifted = _coset(g, tuple(a + s for a, s in zip(v, shift)))
        assert coset.reduce().representative == shifted.reduce().representative
        assert coset_equal(coset, shifted)


def test_parse_homology_class():
    g = 3
    assert HomologyClass.parse("x1", g) == _x(1, g)
    assert HomologyClass.parse("x2+y2", g) == _x(2, g) + _y(2, g)
    assert HomologyClass.parse("2x1-3y2", g).coordinates == (2, 0, 0, -3, 0, 0)
    with pytest.raises(ValueError):
        HomologyClass.parse("x4", g)
    with pytest.raises(ValueError):
        HomologyClass.parse("q1", g)
    with pytest.raises(ValueError):
        HomologyClass.parse("", g)
    # spaces may stand between terms and around signs
    for text in (" 2x1 - 3y2 ", "2x1 -3y2", "+ 2x1-  3y2", "+2x1 - 3y2"):
        assert HomologyClass.parse(text, g).coordinates == (2, 0, 0, -3, 0, 0)
    assert HomologyClass.parse("- x1", g) == -_x(1, g)
    # juxtaposed terms and a term split by a space are refused, where
    # stripping the spaces first read "x1 3y5" as x13 + y5
    for text in ("x1 3y5", "2x1 3y2", "x1y2", "x1 y2", "x 12", "x1 2",
                 "2 x1", "x1 + 2 y2", "  ", "x1 +", "- -x1"):
        with pytest.raises(ValueError):
            HomologyClass.parse(text, 20)


def test_johnson_tau_refuses_juxtaposed_terms(capsys):
    argv = ["johnson-tau", "--genus", "20", "--pairs", "x2,y2", "--a"]
    assert cli.run(argv + ["x1 3y5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse homology class 'x1 3y5' at '3y5'" in captured.err
    assert cli.run(argv + ["x1 + y5"]) == 0
    assert cli.run(argv + ["x1+y5"]) == 0
    spaced, plain = capsys.readouterr().out.split("\n}\n", 1)
    assert spaced + "\n}\n" == plain


def test_symplectic_pairing():
    g = 2
    assert johnson.symplectic_pairing(_x(1, g), _y(1, g)) == 1
    assert johnson.symplectic_pairing(_y(1, g), _x(1, g)) == -1
    assert johnson.symplectic_pairing(_x(1, g), _y(2, g)) == 0


@given(st.integers(min_value=2, max_value=4), st.data())
def test_omega_wedge_vectors_are_zero_cosets(g, data):
    vecs = omega_wedge_basis(g)
    i = data.draw(st.integers(min_value=0, max_value=len(vecs) - 1))
    assert _coset(g, vecs[i]).is_zero_coset()


def test_coset_json():
    g = 3
    out = tau_bounding_pair(g, [(_x(2, g), _y(2, g))], _x(1, g))
    d = out.to_json_dict()
    assert d["genus"] == 3
    assert not d["is_zero"]
    assert all("^" in k for k in d["coset"])
