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
    return HomologyClass.parse(f"x{i}", g)


def _y(i, g):
    return HomologyClass.parse(f"y{i}", g)


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
    assert out == Wedge3Coset(g, ())


def test_wedge3_multilinearity():
    g = 2
    lhs = wedge3(HomologyClass.parse("x1+y1", g), _y(1, g), _x(2, g))
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
            assert permuted.representative == tuple(
                (t, sign * c) for t, c in base.representative)


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
    # of (x_i, y_i, e), counted here by its inversions.  _EchelonLattice
    # takes the rows as they are: each must lead with 1, and no two may
    # share a triple
    for g in (2, 3, 4, 5, 17, 64):
        rows = johnson._omega_wedge_rows(g)
        assert all(row[0][1] == 1 for row in rows)
        triples = [t for row in rows for t, _ in row]
        assert len(set(triples)) == len(triples) == 2 * g * (g - 1)
        for e, row in enumerate(rows):
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
    assert Wedge3Coset(3, ()).reduce() == Wedge3Coset(3, ())
    g = 3
    out = tau_bounding_pair(g, [(_x(2, g), _y(2, g))], _x(1, g)).reduce()
    assert out.reduce() == out


def test_coset_equal_examples():
    g = 3
    omega_x1 = _coset(g, omega_wedge_basis(g)[0])
    zero = Wedge3Coset(g, ())
    assert coset_equal(omega_x1, zero)
    basis_elt = _unit(g, (0, 1, 2))  # x1 ^ y1 ^ x2
    assert not coset_equal(basis_elt, zero)
    assert coset_equal(basis_elt, basis_elt)
    with pytest.raises(GenusMismatch):
        coset_equal(zero, Wedge3Coset(2, ()))


def test_coset_equal_matches_a_rank_oracle():
    # u ~ v iff u - v lies in the span of omega ^ H; the span is saturated
    # (every elementary divisor is 1, test_omega_wedge_basis_independent),
    # so a rank comparison over Q decides membership in the lattice
    rng = random.Random(41)
    outcomes = set()
    for g in (2, 3, 4):
        basis = omega_wedge_basis(g)
        dim = len(basis[0])
        for n in range(8):
            u = [rng.randint(-5, 5) for _ in range(dim)]
            if n % 2:
                shift = [rng.randint(-2, 2) for _ in range(dim)]
            else:
                shift = [0] * dim
                for b in basis:
                    c = rng.randint(-3, 3)
                    shift = [s + c * x for s, x in zip(shift, b)]
            v = [a + s for a, s in zip(u, shift)]
            diff = sympy.Matrix([[a - b for a, b in zip(u, v)]])
            member = (sympy.Matrix(basis).col_join(diff).rank() == 2 * g)
            assert coset_equal(_coset(g, u), _coset(g, v)) == member
            outcomes.add(member)
    assert outcomes == {True, False}
    with pytest.raises(GenusMismatch):
        coset_equal(_unit(3, (0, 1, 2)), _unit(2, (0, 1, 2)))


def test_tau_empty_family_is_zero():
    out = tau_bounding_pair(3, [], _x(1, 3))
    assert out == Wedge3Coset(3, ())


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
    with pytest.raises(NotSymplecticError,
                       match=r"pair \(0, 1\) not isotropic"):
        # omega(u_i, v_j) = delta_ij holds, but omega(x2, x3 + y2) = 1
        tau_bounding_pair(g, [(_x(2, g), _y(2, g)),
                              (HomologyClass.parse("x3+y2", g), _y(3, g))],
                          _x(1, g))


def test_lantern_inequality():
    assert lantern_check(3)
    assert lantern_check(4)
    assert lantern_check(5)
    with pytest.raises(ValueError):
        lantern_check(2)


def test_lantern_sum_form():
    # the two-sided sum with pairs (x2,y2) and (x3,y3) is nonzero; the
    # two images have disjoint supports, so their difference is the
    # terms of the first and the negated terms of the second
    g = 3
    a = _x(1, g)
    z_d = tau_bounding_pair(g, [(_x(2, g), _y(2, g))], a).representative
    d_w = tau_bounding_pair(g, [(_x(3, g), _y(3, g))], a).representative
    total = Wedge3Coset(g, tuple(sorted(
        z_d + tuple((t, -c) for t, c in d_w))))
    assert not total.is_zero_coset()


def test_basis_independence():
    g = 3
    a = _x(1, g)
    x2, y2, x3, y3 = _x(2, g), _y(2, g), _x(3, g), _y(3, g)
    original = tau_bounding_pair(g, [(x2, y2), (x3, y3)], a)
    transformed = tau_bounding_pair(
        g, [(HomologyClass.parse("x2+x3", g), y2),
            (x3, HomologyClass.parse("y3-y2", g))], a)
    assert coset_equal(original, transformed)


def _omega(u, v):
    return sum(u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
               for i in range(len(u) // 2))


def _dense_tau(g, pairs, a):
    """sum over the pairs of every 3x3 minor of (u_i, v_i, a), by Leibniz."""
    return tuple(sum(_leibniz_det([[h[i] for i in t] for h in (u, v, a)])
                     for u, v in pairs)
                 for t in _triples(g))


def _random_family(rng, g):
    """k standard pairs on handles 2..g, moved by symplectic transvections
    of the complement of x1 and y1 and mixed by the basis change
    (u_i, v_j) -> (u_i + u_j, v_j - v_i)."""
    n = 2 * g
    k = rng.randint(1, min(3, g - 1))
    pairs = []
    for handle in rng.sample(range(2, g + 1), k):
        u, v = [0] * n, [0] * n
        u[2 * handle - 2] = v[2 * handle - 1] = 1
        pairs.append([u, v])
    for _ in range(3):
        w = [0, 0] + [rng.randint(-1, 1) for _ in range(n - 2)]
        c = rng.choice((-1, 1))
        pairs = [[[x + c * _omega(h, w) * y for x, y in zip(h, w)]
                  for h in pair] for pair in pairs]
    for _ in range(2 if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        pairs[i][0] = [x + y for x, y in zip(pairs[i][0], pairs[j][0])]
        pairs[j][1] = [x - y for x, y in zip(pairs[j][1], pairs[i][1])]
    return pairs


def test_tau_bounding_pair_matches_the_dense_sum():
    # the image before reduction, term for term with zero terms dropped,
    # against sum u_i ^ v_i ^ a over all C(2g, 3) triples
    rng = random.Random(29)
    for g in range(3, 9):
        for _ in range(4):
            pairs = _random_family(rng, g)
            a = [0] * (2 * g)
            a[rng.randint(0, 1)] = 1
            expected = _dense_tau(g, pairs, a)
            out = tau_bounding_pair(
                g, [(HomologyClass(g, tuple(u)), HomologyClass(g, tuple(v)))
                    for u, v in pairs], HomologyClass(g, tuple(a)))
            assert out == _coset(g, expected)
    # the x1 ^ y2 ^ x3 terms of the two pairs cancel to zero and are dropped
    g = 3
    a = _x(1, g)
    pairs = [tuple(HomologyClass.parse(h, g) for h in pair)
             for pair in (("x2+x3", "y2"), ("x3", "y3-y2"))]
    dense = [[h.coordinates for h in pair] for pair in pairs]
    cancelled = (0, 3, 4)
    assert all(_dense_tau(g, [pair], a.coordinates)[
        _triples(g).index(cancelled)] for pair in dense)
    out = tau_bounding_pair(g, pairs, a)
    assert cancelled not in dict(out.representative)
    assert out == _coset(g, _dense_tau(g, dense, a.coordinates))


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
    assert HomologyClass.parse("x2+y2", g).coordinates == (0, 0, 1, 1, 0, 0)
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
    assert HomologyClass.parse("- x1", g).coordinates == (-1, 0, 0, 0, 0, 0)
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
