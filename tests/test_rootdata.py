import random
from fractions import Fraction

import pytest

from popfock.rootdata import (AffineWeight, FiniteWeight, Lambda, all_roots,
                              bilinear, fundamental, is_root, pos_root,
                              simple_root, theta, translate_weight,
                              weight_from_seq, zero_weight)
from oracles import is_positive_root


def test_bilinear_on_roots_rank2():
    a1 = simple_root(2, 1)
    a2 = simple_root(2, 2)
    assert bilinear(a1, a1) == 2
    assert bilinear(a1, a2) == -1
    assert bilinear(fundamental(2, 1), a2) == 0


def test_bilinear_symmetric_and_permutation_invariant():
    random.seed(7)
    for r in (1, 2, 3):
        for _ in range(50):
            x = FiniteWeight(r, [random.randint(-3, 3) for _ in range(r + 1)])
            y = FiniteWeight(r, [random.randint(-3, 3) for _ in range(r + 1)])
            assert bilinear(x, y) == bilinear(y, x)
            perm = list(range(r + 1))
            random.shuffle(perm)
            xp = FiniteWeight(r, [x.coords[p] for p in perm])
            yp = FiniteWeight(r, [y.coords[p] for p in perm])
            assert bilinear(xp, yp) == bilinear(x, y)


def test_bilinear_rank_mismatch():
    with pytest.raises(ValueError):
        bilinear(zero_weight(1), zero_weight(2))


def test_non_integer_entries_rejected():
    assert FiniteWeight(2, (3, 2, 1)).coords == (2, 1, 0)
    for coords in ((1.5, True, 0), (1, 1, 0.0), (True, 0, 0)):
        with pytest.raises(ValueError):
            FiniteWeight(2, coords)
    for n in (2.5, True, Fraction(2)):
        with pytest.raises(ValueError):
            n * simple_root(2, 1)
    assert 2 * simple_root(2, 1) == simple_root(2, 1) + simple_root(2, 1)


def test_class_index_theta_invariance():
    assert fundamental(2, 1).class_index() == 1
    assert theta(2).class_index() == 0  # theta = w1 + w2, sum 3 mod 3
    for r in (1, 2, 3):
        for seq in [(0,) * (r + 1), (2,) + (1,) * (r - 1) + (0,),
                    (6,) + (0,) * r]:
            lam = weight_from_seq(seq)
            i = lam.class_index()
            for k in range(3):
                assert (lam + k * theta(r)).class_index() == i
                assert (lam - fundamental(r, i)).class_index() == 0


def test_translate_weight_examples():
    for r in (1, 2):
        a = simple_root(r, 1)
        L0 = Lambda(r, 0)
        t = translate_weight(a, L0)
        assert t.finite == a and t.level == 1 and t.delta == -1
        L = AffineWeight(fundamental(r, 1), 1, 0)
        assert translate_weight(zero_weight(r), L) == L


def test_translate_weight_composition_random():
    random.seed(20240817)
    for _ in range(1000):
        r = random.choice((1, 2))
        a = FiniteWeight(r, [random.randint(-2, 2) for _ in range(r + 1)])
        b = FiniteWeight(r, [random.randint(-2, 2) for _ in range(r + 1)])
        L = AffineWeight(FiniteWeight(r, [random.randint(-2, 2) for _ in range(r + 1)]),
                         random.randint(0, 2), Fraction(random.randint(-3, 3)))
        assert translate_weight(a, translate_weight(b, L)) == \
            translate_weight(a + b, L)


def test_translate_weight_level_one_delta_formula():
    # the weight of the translated highest weight matches the quadratic form
    for r in (1, 2):
        for i in range(r + 1):
            Li = Lambda(r, i)
            for beta in [zero_weight(r), simple_root(r, 1), theta(r)]:
                t = translate_weight(beta, Li)
                want = -(bilinear(Li.finite, beta) + bilinear(beta, beta) / 2)
                assert t.delta == want


def test_translated_highest_weight_quadratic_form():
    # t_{wt - varpi_i}(Lambda_i) = Lambda_0 + wt + ((L_i|L_i) - (wt|wt))/2 delta
    # in the artifact normalization Lambda_i = Lambda_0 + varpi_i
    for r in (1, 2):
        for i in range(r + 1):
            Li = Lambda(r, i)
            for beta in [zero_weight(r), simple_root(r, 1), -theta(r)]:
                wt = fundamental(r, i) + beta
                got = translate_weight(wt - fundamental(r, i), Li)
                # (Li|Li) = (varpi_i|varpi_i): level one, delta coefficient 0
                want = AffineWeight(wt, 1, (bilinear(Li.finite, Li.finite)
                                            - bilinear(wt, wt)) / 2)
                assert got == want


def test_root_helpers():
    assert theta(1) == simple_root(1, 1)
    assert pos_root(2, 1, 2) == theta(2)
    assert len(all_roots(2)) == 6
    assert all(is_root(a) for a in all_roots(2))
    pos = [a for a in all_roots(2) if is_positive_root(a)]
    assert len(pos) == 3


def test_affine_weight_integrality_guard():
    w = AffineWeight(zero_weight(2), 1, Fraction(1, 3))
    with pytest.raises(AssertionError):
        w.assert_integral()


def test_serialization():
    w = FiniteWeight(2, (2, 1, 0))
    assert w.to_json() == {"r": 2, "coords": [2, 1, 0]}
