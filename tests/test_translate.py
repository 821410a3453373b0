import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from popfock.fock import (FockVector, act_root_vector, enumerate_keys,
                          vacuum, weight_of)
from popfock.rootdata import (bilinear, fundamental, simple_root, theta,
                              zero_weight)
from popfock.translate import (Cocycle, eps_tilde, translate_Q,
                               translate_amount, translate_amount_inverse)
from oracles import act_chevalley
from test_fock import random_keys


def units(r, sector=0, emax=2):
    return [FockVector(r, sector, {k: Fraction(1)})
            for k in enumerate_keys(r, sector, emax)]


def test_table_examples():
    a1 = simple_root(2, 1)
    a2 = simple_root(2, 2)
    coc = Cocycle(2)
    assert coc.eps(a1, a1) == -1
    assert coc.eps(zero_weight(2), a2) == 1
    assert coc.eps(a1 + a2, a1) == coc.eps(a1, a1) * coc.eps(a2, a1)


def test_table_matches_design_rule():
    for r in (2, 3):
        coc = Cocycle(r)
        for a in range(1, r + 1):
            for b in range(1, r + 1):
                val = coc.eps(simple_root(r, a), simple_root(r, b))
                if a == b:
                    assert val == -1
                elif a > b:
                    assert val == (-1) ** int(bilinear(simple_root(r, a),
                                                       simple_root(r, b)))
                else:
                    assert val == 1


def test_table_cocycle_invariants():
    r = 2
    coc = Cocycle(r)
    roots_q = [simple_root(r, 1), simple_root(r, 2), theta(r),
               simple_root(r, 1) - simple_root(r, 2), 2 * theta(r)]
    for b in roots_q:
        assert coc.eps(b, b) == (-1) ** (int(bilinear(b, b)) // 2)
        for bp in roots_q:
            asym = coc.eps(b, bp) * coc.eps(bp, b)
            assert asym == (-1) ** int(bilinear(b, bp))
            for bpp in roots_q:
                assert coc.eps(b + bpp, bp) == coc.eps(b, bp) * coc.eps(bpp, bp)


def test_table_drop_rule():
    # the fundamental-weight part of the first argument is dropped
    r = 2
    coc = Cocycle(r)
    for i in range(r + 1):
        varpi = fundamental(r, i)
        for b in [zero_weight(r), simple_root(r, 1), theta(r)]:
            for bp in [simple_root(r, 1), simple_root(r, 2)]:
                assert coc.eps(b + varpi, bp) == coc.eps(b, bp)


def test_comp_eps_is_the_composition_constant():
    for r in (1, 2):
        coc = Cocycle(r)
        vs = units(r)[:5]
        qball = [zero_weight(r), simple_root(r, 1), -simple_root(r, 1),
                 theta(r), 2 * simple_root(r, 1)]
        if r == 2:
            qball += [simple_root(r, 2), simple_root(r, 1) + theta(r)]
        for b1, b2 in itertools.product(qball, qball):
            sg = coc.comp_eps(b1, b2)
            for v in vs:
                assert translate_Q(b1, translate_Q(b2, v)) == \
                    sg * translate_Q(b1 + b2, v)


def test_comp_eps_asymmetry_and_inverse_normalization():
    for r in (1, 2):
        coc = Cocycle(r)
        qball = [simple_root(r, 1), theta(r), 2 * simple_root(r, 1)]
        for b in qball:
            assert coc.comp_eps(b, -b) == 1  # T_b T_{-b} = id
            for bp in qball:
                asym = coc.comp_eps(b, bp) * coc.comp_eps(bp, b)
                assert asym == (-1) ** int(bilinear(b, bp))


def test_comp_eps_errors():
    coc = Cocycle(2)
    with pytest.raises(ValueError):
        coc.comp_eps(zero_weight(2), fundamental(2, 1))


def test_translate_Q_examples():
    v0 = vacuum(1, 0)
    a = simple_root(1, 1)
    assert translate_Q(zero_weight(1), v0) == v0
    w = translate_Q(a, v0)
    (key,) = w.terms
    assert key.gamma == a and abs(w.terms[key]) == 1


def test_translate_weight_transport():
    for r in (1, 2):
        for b in [simple_root(r, 1), theta(r), -theta(r)]:
            for v in units(r)[:8]:
                nu = weight_of(v)
                w = translate_Q(b, v)
                got = weight_of(w)
                # finite part shifts by b, energy shifts by the quadratic form
                assert got.finite == nu.finite + b
                assert got.delta == nu.delta - bilinear(nu.finite, b) \
                    - bilinear(b, b) / 2


def test_fundamental_weight_transport():
    for r in (1, 2):
        for i in range(1, r + 1):
            varpi = fundamental(r, i)
            for v in units(r)[:8]:
                nu = weight_of(v)
                got = weight_of(translate_amount(varpi, v))
                assert got.finite == nu.finite + varpi
                assert got.delta == nu.delta - bilinear(nu.finite, varpi)


def test_fundamental_intertwining_table():
    # conjugation sends e_i to e_i t, e_0 to x_{-theta}, fixes other e_p
    for r in (1, 2):
        for i in range(1, r + 1):
            varpi = fundamental(r, i)
            for p in range(r + 1):
                for v in units(r)[:5]:
                    inner = act_chevalley(p, "e", translate_amount(varpi, v))
                    lhs = translate_amount_inverse(varpi, inner)
                    if p == i:
                        rhs = act_root_vector(simple_root(r, i), 1, v)
                    elif p == 0:
                        rhs = act_root_vector(-theta(r), 0, v)
                    else:
                        rhs = act_chevalley(p, "e", v)
                    assert lhs == rhs


def test_sign_propagator_path_independence():
    # the sign of the sector-changing translation is multiplicative along
    # every step gamma -> gamma + mu of a ball of simple-root steps, so its
    # propagation from the vacuum is path-independent
    for r in (1, 2):
        for i in range(1, r + 1):
            varpi_lat = fundamental(r, i).lattice_rep()

            def sign(w):
                return eps_tilde(w.lattice_rep(), varpi_lat)

            frontier, seen = [zero_weight(r)], {zero_weight(r)}
            for _ in range(3):
                new = []
                for g in frontier:
                    for a in range(1, r + 1):
                        for mu in (simple_root(r, a), -simple_root(r, a)):
                            assert sign(g + mu) == sign(g) * sign(mu)
                            if g + mu not in seen:
                                seen.add(g + mu)
                                new.append(g + mu)
                frontier = new


def test_translate_general_well_defined():
    # T_x for a general weight x: T_beta on the root lattice, and
    # T_{varpi_c} T_{x - varpi_c} on the coset c
    r = 2
    varpi = fundamental(r, 1)
    for v in units(r)[:6]:
        for b in (zero_weight(r), theta(r), simple_root(r, 1) - theta(r)):
            assert translate_amount(b, v) == translate_Q(b, v)
            a = translate_amount(varpi + b, v)
            assert a == translate_amount(varpi, translate_Q(b, v))
            assert translate_amount_inverse(varpi + b, a) == v


def test_translate_general_examples():
    r = 2
    v0 = vacuum(r, 0)
    assert translate_amount(zero_weight(r), v0) == v0
    lam = fundamental(r, 1) + fundamental(r, 2)
    w = translate_amount(lam, v0)
    nu = weight_of(w)
    assert nu.finite == lam
    with pytest.raises(ValueError):
        translate_amount(lam, vacuum(r, 1))
    with pytest.raises(ValueError):
        translate_amount_inverse(fundamental(r, 1), v0)


def root_lattice(r):
    """x in Q from its simple-root coefficients in -3..3."""
    return st.lists(st.integers(-3, 3), min_size=r, max_size=r).map(
        lambda cs: sum((c * simple_root(r, a) for a, c in enumerate(cs, 1)),
                       zero_weight(r)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_translate_Q_inverse_and_composition(data):
    key = data.draw(random_keys())
    r = key.gamma.r
    x, y = data.draw(root_lattice(r)), data.draw(root_lattice(r))
    v = FockVector(r, key.sector, {key: Fraction(1)})
    assert translate_Q(-x, translate_Q(x, v)) == v
    assert (translate_Q(x, translate_Q(y, v))
            == Cocycle(r).comp_eps(x, y) * translate_Q(x + y, v))


def test_table_dump_and_hash():
    coc = Cocycle(2)
    dump = coc.table_dump()
    assert "rank=2" in dump and "eps(a_1, .)" in dump
    assert len(coc.table_hash()) == 64
    assert Cocycle(2).table_hash() == coc.table_hash()
