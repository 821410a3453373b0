from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from popfock import clbasis
from popfock.cli import parse_config, run
from popfock.clbasis import (cl_monomial, cl_vector, highest_vector, in_span,
                             rank_of, rho, sign_eps, stable_basis,
                             verify_crucprop, verify_mtp, verify_stability,
                             weyl_span)
from popfock.fock import (FockKey, FockVector, act_heisenberg, enumerate_keys,
                          vacuum, weight_of)
from popfock.gtpattern import GTPattern
from popfock.partitions import Partition
from popfock.pop import POP, enumerate_pops, is_stable
from popfock.rootdata import (AffineWeight, fundamental, simple_root, theta,
                              weight_from_seq, zero_weight)
import oracles
from oracles import apply_poly, rho_column, shift_pop


def P_(rows, overlay=None):
    ov = {k: Partition(v) for k, v in (overlay or {}).items()}
    return POP(GTPattern(rows), ov)


def test_cl_monomial_examples():
    a = simple_root(1, 1)
    w = cl_monomial(a, 2, 3, Partition((1,)))
    assert w.factors == ((-a, 3, 1), (-a, 2, 1))
    assert cl_monomial(a, 0, 0, Partition(())).factors == ()
    w = cl_monomial(a, 1, 0, Partition(()))
    assert w.factors == ((-a, 0, 1),)
    with pytest.raises(ValueError):
        cl_monomial(a, 1, 1, Partition((2,)))


def test_cl_monomial_divided_powers():
    a = simple_root(1, 1)
    w = cl_monomial(a, 3, 2, Partition((1,)))
    # exponents (1, 2, 2): the repeated factor is a divided power
    assert w.factors == ((-a, 2, 2), (-a, 1, 1))


def test_rho_examples():
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    assert rho(P, 0, 2).factors == ()
    w = rho(P, 0, 1)
    assert w.factors == ((-simple_root(1, 1), 0, 1),)
    w1 = rho(P, 1, 1)
    assert w1.factors == ((-simple_root(1, 1), 2, 1), (-simple_root(1, 1), 1, 1))


def test_rho_matches_shifted_pop():
    for seq in [(2, 0), (2, 1, 0)]:
        for P in enumerate_pops(seq):
            for k in (1, 2):
                assert rho(P, k, 1).factors == rho(shift_pop(P, k), 0, 1).factors


def test_rho_row_and_column_forms_agree():
    for seq in [(2, 1, 0), (2, 2, 0)]:
        for P in enumerate_pops(seq)[:12]:
            lam = weight_from_seq(P.bounding_seq())
            for k in (0, 1):
                w = highest_vector(lam, k)
                assert rho(P, k, 1).apply(w) == rho_column(P, k, 1).apply(w)


def test_sign_eps_base_examples():
    # empty product at s = r+1
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    assert sign_eps(P, 0, 2) == 1
    # d_{1,1} = 1 and the first argument collapses to 0
    assert sign_eps(P, 0, 1) == 1
    # d_{1,1} = 2 gives the floor factor -1 on the [0],[2,0] pattern
    Q = P_([[0], [2, 0]])
    assert sign_eps(Q, 0, 1) == -1


def test_cl_vector_examples():
    # the empty POP over lambda = 0 is the vacuum for every shift
    P0 = P_([[0], [0, 0]])
    for k in range(4):
        assert cl_vector(P0, k) == vacuum(1, 0)
    # spec example: ([1],[2,0], pi=(1)) has weight Lambda_0 - delta
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    v = cl_vector(P, 0)
    assert not v.is_zero()
    assert weight_of(v) == AffineWeight(zero_weight(1), 1, -1)


def test_verify_stability_examples():
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    assert verify_stability(P, 3)["status"] == "pass"
    with pytest.raises(ValueError):
        verify_stability(P_([[2], [4, 0]], {(1, 1): (2, 2)}), 1)


def test_unstable_pop_genuinely_moves():
    # the stability theorem is sharp: an unstable POP changes with the shift
    uns = [P for P in enumerate_pops((2, 1, 0)) if not is_stable(P)]
    assert uns
    for P in uns:
        assert cl_vector(P, 0) != cl_vector(P, 1)


def test_verify_mtp_examples():
    # one report for k = 0 and one for k = 1
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    for s in (1, 2):
        assert [(rep["input"]["k"], rep["status"])
                for rep in verify_mtp(P, s)] == [(0, "pass"), (1, "pass")]
    # s = r+1 reduces to the highest vector itself
    P2 = P_([[1], [2, 0], [2, 1, 0]])
    assert all(rep["status"] == "pass" for rep in verify_mtp(P2, 3))
    with pytest.raises(ValueError):
        verify_mtp(P_([[2], [4, 0]], {(1, 1): (2, 2)}), 1)


def test_fast_block_matches_generic():
    for r in (1, 2):
        alphas = [simple_root(r, 1)] + ([theta(r)] if r == 2 else [])
        gammas = [zero_weight(r), theta(r), 2 * fundamental(r, 1)]
        gs = [{(): Fraction(1)}, {((1, 1),): Fraction(2)},
              {((1, 1), (1, 2)): Fraction(1, 3)}]
        for al in alphas:
            for g0 in gammas:
                for d, dp in [(1, 1), (2, 2), (2, 0)]:
                    for pi in [Partition(()), Partition((1,))]:
                        if pi.parts and (pi.part(1) > dp or d < 1):
                            continue
                        for g in gs:
                            start = apply_poly(g, FockVector(
                                r, g0.class_index(), {FockKey(g0): 1}))
                            word = cl_monomial(al, d, dp, pi)
                            slow = oracles.apply_word(word, start)
                            assert word.apply(start) == slow


def test_verify_stabsl2_examples():
    # the single-root collapse: mu = d alpha, d = d', g = 1, m = 0
    a = simple_root(1, 1)
    for al, d, parts in [(a, 1, ()), (a, 2, ()), (a, 1, (1,)), (a, 2, (1,)),
                         (theta(2), 2, (1, 1)), (theta(2), 3, (1, 1))]:
        rep = verify_crucprop(al, d, d, Partition(parts), d * al, (((), 1),), 0)
        assert rep["status"] == "pass" and "witness" not in rep
    with pytest.raises(ValueError):
        verify_crucprop(a, 1, 1, Partition((2,)), a, (((), 1),), 0)


def test_verify_crucprop_examples():
    a = simple_root(1, 1)
    mu = 2 * fundamental(1, 1)
    # d < |pi| + m: weight part only
    rep = verify_crucprop(a, 1, 1, Partition((1,)), mu, ((((1, 1),), 1),), 1)
    assert rep["status"] == "pass" and rep["witness"]["scope"] == "weight only"
    with pytest.raises(ValueError):
        verify_crucprop(a, 1, 0, Partition(()), mu, (((), 1),), 0)


def test_c05_vectors_match_fraction_oracle(monkeypatch):
    built = []
    build = clbasis.cl_vector

    def recorded(P, k=0):
        v = build(P, k)
        built.append((P, k, v))
        return v

    monkeypatch.setattr(clbasis, "cl_vector", recorded)
    status, _ = run(parse_config(["verify", "weights", "--r", "2"]))
    assert status == 0 and len(built) == 44
    for P, k, v in built:
        w = highest_vector(weight_from_seq(P.bounding_seq()), k)
        assert v == sign_eps(P, k) * oracles.apply_word(rho(P, k), w)


def test_linear_algebra_helpers():
    v0 = vacuum(1, 0)
    w1 = act_heisenberg(1, -1, v0)
    w2 = act_heisenberg(1, -2, v0)
    assert rank_of([v0, w1, w2]) == 3
    assert rank_of([w1, w1 + w2, w2]) == 2
    assert in_span([w1, w2], 3 * w1 - w2)
    assert not in_span([w1], w2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_elimination_matches_sympy_rank(data):
    sympy = pytest.importorskip("sympy")
    n = data.draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    coeffs = data.draw(st.lists(entry, min_size=len(rows),
                                max_size=len(rows)))
    noise = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    target = [sum(c * row[j] for c, row in zip(coeffs, rows)) + e
              for j, e in enumerate(noise)]
    keys = enumerate_keys(1, 0, 2)[:n]

    def vec(row):
        return FockVector(1, 0, {k: Fraction(c)
                                 for k, c in zip(keys, row) if c})

    vecs = [vec(row) for row in rows]
    rank = sympy.Matrix(rows).rank()
    assert rank_of(vecs) == rank
    assert in_span(vecs, vec(target)) == (
        sympy.Matrix(rows + [target]).rank() == rank)


def test_weyl_span_small():
    rep = weyl_span(zero_weight(1))
    assert rep["status"] == "pass" and rep["witness"]["dims"] == [1, 4]
    rep = weyl_span(2 * fundamental(1, 1))
    assert rep["status"] == "pass" and rep["witness"]["dims"][0] == 4
    with pytest.raises(ValueError):  # lambda's coordinates are its sequence
        weyl_span(-theta(2))


def test_stable_basis_search_is_bounded(monkeypatch):
    # with no candidate qualifying, the search stops at the total of
    # mu^+ + d theta and reports instead of looping forever
    monkeypatch.setattr(clbasis, "enumerate_pops", lambda *a, **kw: [])
    vecs, rep = stable_basis(1, simple_root(2, 1), 1)
    assert vecs == [] and rep["status"] == "fail"
    assert rep["witness"] == {"reason": "no candidate"}
    assert rep["input"] == {"i": 1, "gamma": simple_root(2, 1).to_json(),
                            "d": 1}
