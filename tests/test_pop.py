from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from popfock import pop
from popfock.gtpattern import GTPattern, enumerate_patterns
from popfock.partitions import Partition, colored_count, enumerate_rect
from popfock.pop import (POP, depth, depth_total, enumerate_pops,
                         invariant_set, is_stable, iter_pops,
                         overlay_invariant_set, overlay_invariant_slice,
                         pattern_invariant_set, pattern_invariant_slice,
                         shift_bijection_check)
from popfock.rootdata import FiniteWeight, fundamental, zero_weight
from oracles import (enumerate_pops_bruteforce, restrict, shift_pop,
                     slow_cell_depths, slow_invariants, slow_stats)


def P_(rows, overlay=None):
    ov = {k: Partition(v) for k, v in (overlay or {}).items()}
    return POP(GTPattern(rows), ov)


SMALL_SEQS = [(2, 0), (3, 0), (1, 0, 0), (2, 1, 0), (1, 1, 0)]


def test_validate_examples():
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    assert P.overlay[(1, 1)] == Partition((1,))
    with pytest.raises(ValueError) as exc:
        P_([[1], [2, 0]], {(1, 1): (2,)})
    assert "(i=1, j=1)" in str(exc.value)
    P_([[1], [2, 0], [2, 1, 0]])  # empty overlay always fits


def test_overlay_keys_always_present():
    P = P_([[1], [2, 0], [2, 1, 0]])
    assert set(P.overlay) == {(1, 1), (1, 2), (2, 2)}


def test_depth_recursion():
    for seq in SMALL_SEQS:
        for P in enumerate_pops(seq):
            d = depth(P)
            r = P.r
            assert d["restricted"][1] == depth_total(P)
            assert d["restricted"][r + 1] == 0
            # the step from P_{s+1} to P_s is verify identities' (c01); the
            # restricted depth is the depth of the restriction P_s
            for s in range(1, r + 1):
                assert d["restricted"][s] == depth_total(restrict(P, s))


def test_shift_pop():
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    Pk = shift_pop(P, 2)
    assert Pk.pattern.rows == ((3,), (6, 0))
    assert Pk.overlay[(1, 1)] == Partition((1,))
    assert depth_total(Pk) == depth_total(P)
    assert Pk.weight() == P.weight()
    assert shift_pop(P, 0) == P
    assert Pk.d(1, 1) == P.d(1, 1) + 2


def test_invariant_set_example():
    P = P_([[1], [2, 0], [2, 1, 0]])
    inv = invariant_set(P, 1)
    assert inv["d"] == {(1, 2): 0}
    assert inv["dprime"] == {(2, 2): 0}
    assert set(inv["overlay"]) == {(1, 1), (1, 2), (2, 2)}
    assert invariant_set(P, 3) == {"d": {}, "dprime": {}, "overlay": {}}


def test_invariant_set_shift_invariant():
    # the recursion from I(P_{s+1}) to I(P_s) is verify identities' (c01)
    for seq in [(2, 0), (2, 1, 0)]:
        for P in enumerate_pops(seq):
            for s in range(1, P.r + 2):
                inv = invariant_set(P, s)
                for k in (1, 2):
                    assert invariant_set(shift_pop(P, k), s) == inv


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pattern_tables_match_slow_path(data):
    # every pattern of one lambda, so a value kept from another pattern shows
    r = data.draw(st.integers(1, 3))
    lam = tuple(sorted(data.draw(st.lists(st.integers(0, 3), min_size=r,
                                          max_size=r)), reverse=True)) + (0,)
    for pattern in enumerate_patterns(lam):
        slow = slow_stats(pattern)
        tab = pattern.tables()
        for name in ("d", "dprime", "trap_depth"):
            assert dict(zip(tab.cells, getattr(tab, name))) == slow[name]
        for name in ("wt", "tri_area", "trap_area", "norm_half_diff"):
            assert getattr(tab, name) == slow[name]
        P = POP(pattern, {
            c: data.draw(st.sampled_from(enumerate_rect(slow["d"][c],
                                                        slow["dprime"][c])))
            for c in tab.cells})
        assert {c: P.d(*c) for c in tab.cells} == slow["d"]
        assert {c: P.dprime(*c) for c in tab.cells} == slow["dprime"]
        assert P.weight() == slow["wt"]
        table = slow_cell_depths(P)
        assert depth(P)["table"] == table
        assert depth_total(P) == sum(table.values())


def _draw_lambda(data):
    r = data.draw(st.integers(1, 3))
    top = 3 if r < 3 else 2
    return tuple(sorted(data.draw(st.lists(st.integers(0, top), min_size=r,
                                           max_size=r)), reverse=True)) + (0,)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_iter_pops_yields_each_pattern_in_one_run(data):
    # verify identities checks the pattern half of the invariant-set
    # recursion once per run of one pattern's POPs
    lam = _draw_lambda(data)
    pops = enumerate_pops(lam)
    mu = data.draw(st.sampled_from([P.weight() for P in pops]))
    depth_filter = data.draw(st.integers(0, 3))
    for got in (pops, enumerate_pops(lam, weight=mu),
                enumerate_pops(lam, depth_filter=depth_filter)):
        runs = [pattern for pattern, _ in groupby(P.pattern for P in got)]
        assert len(runs) == len(set(runs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_iter_pops_builds_what_the_checked_constructor_builds(data):
    # iter_pops builds its POPs from partitions it checked once per
    # rectangle; POP(pattern, overlay) checks every partition again
    lam = _draw_lambda(data)
    r = len(lam) - 1
    mu = data.draw(st.sampled_from([P.weight() for P in iter_pops(lam)]))
    filters = ({}, {"weight": mu},
               {"depth_filter": data.draw(st.integers(0, 3))})
    for kw in filters:
        for P in iter_pops(lam, **kw):
            Q = POP(P.pattern, P.overlay)
            assert Q == P and hash(Q) == hash(P)
            assert Q.to_json() == P.to_json()
            assert Q.overlay_size() == P.overlay_size()
            assert len(P.overlay) == r * (r + 1) // 2


def test_iter_pops_checks_each_rectangle(monkeypatch):
    # a partition that does not fit its rectangle is refused where the
    # rectangle's partitions are first listed
    listed = enumerate_rect
    monkeypatch.setattr(pop, "enumerate_rect", lambda d, dprime, max_size:
                        listed(d, dprime, max_size) + [Partition((dprime + 1,))])
    for kw in ({}, {"depth_filter": 1}):
        with pytest.raises(ValueError, match="does not fit"):
            next(iter_pops((2, 1, 0), **kw))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invariant_halves_match_slow_path(data):
    lam = _draw_lambda(data)
    r = len(lam) - 1
    for P in enumerate_pops(lam):
        for s in range(1, r + 2):
            slow = slow_invariants(P, s)
            assert pattern_invariant_set(P.pattern, s) == {
                "d": slow["d"], "dprime": slow["dprime"]}
            assert overlay_invariant_set(P, s) == slow["overlay"]
            assert invariant_set(P, s) == slow
            for j in range(s, r + 1):
                slow = slow_invariants(P, s, j)
                assert pattern_invariant_slice(P.pattern, s, j) == {
                    "d": slow["d"], "dprime": slow["dprime"]}
                assert overlay_invariant_slice(P, s, j) == slow["overlay"]


def test_is_stable_examples():
    assert is_stable(P_([[1], [2, 0]], {(1, 1): (1,)}))
    assert not is_stable(P_([[2], [4, 0]], {(1, 1): (2, 2)}))
    assert is_stable(P_([[1], [2, 0], [2, 1, 0]]))


def test_stability_monotone_under_shift():
    for seq in SMALL_SEQS:
        for P in enumerate_pops(seq):
            if is_stable(P):
                for k in (1, 2):
                    assert is_stable(shift_pop(P, k))


def test_enumerators_agree():
    for seq in SMALL_SEQS:
        a = set(enumerate_pops(seq))
        b = set(enumerate_pops_bruteforce(seq))
        assert a == b
    # filtered variants
    mu = zero_weight(2)
    a = set(enumerate_pops((2, 1, 0), weight=mu, depth_filter=1))
    b = set(enumerate_pops_bruteforce((2, 1, 0), weight=mu, depth_filter=1))
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weight_pruned_enumeration_matches_bruteforce(data):
    lam = _draw_lambda(data)
    r = len(lam) - 1
    occurring = [P.weight() for P in enumerate_pops(lam)]
    mu = data.draw(st.one_of(
        st.sampled_from(occurring),
        st.lists(st.integers(-3, 3), min_size=r + 1, max_size=r + 1).map(
            lambda c: FiniteWeight(r, c))))
    depth_filter = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    got = enumerate_pops(lam, weight=mu, depth_filter=depth_filter)
    unpruned = [P for P in enumerate_pops(lam, depth_filter=depth_filter)
                if P.weight() == mu]
    assert got == unpruned
    brute = enumerate_pops_bruteforce(lam, weight=mu,
                                      depth_filter=depth_filter)
    assert len(got) == len(brute) and set(got) == set(brute)


def test_shift_bijection_examples():
    pops, witness = shift_bijection_check(zero_weight(1), zero_weight(1), 1, 1)
    assert witness is None and len(pops) == 1
    pops, witness = shift_bijection_check(zero_weight(1), zero_weight(1), 0, 0)
    assert witness is None and len(pops) == 1
    pops, _ = shift_bijection_check(zero_weight(2), zero_weight(2), 2, 2)
    assert len(pops) == 5 == colored_count(2, 2)
    assert pops == enumerate_pops((4, 2, 0), weight=zero_weight(2),
                                  depth_filter=2)
    with pytest.raises(ValueError):
        shift_bijection_check(zero_weight(1), zero_weight(1), 2, 1)


def test_shift_bijection_diagonal_bound_needs_large_lambda():
    # over lambda = 0 the counts match but the diagonal bound genuinely fails:
    # the depth-2 set is not yet full at shift 0, so not every member of the
    # shifted set is a shift image
    _, witness = shift_bijection_check(zero_weight(2), zero_weight(2), 2, 2)
    assert witness["reason"] == "diagonal bound"
    assert witness["bad_diagonals"]
    # over a regular lambda the depth-2 set is already full and the bound holds
    lam = fundamental(2, 1) + fundamental(2, 2)
    pops, witness = shift_bijection_check(lam, zero_weight(2), 2, 2)
    assert witness is None and len(pops) == 5
    pops, witness = shift_bijection_check(lam, zero_weight(2), 2, 3)
    assert witness is None and len(pops) == 5


def test_json_roundtrip():
    P = P_([[1], [2, 0]], {(1, 1): (1,)})
    assert POP.from_json(P.to_json()) == P
    assert P.to_json()["overlay"]["1,1"] == [1]
