import pytest

from popfock.gtpattern import GTPattern, enumerate_patterns, stats
from popfock.rootdata import zero_weight
from oracles import shift


def test_validate_examples():
    P = GTPattern([[1], [2, 0], [2, 1, 0]])
    assert P.r == 2
    with pytest.raises(ValueError):
        GTPattern([[2], [1, 0]])
    GTPattern([[0], [0, 0], [0, 0, 0]])


def test_validate_reports_position():
    with pytest.raises(ValueError) as exc:
        GTPattern([[2], [1, 0]])
    assert "i=1, j=1" in str(exc.value)


def test_stats_example_rank2():
    P = GTPattern([[1], [2, 0], [2, 1, 0]])
    st = stats(P)
    assert st.wt == zero_weight(2)  # (1,1,1) is the zero weight
    assert st.cells == ((1, 1), (1, 2), (2, 2))
    assert st.d == (1, 0, 1)
    assert st.dprime == (1, 1, 0)
    assert st.trap_depth == (0, 0, 0)
    assert st.tri_area == 1
    assert st.trap_area == 1
    assert st.norm_half_diff == 1
    assert P.tables() == st and P.tables() is P.tables()


def test_stats_example_rank1():
    P = GTPattern([[1], [2, 0]])
    st = stats(P)
    assert st.wt == zero_weight(1)
    assert st.tri_area == 1 and st.trap_area == 1


def test_stats_constant_pattern():
    P = GTPattern([[2], [2, 0], [2, 0, 0]])
    st = stats(P)
    assert all(v == 0 for v in st.d)
    assert st.tri_area == 0


def test_trap_minus_tri_nonneg():
    for seq in [(2, 0), (2, 1, 0), (3, 1, 0)]:
        for P in enumerate_patterns(seq):
            st = stats(P)
            assert st.trap_area >= st.tri_area


def test_shift_example():
    P = GTPattern([[1], [2, 0], [2, 1, 0]])
    assert shift(P, 1) == GTPattern([[2], [4, 0], [4, 2, 0]])
    assert shift(P, 0) == P
    assert shift(P, 1).tables().d[0] == 2


def test_shift_laws():
    for seq in [(2, 0), (3, 0), (2, 1, 0), (1, 1, 0)]:
        for P in enumerate_patterns(seq):
            for k in (1, 2, 3):
                st, stk = P.tables(), shift(P, k).tables()
                assert stk.wt == st.wt
                for (i, j), d, dk, dp, dpk in zip(st.cells, st.d, stk.d,
                                                  st.dprime, stk.dprime):
                    assert dk == d + (k if i == j else 0)
                    assert dpk == dp + (k if i == 1 else 0)


def test_shift_composition():
    for seq in [(2, 0), (2, 1, 0)]:
        for P in enumerate_patterns(seq):
            for k in (0, 1, 2):
                for l in (0, 1, 3):
                    assert shift(shift(P, k), l) == shift(P, k + l)


def test_enumerate_counts():
    assert len(enumerate_patterns((2, 0))) == 3
    assert len(enumerate_patterns((1, 0, 0))) == 3
    assert len(enumerate_patterns((0, 0, 0))) == 1


def test_enumerate_unique_and_valid():
    pats = enumerate_patterns((2, 1, 0))
    assert len(pats) == len(set(pats))
    assert len(pats) == 8  # dim V(w1+w2) for sl_3
    for P in pats:
        assert P.bounding_seq() == (2, 1, 0)
