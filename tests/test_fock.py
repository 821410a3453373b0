import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from popfock.fock import (FockKey, FockVector, act_heisenberg,
                          act_root_vector, apply_word, enumerate_keys,
                          graded_dim, lattice_points, vacuum, weight_of,
                          zero_vector)
from popfock.rootdata import (AffineWeight, FiniteWeight, Lambda, all_roots,
                              bilinear, fundamental, simple_root, zero_weight)
from popfock.cli import bracket_expected, parse_config, run
from popfock.clbasis import OperatorWord
import oracles
from oracles import act_chevalley, apply_poly, weight_space_keys


def unit(key):
    return FockVector(key.gamma.r, key.sector, {key: Fraction(1)})


def test_vacuum_and_key_basics():
    v = vacuum(2, 0)
    (key,) = v.terms
    assert key.gamma == zero_weight(2) and key.modes == ()
    assert key.energy() == 0
    v1 = vacuum(2, 1)
    (key1,) = v1.terms
    assert key1.gamma == fundamental(2, 1)
    assert key1.energy() == 0
    for modes in ([(1.7, 2)], [(True, 1)], [(1, 2.0)], [(2, True)]):
        with pytest.raises(ValueError):
            FockKey(zero_weight(2), modes)


def test_key_energy_integral_and_nonneg():
    # the lattice part of the energy is a nonnegative integer on every coset
    for r in (1, 2):
        for i in range(r + 1):
            for key in enumerate_keys(r, i, 3):
                assert key.energy() >= 0
    with pytest.raises(ValueError):
        FockKey(zero_weight(2), ((3, 1),))  # direction out of range
    with pytest.raises(ValueError):
        FockKey(zero_weight(2), ((1, 0),))  # mode degree must be positive


def reference_energy(key):
    """Slow path for FockKey.energy: ((gamma|gamma) - (varpi_i|varpi_i)) / 2
    plus the mode sum, in exact rationals through bilinear."""
    gamma = key.gamma
    varpi = fundamental(gamma.r, gamma.class_index())
    e = ((bilinear(gamma, gamma) - bilinear(varpi, varpi)) / 2
         + sum(n for _, n in key.modes))
    assert e.denominator == 1
    return int(e)


def box_scan_points(r, i, emax):
    """Slow path for lattice_points: every integer point of a box that holds
    them all, kept when its sum is i and its energy
    ((c|c) - (varpi_i|varpi_i)) / 2, through bilinear, is at most emax."""
    varpi = fundamental(r, i)
    w2 = bilinear(varpi, varpi)
    box = int(2 * emax + w2) + 2
    out = []
    for c in itertools.product(range(-box, box + 1), repeat=r + 1):
        if sum(c) == i:
            fw = FiniteWeight(r, c)
            e = (bilinear(fw, fw) - w2) / 2
            if e <= emax:
                out.append((c, int(e)))
    return out


def test_lattice_points_match_box_scan():
    # sector 0 up to energy 4 includes the root lattice points with
    # (gamma|gamma) <= 8 that verify dims runs over
    for r in (1, 2, 3):
        for i in range(r + 1):
            top = 4 if r <= 2 or i == 0 else 3
            scan = box_scan_points(r, i, top)
            for emax in range(top + 1):
                assert list(lattice_points(r, i, emax)) == [
                    (c, e) for c, e in scan if e <= emax]


@st.composite
def random_keys(draw):
    """A key of rank 1..3 built from its lattice representative c, sum c = i."""
    r = draw(st.integers(1, 3))
    i = draw(st.integers(0, r))
    head = draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))
    lat = tuple(head) + (i - sum(head),)
    modes = draw(st.lists(st.tuples(st.integers(1, r), st.integers(1, 4)),
                          max_size=4))
    gamma = FiniteWeight(r, lat)
    assert gamma.lattice_rep() == lat
    return FockKey(gamma, modes)


@settings(max_examples=300, deadline=None)
@given(random_keys())
def test_energy_matches_fraction_reference(key):
    assert key.sector == key.gamma.class_index()
    assert key.energy() == reference_energy(key)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.integers(-5, 5), min_size=r + 1, max_size=r + 1))))
def test_integer_pairings_match_bilinear(r_coords):
    # the root action pairs on lattice representatives: (alpha|gamma) as a
    # plain dot product, (alpha|alpha_b) as a difference of two entries
    r, coords = r_coords
    gamma = FiniteWeight(r, coords)
    g = gamma.lattice_rep()
    for alpha in all_roots(r):
        a = alpha.lattice_rep()
        assert sum(x * y for x, y in zip(a, g)) == bilinear(alpha, gamma)
        for b in range(1, r + 1):
            assert a[b - 1] - a[b] == bilinear(alpha, simple_root(r, b))


@lru_cache(maxsize=None)
def keys_up_to_4(r, i):
    return enumerate_keys(r, i, 4)


@st.composite
def root_word_cases(draw):
    """A root, s in -3..3, a multiplicity and a vector of one to three keys
    of energy <= 4 with rational coefficients, at rank 1..3."""
    r = draw(st.integers(1, 3))
    i = draw(st.integers(0, r))
    keys = draw(st.lists(st.sampled_from(keys_up_to_4(r, i)), min_size=1,
                         max_size=3, unique=True))
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                           min_size=len(keys), max_size=len(keys)))
    alpha = draw(st.sampled_from(all_roots(r)))
    return (alpha, draw(st.integers(-3, 3)), draw(st.integers(1, 2)),
            FockVector(r, i, dict(zip(keys, coeffs))))


@settings(max_examples=300, deadline=None)
@given(root_word_cases())
def test_engine_matches_fraction_oracle(case):
    # compared up to 100 terms, as in test_runs_match_fraction_oracle: the
    # few larger images would take most of the oracle's time
    alpha, s, mult, v = case
    got = act_root_vector(alpha, s, v)
    if len(got.terms) > 100:
        return
    assert got == oracles.act_root_vector(alpha, s, v)
    got = apply_word([(alpha, s, mult)], v)
    if len(got.terms) <= 100:
        assert got == oracles.apply_word(OperatorWord([(alpha, s, mult)]), v)


@lru_cache(maxsize=None)
def keys_with_modes(r, i):
    return [key for key in enumerate_keys(r, i, 3) if key.modes]


@st.composite
def run_cases(draw):
    """Two to four factors of one root that is not simple, of either sign,
    each with s in -3..3 and multiplicity 1..2, and a key with modes of
    energy <= 3, at rank 2 or 3."""
    r = draw(st.integers(2, 3))
    simple = [a * simple_root(r, b) for a in (1, -1) for b in range(1, r + 1)]
    alpha = draw(st.sampled_from([x for x in all_roots(r) if x not in simple]))
    factors = draw(st.lists(st.tuples(st.just(alpha), st.integers(-3, 3),
                                      st.integers(1, 2)),
                            min_size=2, max_size=4))
    key = draw(st.sampled_from(keys_with_modes(r, draw(st.integers(0, r)))))
    return factors, unit(key)


@settings(max_examples=50, deadline=None)
@given(run_cases())
def test_runs_match_fraction_oracle(case):
    # a run creates alpha(-n) in a placeholder label that its annihilators
    # pair with (alpha|alpha) = 2; the run's end rewrites it in simple roots.
    # Every prefix is compared, as most full words leave the energy range,
    # up to 100 terms, past which the oracle takes seconds per factor.
    factors, v = case
    w = v
    for j, factor in enumerate(factors, 1):
        got = apply_word(factors[:j], v)
        if len(got.terms) > 100:
            break
        w = oracles.apply_word(OperatorWord([factor]), w)
        assert got == w


def test_highest_weight_relations():
    for r in (1, 2):
        for i in range(r + 1):
            v = vacuum(r, i)
            for p in range(r + 1):
                assert act_chevalley(p, "e", v).is_zero()
                fv = act_chevalley(p, "f", v)
                power = (1 if p == i else 0) + 1
                w = v
                for _ in range(power):
                    w = act_chevalley(p, "f", w)
                assert w.is_zero()
                if p != i:
                    assert fv.is_zero()
                else:
                    assert not fv.is_zero()


def test_f1_squared_on_vacuum_rank1():
    v = vacuum(1, 0)
    w = act_root_vector(-simple_root(1, 1), -1, v)
    w = act_root_vector(-simple_root(1, 1), -1, w)
    assert w.is_zero()


def test_heisenberg_examples():
    v = vacuum(1, 0)
    assert act_heisenberg(1, 1, v).is_zero()
    w = act_heisenberg(1, -1, v)
    assert act_heisenberg(1, 1, w) == 2 * v
    # alpha_1(0) on the key gamma = alpha_1 scales by (a1|a1) = 2
    u = act_root_vector(simple_root(1, 1), -1, v)  # key gamma = a1
    assert act_heisenberg(1, 0, u) == 2 * u


def test_heisenberg_cross_direction():
    # (alpha_a|alpha_b) is -1 for neighbours and 0 two directions apart
    for r in (2, 3):
        v = vacuum(r, 0)
        w = act_heisenberg(1, -1, v)
        assert act_heisenberg(2, 1, w) == -1 * v
        assert act_heisenberg(1, 2, w).is_zero()
    assert act_heisenberg(3, 1, w).is_zero()


def test_root_vector_examples():
    v = vacuum(1, 0)
    a = simple_root(1, 1)
    assert act_root_vector(-a, 0, v).is_zero()
    # f_0 reaches the extremal line, and lowering from it returns to vacuum
    w = act_root_vector(a, -1, v)
    assert len(w.terms) == 1
    back = act_root_vector(-a, 1, w)
    assert back == v or back == -1 * v
    assert act_root_vector(a, 0, zero_vector(1, 0)).is_zero()


def test_root_vector_weight_transport():
    for r in (1, 2):
        keys = enumerate_keys(r, 0, 2)
        for al in all_roots(r):
            for s in (-1, 0, 1):
                for key in keys[:12]:
                    out = act_root_vector(al, s, unit(key))
                    if out.is_zero():
                        continue
                    got = weight_of(out)
                    want = AffineWeight(key.gamma + al, 1,
                                        -(key.energy() - s))
                    assert got == want


def test_bracket_relations_small():
    for r in (1, 2):
        keys = enumerate_keys(r, 0, 2)[:10]
        roots = all_roots(r)
        for al, be in itertools.product(roots, roots):
            for s1, s2 in itertools.product((-1, 0, 1), repeat=2):
                for key in keys:
                    v = unit(key)
                    lhs = (act_root_vector(al, s1, act_root_vector(be, s2, v))
                           - act_root_vector(be, s2, act_root_vector(al, s1, v)))
                    assert lhs == bracket_expected(al, be, s1, s2, v)


def test_heisenberg_root_bracket():
    # [h_a(n), x_al(m)] = (a|al) x_al(n+m)
    r = 2
    keys = enumerate_keys(r, 0, 2)[:8]
    for a in (1, 2):
        ha = simple_root(r, a)
        for al in all_roots(r):
            pair = int(bilinear(ha, al))
            for n in (-1, 1):
                for m in (-1, 0, 1):
                    for key in keys:
                        v = unit(key)
                        lhs = (act_heisenberg(a, n, act_root_vector(al, m, v))
                               - act_root_vector(al, m, act_heisenberg(a, n, v)))
                        rhs = pair * act_root_vector(al, n + m, v)
                        assert lhs == rhs


def test_weight_of_examples():
    # vacuum(i) sits at Lambda_i; a bare lattice key at the translated
    # extremal weight; a pure mode key at Lambda_0 - (mode sum) delta
    for r in (1, 2):
        for i in range(r + 1):
            assert weight_of(vacuum(r, i)) == AffineWeight(fundamental(r, i), 1, 0)
    a = simple_root(1, 1)
    key = FockKey(a)
    assert weight_of(unit(key)) == AffineWeight(a, 1, -1)
    key = FockKey(zero_weight(1), ((1, 2),))
    assert weight_of(unit(key)) == AffineWeight(zero_weight(1), 1, -2)


def test_weight_of_errors():
    v = vacuum(1, 0) + act_heisenberg(1, -1, vacuum(1, 0))
    with pytest.raises(ValueError):
        weight_of(v)
    with pytest.raises(ValueError):
        weight_of(zero_vector(1, 0))


def test_key_and_colored_partition_orders_pinned():
    # the suites pick keys by position in enumerate_keys (vecs[:5], [:n]),
    # so its order is pinned, as are the `enumerate colored` report lines
    keys = ["%d %d %r %r" % (r, i, k.gamma.lattice_rep(), k.modes)
            for r in (1, 2, 3) for i in range(r + 1)
            for k in enumerate_keys(r, i, 4)]
    colored = ["%d %d %s" % (r, m, line) for r in (1, 2, 3) for m in range(7)
               for line in run(parse_config(["enumerate", "colored", "--r",
                                             str(r), "--m", str(m)]))[1]]
    assert (len(keys), len(colored)) == (4520, 584)
    assert [hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for lines in (keys, colored)] == [
        "6635b58d5c7ab9b37973cb6652a8f5224beea458dd37c82f70ac2f3e69f76fa6",
        "4b32757d79539f1df137770e38949716f3b331fe5cd9cce38803375e2bd5cbc0"]


def test_weight_space_keys_consistent():
    for r in (1, 2):
        for m in range(4):
            keys = weight_space_keys(r, 0, zero_weight(r), m)
            assert len(keys) == graded_dim(r, 0, zero_weight(r), m)
            for key in keys:
                assert weight_of(unit(key)) == Lambda(r, 0) - AffineWeight(
                    zero_weight(r), 0, m)


def test_pure_mode_spaces_span_imaginary_weight_spaces():
    # every key of weight Lambda_0 - m delta is a mode monomial on the vacuum
    for r in (1, 2):
        for m in range(5):
            for key in weight_space_keys(r, 0, zero_weight(r), m):
                assert key.gamma == zero_weight(r)
                assert sum(n for _, n in key.modes) == m


def lem1_rhs(alpha, p, hqs, v):
    """Expanded right side of the single-factor exchange identity."""
    n = len(hqs)
    out = zero_vector(v.r, v.sector)
    for picks in itertools.product((0, 1), repeat=n):
        coeff = Fraction(1)
        shift = 0
        w = v
        for (b, q), take in zip(reversed(hqs), reversed(picks)):
            if take:
                coeff *= bilinear(alpha, simple_root(v.r, b))
                shift += q
        if coeff == 0:
            continue
        w = act_root_vector(-alpha, p - shift, w)
        for (b, q), take in zip(reversed(hqs), reversed(picks)):
            if not take:
                w = act_heisenberg(b, -q, w)
        out = out + coeff * w
    return out


def test_lemma_exchange_single_factor():
    random.seed(11)
    for r in (1, 2):
        keys = enumerate_keys(r, 0, 2)
        pos = [a for a in all_roots(r)
               if a.lattice_rep().index(1) < a.lattice_rep().index(-1)]
        for _ in range(40):
            alpha = random.choice(pos)
            p = random.randint(0, 3)
            hqs = [(random.randint(1, r), random.randint(1, 2))
                   for _ in range(random.randint(1, 2))]
            key = random.choice(keys)
            v = unit(key)
            lhs = v
            for b, q in reversed(hqs):
                lhs = act_heisenberg(b, -q, lhs)
            lhs = act_root_vector(-alpha, p, lhs)
            assert lhs == lem1_rhs(alpha, p, hqs, v)


def test_lemma_exchange_multi_factor():
    # two lowering factors through a two-mode monomial, via slot assignments
    random.seed(12)
    for r in (1, 2):
        keys = enumerate_keys(r, 0, 1)
        pos = [a for a in all_roots(r)
               if a.lattice_rep().index(1) < a.lattice_rep().index(-1)]
        for _ in range(25):
            alpha = random.choice(pos)
            ps = [random.randint(0, 2) for _ in range(2)]
            hqs = [(random.randint(1, r), random.randint(1, 2))
                   for _ in range(2)]
            key = random.choice(keys)
            v = unit(key)
            lhs = v
            for b, q in reversed(hqs):
                lhs = act_heisenberg(b, -q, lhs)
            for p in reversed(ps):
                lhs = act_root_vector(-alpha, p, lhs)
            rhs = zero_vector(r, v.sector)
            for assign in itertools.product(range(len(ps) + 1),
                                            repeat=len(hqs)):
                coeff = Fraction(1)
                new_ps = list(ps)
                kept = []
                for (b, q), slot in zip(hqs, assign):
                    if slot == 0:
                        kept.append((b, q))
                    else:
                        coeff *= bilinear(alpha, simple_root(r, b))
                        new_ps[slot - 1] -= q
                if coeff == 0:
                    continue
                w = v
                for p in reversed(new_ps):
                    w = act_root_vector(-alpha, p, w)
                for b, q in reversed(kept):
                    w = act_heisenberg(b, -q, w)
                rhs = rhs + coeff * w
            assert lhs == rhs


def test_apply_poly():
    v = vacuum(2, 0)
    g = {((1, 1), (2, 2)): Fraction(3), (): Fraction(1, 2)}
    w = apply_poly(g, v)
    assert len(w.terms) == 2
    m = FockVector(2, 0, {FockKey(zero_weight(2), ((1, 1), (2, 2))): 3})
    assert w == m + Fraction(1, 2) * v


def test_dump_lines_stable():
    v = vacuum(1, 0) + act_heisenberg(1, -2, vacuum(1, 0))
    lines = v.dump_lines()
    assert lines == ["gamma=0,0 modes=[] coeff=1/1",
                     "gamma=0,0 modes=[(1,2)x1] coeff=1/1"]
