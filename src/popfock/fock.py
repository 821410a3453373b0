"""Exact lattice Fock model of the level-one modules of affine sl_{r+1}.

The sector-i module is realized on the span of keys (gamma, modes) with gamma
in varpi_i + Q and modes a multiset of creation labels (a, n), a a simple-root
direction and n >= 1.  Root vectors act through vertex operators; since source
and target weight spaces are finite dimensional, every coefficient extraction
is a finite exact computation over the rationals.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, isqrt, lcm

from .partitions import colored_partitions
from .rootdata import (AffineWeight, FiniteWeight, bilinear, fundamental,
                       is_root, simple_root)
from .translate import eps_tilde


class FockKey:
    """Basis key: lattice point gamma in varpi_i + Q plus a creation multiset.

    modes is a sorted tuple of (direction, n) int pairs with repetition.  The
    energy (lattice part plus mode sum) is computed once at creation from the
    lattice representative c of gamma, whose entries sum to the sector i:
    (sum c^2 - i) / 2 + sum n.  A key whose energy is not a nonnegative
    integer is rejected.
    """

    __slots__ = ("gamma", "modes", "sector", "_hash", "_energy")

    def __init__(self, gamma, modes=()):
        modes = tuple(sorted((a, n) for a, n in modes))
        for a, n in modes:
            if not (type(a) is int and type(n) is int
                    and 1 <= a <= gamma.r and n >= 1):
                raise ValueError("bad mode (%r, %r)" % (a, n))
        lat = gamma.lattice_rep()
        sector = sum(lat)
        lat2 = sum(c * c for c in lat) - sector
        if lat2 % 2:
            raise AssertionError("non-integral energy")
        energy = lat2 // 2 + sum(n for _, n in modes)
        if energy < 0:
            raise AssertionError("negative energy key")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "_hash", hash((gamma, modes)))
        object.__setattr__(self, "_energy", energy)

    def __setattr__(self, name, value):
        raise AttributeError("FockKey is immutable")

    def __eq__(self, other):
        return (isinstance(other, FockKey) and self.gamma == other.gamma
                and self.modes == other.modes)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FockKey(%r, %r)" % (self.gamma, list(self.modes))

    def sort_key(self):
        return (self.gamma.lattice_rep(), self.modes)

    def energy(self):
        """Lattice energy plus mode sum, computed at creation."""
        return self._energy

    def mode_multiplicities(self):
        out = {}
        for m in self.modes:
            out[m] = out.get(m, 0) + 1
        return out


class FockVector:
    """Finite sparse rational combination of keys, all in one sector."""

    __slots__ = ("r", "sector", "terms")

    def __init__(self, r, sector, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if key.sector != sector or key.gamma.r != r:
                raise ValueError("key sector/rank mismatch")
            clean[key] = coeff
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    def __eq__(self, other):
        return (isinstance(other, FockVector) and self.r == other.r
                and self.sector == other.sector and self.terms == other.terms)

    def __hash__(self):
        return hash((self.r, self.sector,
                     tuple(sorted(self.terms.items(),
                                  key=lambda kv: kv[0].sort_key()))))

    def __repr__(self):
        return "FockVector(r=%d, sector=%d, %d terms)" % (
            self.r, self.sector, len(self.terms))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._compat(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return FockVector(self.r, self.sector, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return FockVector(self.r, self.sector,
                          {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1) * self

    def _compat(self, other):
        if self.r != other.r or self.sector != other.sector:
            raise ValueError("vector sector/rank mismatch")

    def lattice_shift(self, beta, sign_fn):
        """Key-wise gamma -> gamma + beta with a per-key sign; modes unchanged."""
        terms = {}
        for key, coeff in self.terms.items():
            s = sign_fn(key.gamma.lattice_rep())
            nk = FockKey(key.gamma + beta, key.modes)
            terms[nk] = terms.get(nk, 0) + coeff * s
        new_sector = (self.sector + sum(beta.lattice_rep())) % (self.r + 1)
        return FockVector(self.r, new_sector, terms)

    def dump_lines(self):
        """Stable textual dump, one line per term."""
        lines = []
        for key in sorted(self.terms, key=lambda k: k.sort_key()):
            coeff = self.terms[key]
            mults = key.mode_multiplicities()
            modes = ",".join("(%d,%d)x%d" % (a, n, m)
                             for (a, n), m in sorted(mults.items()))
            lines.append("gamma=%s modes=[%s] coeff=%d/%d" % (
                ",".join(str(c) for c in key.gamma.lattice_rep()), modes,
                coeff.numerator, coeff.denominator))
        return lines


def zero_vector(r, sector=0):
    return FockVector(r, sector, {})


def vacuum(r, i=0):
    """Highest weight vector of the sector-i module: gamma = varpi_i, no modes."""
    if not 0 <= i <= r:
        raise ValueError("sector out of range")
    return FockVector(r, i, {FockKey(fundamental(r, i)): Fraction(1)})


def act_heisenberg(a, n, v):
    """Action of alpha_a(n): creation for n < 0, annihilation for n > 0,
    diagonal pairing (gamma | alpha_a) for n = 0; level one throughout."""
    r = v.r
    if not 1 <= a <= r:
        raise ValueError("direction out of range")
    alpha = simple_root(r, a)
    terms = {}
    if n == 0:
        for key, coeff in v.terms.items():
            val = bilinear(key.gamma, alpha)
            if val:
                terms[key] = terms.get(key, 0) + coeff * val
    elif n < 0:
        for key, coeff in v.terms.items():
            nk = FockKey(key.gamma, key.modes + ((a, -n),))
            terms[nk] = terms.get(nk, 0) + coeff
    else:
        for key, coeff in v.terms.items():
            mults = key.mode_multiplicities()
            for (b, m), mult in mults.items():
                if m != n:
                    continue
                pair = bilinear(alpha, simple_root(r, b))
                if pair == 0:
                    continue
                reduced = list(key.modes)
                reduced.remove((b, m))
                nk = FockKey(key.gamma, tuple(reduced))
                terms[nk] = terms.get(nk, 0) + coeff * n * pair * mult
    return FockVector(r, v.sector, terms)


def _alpha_simple_coeffs(alpha_lat):
    """alpha in the simple-root basis, via partial sums of its lattice tuple:
    the pairs (b, coefficient of alpha_b) with a nonzero coefficient."""
    return tuple((b, c) for b, c in enumerate(accumulate(alpha_lat[:-1]), 1)
                 if c)


def _times_alpha_mode(cs, n, terms):
    """terms times alpha(-n) = sum_b c_b alpha_b(-n), cs the pairs (b, c_b)
    of alpha; terms is a dict mode-tuple -> coefficient."""
    out = {}
    for modes, c in terms.items():
        for b, cb in cs:
            nm = tuple(sorted(modes + ((b, n),)))
            out[nm] = out.get(nm, 0) + c * cb
    return out


# The exact engine.  Inside it a key is the tuple (lattice tuple, modes), the
# lattice tuple being the representative whose entries sum to the sector, and
# a vector is (den, {key: int}), the coefficients being the ints over den.
#
# A run of consecutive factors with one root alpha that is not simple creates
# its modes alpha(-n) in the placeholder label (0, n): the run's annihilators
# pair them with (alpha|alpha) = 2, and apply_word rewrites them in
# simple-root modes when the run ends.  Expanding at every factor instead
# piles up terms that cancel later.  A simple root creates its own mode.


@lru_cache(maxsize=None)
def _creation_terms(cs, degree):
    """degree! times the coefficient of z^degree in exp(sum_n alpha(-n) z^n
    / n), alpha(-n) created in the label pairs cs: a dict mode tuple -> int.

    From c P_c = sum_{n=1}^{c} alpha(-n) P_{c-n} for the coefficients P_c,
    c! P_c = sum_n (c-1)!/(c-n)! alpha(-n) (c-n)! P_{c-n}."""
    if degree == 0:
        return {(): 1}
    out = {}
    for n in range(1, degree + 1):
        f = factorial(degree - 1) // factorial(degree - n)
        lower = _creation_terms(cs, degree - n)
        for m, c in _times_alpha_mode(cs, n, lower).items():
            out[m] = out.get(m, 0) + f * c
    return {m: c for m, c in out.items() if c}


def _annihilation_terms(alpha_lat, modes):
    """Expansion of the annihilation exponential against sorted modes: list
    of (kept modes tuple, int coefficient, annihilated degree)."""
    results = [((), 1, 0)]
    for (b, n), mult in sorted(Counter(modes).items()):
        # -(alpha | alpha_b); the run label 0 is alpha itself
        c = alpha_lat[b] - alpha_lat[b - 1] if b else -2
        new = []
        for kept, coeff, deg in results:
            for j in range(mult + 1 if c else 1):
                new.append((kept + ((b, n),) * (mult - j),
                            coeff * comb(mult, j) * c ** j, deg + j * n))
        results = new
    return results


_ROOT_ACTION_CACHE = {}


def _root_action_kernel(alpha_lat, s, key, cs):
    """x_alpha (x) t^s on one engine key, uncached, creating its modes in the
    label pairs cs: (L, {key: int}), the image being the ints over L = c!,
    c the largest creation degree used."""
    lat, modes = key
    # (alpha | gamma) on lattice representatives: exact because sum(alpha) = 0
    base = -s - 1 - sum(a * g for a, g in zip(alpha_lat, lat))
    sign0 = eps_tilde(alpha_lat, lat)
    if alpha_lat.index(1) > alpha_lat.index(-1):  # negative root
        sign0 = -sign0
    terms = [(kept, acoef, base + adeg)
             for kept, acoef, adeg in _annihilation_terms(alpha_lat, modes)
             if base + adeg >= 0]
    if not terms:
        return 1, {}
    L = factorial(max(cdeg for _, _, cdeg in terms))
    by_modes = {}
    for kept, acoef, cdeg in terms:
        acoef *= sign0 * (L // factorial(cdeg))
        for created, ccoef in _creation_terms(cs, cdeg).items():
            nm = tuple(sorted(kept + created))
            by_modes[nm] = by_modes.get(nm, 0) + acoef * ccoef
    new_lat = tuple(a + g for a, g in zip(alpha_lat, lat))
    return L, {(new_lat, m): c for m, c in by_modes.items() if c}


def _act_root(alpha_lat, s, vec, cs, div):
    """x_alpha (x) t^s divided by div, on an engine vector, creating in the
    label pairs cs; cached per key, so cs must be a function of alpha."""
    den, terms = vec
    images = []
    for key, c in terms.items():
        ck = (alpha_lat, s, key)
        hit = _ROOT_ACTION_CACHE.get(ck)
        if hit is None:
            hit = _ROOT_ACTION_CACHE[ck] = _root_action_kernel(*ck, cs)
        images.append((c, hit))
    # every L is a factorial, so the largest is a common multiple
    top = max((L for _, (L, _) in images), default=1)
    out = {}
    for c, (L, image) in images:
        c *= top // L
        for k, x in image.items():
            out[k] = out.get(k, 0) + c * x
    out = {k: x for k, x in out.items() if x}
    den *= top * div
    g = gcd(den, *out.values())
    return den // g, {k: x // g for k, x in out.items()}


def _end_run(cs, vec):
    """Rewrites the placeholder modes (0, n) = alpha(-n) of a finished run
    in simple-root modes, cs the pairs of alpha; a run of a simple root (or
    none) has none."""
    if len(cs) < 2:
        return vec
    den, terms = vec
    out = {}
    for (lat, modes), c in terms.items():
        k = sum(1 for b, _ in modes if not b)  # label 0 sorts first
        expanded = {modes[k:]: c}
        for _, n in modes[:k]:
            expanded = _times_alpha_mode(cs, n, expanded)
        for m, x in expanded.items():
            out[lat, m] = out.get((lat, m), 0) + x
    return den, {k: x for k, x in out.items() if x}


def _to_engine(v):
    """FockVector -> engine vector."""
    den = lcm(*(c.denominator for c in v.terms.values()))
    return den, {(k.gamma.lattice_rep(), k.modes):
                 c.numerator * (den // c.denominator)
                 for k, c in v.terms.items()}


def apply_word(factors, v):
    """prod (x_alpha (x) t^s)^m / m! on a vector, factors (alpha, s, m) given
    in the order they act, the j-th of the m actions dividing by j: one
    conversion in and out of the engine, whose output keys are rebuilt as
    validated FockKeys."""
    vec = _to_engine(v)
    run = ()  # the pairs of the current run's root
    for alpha, s, mult in factors:
        if not is_root(alpha):
            raise ValueError("alpha is not a root")
        alpha_lat = alpha.lattice_rep()
        cs = _alpha_simple_coeffs(alpha_lat)
        if cs != run:
            vec = _end_run(run, vec)
            run = cs
        direction = cs if len(cs) == 1 else ((0, 1),)  # the run placeholder
        for j in range(1, mult + 1):
            vec = _act_root(alpha_lat, s, vec, direction, j)
    den, terms = _end_run(run, vec)
    return FockVector(v.r, v.sector, {
        FockKey(FiniteWeight(v.r, lat), modes): Fraction(c, den)
        for (lat, modes), c in terms.items()})


def act_root_vector(alpha, s, v):
    """Action of the root vector x_alpha (x) t^s on a vector.

    alpha must be a root; the output lies in the weight space shifted by
    alpha + s delta.  Signs follow the fixed lattice sign table, with negative
    root vectors carrying the opposite normalization so the brackets of the
    matrix realization hold on the nose.
    """
    return apply_word(((alpha, s, 1),), v)


def weight_of(v):
    """Affine weight of a homogeneous vector (same gamma and energy on all keys)."""
    if v.is_zero():
        raise ValueError("zero vector has no weight")
    keys = list(v.terms)
    gamma = keys[0].gamma
    energy = keys[0].energy()
    for k in keys[1:]:
        if k.gamma != gamma or k.energy() != energy:
            raise ValueError("vector is not homogeneous")
    return AffineWeight(gamma, 1, -energy).assert_integral()


def graded_dim(r, i, gamma_q, m):
    """Dimension of the weight space t_gamma(Lambda_i) - m delta: the number
    of keys with lattice point varpi_i + gamma and mode sum m."""
    if gamma_q.class_index() != 0:
        raise ValueError("gamma must lie in the root lattice")
    if m < 0:
        return 0
    return len(colored_partitions(r, m))


def lattice_points(r, i, emax):
    """The lattice points of the sector-i module with energy at most emax, as
    (c, energy) in ascending order of c: c runs over the integer
    (r+1)-tuples with sum c = i and energy (sum c^2 - i) / 2 <= emax."""
    bound = 2 * emax + i

    def rec(prefix, q, left, k):
        # q: sum of squares so far; left: what the k remaining entries sum to
        if k == 1:
            if q + left * left <= bound:
                yield prefix + (left,), (q + left * left - i) // 2
            return
        # after an entry c the other k - 1 entries sum to left - c, so their
        # squares sum to at least (left - c)^2 / (k - 1); the c that keep
        # (k-1)(q + c^2 - bound) + (left - c)^2 <= 0 form one interval
        disc = (k - 1) * (k * (bound - q) - left * left)
        if disc < 0:
            return
        s = isqrt(disc)
        for c in range(-((s - left) // k), (left + s) // k + 1):
            yield from rec(prefix + (c,), q + c * c, left - c, k - 1)

    return rec((), 0, i, r + 1)


def enumerate_keys(r, i, emax):
    """All keys of the sector-i module with energy at most emax: by lattice
    point, then mode sum, then the multiset's pairs listed in (n, a) order."""
    modes_of = [sorted(colored_partitions(r, m),
                       key=lambda modes: sorted(modes, key=lambda p: p[::-1]))
                for m in range(emax + 1)]
    keys = []
    for c, e0 in lattice_points(r, i, emax):
        fw = FiniteWeight(r, c)
        for m in range(emax - e0 + 1):
            for modes in modes_of[m]:
                keys.append(FockKey(fw, modes))
    return keys

