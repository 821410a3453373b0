"""Exact lattice Fock model of the level-one modules of affine sl_{r+1}.

The sector-i module is realized on the span of keys (gamma, modes) with gamma
in varpi_i + Q and modes a multiset of creation labels (a, n), a a simple-root
direction and n >= 1.  Root vectors act through vertex operators; since source
and target weight spaces are finite dimensional, every coefficient extraction
is a finite exact computation over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, factorial, gcd, isqrt, lcm, prod
from operator import itemgetter, mul

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
# Every root action is a block: a run of consecutive factors with one root
# beta, prod_i (x_beta (x) t^{s_i})^{m_i} / m_i!, of d = sum m_i factors.
# apply_word applies each run of a word as one block, and the bracket sweep
# applies single factors as blocks with d = 1.  By the Frenkel-Kac operator
# product, on e^gamma (x) u
#   x_beta(z_1) ... x_beta(z_d) = eps(beta, beta)^{d(d-1)/2}
#       eps(beta, gamma)^d prod_{i<j} (z_i - z_j)^2 prod_k z_k^{(beta|gamma)}
#       E^-(z_1) ... E^-(z_d) E^+(z_1) ... E^+(z_d) e^{gamma + d beta} (x) u,
# eps(beta, beta) = -1, and each negative root vector carries a sign -1.  The
# annihilators turn each mode (b, n) they remove into the power sum
# p_{-n}(z) = sum_k z_k^{-n} (_annihilation_terms); by the Cauchy identity the
# creators are sum_lambda s_lambda(z) s_lambda[beta(-n)], and
# prod_{i<j} (z_i - z_j)^2 s_lambda(z) = a_delta a_{lambda+delta}, a product
# of alternants.  The block's coefficient of prod_k z_k^{-s_k-1} is thus a sum
# of Schur polynomials s_lambda[beta(-n)] (_schur_terms), each mode beta(-n)
# created as sum_b c_b alpha_b(-n) in the simple-root labels of beta, with the
# alternant coefficients of _alternant_coeffs.  The image depends on gamma
# only through (beta|gamma), which shifts every s_k, the sign eps(beta, gamma)^d
# and the shift gamma -> gamma + d beta: _block_images computes one image per
# translation class (beta, ((s_i + (beta|gamma), m_i), ...), u) into the table
# it is given, _ROOT_ACTION_CACHE for words and a table of the sweep's own for
# the bracket sweep.  tests/oracles.py applies the same words factor by
# factor, with Fraction coefficients.


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
    of (kept modes tuple, int coefficient, J), J the sorted tuple of the
    annihilated degrees."""
    results = [((), 1, ())]
    for (b, n), run in groupby(modes):
        mult = len(list(run))
        c = alpha_lat[b] - alpha_lat[b - 1]  # -(alpha | alpha_b)
        new = []
        for kept, coeff, J in results:
            for j in range(mult + 1 if c else 1):
                new.append((kept + ((b, n),) * (mult - j),
                            coeff * comb(mult, j) * c ** j, J + (n,) * j))
        results = new
    return [(kept, coeff, tuple(sorted(J))) for kept, coeff, J in results]


_ROOT_ACTION_CACHE = {}


@lru_cache(maxsize=None)
def _alternant_coeffs(t):
    """The coefficients F_lambda = [z^t] a_delta a_{lambda+delta} for a
    sorted tuple t of d ints, delta = (d-1, ..., 0): a dict lambda -> int.

    F_lambda sums sgn(D) sgn(w) over the arrangements D of delta's entries
    with w = t - D distinct and >= 0, lambda + delta being w sorted, and sgn
    (-1) to the number of pairs k < l that ascend.  Rearranging D within a run
    of g equal entries of t rearranges w alike and keeps the term, so each
    run takes its entries in descending order, counted g! times."""
    d = len(t)
    weight = prod(factorial(len(list(g))) for _, g in groupby(t))
    out = {}

    def rec(k, D, w):
        if k == d:
            ascents = sum((D[p] < D[q]) != (w[p] < w[q])
                          for q in range(d) for p in range(q))
            lam = tuple(filter(None, (x - (d - 1 - p) for p, x in
                                      enumerate(sorted(w, reverse=True)))))
            out[lam] = out.get(lam, 0) + (-weight if ascents % 2 else weight)
            return
        top = min(t[k], D[-1] - 1 if k and t[k] == t[k - 1] else d - 1)
        for x in range(top, -1, -1):
            if x not in D and t[k] - x not in w:
                rec(k + 1, D + (x,), w + (t[k] - x,))

    rec(0, (), ())
    return {lam: c for lam, c in out.items() if c}


@lru_cache(maxsize=None)
def _schur_terms(cs, lam):
    """|lam|! times the Schur polynomial s_lam = det(h_{lam_i - i + j}) in
    the modes alpha(-n) created in the label pairs cs, h_c being
    _creation_terms(cs, c) / c!: a dict mode tuple -> int.

    The determinant is expanded row by row: after the rows of lam placed in
    the set of columns `cols`, the degree is fixed, and the partial sum times
    that degree's factorial is integral."""
    partial = {(): (0, {(): 1})}  # cols -> (degree, integral partial sum)
    for i, part in enumerate(lam):
        nxt = {}
        for cols, (deg, poly) in partial.items():
            for j in range(len(lam)):
                c = part - i + j
                if j in cols or c < 0:
                    continue
                sign = -1 if sum(x > j for x in cols) % 2 else 1
                f = sign * comb(deg + c, c)
                h = _creation_terms(cs, c)
                key = tuple(sorted(cols + (j,)))
                acc = nxt.setdefault(key, (deg + c, {}))[1]
                for m1, x1 in poly.items():
                    for m2, x2 in h.items():
                        nm = tuple(sorted(m1 + m2))
                        acc[nm] = acc.get(nm, 0) + f * x1 * x2
        partial = nxt
    (_, poly), = partial.values()
    return {m: x for m, x in poly.items() if x}


def _block_kernel(alpha_lat, expos, modes):
    """prod_i m_i! times the block prod_i (x_alpha (x) t^{s_i})^{m_i} / m_i!,
    expos the pairs (s_i, m_i), on a key (gamma, modes) with
    (alpha | gamma) = 0, creating its modes in the simple-root labels of
    alpha, and with gamma's sign and shift left out: (L, {modes: int}), the
    image being the ints over L = c!, c the largest creation degree used."""
    cs = _alpha_simple_coeffs(alpha_lat)
    d = sum(m for _, m in expos)
    t = tuple(sorted(-s - 1 for s, m in expos for _ in range(m)))
    sign = -1 if d * (d - 1) // 2 % 2 else 1  # eps(alpha, alpha) = -1
    if d % 2 and alpha_lat.index(1) > alpha_lat.index(-1):  # negative root
        sign = -sign
    # |lambda| = sum(t) + sum(J) - d(d-1), as a_delta^2 has degree d(d-1)
    base = sum(t) - d * (d - 1)
    by_J = {}
    for kept, acoef, J in _annihilation_terms(alpha_lat, modes):
        if base + sum(J) >= 0:
            by_J.setdefault(J, []).append((kept, acoef))
    if not by_J:
        return 1, {}
    L = factorial(base + max(sum(J) for J in by_J))
    by_modes = {}
    for J, kepts in by_J.items():
        # prod_{n in J} p_{-n}(z) = sum_b N_b z^{-b}, and [z^t] of z^{-b}
        # a_delta a_{lambda+delta} is F_lambda(t + b), symmetric in t + b
        shifts = {t: 1}
        for n in J:
            nxt = {}
            for tb, N in shifts.items():
                for k in range(d):
                    up = tuple(sorted(tb[:k] + (tb[k] + n,) + tb[k + 1:]))
                    nxt[up] = nxt.get(up, 0) + N
            shifts = nxt
        created = {}
        for tb, N in shifts.items():
            for lam, F in _alternant_coeffs(tb).items():
                for m, x in _schur_terms(cs, lam).items():
                    created[m] = created.get(m, 0) + N * F * x
        scale = sign * (L // factorial(base + sum(J)))
        for kept, acoef in kepts:
            acoef *= scale
            for m, x in created.items():
                nm = tuple(sorted(kept + m))
                by_modes[nm] = by_modes.get(nm, 0) + acoef * x
    return L, {m: c for m, c in by_modes.items() if c}


def _block_images(alpha_lat, expos, keys, classes):
    """The block prod_i (x_alpha (x) t^{s_i})^{m_i} / m_i!, expos the pairs
    (s_i, m_i), on each engine key (gamma, modes) of keys: a list of
    (gamma + d alpha, sign, (L, {modes: int})), the image being sign times
    the ints over L prod_i m_i!.  The image of each key's translation class
    is looked up in, or computed into, the dict classes."""
    d = sum(m for _, m in expos)
    out = []
    for lat, modes in keys:
        # (alpha | gamma) on lattice representatives: exact as sum(alpha) = 0
        p = sum(map(mul, alpha_lat, lat))
        ck = (alpha_lat, tuple([(s + p, m) for s, m in expos]), modes)
        hit = classes.get(ck)
        if hit is None:
            hit = classes[ck] = _block_kernel(*ck)
        sign = -1 if d % 2 and eps_tilde(alpha_lat, lat) < 0 else 1
        out.append((tuple([d * a + g for a, g in zip(alpha_lat, lat)]), sign,
                    hit))
    return out


def _apply_block(alpha_lat, expos, vec):
    """The block prod_i (x_alpha (x) t^{s_i})^{m_i} / m_i!, expos the pairs
    (s_i, m_i), on an engine vector, with _ROOT_ACTION_CACHE as the table of
    translation classes."""
    den, terms = vec
    images = _block_images(alpha_lat, expos, terms, _ROOT_ACTION_CACHE)
    # every L is a factorial, so the largest is a common multiple
    top = max((L for _, _, (L, _) in images), default=1)
    out = {}
    for (new_lat, sign, (L, image)), c in zip(images, terms.values()):
        c *= sign * (top // L)
        for m, x in image.items():
            out[new_lat, m] = out.get((new_lat, m), 0) + c * x
    out = {k: x for k, x in out.items() if x}
    den *= top * prod(factorial(m) for _, m in expos)
    g = gcd(den, *out.values())
    return den // g, {k: x // g for k, x in out.items()}


def _to_engine(v):
    """FockVector -> engine vector."""
    den = lcm(*(c.denominator for c in v.terms.values()))
    return den, {(k.gamma.lattice_rep(), k.modes):
                 c.numerator * (den // c.denominator)
                 for k, c in v.terms.items()}


def apply_word(factors, v):
    """prod (x_alpha (x) t^s)^m / m! on a vector, factors (alpha, s, m) given
    in the order they act: one conversion in and out of the engine, whose
    output keys are rebuilt as validated FockKeys.  Each run of consecutive
    factors with one root is applied as one block."""
    vec = _to_engine(v)
    for alpha, run in groupby(factors, key=itemgetter(0)):
        if not is_root(alpha):
            raise ValueError("alpha is not a root")
        expos = tuple((s, m) for _, s, m in run)
        vec = _apply_block(alpha.lattice_rep(), expos, vec)
    den, terms = vec
    return FockVector(v.r, v.sector, {
        FockKey(FiniteWeight(v.r, lat), modes): Fraction(c, den)
        for (lat, modes), c in terms.items()})


def clear_caches():
    """Empties the engine's memos, so that a CLI run starts cold."""
    _ROOT_ACTION_CACHE.clear()
    for memo in (_creation_terms, _alternant_coeffs, _schur_terms):
        memo.cache_clear()


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

