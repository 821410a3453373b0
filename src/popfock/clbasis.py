"""Normalized basis vectors v_P in the level-one model and the verification
suite: weight law, stability, the intermediate per-restriction form, the
single-root collapse identities, spanning and chain inclusion, stable bases.

Monomial convention: repeated equal factors x (x) t^e inside one block are
taken with divided-power normalization (the product of m equal factors is
divided by m!).  Without this the lambda = 0 stability statement already
fails at k = 2, so the plain-product reading is untenable.
"""

from __future__ import annotations

from . import translate
from .fock import (FockKey, FockVector, apply_word, vacuum, weight_of,
                   zero_vector)
from .partitions import colored_count, fits_rectangle
from .pop import (depth, depth_total, enumerate_pops, is_stable, iter_pops,
                  shift_bijection_check)
from .rootdata import (AffineWeight, Lambda, bilinear, dominant_seqs,
                       fundamental, pos_root, theta, translate_weight,
                       weight_from_seq, zero_weight)
from .translate import Cocycle


class OperatorWord:
    """Ordered product of root-vector factors, applied right to left.

    Each factor is (root, t-exponent, multiplicity); a multiplicity-m factor
    means (x_root (x) t^e)^m / m!.  Factors sharing one root commute, so the
    exponent order inside a block is canonical (descending).
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorWord is immutable")

    def __mul__(self, other):
        return OperatorWord(self.factors + other.factors)

    def __repr__(self):
        return "OperatorWord(%r)" % (list(self.factors),)

    def apply(self, v):
        return apply_word(reversed(self.factors), v)


def cl_monomial(alpha, d, dprime, pi):
    """Block x^-_alpha(d, d', pi) = prod_{i=1}^{d} x^-_alpha (x) t^{d'-pi_i}."""
    if not fits_rectangle(pi, d, dprime):
        raise ValueError("partition does not fit rectangle (%d, %d)" % (d, dprime))
    expos = [dprime - pi.part(i) for i in range(1, d + 1)]
    mults = {}
    for e in expos:
        mults[e] = mults.get(e, 0) + 1
    neg = -alpha
    return OperatorWord(tuple((neg, e, m) for e, m in sorted(mults.items(),
                                                             reverse=True)))


def rho(P, k=0, s=1):
    """rho_{P^k_s}: row blocks p = s..r with the shifted parameters
    d_{p,j} + delta_{p,j} k and d'_{p,j} + delta_{1,p} k, overlay unshifted."""
    r = P.r
    if not 1 <= s <= r + 1:
        raise ValueError("restriction index out of range")
    word = OperatorWord()
    for p in range(s, r + 1):
        for j in range(p, r + 1):
            d = P.d(p, j) + (k if p == j else 0)
            dp = P.dprime(p, j) + (k if p == 1 else 0)
            word = word * cl_monomial(pos_root(r, p, j), d, dp, P.overlay[(p, j)])
    return word


def sign_eps(P, k=0, s=1):
    """Normalization sign of the shifted restricted monomial.

    Product over rows p = s..r of (-1)^floor((d_{p,p}+k)/2) times the
    cocycle values the operator collapse produces.  The cocycle is comp_eps,
    the composition constants of the translation operators, with the
    fundamental-weight part of the first argument dropped.  At k = 0 this is
    the plain row-by-row product over all cells."""
    return _row_pass(P, k, s)[0]


def _row_pass(P, k, s):
    """(sign_eps(P, k, s), the weight its row pass ends at).

    The pass takes the blocks d_{p,j} alpha_{p,j} (rows p = r..s, j = r..p,
    the shift k added on the diagonal) off nu = lam + k theta; each block
    contributes comp_eps(nu, block) with nu already reduced by it.  It ends
    at nu = lam + k alpha_{1,s-1} - sum_{i >= s} d_{i,j} alpha_{i,j}."""
    r = P.r
    coc = Cocycle(r)
    nu = weight_from_seq(P.bounding_seq()) + k * theta(r)
    total = 1
    for p in range(r, s - 1, -1):
        if ((P.d(p, p) + k) // 2) % 2:
            total = -total
        for j in range(r, p - 1, -1):
            block = (P.d(p, j) + (k if j == p else 0)) * pos_root(r, p, j)
            nu = nu - block
            total *= coc.comp_eps(nu, block)
    return total, nu


def highest_vector(lam, k=0):
    """w_{lam + k theta} = T_{lam + k theta} vacuum(0), in sector i_lam."""
    r = lam.r
    lamk = lam + k * theta(r)
    return translate.translate_amount(lamk, vacuum(r, 0))


def cl_vector(P, k=0, s=1):
    """Normalized basis vector of the shifted POP inside the sector-i_lam
    module; with s > 1, the signed restricted monomial on the same vector."""
    lam = weight_from_seq(P.bounding_seq())
    w = highest_vector(lam, k)
    return rho(P, k, s).apply(sign_eps(P, k, s) * w)


# ---------------------------------------------------------------------------
# exact sparse linear algebra over the rationals

def _reduce(row, pivots):
    """Eliminates pivot keys from row, smallest key first, until its smallest
    key has no pivot; returns (that key, the reduced row), or (None, {})."""
    row = {k: v for k, v in row.items() if v}
    while row:
        k0 = min(row, key=lambda k: k.sort_key())
        piv = pivots.get(k0)
        if piv is None:
            return k0, row
        f = row[k0]
        for k, v in piv.items():
            row[k] = row.get(k, 0) - f * v
        row = {k: v for k, v in row.items() if v}
    return None, row


def _echelon(rows):
    """Row echelon over Fraction; returns pivot dict key -> reduced row."""
    pivots = {}
    for row in rows:
        k0, row = _reduce(row, pivots)
        if k0 is not None:
            c = row[k0]
            pivots[k0] = {k: v / c for k, v in row.items()}
    return pivots


def rank_of(vectors):
    return len(_echelon([v.terms for v in vectors]))


def in_span(vectors, target):
    pivots = _echelon([v.terms for v in vectors])
    return _reduce(target.terms, pivots)[0] is None


# ---------------------------------------------------------------------------
# verification operations; every one returns a JSON-able report dict

def _report(check, inp, ok, witness=None):
    rep = {"check": check, "input": inp, "status": "pass" if ok else "fail"}
    if witness is not None:
        rep["witness"] = witness
    return rep


def _expected_weight(r, i, gamma, m):
    """t_gamma(Lambda_i) - m delta, gamma in the root lattice."""
    return (translate_weight(gamma, Lambda(r, i))
            - AffineWeight(zero_weight(r), 0, m))


def verify_weight(P, k=0, v=None):
    """Weight law: wt of v_{P^k} is t_{wt P - varpi}(Lambda_i) - d(P) delta,
    independent of k (artifact delta normalization).  v is cl_vector(P, k)
    when the caller has built it already."""
    i = weight_from_seq(P.bounding_seq()).class_index()
    if v is None:
        v = cl_vector(P, k)
    if v.is_zero():
        return _report("weight_law", {"pop": P.to_json(), "k": k}, False,
                       "vector vanished")
    got = weight_of(v)
    gamma_q = P.weight() - fundamental(P.r, i)
    want = _expected_weight(P.r, i, gamma_q, depth_total(P))
    ok = got == want
    wit = None if ok else {"got": got.to_json(), "want": want.to_json()}
    return _report("weight_law", {"pop": P.to_json(), "k": k}, ok, wit)


def verify_stability(P, kmax=2):
    """Stable POPs give bitwise-identical vectors for all shifts up to kmax."""
    if not is_stable(P):
        raise ValueError("POP is not stable")
    vs = [cl_vector(P, k) for k in range(kmax + 1)]
    base = vs[0]
    for k, v in enumerate(vs[1:], start=1):
        if v != base:
            diff = (v - base)
            first = min(diff.terms, key=lambda q: q.sort_key())
            return _report("stability", {"pop": P.to_json(), "kmax": kmax}, False,
                           {"k": k, "first_diff_key": repr(first),
                            "v0": base.dump_lines(), "vk": v.dump_lines()})
    return _report("stability", {"pop": P.to_json(), "kmax": kmax}, True)


def _mtp_side(P, k, s):
    """Left side of the intermediate form, pulled back to sector 0."""
    return translate.translate_amount_inverse(_row_pass(P, k, s)[1],
                                              cl_vector(P, k, s))


def verify_mtp(P, s=1):
    """Checkable content of the intermediate theorem at restriction s, one
    report for k = 0 and one for k = 1: (i) pure-mode support after the
    inverse translation, (ii) weight Lambda_0 - d(P_s) delta, (iii) equality
    of the k and k+1 computations.  Each side f_0, f_1, f_2 is built once."""
    r = P.r
    rest = depth(P)["restricted"]
    for l in range(s, r + 1):
        if P.d(l, l) < rest[l]:
            raise ValueError("hypothesis d_{l,l} >= d(P_l) fails at l=%d" % l)
    sides = [_mtp_side(P, k, s) for k in (0, 1, 2)]
    want = AffineWeight(zero_weight(r), 1, -rest[s] if s <= r else 0)
    return [_mtp_report({"pop": P.to_json(), "k": k, "s": s},
                        sides[k], sides[k + 1], want) for k in (0, 1)]


def _mtp_report(inp, f_k, f_k1, want):
    """verify_mtp's report at one k; want is the weight of f_k."""
    origin = want.finite
    for key in list(f_k.terms) + list(f_k1.terms):
        if key.gamma != origin:
            return _report("mtp", inp, False,
                           {"reason": "support off the pure-mode subspace",
                            "key": repr(key)})
    if f_k.is_zero():
        return _report("mtp", inp, False, {"reason": "vector vanished"})
    got = weight_of(f_k)
    if got != want:
        return _report("mtp", inp, False,
                       {"reason": "weight", "got": got.to_json(),
                        "want": want.to_json()})
    if f_k != f_k1:
        return _report("mtp", inp, False,
                       {"reason": "depends on k", "f_k": f_k.dump_lines(),
                        "f_k1": f_k1.dump_lines()})
    return _report("mtp", inp, True)


def _crucprop_collapsed(alpha, d, dprime, pi, mu, g_modes, m):
    """f-vector extracted from x^-_alpha(d,d',pi) T_mu g_m vacuum."""
    r = alpha.r
    g_vacuum = zero_vector(r)
    for modes, c in g_modes:
        g_vacuum += FockVector(r, 0, {FockKey(zero_weight(r), modes): c})
    lhs = cl_monomial(alpha, d, dprime, pi).apply(
        translate.translate_amount(mu, g_vacuum))
    coc = Cocycle(r)
    sign = coc.comp_eps(mu - d * alpha, d * alpha)
    if (d // 2) % 2:
        sign = -sign
    pulled = translate.translate_amount_inverse(mu - d * alpha, lhs)
    return lhs, sign * pulled


def verify_crucprop(alpha, d, dprime, pi, mu, g_modes, m, collapsed=None):
    """Weight formula (always) and the collapse to a translation of a pure-mode
    vector independent of d and d' (when d >= |pi| + m).  With mu = d alpha
    (so d' = d), g = 1 and m = 0 both translations are trivial and this is
    the single-root collapse: (-1)^floor(d/2) x^-_alpha(d, d, pi) T_{d alpha}
    vacuum depends on pi only.

    g_modes: (mode tuple, coefficient) pairs describing the polynomial whose
    value on the vacuum has weight Lambda_0 - m delta.  collapsed: a suite's
    memoized _crucprop_collapsed, which computes each shared reference once.
    """
    collapsed = collapsed or _crucprop_collapsed
    r = alpha.r
    if bilinear(mu, alpha) != d + dprime:
        raise ValueError("need (mu|alpha) = d + d'")
    inp = {"alpha": alpha.to_json(), "d": d, "dprime": dprime,
           "pi": pi.to_json(), "mu": mu.to_json(), "m": m}
    lhs, f_vec = collapsed(alpha, d, dprime, pi, mu, g_modes, m)
    if lhs.is_zero():
        return _report("crucprop", inp, False, {"reason": "vector vanished"})
    target = mu - d * alpha
    i = target.class_index()
    want = _expected_weight(r, i, target - fundamental(r, i), pi.size() + m)
    got = weight_of(lhs)
    if got != want:
        return _report("crucprop", inp, False,
                       {"reason": "weight", "got": got.to_json(),
                        "want": want.to_json()})
    if d < pi.size() + m:
        return _report("crucprop", inp, True, {"scope": "weight only"})
    origin = zero_weight(r)
    for key in f_vec.terms:
        if key.gamma != origin:
            return _report("crucprop", inp, False,
                           {"reason": "support off the pure-mode subspace"})
    # reference instance with the smallest admissible d and d'
    d_ref = pi.size() + m
    dp_ref = pi.part(1)
    mu_ref = _mu_with_pairing(alpha, d_ref + dp_ref)
    _, f_ref = collapsed(alpha, d_ref, dp_ref, pi, mu_ref, g_modes, m)
    if f_vec != f_ref:
        return _report("crucprop", inp, False,
                       {"reason": "depends on d or d'",
                        "f": f_vec.dump_lines(), "f_ref": f_ref.dump_lines()})
    return _report("crucprop", inp, True)


def _mu_with_pairing(alpha, value):
    """A dominant weight mu with (mu|alpha) = value, alpha a positive root."""
    lat = alpha.lattice_rep()
    i = lat.index(1) + 1
    return value * fundamental(alpha.r, i)


def weyl_span(lam, steps=1):
    """Chain data: the vectors of each P(lam + j theta) are independent and
    each span embeds in the next one weight space by weight space."""
    r = lam.r
    levels = []
    for j in range(steps + 1):
        levels.append([cl_vector(P, 0)
                       for P in iter_pops((lam + j * theta(r)).coords)])
    dims = [len(v) for v in levels]
    for j, vecs in enumerate(levels):
        if rank_of(vecs) != len(vecs):
            return _report("weyl_span", {"lambda": lam.to_json(), "steps": steps},
                           False, {"reason": "dependent at level %d" % j})
    for j in range(steps):
        lower = levels[j]
        upper = levels[j + 1]
        by_weight = {}
        for v in upper:
            by_weight.setdefault(weight_of(v), []).append(v)
        for v in lower:
            grp = by_weight.get(weight_of(v), [])
            if not in_span(grp, v):
                return _report("weyl_span",
                               {"lambda": lam.to_json(), "steps": steps}, False,
                               {"reason": "chain inclusion fails at level %d" % j,
                                "weight": weight_of(v).to_json()})
    return _report("weyl_span", {"lambda": lam.to_json(), "steps": steps}, True,
                   {"dims": dims})


def _candidate_lambdas(r, i, max_total):
    """Dominant weights of class index i and sequence total at most
    max_total, by total then lex sequence."""
    for total in range(i, max_total + 1, r + 1):
        for seq in dominant_seqs(r, total):
            yield weight_from_seq(seq)


def stable_basis(i, gamma, d):
    """Basis of the weight space t_gamma(Lambda_i) - d delta from POPs of
    depth d at shift k = d, with k-independence checked at k = d + 1.

    lambda is the smallest dominant weight (total then lex sequence) in the
    right coset whose unshifted depth-d POP set of weight mu is already full
    (its cardinality is the colored-partition count, at least 1, so mu is a
    weight of V(lambda)).  The fullness condition is forced: without it the
    shifted index set picks up members that are not shift images, they fail
    the diagonal bound and the basis genuinely depends on k (observed at
    rank 2 with the zero weight and d = 2).  The search stops at the total
    of mu^+ + d theta, the candidate that has always qualified; past it the
    report fails with reason "no candidate"."""
    if gamma.class_index() != 0:
        raise ValueError("gamma must lie in the root lattice")
    r = gamma.r
    mu = fundamental(r, i) + gamma
    expected = colored_count(r, d)
    mu_plus = sorted(mu.coords, reverse=True)
    max_total = sum(mu_plus) - (r + 1) * mu_plus[-1] + d * (r + 1)
    lam = None
    for cand in _candidate_lambdas(r, i, max_total):
        if len(enumerate_pops(cand.coords, weight=mu,
                              depth_filter=d)) == expected:
            lam = cand
            break
    inp = {"i": i, "gamma": gamma.to_json(), "d": d}
    if lam is None:
        return [], _report("stable_basis", inp, False,
                           {"reason": "no candidate"})
    inp["lambda_seq"] = list(lam.coords)

    def build(k):
        """The vectors of P(lam + k theta)_{mu, d}, or a failed report."""
        pops, rep = shift_bijection_check(lam, mu, d, k)
        if rep["status"] != "pass":
            return None, _report("stable_basis", inp, False,
                                 dict(rep["witness"], k=k))
        return [cl_vector(P, 0) for P in pops], None

    vecs, bad = build(d)
    if bad:
        return [], bad
    if rank_of(vecs) != len(vecs):
        return [], _report("stable_basis", inp, False,
                           {"reason": "not independent"})
    want = _expected_weight(r, i, gamma, d)
    for v in vecs:
        if weight_of(v) != want:
            return [], _report("stable_basis", inp, False,
                               {"reason": "weight", "got": weight_of(v).to_json()})
    vecs_next, bad = build(d + 1)
    if bad:
        return [], bad
    key = lambda v: tuple(v.dump_lines())
    if sorted(map(key, vecs)) != sorted(map(key, vecs_next)):
        return [], _report("stable_basis", inp, False,
                           {"reason": "depends on k"})
    return vecs, _report("stable_basis", inp, True, {"size": len(vecs)})
