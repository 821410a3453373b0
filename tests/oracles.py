"""Slow, independent implementations that the tests compare the library
against: pattern statistics and the depth table read from the pattern
entries, brute-force POP enumeration, the column-grouped basis operator,
direct constructions of Heisenberg polynomials, and the root action on
FockKeys with Fraction coefficients.  Also the helpers only the tests use:
the shift of patterns and POPs, restriction, the Chevalley generators, the
positive-root test, and the keys of one weight space, which are built from
the library's own colored_partitions and so are not independent of it."""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from popfock.clbasis import OperatorWord, cl_monomial
from popfock import fock
from popfock.fock import (FockKey, FockVector, _alpha_simple_coeffs,
                          _times_alpha_mode, act_heisenberg, zero_vector)
from popfock.gtpattern import GTPattern
from popfock.partitions import colored_partitions, enumerate_rect
from popfock.pop import POP
from popfock.rootdata import (FiniteWeight, bilinear, fundamental, is_root,
                              pos_root, simple_root, theta)
from popfock.translate import eps_tilde


def is_positive_root(x):
    if not is_root(x):
        return False
    lat = x.lattice_rep()
    return lat.index(1) < lat.index(-1)


def shift(P, k):
    """Shift by k: bounding sequence becomes lambda-seq + k * theta-seq.

    Entry rule: +2k in the first column (rows below the apex), unchanged on the
    diagonal (rows below the apex), +k elsewhere.
    """
    if k < 0:
        raise ValueError("shift amount must be nonnegative")
    rows = []
    for j in range(1, P.r + 2):
        row = []
        for i in range(1, j + 1):
            v = P.entry(i, j)
            if i == 1 and 1 < j:
                row.append(v + 2 * k)
            elif 1 < i == j:
                row.append(v)
            else:
                row.append(v + k)
        rows.append(row)
    return GTPattern(rows)


def shift_pop(P, k):
    """Shift of the POP: pattern shifted by k, overlay unchanged."""
    return POP(shift(P.pattern, k), dict(P.overlay))


def restrict(P, s):
    """Restriction P_s: rows are the suffixes starting at column s; rank drops."""
    r = P.r
    if not 1 <= s <= r + 1:
        raise ValueError("restriction index out of range")
    if s == r + 1:
        return None
    rows = [tuple(P.pattern.rows[j - 1][s - 1:]) for j in range(s, r + 2)]
    overlay = {(i - s + 1, j - s + 1): P.overlay[(i, j)]
               for (i, j) in P.overlay if i >= s}
    return POP(GTPattern(rows), overlay)


def slow_stats(P):
    """The statistics of gtpattern.stats, each from its definition and the
    entries of P; the tables are dicts over the cells (i, j)."""
    r = P.r
    cells = [(i, j) for j in range(1, r + 1) for i in range(1, j + 1)]
    d = {(i, j): P.entry(i, j + 1) - P.entry(i, j) for (i, j) in cells}
    dp = {(i, j): P.entry(i, j) - P.entry(i + 1, j + 1) for (i, j) in cells}
    sums = [sum(P.entry(i, j) for i in range(1, j + 1))
            for j in range(1, r + 2)]
    wt = FiniteWeight(r, [sums[0]] + [sums[j] - sums[j - 1]
                                      for j in range(1, r + 1)])
    lam = FiniteWeight(r, [P.entry(i, r + 1) for i in range(1, r + 2)])
    return {
        "wt": wt, "d": d, "dprime": dp,
        "trap_depth": {(i, j): d[(i, j)] * sum(dp[(p, j)]
                                               for p in range(i + 1, j + 1))
                       for (i, j) in cells},
        "tri_area": sum(d[c] * dp[c] for c in cells),
        "trap_area": sum(d[(i, j)] * sum(dp[(p, j)] for p in range(i, j + 1))
                         for (i, j) in cells),
        "norm_half_diff": (bilinear(lam, lam) - bilinear(wt, wt)) / 2}


def slow_cell_depths(P):
    """d^j_i = d_{i,j} * sum_{p=i+1}^{j} d'_{p,j} + |pi(j)^i| for a POP."""
    trap = slow_stats(P.pattern)["trap_depth"]
    return {c: trap[c] + P.overlay[c].size() for c in trap}


def act_chevalley(p, kind, v):
    """Chevalley generators: e_0 = x^-_{1,r} (x) t, f_0 = x^+_{1,r} (x) t^{-1},
    e_i = x^+_{i,i}, f_i = x^-_{i,i}, through the library's root action."""
    r = v.r
    if not 0 <= p <= r:
        raise ValueError("Chevalley index out of range")
    if kind not in ("e", "f"):
        raise ValueError("kind must be 'e' or 'f'")
    if p == 0:
        alpha, s = (-theta(r), 1) if kind == "e" else (theta(r), -1)
    else:
        alpha, s = (simple_root(r, p), 0) if kind == "e" else (-simple_root(r, p), 0)
    return fock.act_root_vector(alpha, s, v)


def enumerate_pops_bruteforce(lamseq, weight=None, depth_filter=None):
    """Independent enumerator used as an oracle: brute force over entry boxes."""
    lamseq = tuple(int(x) for x in lamseq)
    n = len(lamseq)
    r = n - 1
    patterns = []

    def rec_rows(rows_bottom_up):
        below = rows_bottom_up[-1]
        if len(below) == 1:
            try:
                patterns.append(GTPattern(list(reversed(rows_bottom_up))))
            except ValueError:
                pass
            return
        j = len(below) - 1
        lo = min(below)
        hi = max(below)

        def rec_row(row):
            if len(row) == j:
                ok = all(below[i] >= row[i] >= below[i + 1] for i in range(j))
                if ok:
                    rec_rows(rows_bottom_up + [row])
                return
            for v in range(lo, hi + 1):
                rec_row(row + [v])

        rec_row([])

    rec_rows([list(lamseq)])
    out = []
    for pattern in patterns:
        st = slow_stats(pattern)
        if weight is not None and st["wt"] != weight:
            continue
        cells = sorted(st["d"], key=lambda ij: (ij[1], ij[0]))
        stacks = [[]]
        for (i, j) in cells:
            opts = enumerate_rect(st["d"][(i, j)], st["dprime"][(i, j)])
            stacks = [acc + [pi] for acc in stacks for pi in opts]
        for acc in stacks:
            P = POP(pattern, dict(zip(cells, acc)))
            if (depth_filter is not None
                    and sum(slow_cell_depths(P).values()) != depth_filter):
                continue
            out.append(P)
    return out


def rho_column(P, k=0, s=1):
    """Column-grouped form of the same operator; agrees with rho as an operator."""
    r = P.r
    word = OperatorWord()
    for j in range(s, r + 1):
        for i in range(s, j + 1):
            d = P.d(i, j) + (k if i == j else 0)
            dp = P.dprime(i, j) + (k if i == 1 else 0)
            word = word * cl_monomial(pos_root(r, i, j), d, dp, P.overlay[(i, j)])
    return word


def weight_space_keys(r, i, gamma_q, m):
    g = fundamental(r, i) + gamma_q
    return [FockKey(g, modes) for modes in colored_partitions(r, m)]


def apply_poly(terms, v):
    """Apply a polynomial in Heisenberg modes given as {modes tuple: coeff}."""
    out = zero_vector(v.r, v.sector)
    for modes, coeff in terms.items():
        w = v * coeff
        for a, n in reversed(modes):
            w = act_heisenberg(a, -n, w)
        out = out + w
    return out


# The root action as the library computed it before its integer engine: one
# FockKey and one Fraction per produced term.

@lru_cache(maxsize=None)
def _creation_terms(r, alpha_coords, degree):
    """Coefficient of z^degree in exp(sum_n alpha(-n) z^n / n): list of
    (mode tuple, Fraction) in the monomial mode basis."""
    alpha = FiniteWeight(r, alpha_coords)
    cs = _alpha_simple_coeffs(alpha.lattice_rep())
    # polynomial in z, coefficients are dicts mode-tuple -> Fraction
    poly = [dict() for _ in range(degree + 1)]
    poly[0][()] = Fraction(1)
    for n in range(1, degree + 1):
        # multiply by exp(alpha(-n) z^n / n), truncated at z^degree
        base = [dict(p) for p in poly]
        power = {(): Fraction(1)}  # alpha(-n)^j / (n^j j!) expanded
        for j in range(1, degree // n + 1):
            power = {m: c / (n * j)
                     for m, c in _times_alpha_mode(cs, n, power).items()}
            for deg in range(0, degree + 1 - n * j):
                src = base[deg]
                if not src:
                    continue
                dst = poly[deg + n * j]
                for m1, c1 in src.items():
                    for m2, c2 in power.items():
                        nm = tuple(sorted(m1 + m2))
                        prev = dst.get(nm, 0)
                        val = prev + c1 * c2
                        if val:
                            dst[nm] = val
                        elif nm in dst:
                            del dst[nm]
    return tuple((m, c) for m, c in sorted(poly[degree].items()) if c)


def _annihilation_terms(alpha_lat, key):
    """Expansion of the annihilation exponential against the key's modes:
    list of (kept modes tuple, coefficient, annihilated degree)."""
    pairs = []
    for (b, n), mult in sorted(key.mode_multiplicities().items()):
        c = alpha_lat[b - 1] - alpha_lat[b]  # (alpha | alpha_b)
        pairs.append(((b, n), mult, -c))
    results = [((), 1, 0)]
    for (b, n), mult, c in pairs:
        new = []
        for kept, coeff, deg in results:
            for j in range(mult + 1):
                if j and c == 0:
                    break
                w = coeff * comb(mult, j) * (c ** j if j else 1)
                new.append((kept + ((b, n),) * (mult - j), w, deg + j * n))
        results = new
    return results


_ROOT_ACTION_CACHE = {}


def _act_root_on_key(r, alpha, s, key):
    """x_alpha (x) t^s applied to a single key; cached."""
    ck = (alpha, s, key)
    hit = _ROOT_ACTION_CACHE.get(ck)
    if hit is None:
        hit = _ROOT_ACTION_CACHE[ck] = _root_action_kernel(r, alpha, s, key)
    return hit


def _root_action_kernel(r, alpha, s, key):
    """x_alpha (x) t^s applied to a single key, uncached: {FockKey: Fraction}.

    A coefficient's denominator divides c! for the largest creation degree c
    it uses, and c is at most the energy of the output key."""
    eta = 1 if is_positive_root(alpha) else -1
    alpha_lat = alpha.lattice_rep()
    gamma_lat = key.gamma.lattice_rep()
    # (alpha | gamma) on lattice representatives: exact because sum(alpha) = 0
    p0 = sum(a * g for a, g in zip(alpha_lat, gamma_lat))
    base = -s - 1 - p0
    sign0 = eta * eps_tilde(alpha_lat, gamma_lat)
    # summed by mode multiset first, so each output key is built once
    by_modes = {}
    for kept, acoef, adeg in _annihilation_terms(alpha_lat, key):
        cdeg = base + adeg
        if cdeg < 0 or acoef == 0:
            continue
        acoef *= sign0
        for created, ccoef in _creation_terms(r, alpha.coords, cdeg):
            modes = tuple(sorted(kept + created))
            by_modes[modes] = by_modes.get(modes, 0) + acoef * ccoef
    new_gamma = key.gamma + alpha
    return {FockKey(new_gamma, modes): c
            for modes, c in by_modes.items() if c}


def act_root_vector(alpha, s, v):
    """Action of the root vector x_alpha (x) t^s on a vector.

    alpha must be a root; the output lies in the weight space shifted by
    alpha + s delta.  Signs follow the fixed lattice sign table, with negative
    root vectors carrying the opposite normalization so the brackets of the
    matrix realization hold on the nose.
    """
    if not is_root(alpha):
        raise ValueError("alpha is not a root")
    terms = {}
    for key, coeff in v.terms.items():
        for nk, c in _act_root_on_key(v.r, alpha, s, key).items():
            val = terms.get(nk, 0) + coeff * c
            if val:
                terms[nk] = val
            elif nk in terms:
                del terms[nk]
    return FockVector(v.r, v.sector, terms)


def apply_word(word, v):
    """An OperatorWord applied factor by factor through act_root_vector."""
    for root, expo, mult in reversed(word.factors):
        for _ in range(mult):
            v = act_root_vector(root, expo, v)
        if mult > 1:
            v = v * Fraction(1, factorial(mult))
    return v
