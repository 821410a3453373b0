"""Partition overlaid patterns: depth, invariant sets, stability predicate,
enumeration, and the area identity."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from . import gtpattern
from .gtpattern import GTPattern
from .partitions import (Partition, colored_partitions, enumerate_rect,
                         fits_rectangle)
from .rootdata import theta


class POP:
    """A GT pattern together with a partition in each (i,j) rectangle.

    Overlay keys (i,j) for 1 <= i <= j <= r are always present, even when the
    rectangle is degenerate (the partition is then forced empty), in the
    cell order of the pattern's tables.
    """

    __slots__ = ("pattern", "overlay", "r")

    def __init__(self, pattern, overlay=None):
        overlay = overlay or {}
        st = pattern.tables()
        full = {}
        for cell, d, dp in zip(st.cells, st.d, st.dprime):
            pi = overlay.get(cell)
            if pi is None:
                pi = Partition(())
            elif not fits_rectangle(pi, d, dp):
                raise ValueError(
                    "overlay partition at (i=%d, j=%d) does not fit rectangle (%d, %d)"
                    % (cell + (d, dp)))
            full[cell] = pi
        unknown = [cell for cell in overlay if cell not in full]
        if unknown:
            raise ValueError("overlay keys out of range: %r" % (sorted(unknown),))
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "overlay", full)
        object.__setattr__(self, "r", pattern.r)

    def __setattr__(self, name, value):
        raise AttributeError("POP is immutable")

    def __eq__(self, other):
        return (isinstance(other, POP) and self.pattern == other.pattern
                and self.overlay == other.overlay)

    def __hash__(self):
        return hash((self.pattern, tuple(sorted(self.overlay.items(),
                                                key=lambda kv: kv[0]))))

    def __repr__(self):
        ov = {k: list(v.parts) for k, v in sorted(self.overlay.items())}
        return "POP(%r, %r)" % (self.pattern, ov)

    def bounding_seq(self):
        return self.pattern.bounding_seq()

    def weight(self):
        return self.pattern.tables().wt

    def d(self, i, j):
        st = self.pattern.tables()
        return st.d[st.index(i, j)]

    def dprime(self, i, j):
        st = self.pattern.tables()
        return st.dprime[st.index(i, j)]

    def overlay_size(self):
        return sum(pi.size() for pi in self.overlay.values())

    def to_json(self):
        obj = self.pattern.to_json()
        obj["overlay"] = {"%d,%d" % k: v.to_json()
                          for k, v in sorted(self.overlay.items())}
        return obj

    @classmethod
    def from_json(cls, obj):
        """The POP of a decoded JSON object, whose entries must be integers."""
        rows, overlay = obj["rows"], obj.get("overlay", {})
        return cls(GTPattern(rows),
                   {tuple(int(t) for t in key.split(",")): Partition(parts)
                    for key, parts in overlay.items()})


def depth(P):
    """Per-cell depths d^j_i = d_{i,j} * sum_{p=i+1}^{j} d'_{p,j} + |pi(j)^i|
    and restricted depths d(P_s), 1 <= s <= r+1; d(P) is depth_total(P)."""
    table = {cell: trap + pi.size() for (cell, pi), trap
             in zip(P.overlay.items(), P.pattern.tables().trap_depth)}
    restricted = {}
    for s in range(1, P.r + 2):
        restricted[s] = sum(v for (i, j), v in table.items() if i >= s)
    return {"table": table, "restricted": restricted}


def depth_total(P):
    return sum(P.pattern.tables().trap_depth) + P.overlay_size()


def area_identity(P):
    """Check trapezoidal = triangular + depth - overlay and the norm identity.

    trap(P) = tri(P) + d(P) - sum|pi| = ((lambda|lambda) - (wt|wt)) / 2,
    all exactly; returns (ok, diagnostics).
    """
    st = P.pattern.tables()
    lhs = st.trap_area
    mid = st.tri_area + depth_total(P) - P.overlay_size()
    rhs = st.norm_half_diff
    ok = Fraction(lhs) == Fraction(mid) == rhs
    return ok, {"trap": lhs, "tri_plus_depth": mid, "norm_half_diff": rhs}


def invariant_set(P, s):
    """I(P_s): shift-invariant differences and the overlay, with labels kept.

    Returns {"d": {(i,j): ...}, "dprime": {(i,j): ...}, "overlay": {(i,j): ...}}
    restricted to the index ranges of P_s: d_{i,j} for s <= i < j, d'_{i,j}
    for s < i <= j and the overlay for s <= i.
    """
    if not 1 <= s <= P.r + 1:
        raise ValueError("restriction index out of range")
    st = P.pattern.tables()
    d, dp, ov = {}, {}, {}
    for (cell, pi), dk, dpk in zip(P.overlay.items(), st.d, st.dprime):
        i, j = cell
        if i >= s:
            ov[cell] = pi
            if i < j:
                d[cell] = dk
            if i > s:
                dp[cell] = dpk
    return {"d": d, "dprime": dp, "overlay": ov}


def invariant_slice(P, s, j):
    """I^j_s: {d_{s,j}, pi(j)^s} plus {d'_{i,j}: s < i <= j}; I^s_s = {pi(s)^s}."""
    r = P.r
    if not 1 <= s <= j <= r:
        raise ValueError("slice indices out of range")
    if s == j:
        return {"d": {}, "dprime": {}, "overlay": {(s, s): P.overlay[(s, s)]}}
    st = P.pattern.tables()
    at = st.index(s, j)
    return {
        "d": {(s, j): st.d[at]},
        "dprime": {(i, j): st.dprime[at + i - s] for i in range(s + 1, j + 1)},
        "overlay": {(s, j): P.overlay[(s, j)]},
    }


def is_stable(P):
    """True iff d_{l,l}(P) >= d(P_l) for every 1 <= l <= r."""
    rest = depth(P)["restricted"]
    return all(P.d(l, l) >= rest[l] for l in range(1, P.r + 1))


def enumerate_pops(lamseq, weight=None, depth_filter=None):
    """All POPs with the given bounding sequence, optionally filtered.

    Filters: exact weight (FiniteWeight) and exact depth.  Deterministic
    order: pattern enumeration order, then overlay cells by (j, i), each cell's
    partitions in enumerate_rect order, stably sorted by size under a depth
    filter.  A weight fixes every row sum of the pattern, so it prunes the
    pattern enumeration.
    """
    out = []
    row_sums = None
    if weight is not None:
        n = len(lamseq)
        t, rem = divmod(sum(lamseq) - sum(weight.coords), n)
        if rem or weight.r != n - 1:
            return out
        row_sums = list(accumulate(c + t for c in weight.coords))
    rects = {}  # (d, d') -> the rectangle's partitions with their sizes
    for pattern in gtpattern.enumerate_patterns(lamseq, row_sums):
        st = pattern.tables()
        if weight is not None and st.wt != weight:
            continue
        base = sum(st.trap_depth)
        if depth_filter is not None:
            want = depth_filter - base
            if want < 0 or want > st.trap_area:
                continue
        cells = st.cells
        choices = []
        for rect in zip(st.d, st.dprime):
            opts = rects.get(rect)
            if opts is None:
                opts = [(pi, pi.size()) for pi in enumerate_rect(*rect)]
                if depth_filter is not None:
                    opts.sort(key=itemgetter(1))
                rects[rect] = opts
            choices.append(opts)

        def rec(idx, remaining, acc):
            if idx == len(cells):
                if depth_filter is None or remaining == 0:
                    out.append(POP(pattern, dict(zip(cells, acc))))
                return
            for pi, sz in choices[idx]:
                if depth_filter is not None and sz > remaining:
                    continue
                acc.append(pi)
                rec(idx + 1, remaining - sz if depth_filter is not None else 0, acc)
                acc.pop()

        rec(0, depth_filter - base if depth_filter is not None else 0, [])
    return out


def shift_bijection_check(lam, mu, d, k):
    """Check |P(lam + k theta)_{mu, d}| = #(r-colored partitions of d) and the
    diagonal bound d_{l,l} >= k on every member; requires k >= d.  Returns the
    POPs and a report whose witness names the first violation, if any."""
    if k < d:
        raise ValueError("need k >= d")
    r = lam.r
    pops = enumerate_pops((lam + k * theta(r)).coords, weight=mu,
                          depth_filter=d)
    expected = colored_partitions(r, d, count_only=True)
    witness = None
    if len(pops) != expected:
        witness = {"reason": "cardinality", "got": len(pops),
                   "expected": expected}
    for P in pops:
        bad = [l for l in range(1, r + 1) if P.d(l, l) < k]
        if bad:
            witness = {"reason": "diagonal bound", "pop": P.to_json(),
                       "bad_diagonals": bad}
            break
    return pops, {"check": "shift_bijection", "count": len(pops),
                  "expected": expected,
                  "status": "fail" if witness else "pass", "witness": witness}
