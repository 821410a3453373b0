"""Partition overlaid patterns: depth, invariant sets, stability predicate,
enumeration, and the area identity."""

from __future__ import annotations

from itertools import accumulate, product

from . import gtpattern
from .gtpattern import GTPattern
from .partitions import Partition, colored_count, enumerate_rect, fits_rectangle
from .rootdata import theta


class POP:
    """A GT pattern together with a partition in each (i,j) rectangle.

    Overlay keys (i,j) for 1 <= i <= j <= r are always present, even when the
    rectangle is degenerate (the partition is then forced empty), in the
    cell order of the pattern's tables.
    """

    __slots__ = ("pattern", "overlay", "r", "_size")

    def __init__(self, pattern, overlay=None):
        overlay = overlay or {}
        st = pattern.tables()
        full = {}
        size = 0
        for cell, d, dp in zip(st.cells, st.d, st.dprime):
            pi = overlay.get(cell)
            if pi is None:
                pi = Partition(())
            elif not fits_rectangle(pi, d, dp):
                raise ValueError(
                    "overlay partition at (i=%d, j=%d) does not fit rectangle (%d, %d)"
                    % (cell + (d, dp)))
            full[cell] = pi
            size += pi.size()
        unknown = [cell for cell in overlay if cell not in full]
        if unknown:
            raise ValueError("overlay keys out of range: %r" % (sorted(unknown),))
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "overlay", full)
        object.__setattr__(self, "r", pattern.r)
        object.__setattr__(self, "_size", size)

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
        return self._size

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
    rest = [0] * (P.r + 2)  # rest[s] = d(P_s), summed from s = r + 1 down
    for (i, _), v in table.items():
        rest[i] += v
    for s in range(P.r, 0, -1):
        rest[s] += rest[s + 1]
    return {"table": table,
            "restricted": dict(zip(range(1, P.r + 2), rest[1:]))}


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
    ok = lhs == mid == rhs
    return ok, {"trap": lhs, "tri_plus_depth": mid, "norm_half_diff": rhs}


def pattern_invariant_set(pattern, s):
    """The pattern half of I(P_s), shared by every POP on the pattern:
    {"d": {(i,j): d_{i,j}: s <= i < j}, "dprime": {(i,j): d'_{i,j}: s < i}}."""
    if not 1 <= s <= pattern.r + 1:
        raise ValueError("restriction index out of range")
    st = pattern.tables()
    d, dp = {}, {}
    for cell, dk, dpk in zip(st.cells, st.d, st.dprime):
        i, j = cell
        if s <= i < j:
            d[cell] = dk
        if i > s:
            dp[cell] = dpk
    return {"d": d, "dprime": dp}


def overlay_invariant_set(P, s):
    """The overlay half of I(P_s): the partitions pi(j)^i with s <= i."""
    if not 1 <= s <= P.r + 1:
        raise ValueError("restriction index out of range")
    return {cell: pi for cell, pi in P.overlay.items() if cell[0] >= s}


def invariant_set(P, s):
    """I(P_s): shift-invariant differences and the overlay, with labels kept.

    Returns {"d": {(i,j): ...}, "dprime": {(i,j): ...}, "overlay": {(i,j): ...}}
    restricted to the index ranges of P_s: d_{i,j} for s <= i < j, d'_{i,j}
    for s < i <= j and the overlay for s <= i.  The pattern half (d, d') and
    the overlay half are pattern_invariant_set and overlay_invariant_set.
    """
    return dict(pattern_invariant_set(P.pattern, s),
                overlay=overlay_invariant_set(P, s))


def pattern_invariant_slice(pattern, s, j):
    """The pattern half of I^j_s: {d_{s,j}} and {d'_{i,j}: s < i <= j},
    both empty for j = s."""
    if not 1 <= s <= j <= pattern.r:
        raise ValueError("slice indices out of range")
    if s == j:
        return {"d": {}, "dprime": {}}
    st = pattern.tables()
    at = st.index(s, j)
    return {"d": {(s, j): st.d[at]},
            "dprime": {(i, j): st.dprime[at + i - s]
                       for i in range(s + 1, j + 1)}}


def overlay_invariant_slice(P, s, j):
    """The overlay half of I^j_s: {pi(j)^s}."""
    if not 1 <= s <= j <= P.r:
        raise ValueError("slice indices out of range")
    return {(s, j): P.overlay[(s, j)]}


def invariant_slice(P, s, j):
    """I^j_s: {d_{s,j}, pi(j)^s} plus {d'_{i,j}: s < i <= j}; I^s_s = {pi(s)^s}."""
    return dict(pattern_invariant_slice(P.pattern, s, j),
                overlay=overlay_invariant_slice(P, s, j))


def is_stable(P):
    """True iff d_{l,l}(P) >= d(P_l) for every 1 <= l <= r."""
    rest = depth(P)["restricted"]
    return all(P.d(l, l) >= rest[l] for l in range(1, P.r + 1))


def iter_pops(lamseq, weight=None, depth_filter=None):
    """Yield every POP with the given bounding sequence, optionally filtered.

    Filters: exact weight (FiniteWeight) and exact depth.  Deterministic
    order: pattern enumeration order, then overlay cells by (j, i), the first
    cell varying slowest, each cell's partitions in enumerate_rect order.  A
    weight fixes every row sum of the pattern, so it prunes the pattern
    enumeration.  A depth filter lists each rectangle's partitions only up to
    that size, by size first, and prunes each pattern's overlays by the size
    left to spend.
    """
    lamseq = gtpattern._checked_bounding_seq(lamseq)
    row_sums = None
    if weight is not None:
        n = len(lamseq)
        t, rem = divmod(sum(lamseq) - sum(weight.coords), n)
        if rem or weight.r != n - 1:
            return
        row_sums = list(accumulate(c + t for c in weight.coords))
    rects = {}  # (d, d') -> the rectangle's partitions
    for pattern in gtpattern.enumerate_patterns(lamseq, row_sums):
        st = pattern.tables()
        if weight is not None and st.wt != weight:
            continue
        if depth_filter is not None:
            want = depth_filter - sum(st.trap_depth)
            if want < 0 or want > st.trap_area:
                continue
        choices = []
        for rect in zip(st.d, st.dprime):
            opts = rects.get(rect)
            if opts is None:
                opts = rects[rect] = enumerate_rect(*rect, depth_filter)
            choices.append(opts)
        cells = st.cells
        if depth_filter is None:
            for overlay in product(*choices):
                yield POP(pattern, dict(zip(cells, overlay)))
            continue
        found = []

        def rec(idx, remaining, acc):
            if idx == len(cells):
                if remaining == 0:
                    found.append(POP(pattern, dict(zip(cells, acc))))
                return
            for pi in choices[idx]:
                if pi.size() > remaining:
                    break
                acc.append(pi)
                rec(idx + 1, remaining - pi.size(), acc)
                acc.pop()

        rec(0, want, [])
        yield from found


def enumerate_pops(lamseq, weight=None, depth_filter=None):
    """The POPs of iter_pops(lamseq, weight, depth_filter), as one list, for
    the callers that count them or read them more than once."""
    return list(iter_pops(lamseq, weight, depth_filter))


def shift_bijection_check(lam, mu, d, k):
    """Check |P(lam + k theta)_{mu, d}| = #(r-colored partitions of d) and the
    diagonal bound d_{l,l} >= k on every member; requires k >= d.  Returns the
    POPs and a report whose witness names the first violation, if any."""
    if k < d:
        raise ValueError("need k >= d")
    r = lam.r
    pops = enumerate_pops((lam + k * theta(r)).coords, weight=mu,
                          depth_filter=d)
    expected = colored_count(r, d)
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
