"""Partition overlaid patterns: depth, invariant sets, stability predicate,
enumeration, and the area identity."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product

from . import gtpattern
from .gtpattern import GTPattern
from .partitions import Partition, colored_count, enumerate_rect, fits_rectangle
from .rootdata import theta


class POP:
    """A GT pattern together with a partition in each (i,j) rectangle.

    The partitions are one tuple, `parts`, in the cell order of the
    pattern's tables (PatternStats.cells), 1 <= i <= j <= r by (j, i); a
    rectangle given no partition, degenerate or not, holds the empty one.
    `overlay` is the same data as a mapping (i, j) -> partition, built on
    each read.
    """

    __slots__ = ("pattern", "parts", "r", "_size")

    def __init__(self, pattern, overlay=None):
        overlay = overlay or {}
        st = pattern.tables()
        parts, size = [], 0
        for cell, d, dp in zip(st.cells, st.d, st.dprime):
            pi = overlay.get(cell)
            if pi is None:
                pi = Partition(())
            elif not fits_rectangle(pi, d, dp):
                raise ValueError(
                    "overlay partition at (i=%d, j=%d) does not fit rectangle (%d, %d)"
                    % (cell + (d, dp)))
            parts.append(pi)
            size += pi.size()
        unknown = set(overlay).difference(st.cells)
        if unknown:
            raise ValueError("overlay keys out of range: %r" % (sorted(unknown),))
        self._fill(pattern, tuple(parts), size)

    @classmethod
    def _fitted(cls, pattern, parts, size):
        """The POP of `parts`, a tuple in cell order whose partitions are
        already known to fit their rectangles and to have sizes summing to
        `size`."""
        P = object.__new__(cls)
        P._fill(pattern, parts, size)
        return P

    def _fill(self, pattern, parts, size):
        fill = object.__setattr__
        fill(self, "pattern", pattern)
        fill(self, "parts", parts)
        fill(self, "r", pattern.r)
        fill(self, "_size", size)

    def __setattr__(self, name, value):
        raise AttributeError("POP is immutable")

    def __eq__(self, other):
        return (isinstance(other, POP) and self.pattern == other.pattern
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.pattern, self.parts))

    @property
    def overlay(self):
        return dict(zip(self.pattern.tables().cells, self.parts))

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
    st = P.pattern.tables()
    table = {cell: trap + pi.size() for cell, trap, pi
             in zip(st.cells, st.trap_depth, P.parts)}
    row = [0] * (P.r + 1)  # row[i] = sum over j of d^j_i
    for (i, _), v in table.items():
        row[i] += v
    rest = {P.r + 1: 0}  # rest[s] = d(P_s), summed from s = r + 1 down
    for s in range(P.r, 0, -1):
        rest[s] = rest[s + 1] + row[s]
    return {"table": table, "restricted": rest}


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
    st, tails = pattern.tables(), _tails(pattern.r)
    return {"d": {c: st.d[k] for k, c in tails[s] if c[0] < c[1]},
            "dprime": {c: st.dprime[k] for k, c in tails[s + 1]}}


def overlay_invariant_set(P, s):
    """The overlay half of I(P_s): the partitions pi(j)^i with s <= i."""
    if not 1 <= s <= P.r + 1:
        raise ValueError("restriction index out of range")
    parts = P.parts
    return {cell: parts[k] for k, cell in _tails(P.r)[s]}


@lru_cache(maxsize=8)
def _tails(r):
    """For each s in 1..r+2, the (position, cell) pairs of the cells (i, j)
    with i >= s, in cell order."""
    cells = tuple(enumerate(gtpattern._cells(r)))
    return {s: tuple(kc for kc in cells if kc[1][0] >= s)
            for s in range(1, r + 3)}


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
    # the position of (s, j) in the cell order, PatternStats.index(s, j)
    return {(s, j): P.parts[j * (j - 1) // 2 + s - 1]}


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
    left to spend.  Each rectangle's partitions are listed and checked to fit
    once per call, so the POPs are built without a further check.
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
            if want < 0 or want > st.tri_area:
                continue
        choices = []
        for rect in zip(st.d, st.dprime):
            opts = rects.get(rect)
            if opts is None:
                opts = rects[rect] = enumerate_rect(*rect, depth_filter)
                if not all(fits_rectangle(pi, *rect) for pi in opts):
                    raise ValueError("enumerate_rect%r lists a partition "
                                     "that does not fit" % (rect,))
            choices.append(opts)
        if depth_filter is None:
            sizes = [[pi.size() for pi in opts] for opts in choices]
            for parts, size in zip(product(*choices),
                                   map(sum, product(*sizes))):
                yield POP._fitted(pattern, parts, size)
            continue
        found = []

        def rec(idx, remaining, acc):
            if idx == len(choices):
                if remaining == 0:
                    found.append(POP._fitted(pattern, tuple(acc), want))
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
    POPs and a witness naming the first violation, or None."""
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
    return pops, witness
