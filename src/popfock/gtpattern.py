"""Gelfand-Tsetlin patterns: validation, statistics, enumeration."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .rootdata import FiniteWeight, bilinear


class GTPattern:
    """Triangular array of integer rows, top row first; row j has length j.

    The bounding sequence is the last row.  Interlacing is enforced at
    construction: lambda^{j+1}_i >= lambda^j_i >= lambda^{j+1}_{i+1}.
    """

    __slots__ = ("r", "rows", "_stats")

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if any(type(x) is not int for row in rows for x in row):
            raise ValueError("pattern entries must be integers")
        if not rows:
            raise ValueError("empty pattern")
        for j, row in enumerate(rows, start=1):
            if len(row) != j:
                raise ValueError("row %d should have length %d" % (j, j))
        r = len(rows) - 1
        for j in range(1, r + 1):
            upper = rows[j - 1]
            lower = rows[j]
            for i in range(j):
                if not (lower[i] >= upper[i] >= lower[i + 1]):
                    raise ValueError(
                        "interlacing violated at (i=%d, j=%d): %d >= %d >= %d fails"
                        % (i + 1, j, lower[i], upper[i], lower[i + 1]))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_stats", None)

    def __setattr__(self, name, value):
        raise AttributeError("GTPattern is immutable")

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "GTPattern(%r)" % (list(map(list, self.rows)),)

    def entry(self, i, j):
        """lambda^j_i with 1-based indices, 1 <= i <= j <= r+1."""
        return self.rows[j - 1][i - 1]

    def bounding_seq(self):
        return self.rows[-1]

    def tables(self):
        """This pattern's statistics, derived by `stats` on first use and
        kept as long as the pattern."""
        if self._stats is None:
            object.__setattr__(self, "_stats", stats(self))
        return self._stats

    def to_json(self):
        return {"rows": [list(row) for row in self.rows]}


class PatternStats(namedtuple("PatternStats", (
        "cells", "wt", "d", "dprime", "trap_depth", "tri_area", "trap_area",
        "norm_half_diff"))):
    """A pattern's statistics: its weight wt; the differences
    d_{i,j} = lambda^{j+1}_i - lambda^j_i and d'_{i,j} = lambda^j_i -
    lambda^{j+1}_{i+1}; the trapezoid depth d_{i,j} * sum_{p=i+1}^{j} d'_{p,j}
    of each cell; the triangular area sum d_{i,j} d'_{i,j}; the trapezoidal
    area sum d_{i,j} * sum_{p=i}^{j} d'_{p,j}; and norm_half_diff =
    ((lambda|lambda) - (wt|wt))/2, lambda the bounding sequence.

    d, dprime and trap_depth are tuples over `cells`, the cells (i, j),
    1 <= i <= j <= r, ordered by (j, i).
    """

    __slots__ = ()

    def index(self, i, j):
        """Position of cell (i, j) in the tables."""
        if not 1 <= i <= j <= self.wt.r:
            raise IndexError("no cell (i=%d, j=%d)" % (i, j))
        return j * (j - 1) // 2 + i - 1


@lru_cache(maxsize=8)
def _cells(r):
    """The cells (i, j) of rank r in table order: one tuple per rank, so the
    tables and the overlays of all POPs share their keys."""
    return tuple((i, j) for j in range(1, r + 1) for i in range(1, j + 1))


def stats(P):
    """The statistics of P, derived from its rows (see PatternStats).

    P.tables() calls this once and keeps the result on the pattern.
    """
    rows = P.rows
    d, dp, trap_depth = [], [], []
    tri = trap = 0
    for j in range(1, P.r + 1):
        upper, lower = rows[j - 1], rows[j]
        dj = [lower[i] - upper[i] for i in range(j)]
        dpj = [upper[i] - lower[i + 1] for i in range(j)]
        d += dj
        dp += dpj
        trap_depth += [dj[i] * sum(dpj[i + 1:]) for i in range(j)]
        tri += sum(x * y for x, y in zip(dj, dpj))
        trap += sum(dj[i] * sum(dpj[i:]) for i in range(j))
    sums = [sum(row) for row in rows]
    wt = FiniteWeight(P.r, [sums[0]] + [sums[j] - sums[j - 1]
                                        for j in range(1, P.r + 1)])
    lam = FiniteWeight(P.r, rows[-1])
    return PatternStats(
        _cells(P.r), wt, tuple(d), tuple(dp), tuple(trap_depth), tri, trap,
        (bilinear(lam, lam) - bilinear(wt, wt)) / 2)


def _checked_bounding_seq(lamseq):
    """lamseq as a tuple, once it is known to be a bounding sequence: integer
    entries, weakly decreasing, ending in 0."""
    lamseq = tuple(lamseq)
    if any(type(x) is not int for x in lamseq):
        raise ValueError("bounding sequence entries must be integers")
    if any(lamseq[i] < lamseq[i + 1] for i in range(len(lamseq) - 1)):
        raise ValueError("bounding sequence not weakly decreasing")
    if lamseq[-1] != 0:
        raise ValueError("bounding sequence must end in 0")
    return lamseq


def enumerate_patterns(lamseq, row_sums=None):
    """All patterns with the given bounding sequence.

    Order: lexicographic in the concatenation of rows from bottom to top.
    With row_sums (the sums of rows 1..r+1, top row first), only the
    patterns whose rows have those sums, each wrong row cutting its subtree.
    """
    lamseq = _checked_bounding_seq(lamseq)

    def interlacings(lower):
        """All rows of length len(lower)-1 interlacing below `lower`, lex order."""
        j = len(lower) - 1
        out = [[]]
        for i in range(j):
            lo, hi = lower[i + 1], lower[i]
            out = [row + [v] for row in out for v in range(lo, hi + 1)
                   if not row or row[-1] >= v]
        return out

    results = []

    def rec(stack):
        top = stack[-1]
        if len(top) == 1:
            results.append(GTPattern(list(reversed(stack))))
            return
        for row in interlacings(top):
            if row_sums is not None and sum(row) != row_sums[len(row) - 1]:
                continue
            stack.append(row)
            rec(stack)
            stack.pop()

    if row_sums is None or sum(lamseq) == row_sums[-1]:
        rec([list(lamseq)])
    return results
