"""Gelfand-Tsetlin patterns: validation, statistics, enumeration."""

from __future__ import annotations

from .rootdata import FiniteWeight


class GTPattern:
    """Triangular array of integer rows, top row first; row j has length j.

    The bounding sequence is the last row.  Interlacing is enforced at
    construction: lambda^{j+1}_i >= lambda^j_i >= lambda^{j+1}_{i+1}.
    """

    __slots__ = ("r", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
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

    def to_json(self):
        return {"rows": [list(row) for row in self.rows]}


def diff_d(P, i, j):
    """d_{i,j} = lambda^{j+1}_i - lambda^j_i."""
    return P.entry(i, j + 1) - P.entry(i, j)


def diff_dprime(P, i, j):
    """d'_{i,j} = lambda^j_i - lambda^{j+1}_{i+1}."""
    return P.entry(i, j) - P.entry(i + 1, j + 1)


def weight(P):
    """Pattern weight: a_j = (sum of row j) - (sum of row j-1)."""
    sums = [sum(row) for row in P.rows]
    coords = [sums[0]] + [sums[j] - sums[j - 1] for j in range(1, P.r + 1)]
    return FiniteWeight(P.r, coords)


def stats(P):
    """All pattern statistics: weight, difference tables, both areas."""
    r = P.r
    d = {}
    dp = {}
    for j in range(1, r + 1):
        for i in range(1, j + 1):
            d[(i, j)] = diff_d(P, i, j)
            dp[(i, j)] = diff_dprime(P, i, j)
    tri = sum(d[(i, j)] * dp[(i, j)] for (i, j) in d)
    trap = sum(d[(i, j)] * sum(dp[(p, j)] for p in range(i, j + 1)) for (i, j) in d)
    return {"wt": weight(P), "d": d, "dprime": dp, "tri_area": tri, "trap_area": trap}


def enumerate_patterns(lamseq, row_sums=None):
    """All patterns with the given bounding sequence.

    Order: lexicographic in the concatenation of rows from bottom to top.
    With row_sums (the sums of rows 1..r+1, top row first), only the
    patterns whose rows have those sums, each wrong row cutting its subtree.
    """
    lamseq = tuple(int(x) for x in lamseq)
    if any(lamseq[i] < lamseq[i + 1] for i in range(len(lamseq) - 1)):
        raise ValueError("bounding sequence not weakly decreasing")
    if lamseq[-1] != 0:
        raise ValueError("bounding sequence must end in 0")

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
