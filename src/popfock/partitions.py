"""Partitions, rectangle fitting, and r-colored partitions."""

from __future__ import annotations

from functools import lru_cache


class Partition:
    """Weakly decreasing tuple of positive integers; zero parts are never stored."""

    __slots__ = ("parts", "_size")

    def __init__(self, parts=()):
        parts = tuple(parts)
        last = None
        for p in parts:
            if type(p) is not int:
                raise ValueError("part %r is not an integer" % (p,))
            if p < 0:
                raise ValueError("negative part")
            if p:
                if last is not None and last < p:
                    raise ValueError("parts not weakly decreasing")
                last = p
        object.__setattr__(self, "parts", tuple(filter(None, parts)))
        object.__setattr__(self, "_size", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)

    def size(self):
        return self._size

    def part(self, i):
        """1-indexed part with zero padding beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def to_json(self):
        return list(self.parts)


def fits_rectangle(pi, d, dprime):
    """True iff pi has at most d parts, each at most dprime; the first part
    is the largest."""
    parts = pi.parts
    return len(parts) <= d and (not parts or parts[0] <= dprime)


def enumerate_rect(d, dprime):
    """All partitions fitting the rectangle (d, dprime), each exactly once.

    Deterministic order: lexicographic by part tuples, empty partition first.
    Count is binomial(d + dprime, d).
    """
    out = []

    def rec(prefix, rows_left, cap):
        out.append(Partition(tuple(prefix)))
        if rows_left == 0:
            return
        for p in range(1, cap + 1):
            prefix.append(p)
            rec(prefix, rows_left - 1, p)
            prefix.pop()

    rec([], d, dprime)
    return sorted(out, key=lambda q: q.parts)


@lru_cache(maxsize=None)
def _partitions_of(m, cap):
    """Partitions of m with parts at most cap, as tuples."""
    if m == 0:
        return ((),)
    out = []
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions_of(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def colored_partitions(r, m, count_only=False):
    """All r-colored partitions of m, or just their number.

    Each is its creation multiset, a sorted tuple of (color, part) pairs as
    in FockKey.modes.  Color 1 takes each size 0..m in turn, its partitions
    in decreasing lexicographic order, and the later colors share the rest
    alike.  The count satisfies prod_{n>=1} (1-q^n)^{-r}.
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    if count_only:
        return _colored_count(r, m)

    def rec(a, left):
        if a > r:
            yield ()
            return
        for size in (left,) if a == r else range(left + 1):
            for parts in _partitions_of(size, size):
                head = tuple((a, n) for n in reversed(parts))
                for rest in rec(a + 1, left - size):
                    yield head + rest

    return list(rec(1, m))


@lru_cache(maxsize=None)
def _colored_count(r, m):
    if m == 0:
        return 1
    # coefficient extraction from prod (1-q^n)^{-r} by iterated convolution
    series = [1] + [0] * m
    for n in range(1, m + 1):
        for _ in range(r):
            for k in range(n, m + 1):
                series[k] += series[k - n]
    return series[m]
