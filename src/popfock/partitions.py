"""Partitions, rectangle fitting, and r-colored partitions."""

from __future__ import annotations


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


def _box(m, d, cap):
    """The partitions of m into at most d parts, each at most cap, as tuples
    in lexicographic order.  The first part runs from ceil(m/d), below which
    the other parts could not make up m, to min(m, cap)."""
    if m == 0:
        yield ()
    elif d:
        for first in range(-(-m // d), min(m, cap) + 1):
            for rest in _box(m - first, d - 1, first):
                yield (first,) + rest


def enumerate_rect(d, dprime, max_size=None):
    """The partitions fitting the rectangle (d, dprime), each exactly once.

    Without max_size: all binomial(d + dprime, d) of them, lexicographic by
    part tuples, empty partition first.  With max_size: those of size at
    most max_size, by size and then by parts, which is the same list stably
    sorted by size; no larger partition is built.
    """
    top = d * dprime if max_size is None else min(max_size, d * dprime)
    out = [Partition(parts) for size in range(top + 1)
           for parts in _box(size, d, dprime)]
    if max_size is None:
        out.sort(key=lambda q: q.parts)
    return out


def colored_partitions(r, m):
    """All r-colored partitions of m; colored_count(r, m) is their number.

    Each is its creation multiset, a sorted tuple of (color, part) pairs as
    in FockKey.modes.  Color 1 takes each size 0..m in turn, its partitions
    in decreasing lexicographic order, and the later colors share the rest
    alike.
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    # the partitions of each size, in decreasing lexicographic order
    table = [tuple(_box(s, s, s))[::-1] for s in range(m + 1)]

    def rec(a, left):
        if a > r:
            yield ()
            return
        for size in (left,) if a == r else range(left + 1):
            for parts in table[size]:
                head = tuple((a, n) for n in reversed(parts))
                for rest in rec(a + 1, left - size):
                    yield head + rest

    return list(rec(1, m))


def colored_count(r, m):
    """The number of r-colored partitions of m: the coefficient of q^m in
    prod_{n>=1} (1-q^n)^{-r}, by iterated convolution."""
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    series = [1] + [0] * m
    for n in range(1, m + 1):
        for _ in range(r):
            for k in range(n, m + 1):
                series[k] += series[k - n]
    return series[m]
