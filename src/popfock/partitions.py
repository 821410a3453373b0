"""Partitions, rectangle fitting, and r-colored partitions."""

from __future__ import annotations

from functools import lru_cache


class Partition:
    """Weakly decreasing tuple of positive integers; zero parts are never stored."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if int(p) != 0)
        if any(p < 0 for p in parts):
            raise ValueError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts not weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)

    def size(self):
        return sum(self.parts)

    def part(self, i):
        """1-indexed part with zero padding beyond the last part."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def to_json(self):
        return list(self.parts)


def fits_rectangle(pi, d, dprime):
    """True iff pi has at most d parts, each at most dprime."""
    if len(pi.parts) > d:
        return False
    return all(p <= dprime for p in pi.parts)


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


class ColoredPartition:
    """Ordered r-tuple of partitions; component i holds the parts of color i."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one color")
        if not all(isinstance(c, Partition) for c in components):
            raise TypeError("components must be Partitions")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredPartition is immutable")

    def __eq__(self, other):
        return isinstance(other, ColoredPartition) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "ColoredPartition(%r)" % (list(self.components),)

    def size(self):
        return sum(c.size() for c in self.components)

    def to_json(self):
        return [c.to_json() for c in self.components]


def colored_partitions(r, m, count_only=False):
    """All r-colored partitions of m, or just their number.

    The count satisfies the generating function prod_{n>=1} (1-q^n)^{-r}.
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    if count_only:
        return _colored_count(r, m)
    out = []

    def rec(color, remaining, acc):
        if color == r - 1:
            for parts in _partitions_of(remaining, remaining if remaining else 1):
                acc.append(Partition(parts))
                out.append(ColoredPartition(tuple(acc)))
                acc.pop()
            return
        for size in range(remaining + 1):
            for parts in _partitions_of(size, size if size else 1):
                acc.append(Partition(parts))
                rec(color + 1, remaining - size, acc)
                acc.pop()

    rec(0, m, [])
    return out


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
