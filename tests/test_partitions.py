from itertools import combinations_with_replacement
from math import comb

import pytest

from popfock.partitions import (Partition, colored_count, colored_partitions,
                                enumerate_rect, fits_rectangle)


def series_coefficient(r, m):
    """Independent oracle: coefficient of q^m in prod_{n>=1} (1-q^n)^{-r},
    via the explicit expansion of each geometric factor."""
    coeffs = [1] + [0] * m
    for n in range(1, m + 1):
        factor = [0] * (m + 1)
        for j in range(0, m // n + 1):
            # (1-q^n)^{-r}: coefficient of q^{nj} is comb(j+r-1, j)
            factor[n * j] = comb(j + r - 1, j)
        new = [0] * (m + 1)
        for a in range(m + 1):
            if coeffs[a] == 0:
                continue
            for b in range(0, m + 1 - a):
                if factor[b]:
                    new[a + b] += coeffs[a] * factor[b]
        coeffs = new
    return coeffs[m]


def test_partition_validation():
    assert Partition((3, 1)).parts == (3, 1)
    assert Partition((3, 0, 0)).parts == (3,)
    with pytest.raises(ValueError):
        Partition((1, 2))
    # parts are not truncated: floats (a zero one too) and bools are rejected
    for parts in ([2.7, 1], [2, True], [3, 0.0]):
        with pytest.raises(ValueError):
            Partition(parts)


def test_fits_rectangle_examples():
    assert fits_rectangle(Partition((2, 1)), 2, 3)
    assert fits_rectangle(Partition(()), 0, 0)
    assert not fits_rectangle(Partition((3,)), 2, 2)
    assert not fits_rectangle(Partition((3, 1)), 2, 2)


def test_enumerate_rect_examples():
    assert enumerate_rect(1, 1) == [Partition(()), Partition((1,))]
    assert enumerate_rect(0, 5) == [Partition(())]
    assert len(enumerate_rect(2, 2)) == 6


def test_enumerate_rect_counts():
    # oracle: each weakly increasing d-tuple over 0..d', reversed, is one box
    # partition padded with zeros
    for d in range(7):
        for dp in range(7):
            brute = [Partition(c[::-1]) for c in
                     combinations_with_replacement(range(dp + 1), d)]
            got = enumerate_rect(d, dp)
            assert len(got) == comb(d + dp, d)
            assert got == sorted(brute, key=lambda q: q.parts)
            for m in range(d * dp + 2):
                assert enumerate_rect(d, dp, m) == sorted(
                    (q for q in brute if q.size() <= m),
                    key=lambda q: (q.size(), q.parts))


def test_colored_partitions_examples():
    assert colored_count(1, 3) == 3
    assert colored_count(2, 2) == 5
    assert colored_count(3, 0) == 1
    assert len(colored_partitions(2, 2)) == 5


def test_colored_partitions_match_series():
    for r in (1, 2, 3):
        for m in range(9):
            count = colored_count(r, m)
            assert count == series_coefficient(r, m)
            enum = colored_partitions(r, m)
            assert len(enum) == count
            assert len(set(enum)) == count
            for modes in enum:
                assert list(modes) == sorted(modes)
                assert all(1 <= a <= r and n >= 1 for a, n in modes)
                assert sum(n for _, n in modes) == m
