import math
from fractions import Fraction
from itertools import combinations

import pytest

from logres.multiindex import CoefficientVector, enumerate_multiindices, index_count


def test_full_enumeration_count():
    assert len(enumerate_multiindices(2, 2)) == 6


def test_enumeration_with_excluded_slot():
    got = enumerate_multiindices(2, 2, {2})
    assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0)]
    assert len(got) == math.comb(3, 1)


def test_line_enumeration():
    assert len(enumerate_multiindices(1, 3)) == 4


def test_descending_lex_order():
    got = enumerate_multiindices(2, 2)
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert got == sorted(got, reverse=True)


def test_all_slots_excluded_positive_degree_is_empty():
    assert enumerate_multiindices(2, 1, {0, 1, 2}) == []
    assert enumerate_multiindices(2, 0, {0, 1, 2}) == [(0, 0, 0)]


def test_counts_exhaustive_small():
    # |I_J(d)| = C(n-#J+d, n-#J) for n <= 5, d <= 6, every J
    for n in range(1, 6):
        slots = list(range(n + 1))
        for d in range(7):
            for size in range(n + 2):
                for J in combinations(slots, size):
                    got = enumerate_multiindices(n, d, J)
                    assert len(got) == index_count(n, d, size)
                    assert all(sum(I) == d for I in got)
                    assert all(not any(I[j] for j in J) for I in got)


def test_make_rejects_foreign_keys():
    with pytest.raises(ValueError):
        CoefficientVector.make(2, 2, {(3, 0, 0): Fraction(1)})
