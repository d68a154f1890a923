import math
from fractions import Fraction
from itertools import combinations

import pytest

from logres.multiindex import CoefficientVector, enumerate_multiindices, index_count


def test_full_enumeration_count():
    assert len(enumerate_multiindices(2, 2)) == 6


def test_line_enumeration():
    assert len(enumerate_multiindices(1, 3)) == 4


def test_descending_lex_order():
    got = enumerate_multiindices(2, 2)
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert got == sorted(got, reverse=True)


def avoiding(listing, J):
    """The indices of a listing whose support avoids the slots J."""
    return [I for I in listing if not any(I[j] for j in J)]


def test_counts_exhaustive_small():
    # |I_J(d)| = C(n-#J+d, n-#J) for n <= 5, d <= 6, every J
    for n in range(1, 6):
        slots = list(range(n + 1))
        for d in range(7):
            listing = enumerate_multiindices(n, d)
            assert all(sum(I) == d for I in listing)
            for size in range(n + 2):
                for J in combinations(slots, size):
                    assert len(avoiding(listing, J)) == index_count(n, d, size)
    # one slot avoided, in listing order
    got = avoiding(enumerate_multiindices(2, 2), {2})
    assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0)]
    assert len(got) == math.comb(3, 1) == index_count(2, 2, 1)
    # every slot avoided: empty in positive degree, the zero index in degree 0
    assert avoiding(enumerate_multiindices(2, 1), {0, 1, 2}) == []
    assert avoiding(enumerate_multiindices(2, 0), {0, 1, 2}) == [(0, 0, 0)]
    assert index_count(2, 1, 3) == 0 and index_count(2, 0, 3) == 1


def test_make_rejects_foreign_keys():
    with pytest.raises(ValueError):
        CoefficientVector.make(2, 2, {(3, 0, 0): Fraction(1)})
