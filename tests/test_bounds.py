import math
import random
from fractions import Fraction

import pytest

from logres.bounds import (
    chain_inequality_holds,
    degree_threshold,
    effective_bounds,
    reconstruct_parameters,
)


def test_worked_example_n2():
    report = effective_bounds(2, delta=(7, 8), eps=(1, 1))
    assert report.b == (8, 7)
    assert report.r_min == 1 + (8 * 8 + 7 * 9)
    assert report.r_min == 128
    assert report.m == (1 + 129 * 7, 1 + 129 * 8) == (904, 1033)
    assert report.applicable


def test_threshold_flagging():
    report = effective_bounds(2, delta=(4, 5), eps=(1, 1))
    assert not report.applicable  # 4 < 4n-1 = 7


def test_one_dimensional_case():
    report = effective_bounds(1, delta=(3,), eps=(1,))
    assert report.b == (1,)
    assert report.r_min == 5
    assert report.m == (1 + 6 * 3,) == (19,)


def test_chain_inequality_first_twenty():
    for n in range(1, 21):
        assert chain_inequality_holds(n), n


def test_chain_value_n2():
    report = degree_threshold(2, 2, delta=(7, 7))
    assert report.m_threshold == 8**4 == 4096
    lhs = (4 * 2 - 1) * (3 + 2 * 2 * (4 * 2 - 1) ** 2)
    assert lhs == 7 * (3 + 4 * 49) == 1393
    assert lhs <= report.m_threshold
    assert report.chain_holds


def test_alpha_lower_bound():
    report = degree_threshold(2, 3, delta=(7, 7, 7))
    assert report.alpha_min == 3 + 4 * 49 == 199


def test_threshold_preconditions():
    with pytest.raises(ValueError):
        degree_threshold(2, 1, delta=(7, 7))


def test_reconstruction_integral_alpha():
    report = reconstruct_parameters(Fraction(201), (7, 8))
    assert report.r == 199
    assert report.eps == (7, 8)  # eps_i = delta_i when alpha is integral
    assert report.valid


def test_reconstruction_random_rational_alphas():
    rng = random.Random(2718)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        delta = tuple(rng.randint(4 * n - 1, 4 * n + 6) for _ in range(n))
        r0 = 1 + 2 * n * max(delta) ** n
        q = rng.choice([d for d in range(1, 10) if all(x % d == 0 for x in delta)] or [1])
        p = q * (r0 + 2) + rng.randint(0, 5 * q)
        alpha = Fraction(p, q)
        if alpha < r0 + 2:
            continue
        report = reconstruct_parameters(alpha, delta)
        assert report.valid, (alpha, delta)
        for e, d, m in zip(report.eps, delta, report.m):
            assert m == e + (report.r + 1) * d
            assert 1 <= e <= d
            assert m == alpha * d
        checked += 1


def test_reconstruction_rejects_non_integral_products():
    with pytest.raises(ValueError):
        reconstruct_parameters(Fraction(7, 3), (7, 8))


def test_non_integral_entries_are_refused_not_truncated():
    with pytest.raises(ValueError, match="delta entries must be integers"):
        effective_bounds(1, [4.5], [1])
    with pytest.raises(ValueError, match="eps entries must be integers"):
        effective_bounds(1, [4], [1.9])
    with pytest.raises(ValueError, match="delta entries must be integers"):
        degree_threshold(1, 1, [Fraction(5, 2)])
    with pytest.raises(ValueError, match="delta entries must be integers"):
        reconstruct_parameters(3, [2.5])
    # integral values of any numeric type are the integers they equal
    assert effective_bounds(1, [4.0], [Fraction(1)]) == effective_bounds(1, [4], [1])
    assert reconstruct_parameters(3, [2.0]).eps == (2,)


def test_big_integer_exactness():
    report = effective_bounds(4, delta=(15, 16, 17, 18), eps=(2, 3, 4, 5))
    prod = 15 * 16 * 17 * 18
    assert report.b == tuple(prod // d for d in (15, 16, 17, 18))
    assert report.r_min == 1 + sum(
        (prod // d) * (e + d) for d, e in zip((15, 16, 17, 18), (2, 3, 4, 5))
    )
    assert math.prod(report.b) == prod ** 3
