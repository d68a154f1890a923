"""sympy as a second route for exact rank, exact division and substitution.

Each test computes the same object with ``logres`` and with sympy over QQ
and requires equal results.  Skipped when sympy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from logres.ratmat import rank
from logres.symcore import Polynomial
from oracles import NotDivisible, exact_divide, substitute

sympy = pytest.importorskip("sympy")

XY = ("x", "y")
UV = ("u", "v")

scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(variables, max_size=4):
    exponents = st.tuples(*[st.integers(0, 2)] * len(variables))
    return st.dictionaries(exponents, scalars, max_size=max_size).map(
        lambda terms: Polynomial(variables, terms)
    )


def to_sympy(f):
    symbols = sympy.symbols(f.variables)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**e for s, e in zip(symbols, exp)))
        for exp, c in f.terms.items()
    ))


def from_sympy(expr, variables):
    poly = sympy.Poly(expr, *sympy.symbols(variables), domain="QQ")
    return Polynomial(variables, {
        exp: Fraction(int(c.p), int(c.q)) for exp, c in poly.terms() if c
    })


def products(max_side=4):
    """A rows x inner times inner x cols product: rank at most inner, so
    small inner sizes give rank-deficient matrices."""
    side = st.integers(1, max_side)
    return st.tuples(side, st.integers(1, 3), side).flatmap(
        lambda shape: st.tuples(
            st.lists(st.lists(scalars, min_size=shape[1], max_size=shape[1]),
                     min_size=shape[0], max_size=shape[0]),
            st.lists(st.lists(scalars, min_size=shape[2], max_size=shape[2]),
                     min_size=shape[1], max_size=shape[1]),
        )
    )


@settings(max_examples=20, deadline=None)
@given(products())
@example(([[Fraction(0)]] * 3, [[Fraction(0)] * 4]))
def test_rank_matches_sympy(factors):
    left, right = factors
    matrix = [
        [sum((a * b for a, b in zip(row, column)), Fraction(0)) for column in zip(*right)]
        for row in left
    ]
    expected = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
    ).rank()
    assert rank(matrix) == expected


@settings(max_examples=20, deadline=None)
@given(polys(XY), polys(XY).filter(lambda g: not g.is_zero), polys(XY, max_size=2))
def test_exact_divide_matches_sympy_div(h, g, perturbation):
    """f = h*g + perturbation: the quotient is sympy's when the remainder
    is zero, and NotDivisible is raised otherwise ({g} is a Groebner basis
    of (g), so a zero remainder means g divides f)."""
    f = h * g + perturbation
    quotient, remainder = sympy.div(to_sympy(f), to_sympy(g), *sympy.symbols(XY), domain="QQ")
    if remainder == 0:
        assert exact_divide(f, g) == from_sympy(quotient, XY)
    else:
        with pytest.raises(NotDivisible):
            exact_divide(f, g)


@settings(max_examples=15, deadline=None)
@given(polys(XY), polys(UV), polys(UV))
def test_substitute_matches_sympy_expand(f, x_image, y_image):
    x, y = sympy.symbols(XY)
    expanded = sympy.expand(
        to_sympy(f).subs({x: to_sympy(x_image), y: to_sympy(y_image)}, simultaneous=True)
    )
    assert substitute(f, {"x": x_image, "y": y_image}) == from_sympy(expanded, UV)
