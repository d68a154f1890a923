from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logres.symcore import (
    Frame,
    MissingAssignment,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from oracles import (
    DivisionByZero,
    LogForm,
    NotDivisible,
    exact_divide,
    extend_variables,
    reference_parse_polynomial,
    substitute,
)

XY = ("x", "y")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


# -- independent oracles ------------------------------------------------------


def oracle_divide_by_monomial(f, g):
    """Long-division oracle for a monomial divisor: shift each exponent."""
    (g_exp, g_coeff), = g.terms.items()
    terms = {}
    for exp, coeff in f.terms.items():
        shifted = tuple(a - b for a, b in zip(exp, g_exp))
        if any(s < 0 for s in shifted):
            return None
        terms[shifted] = coeff / g_coeff
    return Polynomial(f.variables, terms)


def oracle_expand_substitution(f, assignment):
    """Term-by-term expansion using raw dict convolution, no Polynomial ops."""
    target = next(iter(assignment.values())).variables
    acc = {}

    def convolve(t1, t2):
        out = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return {e: c for e, c in out.items() if c}

    for exp, coeff in f.terms.items():
        term = {(0,) * len(target): coeff}
        for var, e in zip(f.variables, exp):
            for _ in range(e):
                term = convolve(term, assignment[var].terms)
        for e, c in term.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    return Polynomial(target, acc)


# -- exact_divide -------------------------------------------------------------


def test_divide_factor_by_inspection():
    assert exact_divide(P("x^2*y + x*y^2"), P("x*y")) == P("x + y")


def test_divide_remainder_one():
    with pytest.raises(NotDivisible):
        exact_divide(P("x^2 + 1"), P("x"))


def test_divide_power_sum_matches_long_division_oracle():
    f = P("x^5 + x^3*y^2 + x*y^4")
    g = P("x")
    expected = oracle_divide_by_monomial(f, g)
    assert expected == P("x^4 + x^2*y^2 + y^4")
    assert exact_divide(f, g) == expected


def test_divide_by_zero():
    with pytest.raises(DivisionByZero):
        exact_divide(P("x"), Polynomial.zero(XY))


def test_divide_non_monomial_divisor():
    f = P("x^2 - y^2")
    g = P("x - y")
    assert exact_divide(f, g) == P("x + y")
    with pytest.raises(NotDivisible):
        exact_divide(P("x^2 + y^2"), g)


# -- substitute ---------------------------------------------------------------


def test_substitute_blowup_chart_map():
    frame = ("x1", "x2")
    child = ("x1", "x2t")
    f = Polynomial.variable(frame, "x2")
    image = {
        "x1": Polynomial.variable(child, "x1"),
        "x2": Polynomial.variable(child, "x1") * Polynomial.variable(child, "x2t"),
    }
    assert substitute(f, image) == parse_polynomial("x1*x2t", child)


def test_substitute_identity():
    f = P("x + y")
    ident = {v: Polynomial.variable(XY, v) for v in XY}
    assert substitute(f, ident) == f


def test_substitute_product_term_matches_expansion_oracle():
    frame = ("x2", "x4")
    target = ("t", "u", "x4")
    f = parse_polynomial("x2*x4", frame)
    image = {
        "x2": parse_polynomial("t*u", target),
        "x4": parse_polynomial("x4", target),
    }
    assert substitute(f, image) == oracle_expand_substitution(f, image)
    assert substitute(f, image) == parse_polynomial("t*u*x4", target)


def test_substitute_missing_assignment():
    with pytest.raises(MissingAssignment):
        substitute(P("x + y"), {"x": Polynomial.variable(XY, "x")})


# -- hypothesis: ring axioms and round trips ----------------------------------

coeffs = st.integers(-6, 6).map(Fraction)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: Polynomial(XY, d)
)


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@settings(max_examples=80, deadline=None)
@given(polys, polys)
def test_commutativity(f, g):
    assert f * g == g * f
    assert f + g == g + f


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_exact_divide_recovers_factor(f, g):
    if g.is_zero:
        with pytest.raises(DivisionByZero):
            exact_divide(f * g, g)
    else:
        assert exact_divide(f * g, g) == f


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_substitute_is_ring_homomorphism(f, g):
    target = ("u", "v")
    image = {
        "x": parse_polynomial("u + v", target),
        "y": parse_polynomial("u*v - 1", target),
    }
    assert substitute(f * g, image) == substitute(f, image) * substitute(g, image)
    assert substitute(f + g, image) == substitute(f, image) + substitute(g, image)


def assert_clean(p):
    """p stores exactly what full validation would: nonzero Fractions only."""
    assert p == Polynomial(p.variables, p.terms)
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(
        type(e) is tuple and len(e) == len(p.variables) and all(type(x) is int for x in e)
        for e in p.terms
    )


scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=80, deadline=None)
@given(polys, polys, scalars)
def test_arithmetic_results_are_clean(f, g, k):
    results = [
        f + g, f - g, f - f, -f, f * g, f * k, k * f, f * 0, f * Fraction(0),
        f + 1, 2 - f, f.diff("x"), f.diff("y"), extend_variables(f, ("y", "t", "x")),
    ]
    if not g.is_zero:
        results.append(exact_divide(f * g, g))
    for p in results:
        assert_clean(p)
    assert (f * 0).terms == {} and (f - f).terms == {}


@settings(max_examples=100, deadline=None)
@given(polys)
def test_text_round_trip(f):
    assert parse_polynomial(format_polynomial(f), XY) == f


# -- the one-pass parser against the factor-by-factor reference ------------------

XYZ = ("x", "y", "z")
atoms = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(XYZ),
    st.tuples(st.sampled_from(XYZ), st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
)
products = st.lists(atoms, min_size=1, max_size=3).map("*".join)
well_formed = st.tuples(
    st.sampled_from(["", "-", "+", "--", "+-", "- "]),
    products,
    st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), products), max_size=3),
).map(lambda t: t[0] + t[1] + "".join(sign + term for sign, term in t[2]))
# stray operators, a zero denominator, a non-integer exponent, an unknown
# name, a stray character, a dangling power; inserted anywhere, the end too
strays = st.sampled_from(["+", "-", "*", "/", "^", " ", "1/0", "x^y", "q", "$", "x^", "2^3", "~"])
malformed = st.tuples(well_formed, st.integers(0, 40), strays).map(
    lambda t: t[0][: t[1]] + t[2] + t[0][t[1]:]
)
texts = st.one_of(
    well_formed, malformed, st.text(alphabet="xyzq0123/^*+- $~", max_size=12)
)


def parse_outcome(parse, text):
    try:
        return parse(text, XYZ)
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=400, deadline=None)
@given(texts)
def test_parser_agrees_with_the_reference_parser(text):
    got = parse_outcome(parse_polynomial, text)
    assert got == parse_outcome(reference_parse_polynomial, text)
    if isinstance(got, Polynomial):
        assert_clean(got)


def test_format_examples():
    assert format_polynomial(P("3/2*x^2*y - y")) == "3/2*x^2*y - y"
    assert str(Polynomial.zero(XY)) == "0"
    assert str(P("-x + 1/2")) == "-x + 1/2"


def test_canonical_form_is_insertion_order_independent():
    a = Polynomial(XY, [((1, 0), 1), ((0, 1), 2)])
    b = Polynomial(XY, [((0, 1), 2), ((1, 0), 1)])
    assert a == b and hash(a) == hash(b)


# -- calculus helpers ---------------------------------------------------------


def test_diff_and_evaluate():
    f = P("x^3*y + 2*y^2")
    assert f.diff("x") == P("3*x^2*y")
    assert f.diff("y") == P("x^3 + 4*y")
    assert f.evaluate({"x": Fraction(2), "y": Fraction(1, 2)}) == Fraction(9, 2)


def test_extend_variables():
    f = P("x + y")
    g = extend_variables(f, ("t", "x", "y"))
    assert g == parse_polynomial("x + y", ("t", "x", "y"))
    with pytest.raises(ValueError):
        extend_variables(f, ("x", "x", "y"))
    with pytest.raises(ValueError):
        extend_variables(f, ("t", "x"))


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        P("1/0*x")


# -- log forms ----------------------------------------------------------------


def test_logform_construction_and_addition():
    frame = Frame(("z1", "z2"), frozenset({"z1"}))
    zero = Polynomial.zero(frame.variables)
    one = Polynomial.constant(frame.variables, 1)
    z2 = Polynomial.variable(frame.variables, "z2")
    eta = LogForm.make(frame, {"z2": one}, {"z1": z2})
    assert str(eta) == "(z2)*dlog(z1) + (1)*d(z2)"
    assert (eta + LogForm.make(frame, {"z2": -one}, {"z1": -z2})).is_zero
    assert LogForm.make(frame, {"z1": zero}, {}).is_zero


def test_logform_rejects_log_on_unmarked_coordinate():
    frame = Frame(("z1", "z2"), frozenset({"z1"}))
    one = Polynomial.constant(frame.variables, 1)
    with pytest.raises(ValueError):
        LogForm.make(frame, {}, {"z2": one})
    with pytest.raises(ValueError, match="duplicate frame variables"):
        Frame(("z1", "z1"))
