from itertools import combinations
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import all_simple_ideals, variety

from logres.blowup import Atlas, blow_up_center, root_chart
from logres.monideal import (
    MixedVariableSets,
    MonomialIdeal,
    ideal_sum,
    intersect_monomial_ideals,
    minimalize,
)
from logres.symcore import grlex_key
from oracles import (
    NotSimpleShape,
    decompose_simple_ideal,
    is_simple_ideal,
    prime,
    simple_shape,
    transform_ideal,
)

VARS4 = ("z1", "z2", "xi1", "xi2")


def sq(variables, *sets):
    return MonomialIdeal.from_varsets(variables, sets)


# -- brute-force oracle: membership over bounded square-free monomials --------


def brute_force_intersection(ideals, variables, max_degree):
    """Minimal square-free members of degree <= max_degree, by divisibility."""
    members = []
    for size in range(1, max_degree + 1):
        for names in combinations(variables, size):
            exp = tuple(1 if v in names else 0 for v in variables)
            if all(ideal.contains_monomial(exp) for ideal in ideals):
                members.append(exp)
    minimal = []
    for m in members:
        if not any(
            all(a <= b for a, b in zip(other, m)) and other != m for other in members
        ):
            minimal.append(m)
    return sorted(minimal)


def test_intersection_of_transverse_primes_matches_brute_force():
    a = sq(VARS4, {"z1"}, {"xi2"})
    b = sq(VARS4, {"z2"}, {"xi1"})
    got = intersect_monomial_ideals([a, b])
    expected = sq(VARS4, {"z1", "z2"}, {"z1", "xi1"}, {"z2", "xi2"}, {"xi1", "xi2"})
    assert got == expected
    assert sorted(got.generators) == brute_force_intersection([a, b], VARS4, 2)


def test_triple_intersection_matches_brute_force():
    a = sq(VARS4, {"z1"}, {"xi2"})
    b = sq(VARS4, {"z2"}, {"xi1"})
    c = sq(VARS4, {"z1"}, {"z2"})
    got = intersect_monomial_ideals([a, b, c])
    expected = sq(VARS4, {"z1", "z2"}, {"z1", "xi1"}, {"z2", "xi2"})
    assert got == expected
    assert sorted(got.generators) == brute_force_intersection([a, b, c], VARS4, 3)


def test_intersection_idempotent():
    j = sq(VARS4, {"z1"}, {"z2", "xi2"})
    assert intersect_monomial_ideals([j, j]) == j


def test_mixed_variable_sets_rejected():
    with pytest.raises(MixedVariableSets):
        intersect_monomial_ideals([sq(VARS4, {"z1"}), sq(("a", "b"), {"a"})])


def test_minimalization_and_unit():
    ideal = MonomialIdeal.make(VARS4, [(1, 1, 0, 0), (1, 0, 0, 0)])
    assert ideal.generators == ((1, 0, 0, 0),)
    assert MonomialIdeal.unit(VARS4).is_unit
    assert not ideal.is_unit


# -- simple shapes -------------------------------------------------------------


def test_decompose_spec_shape():
    vs = ("x1", "x2", "x3", "x4", "x5")
    j = sq(vs, {"x1"}, {"x2", "x4"}, {"x3", "x5"})
    got = decompose_simple_ideal(j)
    assert set(got) == {
        variety(vs, "x1", "x4", "x5"),
        variety(vs, "x1", "x2", "x5"),
        variety(vs, "x1", "x3", "x4"),
        variety(vs, "x1", "x2", "x3"),
    }
    assert all(len(v) == 3 for v in got)


def test_decompose_prime_is_itself():
    vs = ("x1", "x2", "x3")
    j = sq(vs, {"x1"}, {"x2"}, {"x3"})
    assert decompose_simple_ideal(j) == [variety(vs, "x1", "x2", "x3")]


def test_decompose_principal_pair():
    vs = ("x1", "x2")
    assert set(decompose_simple_ideal(sq(vs, {"x1", "x2"}))) == {
        variety(vs, "x1"),
        variety(vs, "x2"),
    }


def test_not_simple_shapes():
    vs = ("x1", "x2", "x3")
    with pytest.raises(NotSimpleShape):
        simple_shape(sq(vs, {"x1", "x2", "x3"}))  # degree-3 generator
    with pytest.raises(NotSimpleShape):
        simple_shape(sq(vs, {"x1", "x2"}, {"x2", "x3"}))  # reused variable
    with pytest.raises(NotSimpleShape):
        simple_shape(MonomialIdeal.make(vs, [(2, 0, 0)]))  # not square-free
    with pytest.raises(NotSimpleShape):
        simple_shape(MonomialIdeal.unit(vs))


def vanishes_at(exp, point):
    """Monomial vanishing at a 0/1 point: some variable in it is zero."""
    return any(e and not p for e, p in zip(exp, point))


def test_decomposition_matches_point_membership_oracle():
    # brute force over all 0/1 points: x in V(J) iff x lies on some piece
    vs = tuple(f"x{i}" for i in range(1, 7))
    for ideal in all_simple_ideals(vs, 3):
        pieces = decompose_simple_ideal(ideal)
        for mask in range(1 << len(vs)):
            point = tuple((mask >> i) & 1 for i in range(len(vs)))
            on_variety = all(vanishes_at(g, point) for g in ideal.generators)
            on_union = any(
                all(not point[s] for s in piece)
                for piece in pieces
            )
            assert on_variety == on_union, (ideal, point)


def test_reintersecting_decomposition_recovers_ideal_exhaustively():
    vs = tuple(f"x{i}" for i in range(1, 7))
    count = 0
    for ideal in all_simple_ideals(vs, 3):
        parts = decompose_simple_ideal(ideal)
        assert len({len(v) for v in parts}) == 1
        primes = [prime(v, vs) for v in parts]
        assert intersect_monomial_ideals(primes) == ideal
        count += 1
    assert count > 100  # enumeration actually covered the shape space


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.sampled_from(VARS4), min_size=1, max_size=3), min_size=1, max_size=3))
def test_intersection_commutative_associative(sets):
    ideals = [sq(VARS4, s) for s in sets]
    forward = intersect_monomial_ideals(ideals)
    backward = intersect_monomial_ideals(list(reversed(ideals)))
    assert forward == backward
    if len(ideals) == 3:
        left = intersect_monomial_ideals(
            [intersect_monomial_ideals(ideals[:2]), ideals[2]]
        )
        assert left == forward


def test_ideal_sum_and_containment():
    a = sq(VARS4, {"z1"})
    b = sq(VARS4, {"xi2"})
    s = ideal_sum([a, b])
    assert s == sq(VARS4, {"z1"}, {"xi2"})
    assert s.contains_ideal(a)
    assert not a.contains_ideal(s)


def test_is_simple_ideal():
    assert is_simple_ideal(sq(VARS4, {"z1"}, {"z2", "xi2"}))
    assert not is_simple_ideal(MonomialIdeal.unit(VARS4))


# -- results built without re-validation ------------------------------------------

FRAME3 = ("x1", "x2", "x3")
exponents3 = st.tuples(*[st.integers(0, 2)] * 3)
ideals3 = st.lists(exponents3, max_size=4).map(lambda gens: MonomialIdeal.make(FRAME3, gens))


def assert_clean(ideal):
    """Generators are well-formed, minimal, in graded-lex order, and the ideal
    equals its validating rebuild."""
    gens = ideal.generators
    assert all(
        len(g) == len(ideal.variables) and all(type(x) is int and x >= 0 for x in g)
        for g in gens
    )
    assert list(gens) == sorted(set(gens), key=grlex_key)
    assert not any(
        a != b and all(x <= y for x, y in zip(a, b)) for a in gens for b in gens
    )
    assert ideal == MonomialIdeal.make(ideal.variables, gens)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(ideals3, min_size=1, max_size=3),
    st.lists(st.sampled_from(FRAME3), min_size=2, max_size=3, unique=True),
    st.data(),
)
def test_trusted_results_equal_their_validated_rebuild(ideals, center, data):
    assert_clean(ideal_sum(ideals))
    assert_clean(intersect_monomial_ideals(ideals))
    base = root_chart(FRAME3)
    atlas = Atlas.for_root(base)
    children = blow_up_center(base, variety(base, *center))
    atlas.add_blowup(base.id, children)
    child = data.draw(st.sampled_from(children))
    again = data.draw(st.lists(st.sampled_from(child.variables), min_size=2, max_size=3, unique=True))
    grandchildren = blow_up_center(child, variety(child, *again))
    atlas.add_blowup(child.id, grandchildren)
    leaf = data.draw(st.sampled_from(grandchildren))
    for ideal in ideals:
        assert_clean(atlas.total_transform(child.id, ideal))
        assert_clean(atlas.total_transform(leaf.id, ideal))
        record = transform_ideal(child, ideal)
        assert_clean(record.total)
        assert_clean(record.strict)


# -- minimalize: the attained-gcd shortcut against the sort-and-scan oracle --------


def minimalize_by_scan(generators):
    """Sort graded-lex, keep each generator no kept one divides."""
    kept = []
    for g in sorted(set(map(tuple, generators)), key=grlex_key):
        if not any(all(x <= y for x, y in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(kept)


@st.composite
def exponent_lists(draw):
    width = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 3)] * width)
    gens = draw(st.lists(exps, max_size=6))
    if gens and draw(st.booleans()):  # attained gcd: one generator divides the rest
        base = draw(exps)
        gens = [tuple(map(add, base, g)) for g in gens]
        gens.insert(draw(st.integers(0, len(gens))), base)
    if gens and draw(st.booleans()):
        gens += draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    return gens


@settings(max_examples=300, deadline=None)
@given(exponent_lists())
@example([])
@example([()])
@example([(), ()])  # zero width, duplicated
@example([(1, 2)])
@example([(2, 3), (1, 2), (1, 2)])  # attained gcd, duplicated
@example([(3, 1), (1, 1), (1, 4)])  # attained gcd, listed in the middle
@example([(1, 0), (0, 1)])  # unattained gcd
@example([(2, 1), (1, 2), (3, 3)])  # unattained gcd, one redundant generator
def test_minimalize_matches_sort_and_scan(gens):
    assert minimalize(gens) == minimalize_by_scan(gens)
    assert minimalize(iter(gens)) == minimalize_by_scan(gens)


def test_attained_gcd_is_returned_without_sorting(monkeypatch):
    import logres.monideal as monideal

    def refuse(_):
        raise AssertionError("an attained gcd needs no sort")

    monkeypatch.setattr(monideal, "grlex_key", refuse)
    assert minimalize([(2, 1, 0), (1, 1, 0), (1, 3, 2)]) == ((1, 1, 0),)
    with pytest.raises(AssertionError):
        minimalize([(1, 0, 0), (0, 1, 0)])
