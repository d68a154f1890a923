import dataclasses
import json
from dataclasses import dataclass
from itertools import combinations
from math import factorial

import pytest

from logres import blowup, logjet, resolution
from logres.blowup import Atlas, push_exponent
from logres.cli import run_command
from logres.logjet import (
    NotResolved,
    verify_principalization,
    OutOfRange,
    build_obstruction_system,
    component_subsets,
    make_jet_chart,
    obstruction_certificate,
    obstruction_ideal,
    obstruction_ideal_closed_form,
    obstruction_ideal_intersected,
    resolve_obstruction_system,
    stratum_prime,
    stratum_relation_holds,
    stratum_variety,
)
from logres.monideal import MonomialIdeal, ideal_sum, intersect_monomial_ideals
from logres.resolution import ResolutionResult, resolve_system, validate_compatible_system
from logres.symcore import Polynomial
from conftest import variety
from oracles import extend_variables, monomial, to_parent, variable


def nonempty_subsets(items):
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def test_component_subsets_match_bitmask_enumeration():
    for c in range(0, 7):
        items = tuple(range(1, c + 1))
        masks = {
            tuple(i + 1 for i in range(c) if mask & (1 << i))
            for mask in range(1, 1 << c)
        }
        assert component_subsets(items) == sorted(masks, key=lambda J: (len(J), J))


# -- visibility oracle: dehomogenize the projective equations directly --------


def oracle_visible(n, k, t, J):
    """A stratum is visible iff setting xi_t = 1 does not force 1 = 0."""
    if not set(J) <= set(range(1, k + 1)):
        return False  # some component misses the point entirely
    fiber_zeroed = [j for j in range(1, n + 1) if j not in J]
    return t not in fiber_zeroed


def test_visibility_matches_oracle_exhaustively():
    for n in (2, 3, 4):
        c = n
        for k in range(0, c + 1):
            for t in range(1, n + 1):
                jet = make_jet_chart(n, c, k, t)
                for J in nonempty_subsets(range(1, c + 1)):
                    expected = oracle_visible(n, k, t, J)
                    assert (stratum_variety(jet, J) is not None) == expected


def test_build_system_n2_chart1():
    jet, system = build_obstruction_system(2, 2, 2, 1)
    assert {m.label: m.variety for m in system.members} == {
        "D(1)": variety(jet.chart, "z1", "xi2"),
        "D(1,2)": variety(jet.chart, "z1", "z2"),
    }
    assert [m.index for m in system.members] == [1, 2]
    assert not validate_compatible_system(system)
    # D(2) is invisible: its ideal contains xi1 = 1
    assert stratum_prime(jet, {2}).is_unit


def test_build_system_no_components_through_point():
    for t in (1, 2):
        _, system = build_obstruction_system(2, 2, 0, t)
        assert system.members == ()


def test_build_system_n3_full():
    jet, system = build_obstruction_system(3, 3, 3, 1)
    # 7 nonempty subsets, visible exactly when they contain 1
    assert len(system.members) == 4
    assert all(stratum_variety(jet, J) is None for J in [(2,), (3,), (2, 3)])
    assert not validate_compatible_system(system)


def test_stratum_dimension_is_codim_n():
    for n in (2, 3, 4):
        for k in range(0, n + 1):
            for t in range(1, n + 1):
                jet, system = build_obstruction_system(n, n, k, t)
                for m in system.members:
                    assert len(m.variety) == n  # dim = (2n-1) - n = n-1


def test_out_of_range():
    with pytest.raises(OutOfRange):
        make_jet_chart(1, 1, 1, 1)
    with pytest.raises(OutOfRange):
        make_jet_chart(3, 2, 3, 1)  # k > c
    with pytest.raises(OutOfRange):
        make_jet_chart(3, 3, 3, 4)  # t > n


# -- obstruction ideals ---------------------------------------------------------


def test_obstruction_ideal_full_pair():
    jet = make_jet_chart(2, 2, 2, 1)
    got = obstruction_ideal(jet, {1, 2})
    assert got == MonomialIdeal.from_varsets(
        jet.chart.variables, [{"z1"}, {"z2", "xi2"}]
    )


def test_obstruction_ideal_invisible_component():
    # single component through the point, viewed from the other fiber chart
    jet = make_jet_chart(2, 2, 1, 2)
    assert obstruction_ideal(jet, {1}).is_unit


def test_obstruction_ideal_point_off_divisor():
    jet = make_jet_chart(2, 2, 0, 1)
    assert obstruction_ideal(jet, {1, 2}).is_unit


def test_closed_form_equality_exhaustive_small():
    for n in (2, 3):
        c = n
        for k in range(0, c + 1):
            for t in range(1, n + 1):
                jet = make_jet_chart(n, c, k, t)
                for I in nonempty_subsets(range(1, c + 1)):
                    cert = obstruction_certificate(jet, I)
                    assert cert["equal"], cert
                    assert obstruction_ideal_intersected(
                        jet, I
                    ) == obstruction_ideal_closed_form(jet, I)


def test_cone_level_intersection_differs_by_an_absorbed_generator():
    # before dehomogenizing, the n=2 intersection picks up the extra
    # generator z1*z2, which every fiber chart absorbs (xi_t -> 1); this is
    # why all ideal identities are asserted chartwise
    cone_vars = ("z1", "z2", "xi1", "xi2")
    primes = [
        MonomialIdeal.from_varsets(cone_vars, [{"z1"}, {"xi2"}]),
        MonomialIdeal.from_varsets(cone_vars, [{"z2"}, {"xi1"}]),
        MonomialIdeal.from_varsets(cone_vars, [{"z1"}, {"z2"}]),
    ]
    from logres.monideal import intersect_monomial_ideals

    cone = intersect_monomial_ideals(primes)
    closed = MonomialIdeal.from_varsets(cone_vars, [{"z1", "xi1"}, {"z2", "xi2"}])
    extra = MonomialIdeal.from_varsets(
        cone_vars, [{"z1", "xi1"}, {"z2", "xi2"}, {"z1", "z2"}]
    )
    assert cone != closed
    assert cone == extra
    for t in (1, 2):
        jet = make_jet_chart(2, 2, 2, t)
        assert obstruction_ideal_intersected(jet, {1, 2}) == obstruction_ideal_closed_form(
            jet, {1, 2}
        )


def test_intersection_relations_small():
    for n in (2, 3):
        for t in range(1, n + 1):
            jet = make_jet_chart(n, n, n, t)
            for I in nonempty_subsets(range(1, n + 1)):
                for J in nonempty_subsets(range(1, n + 1)):
                    pi = stratum_prime(jet, I)
                    pj = stratum_prime(jet, J)
                    both = ideal_sum([pi, pj])
                    if set(I) & set(J):
                        target = stratum_prime(jet, set(I) & set(J))
                        assert both.contains_ideal(target)
                    else:
                        assert pi.is_unit or pj.is_unit


# -- pullbacks -------------------------------------------------------------------
#
# No verb pulls sections back; these helpers check the pullback-membership claim
# of the logjet module docstring and give a third route to the obstruction ideal.


def base_vars(jet):
    return tuple(f"z{i}" for i in range(1, jet.n + 1))


def contains_polynomial(ideal, f):
    """Monomial-wise membership; exact for monomial ideals."""
    assert f.variables == ideal.variables
    return all(ideal.contains_monomial(e) for e in f.terms)


@dataclass(frozen=True)
class PullbackCheck:
    pullback: Polynomial
    member_of_obstruction_ideal: bool


def check_section_pullback(jet, sections, I):
    """Pull a fiber-linear section sum(s_i * xi_i) back and test membership.

    `sections` lists the coefficients s_1..s_n over the base coordinates.
    The pullback multiplies xi_i by z_i for components of I through the
    point, then dehomogenizes at xi_t = 1.
    """
    if len(sections) != jet.n:
        raise ValueError(f"expected {jet.n} section coefficients")
    through = frozenset(I) & set(range(1, jet.k + 1))
    variables = jet.chart.variables
    total = Polynomial.zero(variables)
    for i, s in enumerate(sections, start=1):
        coeff = extend_variables(s, variables)
        factor = Polynomial.constant(variables, 1)
        if i in through:
            factor = factor * variable(variables, f"z{i}")
        if i != jet.t:
            factor = factor * variable(variables, f"xi{i}")
        total = total + coeff * factor
    ideal = obstruction_ideal(jet, I)
    return PullbackCheck(total, contains_polynomial(ideal, total))


def coordinate_section_pullbacks(jet, I):
    """Ideal generated by the pullbacks of the n coordinate sections xi_i."""
    gens = []
    for i in range(1, jet.n + 1):
        sections = [
            Polynomial.constant(base_vars(jet), 1 if j == i else 0)
            for j in range(1, jet.n + 1)
        ]
        pullback = check_section_pullback(jet, sections, I).pullback
        if pullback.is_zero:
            continue
        gens.extend(pullback.terms.keys())
    return MonomialIdeal.make(jet.chart.variables, gens)


def test_pullback_single_component():
    jet = make_jet_chart(2, 2, 1, 1)
    z = base_vars(jet)
    s1 = variable(z, "z2") + 3
    s2 = variable(z, "z1") * variable(z, "z2")
    result = check_section_pullback(jet, [s1, s2], {1})
    # sigma = s1*xi1 + s2*xi2 pulls back to s1*z1*xi1 + s2*xi2, xi1 -> 1
    vs = jet.chart.variables
    z1 = variable(vs, "z1")
    z2 = variable(vs, "z2")
    xi2 = variable(vs, "xi2")
    assert result.pullback == (z2 + 3) * z1 + z1 * z2 * xi2
    assert result.member_of_obstruction_ideal


def test_pullback_zero_section():
    jet = make_jet_chart(2, 2, 2, 1)
    zero = Polynomial.zero(base_vars(jet))
    result = check_section_pullback(jet, [zero, zero], {1, 2})
    assert result.pullback.is_zero
    assert result.member_of_obstruction_ideal


def test_random_section_pullbacks_are_always_members():
    import random

    from oracles import random_fraction

    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 3)
        k = rng.randint(0, n)
        t = rng.randint(1, n)
        jet = make_jet_chart(n, n, k, t)
        size = rng.randint(1, n)
        I = rng.sample(range(1, n + 1), size)
        z = base_vars(jet)
        sections = []
        for _ in range(n):
            poly = Polynomial.zero(z)
            for _ in range(rng.randint(0, 3)):
                exp = tuple(rng.randint(0, 2) for _ in z)
                poly = poly + monomial(z, exp, random_fraction(rng))
            sections.append(poly)
        assert check_section_pullback(jet, sections, I).member_of_obstruction_ideal


def test_coordinate_sections_generate_the_ideal_exactly():
    for n in (2, 3):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                jet = make_jet_chart(n, n, k, t)
                for I in nonempty_subsets(range(1, n + 1)):
                    generated = coordinate_section_pullbacks(jet, I)
                    assert generated == obstruction_ideal(jet, I)


# -- principalization --------------------------------------------------------------


def test_minimal_resolution_principalizes_single_obstructions():
    jet, system = build_obstruction_system(2, 2, 2, 1)
    result = resolve_system(system, mode="minimal")
    for i in (1, 2):
        complement = set(range(1, 3)) - {i}
        cert = verify_principalization(result, jet, complement)
        # returned, not raised: principal, with a divisor on every leaf
        assert cert.I == tuple(sorted(complement))
        assert set(cert.per_chart) == {leaf.id for leaf in result.leaves}


def test_canonical_resolution_principalizes_everything():
    jet, system = build_obstruction_system(2, 2, 2, 1)
    result = resolve_system(system, mode="canonical")
    cert = verify_principalization(result, jet, {1, 2})
    divisors = cert.per_chart
    assert divisors["root/E1.0:xi2/E2.0:z1~"] == {"E1.0": 1, "E2.0": 1}
    assert divisors["root/E1.0:xi2/E2.0:z2"] == {"E1.0": 1, "E2.0": 1}
    assert divisors["root/E1.0:z1"] == {"E1.0": 1}


def test_every_verify_jet_chart_obeys_the_star_subdivision_column_rule():
    """Column j of `to_root` is the exponent of chart slot j in each root
    coordinate: the ray of slot j.  Blowing up a center in direction j is a
    star subdivision, so the child's ray at `direction` is the sum of the
    parent's rays over `center`, and every other ray is the parent's.
    Checked with integer sums alone on every chart of every atlas that
    `verify-jet --n 2..4` builds, and against the stored `to_root` composed
    by `push_exponent` over the oracle's map to the parent."""

    def ray(chart, slot):
        return [row[slot] for row in chart.to_root]

    checked = 0
    for n in (2, 3, 4):
        for k in range(n + 1):
            for t in range(1, n + 1):
                jet, system = build_obstruction_system(n, n, k, t)
                atlas = resolve_obstruction_system(jet, system, "canonical").atlas
                for chart in atlas.charts.values():
                    if chart.parent is None:
                        continue
                    parent = atlas.charts[chart.parent]
                    for slot in range(len(chart.variables)):
                        if slot == chart.direction:
                            rays = [ray(parent, s) for s in chart.center]
                            expected = [sum(column) for column in zip(*rays)]
                        else:
                            expected = ray(parent, slot)
                        assert ray(chart, slot) == expected, (n, k, t, chart.id, slot)
                    width = len(chart.variables)
                    composed = tuple(
                        push_exponent(to_parent(chart), row, width) for row in parent.to_root
                    )
                    assert composed == chart.to_root, (n, k, t, chart.id)
                    checked += 1
    assert checked == 406


def a000522(m):
    """a(m) = sum_{j=0}^{m} m!/j!, OEIS A000522: 1, 2, 5, 16, 65, ..."""
    return sum(factorial(m) // factorial(j) for j in range(m + 1))


def test_canonical_atlas_sizes_follow_a000522():
    """Chart and leaf counts of every canonical atlas at 2 <= n <= 6, for
    every c, k <= c and t: with 1 <= t <= k, n*a(k-1) + 1 charts and
    (n-1)*a(k-1) + 1 leaves; otherwise the system is empty and the root is
    the one chart and leaf.  The counts share no code with the blow-ups."""
    checked = 0
    for n in range(2, 7):
        for c in range(1, n + 1):
            for k in range(c + 1):
                for t in range(1, n + 1):
                    jet, system = build_obstruction_system(n, c, k, t)
                    result = resolve_obstruction_system(jet, system, "canonical")
                    if 1 <= t <= k:
                        expected = (n * a000522(k - 1) + 1, (n - 1) * a000522(k - 1) + 1)
                    else:
                        expected = (1, 1)
                    got = (len(result.atlas.charts), len(result.leaves))
                    assert got == expected, (n, c, k, t)
                    checked += 1
    assert checked == 355


def test_unresolved_base_raises_not_resolved():
    jet, system = build_obstruction_system(2, 2, 2, 1)
    bare = ResolutionResult(Atlas.for_root(jet.chart), (), "none", (jet.chart,))
    with pytest.raises(NotResolved) as exc:
        verify_principalization(bare, jet, {1, 2})
    assert exc.value.chart_id == "root"
    assert str(exc.value) == (
        "total transform of obstruction ideal for I=[1, 2] has 2 minimal generators (chart root)"
    )


def test_a_leaf_that_loses_its_newest_divisor_is_not_principal(monkeypatch):
    """Children that drop their newest exceptional pair leave that divisor's
    coordinate as a non-exceptional factor of the total transform, which
    verify-jet refuses with the leaf named."""

    def forgetful(chart, center, label="E"):
        children = blowup.blow_up_center(chart, center, label)
        return [dataclasses.replace(c, exceptional=c.exceptional[:-1]) for c in children]

    monkeypatch.setattr(resolution, "blow_up_center", forgetful)
    code, text = run_command(["verify-jet", "--n", "2"])
    assert code == 1
    failures = json.loads(text)["principality_failures"]
    assert failures[0] == {
        "k": 1, "t": 1, "I": [1],
        "error": "non-exceptional factor xi2 in the total transform (chart root/E1.0:xi2)",
    }
    assert all(f["error"].startswith("non-exceptional factor ") for f in failures)


def test_the_relabel_check_refuses_any_other_pair_of_charts():
    """Only chart (k, 1) relabels onto chart (k, t), 1 < t <= k: t = 1,
    t > k and a source chart whose t is not 1 are refused."""
    subsets = component_subsets(range(1, 4))
    for source, t in (
        (make_jet_chart(3, 3, 3, 1), 1),
        (make_jet_chart(3, 3, 2, 1), 3),
        (make_jet_chart(3, 3, 3, 2), 3),
    ):
        with pytest.raises(OutOfRange, match="is not a relabeling of chart"):
            logjet._relabeled_chart(source, t, subsets)


# -- one build per chart --------------------------------------------------------------


def test_shared_chart_route_matches_fresh_builds():
    """A chart that builds each prime and obstruction ideal once (as verify-jet
    uses it) gives the same certificates, divisors and relation verdicts as
    fresh charts and freshly built primes."""
    for n in (2, 3):
        subsets = list(nonempty_subsets(range(1, n + 1)))
        for k in range(0, n + 1):
            for t in range(1, n + 1):
                jet, system = build_obstruction_system(n, n, k, t)
                result = resolve_obstruction_system(jet, system, "canonical")
                for I in subsets:
                    shared_cert = obstruction_certificate(jet, I)
                    shared = verify_principalization(result, jet, I)
                    fresh_cert = obstruction_certificate(make_jet_chart(n, n, k, t), I)
                    fresh = verify_principalization(result, make_jet_chart(n, n, k, t), I)
                    assert shared_cert == fresh_cert
                    assert shared == fresh
                    fresh_primes = [stratum_prime(jet, J) for J in nonempty_subsets(I)]
                    fresh_primes = [p for p in fresh_primes if not p.is_unit]
                    expected = (
                        intersect_monomial_ideals(fresh_primes)
                        if fresh_primes
                        else MonomialIdeal.unit(jet.chart.variables)
                    )
                    assert obstruction_ideal(jet, I) == expected
                for I in subsets:
                    assert jet.stratum_primes[I] == stratum_prime(jet, I)
                    for J in subsets:
                        pi, pj = stratum_prime(jet, I), stratum_prime(jet, J)
                        common = set(I) & set(J)
                        if common:
                            verdict = ideal_sum([pi, pj]).contains_ideal(stratum_prime(jet, common))
                        else:
                            verdict = pi.is_unit or pj.is_unit
                        assert stratum_relation_holds(jet, I, J) == verdict


def test_component_subsets_are_range_checked():
    jet = make_jet_chart(3, 2, 2, 1)
    for call in (
        lambda: stratum_prime(jet, {3}),
        lambda: obstruction_ideal_intersected(jet, {1, 3}),
        lambda: obstruction_certificate(jet, {0, 1}),
        lambda: stratum_relation_holds(jet, {1}, {3}),
    ):
        with pytest.raises(OutOfRange):
            call()
    with pytest.raises(ValueError):
        obstruction_ideal(jet, set())
    with pytest.raises(ValueError):
        stratum_relation_holds(jet, set(), {1})


def test_relation_verdict_reads_the_chart_primes():
    # in chart t = 1 of n = k = 3 both relations hold; spoiling the primes they
    # read must flip each verdict
    jet = make_jet_chart(3, 3, 3, 1)
    primes = jet.stratum_primes
    visible = primes[(1,)]
    assert stratum_relation_holds(jet, (1, 2), (1, 3))
    assert stratum_relation_holds(jet, (2,), (3,))
    primes[(1,)] = MonomialIdeal.unit(jet.chart.variables)
    assert not stratum_relation_holds(jet, (1, 2), (1, 3))
    primes[(2,)] = primes[(3,)] = visible
    assert not stratum_relation_holds(jet, (2,), (3,))


def relation_oracle(primes, I, J):
    """The relation from the sum alone, with no unit-prime shortcut."""
    common = tuple(sorted(set(I) & set(J)))
    if common:
        return ideal_sum([primes[I], primes[J]]).contains_ideal(primes[common])
    return primes[I].is_unit or primes[J].is_unit


def test_relation_is_symmetric_and_matches_the_sum_oracle():
    for n in (2, 3, 4):
        for c in range(1, n + 1):
            subsets = list(nonempty_subsets(range(1, c + 1)))
            for k in range(0, c + 1):
                for t in range(1, n + 1):
                    jet = make_jet_chart(n, c, k, t)
                    primes = {J: stratum_prime(jet, J) for J in subsets}
                    for I in subsets:
                        for J in subsets:
                            verdict = stratum_relation_holds(jet, I, J)
                            assert verdict == stratum_relation_holds(jet, J, I)
                            assert verdict == relation_oracle(primes, I, J), (n, c, k, t, I, J)
