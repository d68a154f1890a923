import pytest

from logres.blowup import (
    Atlas,
    CenterNotInChart,
    Chart,
    CodimensionOne,
    blow_up_center,
    root_chart,
    strict_transform_variety,
)
from conftest import variety
from logres.monideal import MonomialIdeal, SimpleVariety
from logres.symcore import monomial_string
from oracles import monomial, prime, substitute, transform_ideal, variable


def sq(variables, *sets):
    return MonomialIdeal.from_varsets(variables, sets)


def spelled(chart, slots):
    """The chart's names for a set of its slots."""
    return {chart.variables[s] for s in slots}


def chart_substitution_polys(chart, parent_variables):
    """The chart map as polynomials keyed by parent variable, for the
    substitution oracle."""
    return {
        v: monomial(chart.variables, exp)
        for v, exp in zip(parent_variables, chart.to_parent, strict=True)
    }


def oracle_total_transform(chart, ideal):
    """Total transform generator-by-generator via polynomial substitution."""
    assignment = chart_substitution_polys(chart, ideal.variables)
    gens = []
    for g in ideal.generators:
        f = monomial(ideal.variables, g)
        image = substitute(f, assignment)
        (exp,) = image.terms.keys()
        gens.append(exp)
    return MonomialIdeal.make(chart.variables, gens)


def saturate_exceptional(chart, ideal):
    """Divide each generator by its own maximal exceptional powers."""
    gens = []
    for g in ideal.generators:
        e = list(g)
        for _, idx in chart.exceptional:
            e[idx] = 0
        gens.append(tuple(e))
    return MonomialIdeal._trusted(chart.variables, gens)


def test_codim_two_center_in_affine_three_space():
    base = root_chart(("x1", "x2", "x3"))
    charts = blow_up_center(base, variety(base, "x1", "x2"))
    assert [c.id for c in charts] == ["root/E:x1", "root/E:x2"]
    first = charts[0]
    assert first.variables == ("x1", "x2~", "x3")
    images = [monomial_string(first.variables, e) for e in first.to_parent]
    assert images == ["x1", "x1*x2~", "x3"]
    assert first.exceptional == (("E", 0),)  # cut out by x1


def test_point_blowup_has_n_charts():
    n = 4
    names = tuple(f"x{i}" for i in range(1, n + 1))
    base = root_chart(names)
    charts = blow_up_center(base, variety(base, *names))
    assert len(charts) == n
    for chart in charts:
        substituted = [e for e in chart.to_parent if sum(e) > 1]
        assert len(substituted) == n - 1


def test_composed_substitution_matches_oracle():
    # three blow-up levels, each inside a child chart of the level before
    base = root_chart(("x1", "x2", "x3"))
    child = blow_up_center(base, variety(base, "x1", "x2"), label="E1")[1]  # x2-direction
    assert child.variables == ("x1~", "x2", "x3")
    grand = blow_up_center(child, variety(child, "x2", "x3"), label="E2")[0]  # x2-direction
    assert grand.variables == ("x1~", "x2", "x3~")
    great = blow_up_center(grand, variety(grand, "x1~", "x3~"), label="E3")[1]  # x3~-direction
    assert great.variables == ("x1~~", "x2", "x3~")
    atlas = Atlas.for_root(base)
    atlas.add_blowup(base.id, [child])
    atlas.add_blowup(child.id, [grand])
    atlas.add_blowup(grand.id, [great])

    # oracle: compose the chart maps with polynomial arithmetic, level by level,
    # starting from the identity on the root chart
    expected = {v: variable(base.variables, v) for v in base.variables}
    ideal = sq(base.variables, {"x1", "x3"}, {"x2"})
    for parent, chart in zip((None, base, child, grand), (base, child, grand, great)):
        if parent is not None:
            outer = chart_substitution_polys(chart, parent.variables)
            expected = {v: substitute(f, outer) for v, f in expected.items()}
        composed = atlas.substitution_to_root(chart.id)
        assert list(composed) == list(base.variables)
        for v in base.variables:
            assert monomial(chart.variables, composed[v]) == expected[v]
        oracle = [
            substitute(monomial(base.variables, g), expected)
            for g in ideal.generators
        ]
        assert atlas.total_transform(chart.id, ideal) == MonomialIdeal.make(
            chart.variables, [next(iter(f.terms)) for f in oracle]
        )


def test_total_transform_on_zero_variable_root():
    base = root_chart(())
    assert base.to_root == ()
    atlas = Atlas.for_root(base)
    assert atlas.substitution_to_root(base.id) == {}
    for ideal in (MonomialIdeal.unit(()), MonomialIdeal.make((), [])):
        assert atlas.total_transform(base.id, ideal) == ideal


def test_atlas_root_must_be_a_tree_root():
    base = root_chart(("x1", "x2"))
    child = blow_up_center(base, variety(base, "x1", "x2"))[0]
    with pytest.raises(ValueError):
        Atlas.for_root(child)


def test_transform_ideal_collapses_in_first_direction():
    base = root_chart(("x1", "x2", "x3"))
    ideal = sq(base.variables, {"x1"}, {"x2", "x3"})
    chart = blow_up_center(base, variety(base, "x1", "x2"))[0]
    record = transform_ideal(chart, ideal)
    assert record.total == sq(chart.variables, {"x1"})
    assert record.multiplicities == (("E", 1),)
    assert record.strict.is_unit
    assert record.strict_is_simple_or_trivial
    assert record.total == oracle_total_transform(chart, ideal)


def test_transform_ideal_stays_simple_in_second_direction():
    base = root_chart(("x1", "x2", "x3"))
    ideal = sq(base.variables, {"x1"}, {"x2", "x3"})
    chart = blow_up_center(base, variety(base, "x1", "x2"))[1]
    record = transform_ideal(chart, ideal)
    assert record.total == MonomialIdeal.from_varsets(
        chart.variables, [{"x1~", "x2"}, {"x2", "x3"}]
    )
    assert record.multiplicities == (("E", 1),)
    assert record.strict == sq(chart.variables, {"x1~"}, {"x3"})
    assert record.strict_is_simple_or_trivial
    assert oracle_total_transform(chart, ideal) == record.total


def test_ideal_disjoint_from_center_is_untouched():
    base = root_chart(("x1", "x2", "x3"))
    ideal = sq(base.variables, {"x3"})
    for chart in blow_up_center(base, variety(base, "x1", "x2")):
        record = transform_ideal(chart, ideal)
        assert record.multiplicities == (("E", 0),)
        assert record.strict == sq(chart.variables, {"x3"})


def test_strict_transform_variety_matches_saturation_oracle():
    base = root_chart(("x1", "x2", "x3", "x4"))
    center = variety(base, "x1", "x2", "x3")
    for chart in blow_up_center(base, center):
        for names in [
            {"x1", "x2"},
            {"x1", "x4"},
            {"x2", "x3"},
            {"x4"},
            {"x1", "x2", "x3"},
        ]:
            stratum = variety(base, *names)
            got = strict_transform_variety(chart, stratum)
            oracle = saturate_exceptional(
                chart, oracle_total_transform(chart, prime(stratum, base.variables))
            )
            if got is None:
                assert oracle.is_unit
            else:
                assert oracle == prime(got, chart.variables)


def test_log_marking_propagation():
    base = root_chart(("z1", "z2", "xi2"), log_marked=("z1", "z2"))
    charts = blow_up_center(base, variety(base, "z1", "xi2"))
    by_dir = {base.variables[c.direction]: c for c in charts}
    # z1-direction: z1 keeps its mark and now also cuts the exceptional divisor
    assert spelled(by_dir["z1"], by_dir["z1"].log_marked) == {"z1", "z2"}
    # xi2-direction: renamed z1~ stays marked, xi2 newly marked as exceptional
    assert by_dir["xi2"].variables == ("z1~", "z2", "xi2")
    assert spelled(by_dir["xi2"], by_dir["xi2"].log_marked) == {"z1~", "z2", "xi2"}

    unmarked = root_chart(("x1", "x2", "x3"))
    for chart in blow_up_center(unmarked, variety(unmarked, "x1", "x2")):
        assert chart.log_marked == frozenset()
    with pytest.raises(ValueError):
        root_chart(("x1", "x2"), log_marked=("y",))


def test_center_errors():
    base = root_chart(("x1", "x2"))
    with pytest.raises(CenterNotInChart):
        blow_up_center(base, SimpleVariety(frozenset({0, 2})))  # slot 2 is past x2
    with pytest.raises(CodimensionOne):
        blow_up_center(base, variety(base, "x1"))


def test_atlas_json_is_deterministic():
    def build():
        base = root_chart(("x1", "x2", "x3"))
        atlas = Atlas.for_root(base)
        atlas.add_blowup(base.id, blow_up_center(base, variety(base, "x1", "x2")))
        return atlas

    assert build().to_dict() == build().to_dict()
    payload = build().to_dict()
    assert payload["schema_version"] == 1
    assert [c["id"] for c in payload["charts"]] == sorted(
        c["id"] for c in payload["charts"]
    )


def oracle_root_transform(atlas, chart_id, ideal):
    """Total transform of a root ideal, substituting chart maps down the tree."""
    path = [atlas.charts[chart_id]]
    while path[-1].parent is not None:
        path.append(atlas.charts[path[-1].parent])
    polys = [monomial(ideal.variables, g) for g in ideal.generators]
    for chart in reversed(path[:-1]):
        parent = atlas.charts[chart.parent]
        assignment = chart_substitution_polys(chart, parent.variables)
        polys = [substitute(f, assignment) for f in polys]
    return MonomialIdeal.make(path[0].variables, [next(iter(f.terms)) for f in polys])


def test_repeated_total_transform_reuses_pushed_images(monkeypatch):
    import logres.blowup as blowup

    base = root_chart(("x1", "x2", "x3"))
    children = blow_up_center(base, variety(base, "x1", "x2"), label="E1")
    grandchildren = blow_up_center(children[1], variety(children[1], "x2", "x3"), label="E2")
    atlas = Atlas.for_root(base)
    atlas.add_blowup(base.id, children)
    atlas.add_blowup(children[1].id, grandchildren)
    ideals = [
        sq(base.variables, {"x1", "x2"}),  # principal
        sq(base.variables, {"x1", "x3"}, {"x2"}),
        sq(base.variables, {"x2"}, {"x3"}),  # shares x2 with the one before
        MonomialIdeal.make(base.variables, [(2, 0, 1), (0, 3, 0), (1, 1, 1)]),
    ]
    pushes = []
    real_push = blowup.push_exponent

    def counted_push(images, exponent, width):
        pushes.append(exponent)
        return real_push(images, exponent, width)

    monkeypatch.setattr(blowup, "push_exponent", counted_push)
    for chart_id in sorted(atlas.charts):
        for ideal in ideals:
            expected = oracle_root_transform(atlas, chart_id, ideal)
            first = atlas.total_transform(chart_id, ideal)
            pushed = len(pushes)
            again = atlas.total_transform(chart_id, ideal)
            assert len(pushes) == pushed  # the second call is a memo hit
            assert first == again == expected
        # each distinct root generator was pushed into this chart once
        distinct = {g for ideal in ideals for g in ideal.generators}
        assert sorted(pushes) == sorted(distinct)
        pushes.clear()


def test_add_blowup_refuses_a_chart_id_already_in_the_atlas():
    base = root_chart(("x1", "x2", "x3"))
    children = blow_up_center(base, variety(base, "x1", "x2"))
    atlas = Atlas.for_root(base)
    atlas.add_blowup(base.id, children)
    ideal = sq(base.variables, {"x1"}, {"x2"})
    before = atlas.total_transform(children[0].id, ideal)
    # a different chart under the same id would be served the first chart's images
    impostor = blow_up_center(base, variety(base, "x1", "x3"))[0]
    assert impostor.id == children[0].id and impostor != children[0]
    with pytest.raises(ValueError, match="already in the atlas"):
        atlas.add_blowup(base.id, [impostor])
    assert atlas.charts[children[0].id] == children[0]
    assert atlas.children[base.id] == [c.id for c in children]
    assert atlas.total_transform(children[0].id, ideal) == before
    with pytest.raises(ValueError):
        atlas.add_blowup(base.id, [base])
