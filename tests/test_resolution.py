import random

import pytest

from conftest import (
    random_compatible_system,
    strip_slice_from_result,
    transverse_slice,
    variety,
)
from logres.blowup import root_chart
from logres.resolution import (
    CompatibleSystem,
    InvalidSystem,
    Member,
    resolve_system,
    validate_compatible_system,
)
from oracles import (
    NonTransverseSlice,
    NotSubsystem,
    restrict_system,
    verify_subsystem_resolution,
)

JET_VARS = ("z1", "z2", "xi2")


def jet_system_c2():
    chart = root_chart(JET_VARS, log_marked=("z1", "z2"))
    return CompatibleSystem(
        chart,
        (
            Member(1, "D(1)", variety(chart, "z1", "xi2")),
            Member(2, "D(1,2)", variety(chart, "z1", "z2")),
        ),
    )


# -- validation ----------------------------------------------------------------


def test_jet_system_is_valid():
    assert validate_compatible_system(jet_system_c2()).valid


def test_two_lowest_index_members_in_one_chart_are_invalid():
    chart = root_chart(("x1", "x2"))
    system = CompatibleSystem(
        chart, (Member(1, "a", variety(chart, "x1")), Member(1, "b", variety(chart, "x2")))
    )
    report = validate_compatible_system(system)
    assert not report.valid
    assert len(report.violations) == 1
    assert {report.violations[0].label_a, report.violations[0].label_b} == {"a", "b"}


def test_empty_system_is_valid():
    chart = root_chart(("x1", "x2"))
    assert validate_compatible_system(CompatibleSystem(chart, ())).valid


def test_same_index_pair_with_lower_container_is_valid():
    chart = root_chart(("x1", "x2", "x3"))
    system = CompatibleSystem(
        chart,
        (
            Member(1, "low", variety(chart, "x1", "x2")),
            Member(2, "a", variety(chart, "x1", "x3")),
            Member(2, "b", variety(chart, "x2", "x3")),
        ),
    )
    assert validate_compatible_system(system).valid


# -- resolution ----------------------------------------------------------------


def test_canonical_resolution_of_jet_system():
    result = resolve_system(jet_system_c2(), mode="canonical")
    assert len(result.per_stage_systems) == 2
    stage1 = result.per_stage_systems[0]
    surviving = {
        system.chart.id: list(system.members)
        for system in stage1
        if system.members
    }
    # the only surviving member lives in the xi2-direction chart
    assert list(surviving) == ["root/E1.0:xi2"]
    (member,) = surviving["root/E1.0:xi2"]
    (chart,) = (s.chart for s in stage1 if s.chart.id == "root/E1.0:xi2")
    assert member.variety == variety(chart, "z1~", "z2")
    assert member.index == 2
    # final system is empty everywhere
    assert all(not s.members for s in result.per_stage_systems[-1])


def test_minimal_mode_runs_one_stage_less():
    result = resolve_system(jet_system_c2(), mode="minimal")
    assert len(result.per_stage_systems) == 1
    assert result.mode == "minimal"


def test_single_member_canonical_is_one_stage():
    chart = root_chart(("x1", "x2", "x3"))
    system = CompatibleSystem(chart, (Member(1, "only", variety(chart, "x1", "x2")),))
    result = resolve_system(system)
    assert len(result.per_stage_systems) == 1
    assert all(not s.members for s in result.per_stage_systems[0])
    assert sorted(c.id for c in result.leaves()) == [
        "root/E1.0:x1",
        "root/E1.0:x2",
    ]


def test_resolving_invalid_system_raises():
    chart = root_chart(("x1", "x2"))
    bad = CompatibleSystem(
        chart, (Member(1, "a", variety(chart, "x1")), Member(1, "b", variety(chart, "x2")))
    )
    with pytest.raises(InvalidSystem):
        resolve_system(bad)


def test_stage_invariance_on_random_systems():
    rng = random.Random(902)
    for _ in range(60):
        system = random_compatible_system(rng)
        result = resolve_system(system, mode="canonical")
        for stage in result.per_stage_systems:
            for chart_system in stage:
                assert validate_compatible_system(chart_system).valid


def test_determinism_byte_for_byte():
    rng1, rng2 = random.Random(7), random.Random(7)
    a = resolve_system(random_compatible_system(rng1))
    b = resolve_system(random_compatible_system(rng2))
    assert a.to_dict() == b.to_dict()


# -- restriction ---------------------------------------------------------------


def test_restrict_drops_slice_variable():
    chart = root_chart(JET_VARS, log_marked=("z1", "z2"))
    system = CompatibleSystem(chart, (Member(1, "D(1)", variety(chart, "z1", "xi2")),))
    restricted = restrict_system(system, {JET_VARS.index("z2")})
    assert restricted.chart.variables == ("z1", "xi2")
    assert restricted.members[0].variety == variety(restricted.chart, "z1", "xi2")


def test_restrict_to_whole_chart_is_identity():
    system = jet_system_c2()
    restricted = restrict_system(system, set())
    assert restricted.members == system.members
    assert restricted.chart.variables == system.chart.variables


def test_restrict_rejects_contained_member():
    chart = root_chart(("z1", "z2"))
    system = CompatibleSystem(chart, (Member(1, "m", variety(chart, "z1")),))
    with pytest.raises(NonTransverseSlice):
        restrict_system(system, {0})  # z1


def test_functoriality_on_random_pairs():
    rng = random.Random(313)
    for _ in range(30):
        system = random_compatible_system(rng)
        zeroed = transverse_slice(rng, system)
        full = resolve_system(system, mode="canonical")
        restricted = resolve_system(
            restrict_system(system, zeroed), mode="canonical"
        )
        assert restricted.to_dict() == strip_slice_from_result(
            full.to_dict(), zeroed
        )


# -- subsystems ------------------------------------------------------------------


def test_full_system_resolves_its_own_ideal():
    assert verify_subsystem_resolution(jet_system_c2(), {"D(1)", "D(1,2)"})


def test_singleton_lowest_member_subsystem():
    assert verify_subsystem_resolution(jet_system_c2(), {"D(1)"})


def test_subsystem_violation_detected():
    # selecting only the higher-index member: its intersection with the
    # excluded lowest member has no lower-index container inside the selection
    with pytest.raises(NotSubsystem):
        verify_subsystem_resolution(jet_system_c2(), {"D(1,2)"})


def test_unknown_labels_rejected():
    with pytest.raises(NotSubsystem):
        verify_subsystem_resolution(jet_system_c2(), {"nope"})
