import random

import pytest

from conftest import (
    random_compatible_system,
    strip_slice_from_result,
    transverse_slice,
    variety,
)
from logres import logjet, resolution
from logres.blowup import root_chart
from logres.cli import run_command
from logres.logjet import build_obstruction_system, resolve_obstruction_system
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
    atlas_leaves,
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
    assert not validate_compatible_system(jet_system_c2())


def test_two_lowest_index_members_in_one_chart_are_invalid():
    chart = root_chart(("x1", "x2"))
    system = CompatibleSystem(
        chart, (Member(1, "a", variety(chart, "x1")), Member(1, "b", variety(chart, "x2")))
    )
    assert validate_compatible_system(system) == (
        "index 1: a meets b with no lower-index container",
    )


def test_empty_system_is_valid():
    chart = root_chart(("x1", "x2"))
    assert not validate_compatible_system(CompatibleSystem(chart, ()))


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
    assert not validate_compatible_system(system)


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
    assert sorted(c.id for c in result.leaves) == [
        "root/E1.0:x1",
        "root/E1.0:x2",
    ]


def jet_resolutions():
    """(key, system, resolution) for every jet system with n <= 4, every c,
    k and t, in both modes: 186 resolutions."""
    for n in (2, 3, 4):
        for c in range(1, n + 1):
            for k in range(c + 1):
                for t in range(1, n + 1):
                    for mode in ("canonical", "minimal"):
                        jet, system = build_obstruction_system(n, c, k, t)
                        yield (n, c, k, t, mode), system, resolve_obstruction_system(jet, system, mode)


def test_recorded_leaves_are_the_childless_charts_of_the_atlas():
    """The leaves a resolution records from its final state are the charts
    with no children in its atlas, sorted by id, on every jet system with
    n <= 4 in both modes."""
    checked = 0
    for key, _, result in jet_resolutions():
        assert result.leaves == tuple(atlas_leaves(result.atlas)), key
        checked += 1
    assert checked == 186


def test_stage_log_agrees_with_the_stage_records():
    """Stage s blows up, in order, the charts of the previous stage's record
    (the root system before stage 1) that hold a member of index lowest+s-1.
    Each center is labeled E<s>.<position>, vanishes on that member's slots,
    and is replaced in stage s's record by its children, in order."""
    for key, system, result in jet_resolutions():
        log = result.to_dict()["atlas"]["stage_log"]
        assert [entry["stage"] for entry in log] == list(range(1, len(log) + 1)), key
        assert len(log) == len(result.per_stage_systems), key
        lowest = min((m.index for m in system.members), default=0)
        before = (system,)
        for s, (entry, after) in enumerate(zip(log, result.per_stage_systems), start=1):
            expected, following = [], []
            for live in before:
                held = [m for m in live.members if m.index == lowest + s - 1]
                if not held:
                    following.append(live.chart.id)
                    continue
                (member,) = held
                kids = [x.chart.id for x in after if x.chart.parent == live.chart.id]
                expected.append(
                    {
                        "chart": live.chart.id,
                        "label": f"E{s}.{len(expected)}",
                        "vanishing": [live.chart.variables[i] for i in sorted(member.variety)],
                        "children": kids,
                    }
                )
                following += kids
            assert entry["centers"] == expected, (key, s)
            assert [x.chart.id for x in after] == following, (key, s)
            before = after


def test_stages_carry_systems_and_members_as_they_are():
    """A chart a stage does not blow up keeps its very system object in that
    stage's record, and every member of a child's system is one of its
    parent's member objects."""
    for key, system, result in jet_resolutions():
        before = (system,)
        for after in result.per_stage_systems:
            kept = {live.chart.id: live for live in after}
            for live in before:
                if live.chart.id in kept:
                    assert kept[live.chart.id] is live, key
                    continue
                children = [x for x in after if x.chart.parent == live.chart.id]
                assert children, key
                for child in children:
                    assert all(any(m is p for p in live.members) for m in child.members), key
            before = after


def members_built(monkeypatch, argv):
    """How many Members a run builds, the (k, t) of each obstruction system
    it assembles, and the Members it builds outside one."""
    inside, built, stray, charts = [False], [0], [], []
    init = Member.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        if not inside[0]:
            stray.append(args)
        init(self, *args, **kwargs)

    build = logjet.build_obstruction_system

    def building(n, c, k, t):
        inside[0] = True
        charts.append((k, t))
        try:
            return build(n, c, k, t)
        finally:
            inside[0] = False

    monkeypatch.setattr(Member, "__init__", counted)
    monkeypatch.setattr(logjet, "build_obstruction_system", building)
    code, _ = run_command(argv)
    assert code == 0
    return built[0], charts, stray


def test_verify_jet_builds_members_only_for_obstruction_systems(monkeypatch):
    """At n = 4 every Member that verify-jet builds is built while an
    obstruction system is assembled; resolving carries them as they are.
    A JSON run assembles every chart's system: chart (k, t), t <= k, has
    2^(k-1) members, 49 in all."""
    built, charts, stray = members_built(monkeypatch, ["verify-jet", "--n", "4", "--format", "json"])
    assert not stray
    assert len(charts) == 4 * 5
    assert built == 49


def test_verify_jet_text_builds_members_only_for_the_charts_it_resolves(monkeypatch):
    """The text twin at n = 5: a text run assembles the systems of charts
    (k, 1) and of the empty charts, t > k, alone, and checks charts (k, t),
    1 < t <= k, as their relabelings, so it builds 2^(k-1) members per k,
    31 in all, where a JSON run builds 129."""
    n = 5
    built, charts, stray = members_built(monkeypatch, ["verify-jet", "--n", str(n), "--format", "text"])
    assert not stray
    assert sorted(charts) == sorted(
        (k, t) for k in range(n + 1) for t in range(1, n + 1) if t == 1 or t > k
    )
    assert built == sum(2 ** (k - 1) for k in range(1, n + 1)) == 31


def test_resolving_invalid_system_raises():
    chart = root_chart(("x1", "x2"))
    bad = CompatibleSystem(
        chart, (Member(1, "a", variety(chart, "x1")), Member(1, "b", variety(chart, "x2")))
    )
    with pytest.raises(InvalidSystem):
        resolve_system(bad)


def test_a_stage_refuses_two_lowest_index_members_in_one_chart(monkeypatch):
    """The stage guard stands behind validation: with validation passing
    everything, the stage itself refuses the pair."""
    chart = root_chart(("x1", "x2", "x3"))
    bad = CompatibleSystem(
        chart,
        (Member(1, "a", variety(chart, "x1", "x2")), Member(1, "b", variety(chart, "x2", "x3"))),
    )
    assert validate_compatible_system(bad)
    monkeypatch.setattr(resolution, "validate_compatible_system", lambda system: ())
    with pytest.raises(InvalidSystem, match="^chart root holds 2 members of index 1$"):
        resolve_system(bad)


def test_stage_invariance_on_random_systems():
    rng = random.Random(902)
    for _ in range(60):
        system = random_compatible_system(rng)
        result = resolve_system(system, mode="canonical")
        for stage in result.per_stage_systems:
            for chart_system in stage:
                assert not validate_compatible_system(chart_system)


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
