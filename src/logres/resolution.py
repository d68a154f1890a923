"""Resolution of compatible systems of coordinate subspaces by iterated
blow-ups of the lowest-index members.

A *compatible system* in a chart is an indexed family of coordinate
subspaces, each the ``frozenset`` of its slots, such that the intersection
of any two members of the same index is contained in some member of
strictly lower index.  Since every coordinate
subspace of a chart passes through the origin, two members can never be
disjoint inside one chart; in particular each chart carries at most one
member of the lowest index.  (Globally, same-index members may be disjoint --
they then simply show up in different charts.)

The canonical resolution blows up, stage by stage, every member of the
current lowest index in every live chart, replacing the remaining members by
their strict transforms (members whose strict transform leaves a chart are
dropped).  A system whose indices span `length` consecutive values is
resolved canonically in `length` stages; the minimal variant stops one stage
early.  The whole process is deterministic: charts are processed in id order
and exceptional divisors are labeled ``E<stage>.<counter>``, the counter
being the number of centers the stage has blown up before.  Members hold
their coordinates by chart slot, which no blow-up moves; only output names them.
So each live chart's system is built once, when its chart is made: a stage
that leaves a chart alone carries its system as it is, and a member whose
strict transform survives into a child is carried as it is too.  Each stage
records its live systems and, in the atlas's stage log, the ids of the charts
it blew up.

Validation returns the message of each violation it finds, so an empty
tuple means compatible.  A resolution records its leaves once: the charts
of its final live state, sorted by id.

Slice restriction and subsystem principalization are not verbs: they are
the functoriality routes the tests check the resolution against, in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import Atlas, Chart, StageRecord, blow_up_center, strict_transform_variety
from .symcore import LogresError


class InvalidSystem(LogresError):
    """The family is not a compatible system."""


@dataclass(frozen=True)
class Member:
    index: int
    label: str
    variety: frozenset[int]  # the slots cutting out the member


@dataclass(frozen=True)
class CompatibleSystem:
    chart: Chart
    members: tuple[Member, ...]


def validate_compatible_system(system: CompatibleSystem) -> tuple[str, ...]:
    """The message of every violation of the same-index intersection
    condition; none means the system is compatible.

    Inside a single chart all members pass through the origin, so the
    "disjoint" alternative never applies: each same-index pair needs a
    lower-index member containing its intersection.
    """
    violations = []
    members = system.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if a.index != b.index:
                continue
            union = a.variety | b.variety
            if not any(m.index < a.index and m.variety <= union for m in members):
                violations.append(
                    f"index {a.index}: {a.label} meets {b.label} with no lower-index container"
                )
    return tuple(violations)


@dataclass(frozen=True)
class ResolutionResult:
    atlas: Atlas
    per_stage_systems: tuple[tuple[CompatibleSystem, ...], ...]
    mode: str
    leaves: tuple[Chart, ...]  # the charts of the final live state, sorted by id

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode,
            "atlas": self.atlas.to_dict(),
            "per_stage_systems": [
                [
                    {
                        "chart": system.chart.id,
                        "members": [
                            {
                                "index": m.index,
                                "label": m.label,
                                "vanishing": sorted(
                                    system.chart.variables[s] for s in m.variety
                                ),
                            }
                            for m in system.members
                        ],
                    }
                    for system in stage
                ]
                for stage in self.per_stage_systems
            ],
        }


def resolve_system(system: CompatibleSystem, mode: str = "canonical") -> ResolutionResult:
    """Run the staged blow-up of lowest-index members.

    With `length` the span of the member indices, canonical mode runs
    `length` stages and ends with an empty system; minimal mode stops after
    `length - 1` stages.
    """
    if mode not in ("canonical", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    violations = validate_compatible_system(system)
    if violations:
        raise InvalidSystem("; ".join(violations))

    atlas = Atlas.for_root(system.chart)
    state = [system]
    indices = {m.index for m in system.members}
    lowest = min(indices, default=0)
    length = max(indices) - lowest + 1 if indices else 0
    stages = length if mode == "canonical" else max(length - 1, 0)
    per_stage: list[tuple[CompatibleSystem, ...]] = []

    for stage in range(1, stages + 1):
        target = lowest + stage - 1
        new_state: list[CompatibleSystem] = []
        centers: list[str] = []
        for live in state:
            chart, members = live.chart, live.members
            current = [m for m in members if m.index == target]
            if not current:
                new_state.append(live)
                continue
            if len(current) > 1:
                # stage invariance failed: two lowest-index members share a chart
                raise InvalidSystem(
                    f"chart {chart.id} holds {len(current)} members of index {target}"
                )
            center = current[0]
            children = blow_up_center(chart, center.variety, label=f"E{stage}.{len(centers)}")
            atlas.add_blowup(chart.id, children)
            centers.append(chart.id)
            for child in children:
                kept = tuple(
                    m
                    for m in members
                    if m is not center and strict_transform_variety(child, m.variety) is not None
                )
                new_state.append(CompatibleSystem(child, kept))
        state = new_state
        atlas.stage_log.append(StageRecord(stage, tuple(centers)))
        per_stage.append(tuple(state))

    if mode == "canonical" and any(live.members for live in state):
        raise InvalidSystem("canonical resolution left unresolved members")
    leaves = tuple(sorted((live.chart for live in state), key=lambda chart: chart.id))
    return ResolutionResult(atlas, tuple(per_stage), mode, leaves)
