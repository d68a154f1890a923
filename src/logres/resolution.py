"""Resolution of compatible systems of coordinate subspaces by iterated
blow-ups of the lowest-index members.

A *compatible system* in a chart is an indexed family of coordinate
subspaces such that the intersection of any two members of the same index is
contained in some member of strictly lower index.  Since every coordinate
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
and exceptional divisors are labeled ``E<stage>.<counter>``.  Members hold
their coordinates by chart slot, which no blow-up moves; only output names them.

Slice restriction and subsystem principalization are not verbs: they are
the functoriality routes the tests check the resolution against, in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import (
    Atlas,
    CenterRecord,
    Chart,
    StageRecord,
    blow_up_center,
    strict_transform_variety,
)
from .monideal import SimpleVariety
from .symcore import LogresError


class InvalidSystem(LogresError):
    """The family is not a compatible system."""


@dataclass(frozen=True)
class Member:
    index: int
    label: str
    variety: SimpleVariety

    def __str__(self) -> str:
        return f"[{self.index}] {self.label}: {self.variety}"


@dataclass(frozen=True)
class CompatibleSystem:
    chart: Chart
    members: tuple[Member, ...]

    @property
    def indices(self) -> list[int]:
        return sorted({m.index for m in self.members})

    @property
    def length(self) -> int:
        idx = self.indices
        return idx[-1] - idx[0] + 1 if idx else 0


@dataclass(frozen=True)
class Violation:
    index: int
    label_a: str
    label_b: str

    def __str__(self) -> str:
        return f"index {self.index}: {self.label_a} meets {self.label_b} with no lower-index container"


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def validate_compatible_system(system: CompatibleSystem) -> ValidationReport:
    """Check the same-index intersection condition, reporting every violation.

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
            union = a.variety.vanishing | b.variety.vanishing
            if not any(
                m.index < a.index and m.variety.vanishing <= union
                for m in members
            ):
                violations.append(Violation(a.index, a.label, b.label))
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class ResolutionResult:
    atlas: Atlas
    per_stage_systems: tuple[tuple[CompatibleSystem, ...], ...]
    mode: str

    def leaves(self) -> list[Chart]:
        return self.atlas.leaves()

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
                                    system.chart.variables[s] for s in m.variety.vanishing
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

    Canonical mode runs `length` stages and ends with an empty system;
    minimal mode stops after `length - 1` stages.
    """
    if mode not in ("canonical", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    report = validate_compatible_system(system)
    if not report.valid:
        raise InvalidSystem("; ".join(str(v) for v in report.violations))

    atlas = Atlas.for_root(system.chart)
    state: list[tuple[Chart, tuple[Member, ...]]] = [(system.chart, system.members)]
    length = system.length
    stages = length if mode == "canonical" else max(length - 1, 0)
    lowest = system.indices[0] if system.members else 0
    per_stage: list[tuple[CompatibleSystem, ...]] = []

    for stage in range(1, stages + 1):
        target = lowest + stage - 1
        new_state: list[tuple[Chart, tuple[Member, ...]]] = []
        centers: list[CenterRecord] = []
        counter = 0
        for chart, members in state:
            current = [m for m in members if m.index == target]
            if not current:
                new_state.append((chart, members))
                continue
            if len(current) > 1:
                # stage invariance failed: two lowest-index members share a chart
                raise InvalidSystem(
                    f"chart {chart.id} holds {len(current)} members of index {target}"
                )
            center = current[0]
            label = f"E{stage}.{counter}"
            counter += 1
            children = blow_up_center(chart, center.variety, label=label)
            atlas.add_blowup(chart.id, children)
            centers.append(
                CenterRecord(
                    chart.id,
                    label,
                    tuple(sorted(center.variety.vanishing)),
                    tuple(c.id for c in children),
                )
            )
            for child in children:
                transformed = []
                for m in members:
                    if m is center:
                        continue
                    strict = strict_transform_variety(child, m.variety)
                    if strict is not None:
                        transformed.append(Member(m.index, m.label, strict))
                new_state.append((child, tuple(transformed)))
        state = new_state
        atlas.stage_log.append(StageRecord(stage, tuple(centers)))
        per_stage.append(
            tuple(CompatibleSystem(chart, members) for chart, members in state)
        )

    if mode == "canonical" and any(members for _, members in state):
        raise InvalidSystem("canonical resolution left unresolved members")
    return ResolutionResult(atlas, tuple(per_stage), mode)

