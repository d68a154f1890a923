"""Blow-ups of coordinate subspaces in affine charts.

A coordinate is its *slot*, an index into ``Chart.variables``; the names
there only spell the slots on output, and a coordinate subspace is the
``frozenset`` of its slots.  Blowing up the subspace V(x_{i_1}, ..., x_{i_r})
of a chart, the center {i_1, ..., i_r}, produces one child chart per center
slot j.  In the j-direction the map to the parent is

  x_j -> x_j,    x_k -> x_j * x_k~   (k in center, k != j),

all other coordinates unchanged; the exceptional divisor is cut out by x_j in
that chart.  No coordinate moves: x_k~ keeps slot k and only its name gains a
``~``, so log marks and exceptional divisors carry over slot for slot.  Slot
j is marked whenever the center met a log-marked slot; log marks feed only
the next blow-up and the printed atlas.

A child chart's ``center`` and ``direction`` fix its map to the parent, so
that map is not stored: ``_to_parent`` spells it when the chart is built and
when the atlas is printed.  Every chart map is monomial, so composing chart
maps is integer matrix arithmetic on exponents; ``push_exponent`` is the one
routine that does it.  Each chart stores its map to the root
(``Chart.to_root``), composed over the parent map when the chart is built,
so total transforms of root ideals never walk the tree, and an ``Atlas``
keeps each pushed root monomial per chart, so a generator shared by many
root ideals is pushed into a chart once.  Its stage log lists the ids of the
charts each stage blew up; a center's label, slots and children are read
back from its child charts, which already hold them.

``strict_transform_variety`` is the geometric strict transform of a single
coordinate subspace, which is either empty in the chart or the same slot
set.  The strict transform of an ideal in one chart, with the common
power of each exceptional coordinate divided out, is a route the tests
check, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .monideal import MonomialIdeal
from .symcore import Exponent, LogresError, monomial_string


class CenterNotInChart(LogresError):
    """Blow-up center uses slots the chart does not have."""


class CodimensionOne(LogresError):
    """Blow-up center must have codimension at least two."""


@dataclass(frozen=True)
class Chart:
    """One affine chart of a blow-up tree.

    Every field below `variables` holds slots, never names.  The map to the
    parent is not stored: `center` and `direction` fix it (`_to_parent`).
    `to_root` stores the composite map, composed by `push_exponent`: the
    image of each root slot over this chart's slots.  `exceptional` lists the
    exceptional divisors visible in this chart as (label, defining slot).
    """

    id: str
    variables: tuple[str, ...]
    log_marked: frozenset[int] = frozenset()
    parent: str | None = None
    to_root: tuple[Exponent, ...] = ()
    exceptional: tuple[tuple[str, int], ...] = ()
    center: frozenset[int] = frozenset()  # blown-up center, in parent slots
    direction: int | None = None  # the kept center slot

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate chart variables")


def root_chart(variables: Iterable[str], log_marked: Iterable[str] = ()) -> Chart:
    """The root of a blow-up tree, with id "root": the one place log marks
    are read by name.  A name that is not a chart variable raises ValueError."""
    vs = tuple(variables)
    return Chart("root", vs, frozenset(map(vs.index, log_marked)), to_root=_to_parent(len(vs)))


def _to_parent(width: int, center=frozenset(), kept: int | None = None) -> tuple[Exponent, ...]:
    """Each parent slot's image in the `kept` chart of a blow-up of `center`:
    x_i -> x_i, times x_kept when i is another center slot; with no center,
    the identity."""
    rows = [[0] * width for _ in range(width)]
    for i in range(width):
        rows[i][i] = 1
    for i in center:
        rows[i][kept] = 1
    return tuple(map(tuple, rows))


def blow_up_center(chart: Chart, center: frozenset[int], label: str = "E") -> list[Chart]:
    """One child chart per slot of `center`, in slot order."""
    width = len(chart.variables)
    missing = sorted(s for s in center if not 0 <= s < width)
    if missing:
        raise CenterNotInChart(f"slots {missing} not in chart {chart.id}")
    if len(center) < 2:
        raise CodimensionOne(f"center {sorted(center)} has codimension {len(center)}")
    met_mark = bool(center & chart.log_marked)
    children = []
    for kept in sorted(center):
        images = _to_parent(width, center, kept)
        children.append(
            Chart(
                id=f"{chart.id}/{label}:{chart.variables[kept]}",
                variables=tuple(
                    v + "~" if i in center and i != kept else v
                    for i, v in enumerate(chart.variables)
                ),
                log_marked=chart.log_marked | {kept} if met_mark else chart.log_marked,
                parent=chart.id,
                to_root=tuple(push_exponent(images, row, width) for row in chart.to_root),
                # the divisor the kept slot cut out before misses this chart
                exceptional=tuple(pair for pair in chart.exceptional if pair[1] != kept)
                + ((label, kept),),
                center=center,
                direction=kept,
            )
        )
    return children


def push_exponent(images: Sequence[Exponent], exponent: Exponent, width: int) -> Exponent:
    """Image of a monomial under a monomial map.

    `images[i]` is the image of source slot i, an exponent over the `width`
    target slots; the width comes from the target chart, so a map out of a
    chart with no variables works too.
    """
    out = [0] * width
    for img, e in zip(images, exponent):
        if e:
            for i, x in enumerate(img):
                out[i] += e * x
    return tuple(out)


def strict_transform_variety(chart: Chart, variety: frozenset[int]) -> frozenset[int] | None:
    """Geometric strict transform of a coordinate subspace, given by its
    slots; None when empty.

    Empty exactly when the chart direction is one of the variety's slots;
    otherwise the same slots cut it out, since a blow-up moves no slot.
    """
    if chart.direction is None:
        raise ValueError(f"chart {chart.id} is not a blow-up chart")
    if chart.direction in variety:
        return None
    return variety


# -- atlas ---------------------------------------------------------------------


@dataclass(frozen=True)
class StageRecord:
    """The ids of the charts one stage blew up, in processing order."""

    stage: int
    centers: tuple[str, ...]


@dataclass
class Atlas:
    """The blow-up tree: charts by id, adjacency, and the stage log.

    The stage log lists chart ids only; each center's label, slots and
    children are read back from the charts, so every blow-up is stored once.
    """

    root_id: str
    charts: dict[str, Chart] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)
    stage_log: list[StageRecord] = field(default_factory=list)
    # chart id -> {root exponent: its image in that chart}, filled by total_transform
    _images: dict[str, dict[Exponent, Exponent]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def for_root(cls, root: Chart) -> "Atlas":
        if root.parent is not None:
            raise ValueError(f"atlas root {root.id} is itself a blow-up chart")
        atlas = cls(root_id=root.id)
        atlas.charts[root.id] = root
        atlas.children[root.id] = []
        return atlas

    def add_blowup(self, parent_id: str, kids: list[Chart]) -> None:
        """Attach the children of a blow-up; a chart id is never reused."""
        if parent_id not in self.charts:
            raise ValueError(f"parent chart {parent_id!r} is not in the atlas")
        taken = [chart.id for chart in kids if chart.id in self.charts]
        if taken:
            raise ValueError(f"chart ids {taken} already in the atlas")
        for chart in kids:
            self.charts[chart.id] = chart
            self.children[chart.id] = []
            self.children[parent_id].append(chart.id)

    def substitution_to_root(self, chart_id: str) -> dict[str, Exponent]:
        """Each root variable's monomial image over the chart's variables."""
        root = self.charts[self.root_id]
        return dict(zip(root.variables, self.charts[chart_id].to_root))

    def total_transform(self, chart_id: str, ideal: MonomialIdeal) -> MonomialIdeal:
        """Total transform of a root-chart monomial ideal in a given chart.

        Each root generator is pushed into a chart once per atlas; later
        transforms in that chart reuse the image.
        """
        root = self.charts[self.root_id]
        if tuple(ideal.variables) != root.variables:
            raise ValueError("ideal must live over the root chart variables")
        chart = self.charts[chart_id]
        images = self._images.setdefault(chart_id, {})
        pushed = []
        for g in ideal.generators:
            image = images.get(g)
            if image is None:
                image = images[g] = push_exponent(chart.to_root, g, len(chart.variables))
            pushed.append(image)
        return MonomialIdeal._trusted(chart.variables, pushed)

    def to_dict(self) -> dict:
        """The atlas with every slot spelled by its chart's name for it."""
        charts = []
        for cid in sorted(self.charts):
            chart = self.charts[cid]
            names = chart.variables
            parent_names = self.charts[chart.parent].variables if chart.parent else ()
            images = _to_parent(len(names), chart.center, chart.direction)
            charts.append(
                {
                    "id": chart.id,
                    "parent": chart.parent,
                    "variables": list(names),
                    "log_marked": sorted(names[s] for s in chart.log_marked),
                    "to_parent": {
                        v: monomial_string(names, e)
                        for v, e in zip(parent_names, images)
                    },
                    "exceptional": [[label, names[s]] for label, s in chart.exceptional],
                    "children": sorted(self.children[cid]),
                }
            )
        return {
            "schema_version": 1,
            "root": self.root_id,
            "charts": charts,
            "stage_log": [
                {"stage": record.stage, "centers": [self._center_dict(cid) for cid in record.centers]}
                for record in self.stage_log
            ],
        }

    def _center_dict(self, chart_id: str) -> dict:
        """A stage-log center spelled from the atlas: its label is the newest
        exceptional divisor of its first child, which also holds its slots."""
        kids = self.children[chart_id]
        first = self.charts[kids[0]]
        names = self.charts[chart_id].variables
        return {
            "chart": chart_id,
            "label": first.exceptional[-1][0],
            "vanishing": [names[s] for s in sorted(first.center)],
            "children": list(kids),
        }
