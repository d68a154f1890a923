"""Blow-ups of coordinate subspaces in affine charts.

A coordinate is its *slot*, an index into ``Chart.variables``; the names
there only spell the slots on output.  Blowing up the subspace
V(x_{i_1}, ..., x_{i_r}) of a chart produces one child chart per center
slot j.  In the j-direction the map to the parent is

  x_j -> x_j,    x_k -> x_j * x_k~   (k in center, k != j),

all other coordinates unchanged; the exceptional divisor is cut out by x_j in
that chart.  No coordinate moves: x_k~ keeps slot k and only its name gains a
``~``, so log marks and exceptional divisors carry over slot for slot.  Slot
j is marked whenever the center met a log-marked slot, so the frame stays
correct for residue and connection computations downstream.

Every chart map is monomial, so composing chart maps is integer matrix
arithmetic on exponents; ``push_exponent`` is the one routine that does it.
Each chart stores its map to the root (``Chart.to_root``), composed once when
the chart is built, so total transforms of root ideals never walk the tree,
and an ``Atlas`` keeps each pushed root monomial per chart, so a generator
shared by many root ideals is pushed into a chart once.

``strict_transform_variety`` is the geometric strict transform of a single
coordinate subspace, which is either empty in the chart or cut out by the
same slots.  The strict transform of an ideal in one chart, with the common
power of each exceptional coordinate divided out, is a route the tests
check, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .monideal import MonomialIdeal, SimpleVariety
from .symcore import Exponent, LogresError, monomial_string


class CenterNotInChart(LogresError):
    """Blow-up center uses slots the chart does not have."""


class CodimensionOne(LogresError):
    """Blow-up center must have codimension at least two."""


@dataclass(frozen=True)
class Chart:
    """One affine chart of a blow-up tree.

    Every field below `variables` holds slots, never names.  `to_parent`
    holds the image of each parent slot, in parent slot order, as an exponent
    over this chart's slots.  `to_root` stores the composite map: the image
    of each root slot over this chart's slots.  `exceptional` lists the
    exceptional divisors visible in this chart as (label, defining slot).
    """

    id: str
    variables: tuple[str, ...]
    log_marked: frozenset[int] = frozenset()
    parent: str | None = None
    to_parent: tuple[Exponent, ...] = ()
    to_root: tuple[Exponent, ...] = ()
    exceptional: tuple[tuple[str, int], ...] = ()
    center: frozenset[int] = frozenset()  # blown-up center, in parent slots
    direction: int | None = None  # the kept center slot

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate chart variables")


def root_chart(
    variables: Iterable[str],
    log_marked: Iterable[str] = (),
    chart_id: str = "root",
) -> Chart:
    """The root of a blow-up tree: the one place log marks are read by name.
    A name that is not a chart variable raises ValueError."""
    vs = tuple(variables)
    identity = tuple(tuple(int(i == j) for j in range(len(vs))) for i in range(len(vs)))
    return Chart(chart_id, vs, frozenset(map(vs.index, log_marked)), to_root=identity)


def blow_up_center(
    chart: Chart, center: SimpleVariety, label: str = "E"
) -> list[Chart]:
    """One child chart per center slot, in slot order."""
    width = len(chart.variables)
    missing = sorted(s for s in center.vanishing if not 0 <= s < width)
    if missing:
        raise CenterNotInChart(f"slots {missing} not in chart {chart.id}")
    if center.codim < 2:
        raise CodimensionOne(f"center {center} has codimension {center.codim}")
    met_mark = bool(center.vanishing & chart.log_marked)
    children = []
    for kept in sorted(center.vanishing):
        images = []
        for i in range(width):
            e = [0] * width
            e[i] = 1  # the coordinate itself, or its renamed copy
            if i in center.vanishing:
                e[kept] = 1
            images.append(tuple(e))
        children.append(
            Chart(
                id=f"{chart.id}/{label}:{chart.variables[kept]}",
                variables=tuple(
                    v + "~" if i in center.vanishing and i != kept else v
                    for i, v in enumerate(chart.variables)
                ),
                log_marked=chart.log_marked | {kept} if met_mark else chart.log_marked,
                parent=chart.id,
                to_parent=tuple(images),
                to_root=tuple(push_exponent(images, row, width) for row in chart.to_root),
                # the divisor the kept slot cut out before misses this chart
                exceptional=tuple(
                    (exc, s) for exc, s in chart.exceptional if s != kept
                ) + ((label, kept),),
                center=center.vanishing,
                direction=kept,
            )
        )
    return children


def push_exponent(images: Sequence[Exponent], exponent: Exponent, width: int) -> Exponent:
    """Image of a monomial under a monomial map.

    `images[i]` is the image of source slot i, an exponent over the `width`
    target slots; the width comes from the target chart, so a map out of a
    frame with no variables works too.
    """
    out = [0] * width
    for img, e in zip(images, exponent):
        if e:
            for i, x in enumerate(img):
                out[i] += e * x
    return tuple(out)


def strict_transform_variety(chart: Chart, variety: SimpleVariety) -> SimpleVariety | None:
    """Geometric strict transform of a coordinate subspace; None when empty.

    Empty exactly when the chart direction is one of the variety's slots;
    otherwise the same slots cut it out, since a blow-up moves no slot.
    """
    if chart.direction is None:
        raise ValueError(f"chart {chart.id} is not a blow-up chart")
    if chart.direction in variety.vanishing:
        return None
    return variety


# -- atlas ---------------------------------------------------------------------


@dataclass(frozen=True)
class CenterRecord:
    chart_id: str
    label: str
    vanishing: tuple[int, ...]  # slots of the chart blown up, in slot order
    children: tuple[str, ...]


@dataclass(frozen=True)
class StageRecord:
    stage: int
    centers: tuple[CenterRecord, ...]


@dataclass
class Atlas:
    """The blow-up tree: charts by id, adjacency, and the stage log."""

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
        taken = [chart.id for chart in kids if chart.id in self.charts]
        if taken:
            raise ValueError(f"chart ids {taken} already in the atlas")
        for chart in kids:
            self.charts[chart.id] = chart
            self.children[chart.id] = []
            self.children[parent_id].append(chart.id)

    def leaves(self) -> list[Chart]:
        return [
            self.charts[cid]
            for cid in sorted(self.charts)
            if not self.children[cid]
        ]

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
            charts.append(
                {
                    "id": chart.id,
                    "parent": chart.parent,
                    "variables": list(names),
                    "log_marked": sorted(names[s] for s in chart.log_marked),
                    "to_parent": {
                        v: monomial_string(names, e)
                        for v, e in zip(parent_names, chart.to_parent)
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
                {
                    "stage": record.stage,
                    "centers": [
                        {
                            "chart": c.chart_id,
                            "label": c.label,
                            "vanishing": [
                                self.charts[c.chart_id].variables[s] for s in c.vanishing
                            ],
                            "children": list(c.children),
                        }
                        for c in record.centers
                    ],
                }
                for record in self.stage_log
            ],
        }
