"""Blow-ups of coordinate subspaces in affine charts.

Blowing up the subspace V(x_{i_1}, ..., x_{i_r}) of a chart produces one child
chart per center variable x_j.  In the x_j-direction the map to the parent is

  x_j -> x_j,    x_k -> x_j * x_k~   (k in center, k != j),

all other coordinates unchanged; the exceptional divisor is cut out by x_j in
that chart.  Renamed coordinates carry a trailing ``~``.  Log markings are
inherited (renamed coordinates keep their marking), and the exceptional
coordinate is marked whenever the center met a log-marked coordinate, so the
frame stays correct for residue and connection computations downstream.

Every chart map is monomial, so composing chart maps is integer matrix
arithmetic on exponents; ``push_exponent`` is the one routine that does it.
Each chart stores its map to the root (``Chart.to_root``), composed once when
the chart is built, so total transforms of root ideals never walk the tree,
and an ``Atlas`` keeps each pushed root monomial per chart, so a generator
shared by many root ideals is pushed into a chart once.

``strict_transform_variety`` is the geometric strict transform of a single
coordinate subspace, which is either empty in the chart or again a
coordinate subspace.  The strict transform of an ideal in one chart, with
the common power of each exceptional coordinate divided out, is a route the
tests check, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .monideal import MonomialIdeal, SimpleVariety
from .symcore import Exponent, LogresError, monomial_string


class CenterNotInChart(LogresError):
    """Blow-up center uses variables the chart does not have."""


class CodimensionOne(LogresError):
    """Blow-up center must have codimension at least two."""


def rename_tilde(name: str) -> str:
    return name + "~"


@dataclass(frozen=True)
class Chart:
    """One affine chart of a blow-up tree.

    `to_parent` sends each parent variable to its monomial image over this
    chart's variables (exponent tuples).  `to_root` stores the composite map:
    the image of each root variable, in root variable order, over this
    chart's variables.  `exceptional` lists the exceptional divisors visible
    in this chart as (label, defining variable).
    """

    id: str
    variables: tuple[str, ...]
    log_marked: frozenset[str] = frozenset()
    parent: str | None = None
    to_parent: tuple[tuple[str, Exponent], ...] = ()
    to_root: tuple[Exponent, ...] = ()
    exceptional: tuple[tuple[str, str], ...] = ()
    center: frozenset[str] = frozenset()  # blown-up center, in parent variables
    direction: str | None = None  # the kept center variable

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate chart variables")
        unknown = self.log_marked - set(self.variables)
        if unknown:
            raise ValueError(f"log-marked {sorted(unknown)} not chart variables")

    def variable_index(self, name: str) -> int:
        return self.variables.index(name)

    @cached_property
    def exceptional_indices(self) -> tuple[tuple[str, int], ...]:
        """`exceptional` with each defining variable replaced by its index."""
        return tuple((label, self.variables.index(v)) for label, v in self.exceptional)


def root_chart(
    variables: Iterable[str],
    log_marked: Iterable[str] = (),
    chart_id: str = "root",
) -> Chart:
    vs = tuple(variables)
    identity = tuple(tuple(int(i == j) for j in range(len(vs))) for i in range(len(vs)))
    return Chart(chart_id, vs, frozenset(log_marked), to_root=identity)


def blow_up_center(
    chart: Chart, center: SimpleVariety, label: str = "E"
) -> list[Chart]:
    """One child chart per center variable, in chart variable order."""
    missing = center.vanishing - set(chart.variables)
    if missing:
        raise CenterNotInChart(f"{sorted(missing)} not in chart {chart.id}")
    if center.codim < 2:
        raise CodimensionOne(f"center {center} has codimension {center.codim}")
    children = []
    for direction in center.sorted_by(chart.variables):
        rename = {
            v: rename_tilde(v) for v in center.vanishing if v != direction
        }
        collision = set(rename.values()) & (set(chart.variables) - set(rename))
        if collision:
            raise ValueError(f"renaming collision on {sorted(collision)}")
        new_vars = tuple(rename.get(v, v) for v in chart.variables)
        width = len(new_vars)
        kept = chart.variable_index(direction)
        images = []
        for i, v in enumerate(chart.variables):
            e = [0] * width
            e[i] = 1  # the variable itself, or its renamed copy
            if v in rename:
                e[kept] = 1
            images.append(tuple(e))
        marked = {rename.get(v, v) for v in chart.log_marked}
        if center.vanishing & chart.log_marked:
            marked.add(direction)
        exceptional = []
        for exc_label, v in chart.exceptional:
            if v == direction:
                continue  # that divisor misses this chart
            exceptional.append((exc_label, rename.get(v, v)))
        exceptional.append((label, direction))
        children.append(
            Chart(
                id=f"{chart.id}/{label}:{direction}",
                variables=new_vars,
                log_marked=frozenset(marked),
                parent=chart.id,
                to_parent=tuple(zip(chart.variables, images)),
                to_root=tuple(push_exponent(images, row, width) for row in chart.to_root),
                exceptional=tuple(exceptional),
                center=center.vanishing,
                direction=direction,
            )
        )
    return children


def push_exponent(images: Sequence[Exponent], exponent: Exponent, width: int) -> Exponent:
    """Image of a monomial under a monomial map.

    `images[i]` is the image of source variable i, an exponent over the
    `width` target variables; the width comes from the target chart, so a
    map out of a frame with no variables works too.
    """
    out = [0] * width
    for img, e in zip(images, exponent):
        if e:
            for i, x in enumerate(img):
                out[i] += e * x
    return tuple(out)


def strict_transform_variety(chart: Chart, variety: SimpleVariety) -> SimpleVariety | None:
    """Geometric strict transform of a coordinate subspace; None when empty.

    Empty exactly when the chart direction is one of the variety's equations;
    otherwise the equations survive, with center variables renamed.
    """
    if chart.direction is None:
        raise ValueError(f"chart {chart.id} is not a blow-up chart")
    if chart.direction in variety.vanishing:
        return None
    rename = {
        v: rename_tilde(v) for v in chart.center if v != chart.direction
    }
    return SimpleVariety(frozenset(rename.get(v, v) for v in variety.vanishing))


# -- atlas ---------------------------------------------------------------------


@dataclass(frozen=True)
class CenterRecord:
    chart_id: str
    label: str
    vanishing: tuple[str, ...]
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
        charts = []
        for cid in sorted(self.charts):
            chart = self.charts[cid]
            charts.append(
                {
                    "id": chart.id,
                    "parent": chart.parent,
                    "variables": list(chart.variables),
                    "log_marked": sorted(chart.log_marked),
                    "to_parent": {
                        v: monomial_string(chart.variables, e)
                        for v, e in chart.to_parent
                    },
                    "exceptional": [list(pair) for pair in chart.exceptional],
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
                            "vanishing": list(c.vanishing),
                            "children": list(c.children),
                        }
                        for c in record.centers
                    ],
                }
                for record in self.stage_log
            ],
        }
