"""Checkers that read only what a verb prints.

Each checker takes the stdout of one command and recomputes what it claims
from the printed data alone, by a route of its own.  This module imports no
``logres`` module (a test asserts it), so no fault of the package can vouch
for its own output here.

``rank_output_problems`` checks ``rank --matrix``: each report's printed
matrix is parsed and its rank recomputed by elimination over ``Fraction``
rows held sparsely, without assuming the block layout the package builds.
``resolve_output_problems`` checks the shape of the atlas that ``resolve
--format json`` prints: each child of each stage-log center must be the
blow-up of that center in its own direction, spelled from the parent's
printed names alone.  ``sample`` cannot be checked this way: its draws are
not printed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of the matrix whose rows map a column to a nonzero entry.

    Each row is reduced by the kept rows, lowest column first, until its
    lowest column is no kept row's lowest column; a row reduced to nothing
    depends on the kept ones, and any other is kept."""
    kept: dict[int, dict[int, Fraction]] = {}  # lowest column -> row
    for row in rows:
        row = dict(row)
        while row:
            low = min(row)
            pivot = kept.get(low)
            if pivot is None:
                kept[low] = row
                break
            factor = row[low] / pivot[low]
            for col, entry in pivot.items():
                value = row.get(col, 0) - factor * entry
                if value:
                    row[col] = value
                else:
                    row.pop(col, None)
    return len(kept)


def rank_output_problems(text: str) -> list[str]:
    """What is wrong with the printed output of ``rank --matrix``; empty when
    every report's rank, rows, cols, bound and satisfied hold for its
    printed matrix.

    The bound at a point of a stratum J is C(k + delta, k), k = n - #J, and
    the matrix has one column per (weight-delta index, degree-eps basis
    monomial) pair, C(n + delta, n) * C(n + eps, n) of them."""
    payload = json.loads(text)
    params = payload["params"]
    n, delta, eps = params["n"], params["delta"], params["eps"]
    k = n - len(params["stratum"])
    cols = comb(n + delta, n) * comb(n + eps, n)
    problems = []
    if len(payload["reports"]) != params["samples"]:
        problems.append(f"{len(payload['reports'])} reports for {params['samples']} samples")
    for number, report in enumerate(payload["reports"]):
        lines = [line.split() for line in report["matrix"].split("\n")]
        rank = sparse_rank(
            [{c: Fraction(x) for c, x in enumerate(line) if x != "0"} for line in lines]
        )
        expected = {
            "rows": len(lines),
            "cols": cols,
            "rank": rank,
            "bound": comb(k + delta, k),
            "satisfied": rank >= comb(k + delta, k),
        }
        problems += [
            f"report {number}: {name} is {report[name]}, expected {value}"
            for name, value in expected.items()
            if report[name] != value
        ]
        if any(len(line) != cols for line in lines):
            problems.append(f"report {number}: a matrix row does not have {cols} entries")
    if payload["verified"] != all(report["satisfied"] for report in payload["reports"]):
        problems.append(f"verified is {payload['verified']}")
    return problems


def resolve_output_problems(text: str) -> list[str]:
    """What is wrong with the atlas ``resolve --format json`` prints; empty
    when each chart but the root is named by one stage-log center, as a
    chart that blowing up that center gives.

    A chart's slots are the positions of its ``variables``.  Blowing up the
    center V(x_s : s in S) in direction d, one child per d in S in slot
    order, gives the chart ``<center>/<label>:<x_d>`` whose parent is the
    center chart, where:
    - each slot of S but d gains a ``~`` and every other slot keeps its name;
    - parent slot s maps to x_s, times x_d when s is in S but is not d, with
      the factors in slot order;
    - the exceptional list is the parent's without the divisor on slot d,
      then the center's label on slot d;
    - the log marks are the parent's, with slot d added when S met one."""
    atlas = json.loads(text)["result"]["atlas"]
    charts = {chart["id"]: chart for chart in atlas["charts"]}
    problems = []
    named = []
    for center in (x for stage in atlas["stage_log"] for x in stage["centers"]):
        parent = charts[center["chart"]]
        old = parent["variables"]
        slots = sorted(old.index(v) for v in center["vanishing"])
        marked = {old.index(v) for v in parent["log_marked"]}
        expected_ids = [f"{parent['id']}/{center['label']}:{old[d]}" for d in slots]
        if center["children"] != expected_ids:
            problems.append(
                f"center {parent['id']}: children {center['children']}, expected {expected_ids}"
            )
            continue
        named += expected_ids
        for d, cid in zip(slots, expected_ids):
            child = charts.get(cid)
            if child is None:
                problems.append(f"{cid}: not in the atlas")
                continue
            new = child["variables"]
            kept = [s for s in slots if s < len(new) and new[s] == old[s]]
            renamed = [v + "~" if s in slots and s != d else v for s, v in enumerate(old)]
            expected = {
                "parent": parent["id"],
                "variables": renamed,
                "to_parent": {
                    v: "*".join(renamed[i] for i in sorted({s, d} if s in slots else {s}))
                    for s, v in enumerate(old)
                },
                "exceptional": [
                    [label, renamed[old.index(v)]]
                    for label, v in parent["exceptional"]
                    if old.index(v) != d
                ] + [[center["label"], renamed[d]]],
                "log_marked": sorted(
                    renamed[s] for s in (marked | {d} if marked & set(slots) else marked)
                ),
            }
            if kept != [d]:
                problems.append(f"{cid}: center slots {kept} keep their names, expected [{d}]")
            problems += [
                f"{cid}: {name} is {child[name]}, expected {value}"
                for name, value in expected.items()
                if child[name] != value
            ]
    if len(named) != len(set(named)):
        problems.append("a chart is named as a child of two centers")
    unnamed = sorted(set(charts) - {atlas["root"]} - set(named))
    if unnamed:
        problems.append(f"charts no center names as a child: {unnamed}")
    return problems
