"""Checkers that read only what a verb prints.

Each checker takes the stdout of one command and recomputes what it claims
from the printed data alone, by a route of its own.  This module imports no
``logres`` module (a test asserts it), so no fault of the package can vouch
for its own output here.

``rank_output_problems`` checks ``rank --matrix``: each report's printed
matrix is parsed and its rank recomputed by elimination over ``Fraction``
rows held sparsely, without assuming the block layout the package builds.
``sample`` cannot be checked this way: its draws are not printed.
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
