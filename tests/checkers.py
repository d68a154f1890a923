"""Checkers that read only what a verb prints.

Each checker takes the stdout of one command and recomputes what it claims
from the printed data alone, by a route of its own.  This module imports no
``logres`` module (a test asserts it), so no fault of the package can vouch
for its own output here.

``rank_output_problems`` checks ``rank --matrix``: each report's printed
matrix is parsed and its rank recomputed by elimination over ``Fraction``
rows held sparsely, without assuming the block layout the package builds,
and every cell is recomputed from the printed basepoint and vector by the
component formula, in ``Fraction``s.
``resolve_output_problems`` checks the shape of the atlas that ``resolve
--format json`` prints: each child of each stage-log center must be the
blow-up of that center in its own direction, spelled from the parent's
printed names alone, and each chart's children must be the charts that name
it as their parent.  ``verify_jet_output_problems`` checks ``verify-jet
--format json``: its counts, equality flags and failure lists against its
certificates, and each divisor against the atlas ``resolve`` prints for the
same fiber chart.  ``forms_output_problems`` checks ``forms``: from the
printed components alone, with sympy (imported inside it, so the other
checkers do not load it), it recomputes the degrees, each chart's
denominator and numerators for the printed residues, the degree balance and
the rank of the residue matrix.  ``bounds_output_problems`` checks
``bounds`` in either format: from the printed n, delta, eps, c and alpha
alone it recomputes every other printed number and flag from its formula.
``sample`` cannot be checked this way: its draws are not printed.

From the command line, ``python tests/checkers.py VERB FILE...`` checks each
file as the output of ``bounds``, ``rank``, ``resolve`` or ``forms``, and
``python tests/checkers.py verify-jet OUT ATLAS...`` checks the output of
``verify-jet --format json`` against the ``resolve --format json`` output of
each of its charts.  Either prints every problem, a file that cannot be read
or parsed among them, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import operator
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod


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


def weight_indices(n: int, degree: int) -> list[tuple[int, ...]]:
    """Every (I_0, ..., I_n) of weight `degree`, in descending lexicographic
    order: the order of the matrix's rows and column blocks, and of the basis
    monomials within a block."""
    counts = (
        tuple(combo.count(slot) for slot in range(n + 1))
        for combo in combinations_with_replacement(range(n + 1), degree)
    )
    return sorted(counts, reverse=True)


def value_and_slope(exponent, point, xi) -> tuple[Fraction, Fraction]:
    """z^e at the point, and its derivative sum_j xi_j * d(z^e)/dz_j there."""
    value = prod(p**e for p, e in zip(point, exponent))
    slope = sum(
        x * e * prod(p ** (f - (i == j)) for i, (p, f) in enumerate(zip(point, exponent)))
        for j, (x, e) in enumerate(zip(xi, exponent))
        if e
    )
    return value, slope


def expected_rows(params: dict, report: dict) -> list[dict[int, Fraction]]:
    """The evaluation matrix of one report, from its printed basepoint, xi0
    and xi, and the printed r, eps, delta and stratum alone, each row held
    as its nonzero cells by column.

    One row per weight-delta index I supported off the stratum, one column
    per (weight-delta index, weight-eps index K) pair.  The cell of row I in
    its own block, at basis monomial m = z^K (K without slot 0), is the
    twisted component (r+1)*m*d(tau^I) + tau^I*dm - m*tau^I*dt/t on the
    vector xi0*t*d/dt + sum xi_j*d/dz_j, with tau^I = z^I (tau_0 = 1); every
    other cell is 0."""
    point = [Fraction(p) for p in report["basepoint"]]
    xi0, xi = Fraction(report["xi0"]), [Fraction(x) for x in report["xi"]]
    n, r = params["n"], params["r"]
    blocks = weight_indices(n, params["delta"])
    basis = [value_and_slope(K[1:], point, xi) for K in weight_indices(n, params["eps"])]
    width = len(basis)
    rows = []
    for position, I in enumerate(blocks):
        if any(I[j] for j in params["stratum"]):
            continue
        tau, tau_slope = value_and_slope(I[1:], point, xi)
        cells = ((r + 1) * m * tau_slope + tau * m_slope - m * tau * xi0 for m, m_slope in basis)
        rows.append({col: x for col, x in enumerate(cells, position * width) if x})
    return rows


def rank_output_problems(text: str) -> list[str]:
    """What is wrong with the printed output of ``rank --matrix``; empty when
    every report's matrix is the one its printed point and vector give, cell
    by cell, and its rank, rows, cols, bound and satisfied hold for it.

    The bound at a point of a stratum J is C(k + delta, k), k = n - #J, and
    the matrix has one column per (weight-delta index, degree-eps basis
    monomial) pair, C(n + delta, n) * C(n + eps, n) of them.  Each cell is
    recomputed by ``expected_rows``; the rank is recomputed by elimination
    from the printed cells."""
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
        printed = [{c: Fraction(x) for c, x in enumerate(line) if x != "0"} for line in lines]
        rank = sparse_rank(printed)
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
        zeros = [j for j, p in enumerate(report["basepoint"], 1) if Fraction(p) == 0]
        if zeros != params["stratum"]:
            problems.append(f"report {number}: basepoint vanishes on {zeros}, not the stratum")
        wanted = expected_rows(params, report)
        if len(wanted) != len(lines):
            problems.append(f"report {number}: {len(lines)} matrix rows, expected {len(wanted)}")
        problems += [
            f"report {number}: row {i} column {j} is {row.get(j, 0)}, expected {want.get(j, 0)}"
            for i, (row, want) in enumerate(zip(printed, wanted))
            for j in sorted(row.keys() | want.keys())
            if row.get(j, 0) != want.get(j, 0)
        ][:1]  # the first wrong cell of a report names the fault
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
    - the log marks are the parent's, with slot d added when S met one.
    A chart's printed children, sorted, are the charts whose parent it is."""
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
    kids = {cid: [] for cid in charts}
    for chart in atlas["charts"]:
        if chart["parent"] is not None:
            kids.setdefault(chart["parent"], []).append(chart["id"])
    problems += [
        f"{cid}: children {chart['children']}, expected {sorted(kids[cid])}"
        for cid, chart in charts.items()
        if chart["children"] != sorted(kids[cid])
    ]
    if len(named) != len(set(named)):
        problems.append("a chart is named as a child of two centers")
    unnamed = sorted(set(charts) - {atlas["root"]} - set(named))
    if unnamed:
        problems.append(f"charts no center names as a child: {unnamed}")
    return problems


def verify_jet_output_problems(text: str, atlases: dict) -> list[str]:
    """What is wrong with the printed output of ``verify-jet --format json``;
    empty when its counts, flags and failure lists agree with its
    certificates and each divisor agrees with its chart's atlas.

    ``atlases`` maps each fiber chart (k, t) to what ``resolve --n N --c N
    --k k --t t --format json`` prints: the same atlas, resolved canonically.
    There is one certificate per chart and nonempty I in 1..n, so
    n(n+1)(2^n - 1) of them.  A certificate's routes are equal exactly when
    its printed generator lists are, and a principal certificate's divisor
    names exactly the childless charts of the atlas, each with only its own
    printed exceptional labels, each to a positive power."""
    payload = json.loads(text)
    n = payload["params"]["n"]
    certificates = payload["certificates"]
    problems = []
    if not payload["ideals_checked"] == len(certificates) == n * (n + 1) * (2**n - 1):
        problems.append(
            f"{payload['ideals_checked']} ideals checked, {len(certificates)} certificates,"
            f" expected {n * (n + 1) * (2**n - 1)}"
        )
    unequal = [cert for cert in certificates if not cert["equal"]]
    if payload["lift_ideal_failures"] != unequal:
        problems.append("lift_ideal_failures are not the certificates whose routes differ")
    unprincipal = [[c["k"], c["t"], c["I"]] for c in certificates if not c["principal"]]
    if [[f["k"], f["t"], f["I"]] for f in payload["principality_failures"]] != unprincipal:
        problems.append("principality_failures are not the unprincipal certificates")
    failed = ("lift_ideal_failures", "intersection_failures", "principality_failures")
    if payload["verified"] != (not any(payload[name] for name in failed)):
        problems.append(f"verified is {payload['verified']}")
    leaves = {}  # (k, t) -> childless chart id -> its exceptional labels
    for cert in certificates:
        where = f"k={cert['k']} t={cert['t']} I={cert['I']}"
        if cert["equal"] != (cert["closed_form"] == cert["generators"]):
            problems.append(f"{where}: equal is {cert['equal']}")
        if not cert["principal"]:
            continue
        chart = (cert["k"], cert["t"])
        if chart not in leaves:
            printed = json.loads(atlases[chart])
            params = {key: printed["params"][key] for key in ("n", "c", "k", "t", "mode")}
            if params != {"n": n, "c": n, "k": chart[0], "t": chart[1], "mode": "canonical"}:
                problems.append(f"the atlas given for {chart} is resolve {params}")
            leaves[chart] = {
                leaf["id"]: {label for label, _ in leaf["exceptional"]}
                for leaf in printed["result"]["atlas"]["charts"]
                if not leaf["children"]
            }
        divisor = cert.get("divisor", {})
        missed = sorted(set(leaves[chart]) - set(divisor))
        foreign = sorted(set(divisor) - set(leaves[chart]))
        if missed or foreign:
            problems.append(f"{where}: divisor misses leaves {missed}, names non-leaves {foreign}")
        for leaf, powers in divisor.items():
            labels = sorted(leaves[chart].get(leaf, ()))
            if any(label not in labels or power < 1 for label, power in powers.items()):
                problems.append(f"{where}: divisor {powers} on {leaf}, whose labels are {labels}")
    return problems


_ARITHMETIC = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv
}


def _ring_element(text: str, ring, names: dict):
    """The element of a sympy polynomial ring that a printed polynomial
    spells: integers, the generators in names, + - * / and ^ to an integer."""

    def value(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) and type(node.right.value) is int:
                return value(node.left) ** node.right.value
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            return _ARITHMETIC[type(node.op)](value(node.left), value(node.right))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            return ring(node.value)
        elif isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        raise ValueError(f"cannot read {text!r}")

    return value(ast.parse(text.replace("^", "**"), mode="eval").body)


def forms_output_problems(text: str) -> list[str]:
    """What is wrong with the printed output of ``forms``; empty when each
    printed form is a global log form of the printed arrangement, written
    out on every standard chart, and the forms are independent.

    A form sum_k r_k * dlog(s_k) is global when sum_k r_k * deg(s_k) = 0.
    On the chart {x_j != 0}, with x_j -> 1 and x_i -> u_i, it is written over
    the denominator prod_k s_k with one numerator per chart coordinate v,
    sum_k r_k * ds_k/dv * prod_{l != k} s_l.  There are c - 1 forms for c
    components, the residue matrix is their residue rows, and its rank is
    c - 1.  The arithmetic is sympy's, over the rationals; u_i is read as
    x_i with x_j set to 1."""
    import sympy
    from sympy.polys.rings import ring

    payload = json.loads(text)
    n = payload["params"]["n"]
    R, *xs = ring([f"x{i}" for i in range(n + 1)], sympy.QQ)
    names = {f"{letter}{i}": x for i, x in enumerate(xs) for letter in "xu"}
    components = [_ring_element(part, R, names) for part in payload["params"]["components"]]
    c = len(components)
    problems = []
    degrees = []
    for k, s in enumerate(components):
        total = {sum(monomial) for monomial in s.monoms()}
        degrees.append(max(total))
        if len(total) != 1:
            problems.append(f"component {k} is not homogeneous")
    if payload["degrees"] != degrees:
        problems.append(f"degrees are {payload['degrees']}, expected {degrees}")
    forms = payload["forms"]
    if not payload["count"] == len(forms) == c - 1:
        problems.append(f"count {payload['count']}, {len(forms)} forms, expected {c - 1}")
    rows = [form["residues"] for form in forms]
    if payload["residue_matrix"] != rows:
        problems.append("residue_matrix is not the forms' residue rows")
    residues = [[Fraction(r) for r in row] for row in rows]
    rank = sparse_rank([{col: r for col, r in enumerate(row) if r} for row in residues])
    if rank != c - 1:
        problems.append(f"the residue rows have rank {rank}, expected {c - 1}")
    charts = [[s.compose(x, R(1)) for s in components] for x in xs]  # x_j set to 1
    for number, (form, row) in enumerate(zip(forms, residues)):
        if len(row) != c or sum(r * d for r, d in zip(row, degrees)) != 0:
            problems.append(f"form {number}: residues {form['residues']} are not balanced")
            continue
        if sorted(form["charts"], key=int) != [str(j) for j in range(n + 1)]:
            problems.append(f"form {number}: charts {sorted(form['charts'])}")
            continue
        for j in range(n + 1):
            local = charts[j]
            printed = form["charts"][str(j)]
            if _ring_element(printed["denominator"], R, names) != prod(local):
                problems.append(f"form {number} chart {j}: denominator is not prod_k s_k")
            numerators = [
                sum(
                    (
                        R(sympy.QQ(r.numerator, r.denominator)) * local[k].diff(v)
                        * prod(local[:k] + local[k + 1:])
                        for k, r in enumerate(row)
                        if r
                    ),
                    R(0),
                )
                for i, v in enumerate(xs)
                if i != j
            ]
            read = [_ring_element(text, R, names) for text in printed["numerators"]]
            if read != numerators:
                problems.append(
                    f"form {number} chart {j}: numerators are not those of its residues"
                )
    return problems


def _bounds_text_fields(text: str) -> dict:
    """The sections a text ``bounds`` report prints, keyed as in its JSON.
    The text omits c and the split's m, so those keys are absent."""
    lines = text.splitlines()
    head = re.fullmatch(r"n=(\d+)  applicable=(yes|no)", lines[0])
    rows = []
    for line in lines[2:]:
        if line.startswith("r_min = "):
            break
        rows.append([int(x) for x in line.split()])
    if [row[0] for row in rows] != list(range(1, len(rows) + 1)) or any(len(r) != 5 for r in rows):
        raise ValueError("the table is not rows of i, delta, eps, b and m")
    _, delta, eps, b, m = [list(column) for column in zip(*rows)] or [[]] * 5
    fields = {
        "effective": {
            "n": int(head[1]), "applicable": head[2] == "yes", "delta": delta, "eps": eps,
            "b": b, "m": m, "r_min": int(lines[2 + len(rows)].removeprefix("r_min = ")),
        }
    }
    for line in lines[3 + len(rows):]:
        threshold = re.fullmatch(
            r"m_threshold = (\d+)  chain_holds = (True|False)  alpha_min = (\d+)", line
        )
        split = re.fullmatch(
            r"alpha = (\S+): r = (-?\d+), eps = \[([-\d, ]*)\], valid = (True|False)", line
        )
        if threshold:
            fields["threshold"] = {
                "m_threshold": int(threshold[1]), "chain_holds": threshold[2] == "True",
                "alpha_min": int(threshold[3]),
            }
        elif split:
            fields["reconstruction"] = {
                "alpha": split[1], "r": int(split[2]), "valid": split[4] == "True",
                "eps": [int(x) for x in split[3].split(", ") if x],
            }
        else:
            raise ValueError(f"cannot read {line!r}")
    return fields


def bounds_output_problems(text: str) -> list[str]:
    """What is wrong with the printed output of ``bounds``, text or JSON;
    empty when every printed number and flag follows from the printed n,
    delta, eps, c and alpha.

    With P = prod_i delta_i: b_i = P / delta_i, r_min = 1 + sum_i b_i *
    (eps_i + delta_i), m_i = eps_i + (r_min + 1) * delta_i, and the report is
    applicable when every delta_i >= 4n - 1.  The threshold is (4n)^(n+2),
    the chain holds when (4n - 1) * (3 + 2n * (4n - 1)^n) is at most it, and
    alpha_min = 3 + 2n * (max delta)^n.  A scale alpha splits as r =
    ceil(alpha) - 2 and eps_i = (alpha - ceil(alpha) + 1) * delta_i, with
    m_i = alpha * delta_i, and the split is valid when every 1 <= eps_i <=
    delta_i and m_i = eps_i + (r + 1) * delta_i."""
    is_json = text.startswith("{")
    printed = json.loads(text) if is_json else _bounds_text_fields(text)
    effective = printed["effective"]
    n, delta, eps = effective["n"], effective["delta"], effective["eps"]
    if not len(delta) == len(eps) == n:
        return [f"{len(delta)} delta and {len(eps)} eps entries for n = {n}"]
    problems = []
    r_min = 1 + sum(prod(delta) // d * (e + d) for d, e in zip(delta, eps))
    expected = {
        "effective": {
            "b": [prod(delta) // d for d in delta],
            "r_min": r_min,
            "m": [e + (r_min + 1) * d for d, e in zip(delta, eps)],
            "applicable": all(d >= 4 * n - 1 for d in delta),
        }
    }
    if "threshold" in printed:
        bound = (4 * n) ** (n + 2)
        expected["threshold"] = {
            "m_threshold": bound,
            "chain_holds": (4 * n - 1) * (3 + 2 * n * (4 * n - 1) ** n) <= bound,
            "alpha_min": 3 + 2 * n * max(delta) ** n,
        }
        if is_json:  # the text prints neither n nor c again
            expected["threshold"]["n"] = n
            if not printed["threshold"].get("c", 0) >= n:
                problems.append(f"threshold c is {printed['threshold'].get('c')}, below n = {n}")
    if "reconstruction" in printed:
        split = printed["reconstruction"]
        alpha = Fraction(split["alpha"])
        ceiling = math.ceil(alpha)
        r = ceiling - 2
        shares = [(alpha - ceiling + 1) * d for d in delta]
        m = [alpha * d for d in delta]
        if any(x.denominator != 1 for x in shares + m):
            return [f"alpha = {alpha} times delta is not integral"]
        expected["reconstruction"] = {
            "r": r,
            "eps": [int(x) for x in shares],
            "valid": all(1 <= x <= d and y == x + (r + 1) * d for x, d, y in zip(shares, delta, m)),
        }
        if is_json:  # the text does not print the split's m
            expected["reconstruction"]["m"] = [int(x) for x in m]
    for section, values in expected.items():
        problems += [
            f"{section} {name} is {printed[section].get(name)}, expected {value}"
            for name, value in values.items()
            if printed[section].get(name) != value
        ]
    return problems


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def main(argv: list[str]) -> int:
    """Check each file as the stdout of the verb; 1 if any has a problem.
    ``verify-jet OUT ATLAS...`` checks OUT, a ``verify-jet --format json``
    output, against the ATLAS files, each the stdout of one ``resolve
    --format json`` run, keyed by the chart (k, t) its params name.  A file
    that cannot be read, or is not output of the verb, is a problem too."""
    checkers = {
        "bounds": bounds_output_problems,
        "rank": rank_output_problems,
        "resolve": resolve_output_problems,
        "forms": forms_output_problems,
        "verify-jet": verify_jet_output_problems,
    }
    parser = argparse.ArgumentParser(description="Check printed logres output.")
    parser.add_argument("verb", choices=checkers)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    problems = []
    check, paths = checkers[args.verb], args.files
    if args.verb == "verify-jet":
        paths, atlases = args.files[:1], {}
        for path in args.files[1:]:
            try:
                text = _read(path)
                params = json.loads(text)["params"]
                atlases[params["k"], params["t"]] = text
            except (OSError, ValueError, LookupError, TypeError) as err:
                problems.append(f"{path}: cannot read a resolve atlas: {type(err).__name__}: {err}")
        check = functools.partial(verify_jet_output_problems, atlases=atlases)
    for path in paths:
        try:
            problems += [f"{path}: {problem}" for problem in check(_read(path))]
        except (OSError, ValueError, LookupError, TypeError) as err:
            problems.append(f"{path}: cannot check it: {type(err).__name__}: {err}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
