"""Shared helpers: random compatible systems and the functoriality comparator.

Random systems come from two sources: sub-families of the fiber-chart
obstruction configurations (guaranteed compatible, indices up to 3) and plain
rejection sampling over random coordinate subspaces.  Both are seeded.
"""

import random
from itertools import combinations

from logres.blowup import root_chart
from logres.monideal import MonomialIdeal, SimpleVariety
from logres.resolution import (
    CompatibleSystem,
    Member,
    validate_compatible_system,
)


def pairings(items):
    """All perfect matchings of an even-sized list."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for sub in pairings(rest):
            yield [(first, items[i])] + sub


def all_simple_ideals(variables, max_r):
    """Every simple-shape ideal over `variables` with p <= r <= max_r."""
    names = list(variables)
    for r in range(1, max_r + 1):
        for p in range(0, r + 1):
            npairs = r - p
            if p + 2 * npairs > len(names):
                continue
            for singles in combinations(names, p):
                rest = [v for v in names if v not in singles]
                for pair_vars in combinations(rest, 2 * npairs):
                    for pairing in pairings(list(pair_vars)):
                        yield MonomialIdeal.from_varsets(
                            variables,
                            [{s} for s in singles] + [set(pr) for pr in pairing],
                        )


def variety(frame, *names):
    """The coordinate subspace cut out by the named coordinates of a chart
    (or of a bare variable tuple), held by slot as the package holds it."""
    variables = getattr(frame, "variables", frame)
    return SimpleVariety(frozenset(map(variables.index, names)))


def jet_style_members(chart, n, k):
    """The fiber-chart configuration for k components in ambient dimension n,
    dehomogenized at slot 1: for every subset J of {1..k} containing 1, the
    subspace of `chart` cut out by {z_i : i in J} and
    {xi_j : j in {1..n}\\J, j != 1}."""
    members = []
    subsets = []
    for mask in range(1, 1 << k):
        J = [i + 1 for i in range(k) if mask & (1 << i)]
        if 1 in J:
            subsets.append(tuple(J))
    subsets.sort(key=lambda J: (len(J), J))
    for J in subsets:
        names = [f"z{i}" for i in J]
        names += [f"xi{j}" for j in range(2, n + 1) if j not in J]
        members.append(Member(len(J), "D(" + ",".join(map(str, J)) + ")", variety(chart, *names)))
    return members


def random_jet_subfamily(rng: random.Random, max_k=3, extra_vars=2):
    """A random valid sub-family of a jet-style system, with inert variables."""
    k = rng.randint(1, max_k)
    n = rng.randint(max(k, 2), max_k)
    variables = tuple(f"z{i}" for i in range(1, n + 1)) + tuple(
        f"xi{j}" for j in range(2, n + 1)
    )
    pad = tuple(f"w{i}" for i in range(rng.randint(0, extra_vars)))
    chart = root_chart(variables + pad, log_marked=[f"z{i}" for i in range(1, k + 1)])
    members = jet_style_members(chart, n, k)
    # drop random members as long as the family stays compatible
    for _ in range(rng.randint(0, len(members))):
        candidate = rng.choice(members)
        trimmed = [m for m in members if m is not candidate]
        if trimmed and validate_compatible_system(
            CompatibleSystem(chart, tuple(trimmed))
        ).valid:
            members = trimmed
    return CompatibleSystem(chart, tuple(members))


def random_rejection_system(rng: random.Random, max_vars=6, max_members=4, tries=60):
    """Rejection-sampled compatible system over random coordinate subspaces."""
    nvars = rng.randint(3, max_vars)
    variables = tuple(f"x{i}" for i in range(1, nvars + 1))
    chart = root_chart(variables)
    for _ in range(tries):
        members = []
        base = variety(chart, *rng.sample(variables, rng.randint(2, min(3, nvars))))
        members.append(Member(1, "m1", base))
        seen = {base.vanishing}
        for j in range(rng.randint(0, max_members - 1)):
            size = rng.randint(2, min(4, nvars))
            drawn = variety(chart, *rng.sample(variables, size))
            if drawn.vanishing in seen:
                continue
            seen.add(drawn.vanishing)
            members.append(Member(rng.randint(2, 3), f"m{j + 2}", drawn))
        indices = sorted({m.index for m in members})
        if indices != list(range(indices[0], indices[-1] + 1)):
            continue
        system = CompatibleSystem(chart, tuple(members))
        if validate_compatible_system(system).valid:
            return system
    # dense draws can keep failing; the one-member system is always valid
    return CompatibleSystem(chart, (Member(1, "m1", base),))


def random_compatible_system(rng: random.Random):
    if rng.random() < 0.5:
        return random_jet_subfamily(rng)
    return random_rejection_system(rng)


def transverse_slice(rng: random.Random, system: CompatibleSystem):
    """Random slice slots disjoint from every member's support."""
    used = set()
    for m in system.members:
        used |= m.variety.vanishing
    free = [s for s in range(len(system.chart.variables)) if s not in used]
    if not free:
        return frozenset()
    return frozenset(rng.sample(free, rng.randint(0, len(free))))


def strip_slice_from_result(result_dict: dict, zeroed: frozenset) -> dict:
    """Remove the slice's root slots from a resolution result for comparison.

    Valid when the slice is disjoint from all member supports: the slice
    variables then ride through every chart unrenamed and untouched, so
    their root names spell them everywhere.
    """
    (root,) = (c for c in result_dict["atlas"]["charts"] if c["parent"] is None)
    zeroed = {root["variables"][s] for s in zeroed}
    out = {
        "schema_version": result_dict["schema_version"],
        "mode": result_dict["mode"],
        "per_stage_systems": result_dict["per_stage_systems"],
        "atlas": {
            "schema_version": result_dict["atlas"]["schema_version"],
            "root": result_dict["atlas"]["root"],
            "stage_log": result_dict["atlas"]["stage_log"],
            "charts": [],
        },
    }
    for chart in result_dict["atlas"]["charts"]:
        out["atlas"]["charts"].append(
            {
                "id": chart["id"],
                "parent": chart["parent"],
                "variables": [v for v in chart["variables"] if v not in zeroed],
                "log_marked": [v for v in chart["log_marked"] if v not in zeroed],
                "to_parent": {
                    v: img for v, img in chart["to_parent"].items() if v not in zeroed
                },
                "exceptional": chart["exceptional"],
                "children": chart["children"],
            }
        )
    return out
