"""Fiber-chart model of the projectivized logarithmic cotangent bundle and
the residue obstruction ideals.

Local model: a point lies on k of the c divisor components; base coordinates
are z1..zn with z1..zk log-marked, and the fiber of the projectivized bundle
carries homogeneous coordinates xi1..xin dual to the frame

  (dz1/z1, ..., dzk/zk, dz_{k+1}, ..., dzn).

Dehomogenizing at xi_t = 1 gives an affine chart with 2n-1 coordinates.  For
every nonempty subset J of the components through the point, the locus where
the residues along J are the only nonvanishing frame entries is the
coordinate subspace

  z_i = 0 (i in J),   xi_j = 0 (j in {1..n}\\J);

it is visible in fiber chart t exactly when its dehomogenized ideal is not
the unit ideal (equivalently t in J).  Indexing these subspaces by #J yields
a compatible system, and blowing it up principalizes the obstruction ideals:
for a nonempty component subset I, the obstruction ideal is the intersection
of the visible subspace primes over all nonempty J contained in I, which
chart-by-chart equals the dehomogenization of

  (z1*xi1, ..., zm*xim, xi_{m+1}, ..., xin),    m = #(I through the point).

Pulling a fiber-linear section back through (z, [xi]) -> (z, [z1*xi1, ...,
zm*xim, xi_{m+1}, ...]) always lands in the obstruction ideal; the membership
test is exact because the ideal is monomial and the pullback fiber-linear.
No verb pulls sections back: the tests check this paragraph, with random
sections and with the coordinate sections, whose pullbacks generate the
obstruction ideal exactly.

Relabeling the components by the transposition pi = (1 t), 1 < t <= k,
carries fiber chart (k, 1) onto chart (k, t): it swaps z1 and zt, sends the
coordinate xi_t of chart 1 to the coordinate xi1 of chart t, keeps the log
marks, and maps the stratum of J to that of pi(J), so the obstruction ideal
of I to that of pi(I).  Canonical resolutions commute with such relabelings
(Kollar, Lectures on Resolution of Singularities, ch. 3).  This module
certifies fiber charts end to end: `certify_chart` builds, resolves and
principalizes one chart, and `verify_jet` checks them all, a text run
checking each chart (k, t) against chart (k, 1) instead of resolving it.

Convention recorded in every certificate: the intersection defining the
obstruction ideal ranges over *nonempty* subsets of I only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .blowup import Chart, root_chart
from .monideal import (
    MonomialIdeal,
    ideal_sum,
    intersect_monomial_ideals,
)
from .resolution import CompatibleSystem, Member, ResolutionResult, resolve_system
from .symcore import LogresError, monomial_string


class OutOfRange(LogresError):
    """Jet-chart parameters violate 0 <= k <= c <= n, 2 <= n, 1 <= t <= n."""


class NotResolved(LogresError):
    """An obstruction ideal failed to principalize in some chart."""

    def __init__(self, chart_id: str, message: str):
        super().__init__(f"{message} (chart {chart_id})")
        self.chart_id = chart_id


@dataclass(frozen=True)
class JetChart:
    """A dehomogenized fiber chart: 2n-1 coordinates, base log marks z1..zk.

    A chart builds each stratum prime once, on first use of `stratum_primes`,
    each intersected route once per tuple of primes it intersects, and each
    closed form once per set of components through the point.
    """

    n: int
    c: int
    k: int
    t: int
    chart: Chart
    # intersected route per tuple of the subsets J whose non-unit primes it intersects
    _intersected: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # closed form per I & {1..k}, the only part of I it reads
    _closed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def stratum_primes(self) -> dict[tuple[int, ...], MonomialIdeal]:
        """`stratum_prime` of every nonempty subset of 1..c, keyed by sorted tuple."""
        return {J: stratum_prime(self, J) for J in component_subsets(range(1, self.c + 1))}


def make_jet_chart(n: int, c: int, k: int, t: int) -> JetChart:
    if n < 2 or not (0 <= k <= c <= n) or not (1 <= t <= n):
        raise OutOfRange(f"bad jet chart parameters n={n}, c={c}, k={k}, t={t}")
    base = tuple(f"z{i}" for i in range(1, n + 1))
    fiber = tuple(f"xi{j}" for j in range(1, n + 1) if j != t)
    chart = root_chart(base + fiber, log_marked=[f"z{i}" for i in range(1, k + 1)])
    return JetChart(n, c, k, t, chart)


def component_subsets(items: Sequence[int]) -> list[tuple[int, ...]]:
    """Nonempty subsets of a sorted tuple, ordered by (size, subset)."""
    return [J for size in range(1, len(items) + 1) for J in combinations(items, size)]


def _component_key(jet: JetChart, J: Iterable[int]) -> tuple[int, ...]:
    """J as a sorted tuple; refuses an empty J or components outside 1..c."""
    Js = tuple(sorted(frozenset(J)))
    if not Js:
        raise ValueError("component subset must be nonempty")
    if not 1 <= Js[0] <= Js[-1] <= jet.c:
        raise OutOfRange(f"components {list(Js)} out of range 1..{jet.c}")
    return Js


def stratum_prime(jet: JetChart, J: Iterable[int]) -> MonomialIdeal:
    """Dehomogenized prime of the residue stratum for component subset J.

    Unit ideal when the stratum misses the chart (a component of J does not
    pass through the point, or xi_t = 1 is one of its equations).
    """
    Js = frozenset(_component_key(jet, J))
    variables = jet.chart.variables
    if not Js <= set(range(1, jet.k + 1)) or jet.t not in Js:
        return MonomialIdeal.unit(variables)
    names = {f"z{i}" for i in Js}
    names |= {f"xi{j}" for j in range(1, jet.n + 1) if j not in Js and j != jet.t}
    return MonomialIdeal.from_varsets(variables, [{v} for v in sorted(names)])


def stratum_variety(jet: JetChart, J: Iterable[int]) -> frozenset[int] | None:
    """The slots cutting out the stratum of J; None when it misses the chart."""
    prime = jet.stratum_primes[_component_key(jet, J)]
    if prime.is_unit:
        return None
    return frozenset(g.index(1) for g in prime.generators)


def build_obstruction_system(n: int, c: int, k: int, t: int) -> tuple[JetChart, CompatibleSystem]:
    """All visible residue strata as a compatible system, indexed by #J."""
    jet = make_jet_chart(n, c, k, t)
    members = []
    for J in component_subsets(range(1, k + 1)):
        variety = stratum_variety(jet, J)
        if variety is None:
            continue
        label = "D(" + ",".join(map(str, J)) + ")"
        members.append(Member(len(J), label, variety))
    system = CompatibleSystem(jet.chart, tuple(members))
    return jet, system


def resolve_obstruction_system(
    jet: JetChart, system: CompatibleSystem, mode: str
) -> ResolutionResult:
    """Resolve the fiber-chart system as the global procedure would.

    The global minimal resolution stops one stage short of the full length c;
    in a chart where only k < c components pass through the point the local
    system has length k <= c - 1, so the restriction of the global minimal
    resolution runs *all* k local stages.  Only when k = c does minimal mode
    drop the last local stage.
    """
    if mode == "minimal" and jet.k < jet.c:
        effective = "canonical"
    else:
        effective = mode
    return resolve_system(system, mode=effective)


def stratum_relation_holds(jet: JetChart, I: Iterable[int], J: Iterable[int]) -> bool:
    """Whether P_I + P_J contains the prime of I & J when I and J meet, or,
    when they are disjoint, one of the two strata misses the chart.

    Symmetric in I and J.  When either prime is the unit ideal (its stratum
    misses the chart) the sum is the unit ideal, which contains every ideal,
    so the relation holds without forming the sum.
    """
    primes = jet.stratum_primes
    Is, Js = _component_key(jet, I), _component_key(jet, J)
    if primes[Is].is_unit or primes[Js].is_unit:
        return True
    common = tuple(sorted(set(Is) & set(Js)))
    return bool(common) and ideal_sum([primes[Is], primes[Js]]).contains_ideal(primes[common])


def obstruction_ideal_intersected(jet: JetChart, I: Iterable[int]) -> MonomialIdeal:
    """Intersection of the stratum primes over nonempty subsets of I.  A unit
    prime changes nothing, so the route is keyed by the subsets J of I whose
    prime is not the unit ideal, and the chart intersects each such tuple once."""
    primes = jet.stratum_primes
    key = tuple(J for J in component_subsets(_component_key(jet, I)) if not primes[J].is_unit)
    if key not in jet._intersected:
        proper = [primes[J] for J in key]
        jet._intersected[key] = (
            intersect_monomial_ideals(proper) if proper else MonomialIdeal.unit(jet.chart.variables)
        )
    return jet._intersected[key]


def obstruction_ideal_closed_form(jet: JetChart, I: Iterable[int]) -> MonomialIdeal:
    """Dehomogenization of (z1*xi1, ..., zm*xim, xi_{m+1}, ..., xin).  It
    depends only on the components of I through the point, so the chart
    builds it once per such set."""
    through = frozenset(I) & set(range(1, jet.k + 1))
    if through not in jet._closed:
        jet._closed[through] = _closed_form(jet, through)
    return jet._closed[through]


def _closed_form(jet: JetChart, through: frozenset[int]) -> MonomialIdeal:
    variables = jet.chart.variables
    if jet.t not in through:
        return MonomialIdeal.unit(variables)
    sets = []
    for i in sorted(through):
        if i == jet.t:
            sets.append({f"z{i}"})
        else:
            sets.append({f"z{i}", f"xi{i}"})
    for j in range(1, jet.n + 1):
        if j not in through and j != jet.t:
            sets.append({f"xi{j}"})
    return MonomialIdeal.from_varsets(variables, sets)


def obstruction_certificate(jet: JetChart, I: Iterable[int]) -> dict:
    """Both routes to the obstruction ideal plus their equality flag.  Equal
    ideals have equal generator tuples, so their spelling is made once."""
    Is = _component_key(jet, I)
    intersected = obstruction_ideal_intersected(jet, Is)
    closed = obstruction_ideal_closed_form(jet, Is)
    equal = intersected == closed
    generators = intersected.gens_as_strings()
    return {
        "n": jet.n,
        "c": jet.c,
        "k": jet.k,
        "t": jet.t,
        "I": list(Is),
        "generators": generators,
        "closed_form": list(generators) if equal else closed.gens_as_strings(),
        "equal": equal,
        "subset_convention": "nonempty subsets of I only",
    }


def obstruction_ideal(jet: JetChart, I: Iterable[int]) -> MonomialIdeal:
    """The obstruction ideal; raises if the two defining routes disagree."""
    Is = _component_key(jet, I)
    intersected = obstruction_ideal_intersected(jet, Is)
    closed = obstruction_ideal_closed_form(jet, Is)
    if intersected != closed:
        raise LogresError(
            f"obstruction ideal mismatch for I={list(Is)}: "
            f"{intersected} vs {closed}"
        )
    return intersected


# -- principalization certificates -------------------------------------------------


@dataclass(frozen=True)
class PrincipalizationCertificate:
    I: tuple[int, ...]
    per_chart: dict[str, dict[str, int]]  # leaf id -> {exceptional label: multiplicity}


def verify_principalization(
    result: ResolutionResult, jet: JetChart, I: Iterable[int]
) -> PrincipalizationCertificate:
    """Certify that the total transform of the obstruction ideal is a single
    exceptional monomial in every leaf chart.

    The total transform comes from the atlas, which pushes each generator
    into a leaf once however many ideals share it, and is principal exactly
    when `minimalize` leaves one generator.  Returns the exceptional
    multiplicities per chart; raises NotResolved with the offending chart id
    otherwise.  They depend on the ideal and the atlas alone, so the caller
    certifies each distinct ideal of a chart once, for every I that shares it.
    """
    Is = _component_key(jet, I)
    ideal = obstruction_ideal(jet, Is)
    per_chart = {}
    for leaf in result.leaves:
        total = result.atlas.total_transform(leaf.id, ideal)
        if len(total.generators) != 1:
            raise NotResolved(
                leaf.id,
                f"total transform of obstruction ideal for I={list(Is)} "
                f"has {len(total.generators)} minimal generators",
            )
        (gen,) = total.generators
        mults = {}
        residual = list(gen)
        for label, idx in leaf.exceptional:
            if residual[idx]:
                mults[label] = residual[idx]
                residual[idx] = 0
        if any(residual):
            offending = monomial_string(leaf.variables, tuple(residual))
            raise NotResolved(
                leaf.id,
                f"non-exceptional factor {offending} in the total transform",
            )
        per_chart[leaf.id] = mults
    return PrincipalizationCertificate(Is, per_chart)


# -- fiber-chart certification ------------------------------------------------------


def certify_chart(n: int, c: int, k: int, t: int, mode: str, subsets: list, divisors: bool) -> tuple:
    """Build and resolve the obstruction system of one fiber chart, then
    certify each subset I: its `obstruction_certificate`, marked principal
    or not, and with `divisors` set the exceptional divisor per leaf; a text
    run keeps none.  A route mismatch leaves no ideal, so it counts as not
    principal.  Returns the jet chart, the resolution and, per subset,
    (certificate, reason it is not principal or None).  Each distinct ideal
    is principalized once; a failure is not kept, so the next subset of that
    ideal tries again and each reason names its own subset."""
    jet, system = build_obstruction_system(n, c, k, t)
    result = resolve_obstruction_system(jet, system, mode)
    principal = {}  # intersected generators -> divisor, or None if not kept
    certified = []
    for I in subsets:
        cert = obstruction_certificate(jet, I)
        key = tuple(cert["generators"]) if cert["equal"] else None
        if key not in principal:  # a route mismatch (key None) fails, so is never kept
            try:
                divisor = verify_principalization(result, jet, I).per_chart
            except LogresError as err:
                cert["principal"] = False
                certified.append((cert, str(err)))
                continue
            principal[key] = divisor if divisors else None
        cert["principal"] = True
        if divisors:
            cert["divisor"] = principal[key]
        certified.append((cert, None))
    return jet, result, certified


def _flat_chart(n: int, k: int, t: int, subsets: list, divisors: bool) -> tuple:
    """The flat route: the jet chart, certificates, principality failures and
    relation failures of one fiber chart (c = n), which it builds, resolves
    and principalizes.  Its atlas is freed when this returns, before the next."""
    jet, _, certified = certify_chart(n, n, k, t, "canonical", subsets, divisors)
    principality_failures = [
        {"k": k, "t": t, "I": cert["I"], "error": error} for cert, error in certified if error
    ]
    # The relation is symmetric, holds for I = J and holds when either prime
    # is the unit ideal: check each unordered pair of proper primes once,
    # report failures in ordered (I, J) order.
    proper = [I for I in subsets if not jet.stratum_primes[I].is_unit]
    failed = {
        frozenset((I, J))
        for pos, I in enumerate(proper)
        for J in proper[pos + 1:]
        if not stratum_relation_holds(jet, I, J)
    }
    relation_failures = [
        {"k": k, "t": t, "I": list(I), "J": list(J)}
        for I in proper
        for J in proper
        if failed and frozenset((I, J)) in failed
    ]
    return jet, [cert for cert, _ in certified], principality_failures, relation_failures


def _relabeled_chart(source: JetChart, t: int, subsets: list) -> list:
    """Chart (source.k, t) checked as the image of chart (k, 1), `source`,
    under pi = (1 t), 1 < t <= k, once `source` passed every check of the
    flat route; any other pair of charts is refused.  The slot map of pi is
    read once from the names `make_jet_chart` gives.  Each stratum prime of
    (k, t) must be pi of the prime of pi(J) in (k, 1), which fixes the
    system, the intersected routes and the relations; a mismatch raises,
    naming the chart.  The canonical resolution commutes with pi, so this
    returns only the subsets I whose closed form differs from pi of the
    intersected route of pi(I) in (k, 1): each is a lift and a principality
    failure, as on the flat route."""
    if source.t != 1 or not 1 < t <= source.k:
        raise OutOfRange(
            f"chart k={source.k}, t={t} is not a relabeling of chart k={source.k}, t={source.t}"
        )
    jet = make_jet_chart(source.n, source.c, source.k, t)
    back = {"z1": f"z{t}", f"z{t}": "z1", "xi1": f"xi{t}"}  # pi as it acts on names, inverted
    slot = {name: s for s, name in enumerate(source.chart.variables)}
    take = operator.itemgetter(*(slot[back.get(name, name)] for name in jet.chart.variables))

    def pi(ideal: MonomialIdeal) -> MonomialIdeal:
        return MonomialIdeal._trusted(jet.chart.variables, map(take, ideal.generators))

    swap = {1: t, t: 1}
    preimage = {J: tuple(sorted(swap.get(i, i) for i in J)) for J in subsets}
    for J in subsets:
        if jet.stratum_primes[J] != pi(source.stratum_primes[preimage[J]]):
            raise LogresError(
                f"chart k={jet.k}, t={t} is not the relabeling of chart k={jet.k}, t=1:"
                f" the stratum prime of J={list(J)} differs"
            )
    return [
        I
        for I in subsets
        if obstruction_ideal_closed_form(jet, I)
        != pi(obstruction_ideal_intersected(source, preimage[I]))
    ]


def verify_jet(n: int, divisors: bool) -> dict:
    """Check every fiber chart (k, t) of c = n components, 0 <= k <= n and
    1 <= t <= n, for every nonempty component subset I: the lift (the two
    routes to the obstruction ideal agree), the ideal's principalization in
    every leaf, and the stratum relations, n(n+1)(2^n - 1) ideals in all.
    With `divisors` (a JSON run) the report holds every certificate with a
    divisor per leaf, so every chart takes the flat route: 159
    principalizations at n = 5.  Without, it holds none, and only the charts
    (k, 1) and those with an empty system (k = 0 or t > k) take it, 51 at
    n = 5; each chart (k, t), 1 < t <= k, is checked as the relabeling of
    chart (k, 1), unless that chart failed a check."""
    relation_failures = []
    principality_failures = []
    lift_failures = []
    certificates = []
    subsets = component_subsets(range(1, n + 1))
    for k in range(0, n + 1):
        source = None  # chart (k, 1) without divisors, once it passed every check
        for t in range(1, n + 1):
            if source is not None and t <= k:
                for I in _relabeled_chart(source, t, subsets):
                    failure = {"k": k, "t": t, "I": list(I)}
                    lift_failures.append(failure)
                    principality_failures.append(failure)  # no one ideal to certify
                continue
            jet, certs, principality, relations = _flat_chart(n, k, t, subsets, divisors)
            lifts = [cert for cert in certs if not cert["equal"]]
            if divisors:
                certificates += certs
            elif t == 1 and not (lifts or principality or relations):
                source = jet
            lift_failures += lifts
            principality_failures += principality
            relation_failures += relations
    return {
        "ideals_checked": n * (n + 1) * len(subsets),
        "certificates": certificates,
        "lift_ideal_failures": lift_failures,
        "intersection_failures": relation_failures,
        "principality_failures": principality_failures,
        "verified": not lift_failures and not relation_failures and not principality_failures,
    }
