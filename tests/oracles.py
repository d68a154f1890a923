"""Routes that no verb takes, kept as the second routes the tests check the
package against.

Each lemma here is checked by the acceptance suite and the unit tests, but no
CLI verb needs it, so it is not shipped in ``src/logres``:

* exact division, substitution and frame extension of polynomials, chart
  frames with logarithmic coordinates (``Frame``), and logarithmic 1-forms
  written in them (``LogForm``);
* the simple shape ``<x_1, ..., x_p, x_{p+1}*x_{r+1}, ..., x_r*x_{2r-p}>``
  of monomial ideals and its decomposition into 2^(r-p) coordinate
  subspaces of codimension r;
* a blow-up chart's map to its parent, read from its center and direction
  (``to_parent``), which the package builds and prints but does not store;
* the strict transform of an ideal in one blow-up chart (``transform_ideal``),
  closure of simple ideals under it (c04);
* slice restriction of compatible systems and subsystem principalization
  (c06), and the leaves of a resolution read off its blow-up tree;
* the symbolic twisted connection component with certified exact division
  (c07) and the graph-substitution identity of deformed Fermat sections (c09),
  on random sections summed as polynomials from ``sample``'s draws, in the
  chart frame of a connection context (``connection_frame``);
* the evaluation cells of the connection in ``Fraction`` arithmetic, with
  the rank and indeterminacy tests read off them (``reference_cells``),
  which the integer point table of ``logconn`` replaced;
* residues of chart forms, and global log forms written as chart forms when
  every component is a coordinate hyperplane;
* the recursive-descent polynomial parser that builds a ``Polynomial`` per
  factor (``reference_parse_polynomial``), which ``parse_polynomial``
  replaced with one pass into a term map;
* the JSON text of a payload from ``json.dumps`` with a ``default=`` hook for
  ``Fraction`` and dataclass leaves (``reference_emit``), which the writer
  in ``cli._emit`` replaced;
* one ``randint`` call per numerator and per denominator of a random
  fraction (``random_fraction``), the stream that ``logconn`` reads from
  whole words, and the kept words of given (numerator, denominator) pairs
  (``encode_draws``), the inverse of the decoding ``is_indeterminate`` does;
* the dense matrix text with ``str`` called on every cell
  (``reference_to_text``), which ``ratmat.to_text`` replaced with one step
  per run of zeros.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Mapping, Sequence

from logres.blowup import Atlas, Chart, push_exponent, root_chart
from logres.logconn import (
    COEFF_BOUND,
    ConnectionContext,
    DegreeMismatch,
    LogTangentVector,
    _chart_variables,
    _check_base_section,
)
from logres.monideal import (
    MixedVariableSets,
    MonomialIdeal,
    intersect_monomial_ideals,
)
from logres.multiindex import CoefficientVector, MultiIndex, enumerate_multiindices
from logres.residues import DivisorArrangement, chart_variables
from logres.resolution import (
    CompatibleSystem,
    Member,
    resolve_system,
    validate_compatible_system,
)
from logres.symcore import (
    Exponent,
    LogresError,
    MissingAssignment,
    Polynomial,
    grlex_key,
)

# -- polynomials ----------------------------------------------------------------


class DivisionByZero(LogresError):
    """Exact division by the zero polynomial."""


class NotDivisible(LogresError):
    """Exact polynomial division has a nonzero remainder."""


def monomial(variables: Iterable[str], exponent: Exponent, coeff=1) -> Polynomial:
    return Polynomial(variables, {tuple(exponent): Fraction(coeff)})


def variable(variables: Iterable[str], name: str) -> Polynomial:
    """The coordinate polynomial of one variable of the frame."""
    vs = tuple(variables)
    if name not in vs:
        raise ValueError(f"unknown variable {name!r} for frame {vs}")
    return monomial(vs, tuple(int(v == name) for v in vs))


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Return q with f = q*g exactly.

    Raises NotDivisible when no exact quotient exists and DivisionByZero when
    g = 0.  Single-divisor reduction in graded-lex order terminates because
    the leading monomial strictly decreases; for a divisible f the remainder
    reaches zero, and a leading monomial not divisible by g's certifies
    non-divisibility.
    """
    if g.is_zero:
        raise DivisionByZero("exact division by the zero polynomial")
    f._require_same_frame(g)
    if f.is_zero:
        return Polynomial.zero(f.variables)
    g_lead = max(g.terms, key=grlex_key)
    g_coeff = g.terms[g_lead]
    remainder = dict(f.terms)
    quotient: dict[Exponent, Fraction] = {}
    while remainder:
        lead = max(remainder, key=grlex_key)
        shift = tuple(a - b for a, b in zip(lead, g_lead))
        if any(s < 0 for s in shift):
            raise NotDivisible(f"{f} is not divisible by {g}")
        coeff = remainder[lead] / g_coeff
        quotient[shift] = coeff
        for exp, c in g.terms.items():
            e = tuple(a + b for a, b in zip(shift, exp))
            nc = remainder.get(e, Fraction(0)) - coeff * c
            if nc:
                remainder[e] = nc
            else:
                remainder.pop(e, None)
    return Polynomial._trusted(f.variables, quotient)


def substitute(f: Polynomial, assignment: Mapping[str, Polynomial]) -> Polynomial:
    """Replace every variable of f by its assigned polynomial, fully expanded.

    All images must share one variable frame, which becomes the result frame.
    """
    missing = [v for v in f.variables if v not in assignment]
    if missing:
        raise MissingAssignment(f"no assignment for {missing}")
    images = [assignment[v] for v in f.variables]
    if not images:
        raise ValueError("cannot substitute into a polynomial with no variables")
    target = images[0].variables
    for img in images:
        if img.variables != target:
            raise ValueError("substitution images use inconsistent variable frames")
    result = Polynomial.zero(target)
    # cache powers of each image; exponents in charts stay small
    powers: list[dict[int, Polynomial]] = [
        {0: Polynomial.constant(target, 1)} for _ in images
    ]

    def power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * images[i]
        return cache[e]

    for exp, coeff in sorted(f.terms.items()):
        term = Polynomial.constant(target, coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


def extend_variables(f: Polynomial, variables: Iterable[str]) -> Polynomial:
    """Embed f into a larger variable frame, matching variables by name."""
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs}")
    positions = []
    for v in f.variables:
        if v not in vs:
            raise ValueError(f"target frame {vs} is missing variable {v!r}")
        positions.append(vs.index(v))
    terms = {}
    for exp, coeff in f.terms.items():
        e = [0] * len(vs)
        for pos, x in zip(positions, exp):
            e[pos] = x
        terms[tuple(e)] = coeff
    return Polynomial._trusted(vs, terms)


@dataclass(frozen=True)
class Frame:
    """A coordinate frame: ordered variables, some marked as logarithmic."""

    variables: tuple[str, ...]
    log_marked: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate frame variables in {self.variables}")
        unknown = self.log_marked - set(self.variables)
        if unknown:
            raise ValueError(f"log-marked names {sorted(unknown)} not in frame")


@dataclass(frozen=True)
class LogForm:
    """A 1-form `sum h_j dz_j + sum b_j dz_j/z_j` in a chart frame.

    Log coefficients are only allowed on log-marked coordinates of the
    frame.  Coefficients are stored sorted by the frame's variable order,
    zero entries dropped, so equal forms compare equal.
    """

    chart: Frame
    holomorphic: tuple[tuple[str, Polynomial], ...]
    log: tuple[tuple[str, Polynomial], ...]

    @classmethod
    def make(
        cls,
        chart: Frame,
        holomorphic: Mapping[str, Polynomial] | None = None,
        log: Mapping[str, Polynomial] | None = None,
    ) -> "LogForm":
        variables = tuple(chart.variables)
        order = {v: i for i, v in enumerate(variables)}
        holo = {}
        for v, p in (holomorphic or {}).items():
            if v not in order:
                raise ValueError(f"coefficient on unknown coordinate {v!r}")
            if p:
                holo[v] = p
        logpart = {}
        for v, p in (log or {}).items():
            if v not in chart.log_marked:
                raise ValueError(f"log coefficient on non-log coordinate {v!r}")
            if p:
                logpart[v] = p
        return cls(
            chart,
            tuple(sorted(holo.items(), key=lambda kv: order[kv[0]])),
            tuple(sorted(logpart.items(), key=lambda kv: order[kv[0]])),
        )

    @property
    def holomorphic_map(self) -> dict[str, Polynomial]:
        return dict(self.holomorphic)

    @property
    def log_map(self) -> dict[str, Polynomial]:
        return dict(self.log)

    @property
    def is_zero(self) -> bool:
        return not self.holomorphic and not self.log

    def __add__(self, other: "LogForm") -> "LogForm":
        if tuple(self.chart.variables) != tuple(other.chart.variables):
            raise ValueError("cannot add forms from different charts")
        holo = self.holomorphic_map
        for v, p in other.holomorphic:
            holo[v] = holo.get(v, Polynomial.zero(p.variables)) + p
        logpart = self.log_map
        for v, p in other.log:
            logpart[v] = logpart.get(v, Polynomial.zero(p.variables)) + p
        return LogForm.make(self.chart, holo, logpart)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = [f"({p})*dlog({v})" for v, p in self.log]
        pieces += [f"({p})*d({v})" for v, p in self.holomorphic]
        return " + ".join(pieces)


# -- simple monomial ideals --------------------------------------------------------


class NotSimpleShape(LogresError):
    """The ideal does not match the simple pattern under any renaming."""


def prime(variety: frozenset[int], variables: Iterable[str]) -> MonomialIdeal:
    """The prime of a coordinate subspace, given by its slots, over a chart's
    variables."""
    vs = tuple(variables)
    missing = sorted(s for s in variety if not 0 <= s < len(vs))
    if missing:
        raise MixedVariableSets(f"variety slots {missing} not in chart")
    return MonomialIdeal.from_varsets(vs, [{vs[s]} for s in sorted(variety)])


def is_squarefree(ideal: MonomialIdeal) -> bool:
    return all(all(e <= 1 for e in g) for g in ideal.generators)


def gens_as_varsets(ideal: MonomialIdeal) -> list[frozenset[str]]:
    if not is_squarefree(ideal):
        raise ValueError("ideal is not square-free")
    return [
        frozenset(v for v, e in zip(ideal.variables, g) if e)
        for g in ideal.generators
    ]


def simple_shape(ideal: MonomialIdeal) -> tuple[list[str], list[tuple[str, str]]]:
    """Match the simple pattern: lone variables plus disjoint variable pairs.

    Returns (singletons, pairs); raises NotSimpleShape when the minimal
    generators do not fit the pattern under any renaming.
    """
    if not ideal.generators or ideal.is_unit:
        raise NotSimpleShape(f"{ideal} is trivial")
    if not is_squarefree(ideal):
        raise NotSimpleShape(f"{ideal} has a non-square-free generator")
    singles: list[str] = []
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for sets in gens_as_varsets(ideal):
        names = sorted(sets, key=ideal.variables.index)
        if seen & set(names):
            raise NotSimpleShape(f"variable reused across generators of {ideal}")
        seen.update(names)
        if len(names) == 1:
            singles.append(names[0])
        elif len(names) == 2:
            pairs.append((names[0], names[1]))
        else:
            raise NotSimpleShape(f"generator of degree {len(names)} in {ideal}")
    return singles, pairs


def is_simple_ideal(ideal: MonomialIdeal) -> bool:
    try:
        simple_shape(ideal)
    except NotSimpleShape:
        return False
    return True


def decompose_simple_ideal(ideal: MonomialIdeal) -> list[frozenset[int]]:
    """The 2^(pairs) coordinate subspaces, as slot sets, whose union the
    simple ideal cuts out.

    Every returned variety has codimension p + (r - p) = r, one variable taken
    from each pair generator.
    """
    singles, pairs = simple_shape(ideal)
    slot = {v: i for i, v in enumerate(ideal.variables)}
    varieties = []
    for choice in product(*pairs) if pairs else [()]:
        varieties.append(frozenset(slot[v] for v in (*singles, *choice)))
    varieties.sort(key=sorted)
    return varieties


# -- strict transforms of ideals ------------------------------------------------------


@dataclass(frozen=True)
class TransformRecord:
    total: MonomialIdeal
    multiplicities: tuple[tuple[str, int], ...]  # per exceptional divisor label
    strict: MonomialIdeal
    strict_is_simple_or_trivial: bool


def to_parent(chart: Chart) -> tuple[Exponent, ...]:
    """Image of each parent slot over a blow-up chart's slots: x_i itself,
    times x_direction when i is a center slot other than the direction.  A
    blow-up moves no slot, so the parent has the chart's width."""
    if chart.direction is None:
        raise ValueError(f"chart {chart.id} is not a blow-up chart")
    images = []
    for i in range(len(chart.variables)):
        image = [0] * len(chart.variables)
        image[i] = 1
        if i in chart.center and i != chart.direction:
            image[chart.direction] += 1
        images.append(tuple(image))
    return tuple(images)


def transform_ideal(chart: Chart, ideal: MonomialIdeal) -> TransformRecord:
    """Total transform, exceptional multiplicities, and residual ideal.

    The multiplicity of an exceptional divisor is the largest power of its
    defining coordinate dividing every generator of the total transform; the
    strict part is the total with those common powers divided out.  This
    divides the *common* power out of the ideal, unlike the generator-wise
    saturation of ``blowup.strict_transform_variety``.
    """
    images = to_parent(chart)
    if len(ideal.variables) != len(images):
        raise MixedVariableSets(
            f"ideal over {ideal.variables}, chart parent has {len(images)} slots"
        )
    width = len(chart.variables)
    total = MonomialIdeal._trusted(
        chart.variables, [push_exponent(images, g, width) for g in ideal.generators]
    )
    mults = []
    strict_gens = [list(g) for g in total.generators]
    for label, idx in chart.exceptional:
        m = min((g[idx] for g in total.generators), default=0)
        mults.append((label, m))
        if m:
            for g in strict_gens:
                g[idx] -= m
    strict = MonomialIdeal._trusted(chart.variables, [tuple(g) for g in strict_gens])
    flag = strict.is_unit or is_simple_ideal(strict)
    return TransformRecord(total, tuple(mults), strict, flag)


# -- slices and subsystems ----------------------------------------------------------


class NonTransverseSlice(LogresError):
    """A member's vanishing set is contained in the slice's zeroed slots."""


class NotSubsystem(LogresError):
    """The selected members do not form a subsystem."""


def restrict_system(system: CompatibleSystem, zeroed: Iterable[int]) -> CompatibleSystem:
    """Intersect every member with the coordinate slice {x_s = 0 : s in zeroed}.

    The slice must be combinatorially transverse: no member's vanishing set
    may be contained in the zeroed slots.  The slice chart drops the zeroed
    slots, so every other slot moves down past the dropped ones before it.
    """
    zs = frozenset(zeroed)
    chart = system.chart
    unknown = sorted(s for s in zs if not 0 <= s < len(chart.variables))
    if unknown:
        raise ValueError(f"slice slots {unknown} not in chart")
    for m in system.members:
        if m.variety <= zs:
            raise NonTransverseSlice(f"{m.label} is contained in the slice")
    kept = [s for s in range(len(chart.variables)) if s not in zs]
    moved = {s: i for i, s in enumerate(kept)}
    slice_chart = root_chart(
        (chart.variables[s] for s in kept),
        (chart.variables[s] for s in chart.log_marked if s not in zs),
    )
    members = tuple(
        Member(m.index, m.label, frozenset(moved[s] for s in m.variety - zs))
        for m in system.members
    )
    return CompatibleSystem(slice_chart, members)


def _is_subsystem(system: CompatibleSystem, sub_labels: frozenset[str]) -> bool:
    """Subsystem condition: every (outside, inside) pair of comparable index
    has its intersection inside a lower-index subsystem member."""
    members = system.members
    sub = [m for m in members if m.label in sub_labels]
    if not sub:
        return False
    b = max(m.index for m in sub)
    outside = [m for m in members if m.label not in sub_labels and m.index <= b]
    for out in outside:
        for inner in sub:
            if inner.index < out.index:
                continue
            union = out.variety | inner.variety
            if not any(s.index < out.index and s.variety <= union for s in sub):
                return False
    return True


def subsystem_ideal(system: CompatibleSystem, sub_labels: Iterable[str]) -> MonomialIdeal:
    labels = frozenset(sub_labels)
    primes = [
        prime(m.variety, system.chart.variables)
        for m in system.members
        if m.label in labels
    ]
    if not primes:
        raise NotSubsystem("empty member selection")
    return intersect_monomial_ideals(primes)


def verify_subsystem_resolution(
    system: CompatibleSystem, sub_labels: Iterable[str]
) -> bool:
    """Check that the canonical resolution principalizes the subsystem ideal.

    The selection must satisfy the subsystem condition and itself be a
    compatible system; the check then asks for the total transform of the
    intersection ideal to be principal in every leaf chart.
    """
    labels = frozenset(sub_labels)
    unknown = labels - {m.label for m in system.members}
    if unknown:
        raise NotSubsystem(f"unknown member labels {sorted(unknown)}")
    sub_members = tuple(m for m in system.members if m.label in labels)
    sub_system = CompatibleSystem(system.chart, sub_members)
    if validate_compatible_system(sub_system):
        raise NotSubsystem("selection is not itself a compatible system")
    if not _is_subsystem(system, labels):
        raise NotSubsystem("selection violates the subsystem condition")
    ideal = subsystem_ideal(system, labels)
    result = resolve_system(system, mode="canonical")
    for leaf in result.leaves:
        total = result.atlas.total_transform(leaf.id, ideal)
        if len(total.generators) != 1:
            return False
    return True


def atlas_leaves(atlas: Atlas) -> list[Chart]:
    """The charts of the blow-up tree with no children, sorted by id: the
    leaves a resolution records, read off the tree instead of its final state."""
    return [atlas.charts[cid] for cid in sorted(atlas.charts) if not atlas.children[cid]]


# -- symbolic connection components ---------------------------------------------------


class DivisibilityFailure(LogresError):
    """The connection image was not divisible by tau^(rI); a bug signal."""


def connection_frame(ctx: ConnectionContext) -> Frame:
    """The chart a section lives in: the fiber coordinate t, log-marked since
    its zero set is the zero section, then the base coordinates z1..zn."""
    return Frame(_chart_variables(ctx), frozenset({"t"}))


def tau_power(ctx: ConnectionContext, index: MultiIndex, scale: int = 1) -> Polynomial:
    """The product of tau_j raised to scale * index_j, in the local normal
    form tau_0 = 1, tau_j = z_j."""
    if len(index) != ctx.n + 1:
        raise ValueError(f"index {index} has wrong length")
    variables = _chart_variables(ctx)
    out = Polynomial.constant(variables, 1)
    for z, e in zip(variables[1:], index[1:]):
        if e:
            out = out * variable(variables, z) ** (scale * e)
    return out


def connection_component(
    ctx: ConnectionContext, a: Polynomial, index: MultiIndex
) -> LogForm:
    """The twisted component: apply the connection to a*tau^((r+1)I) and
    exact-divide every coefficient by tau^(rI).  A remainder would contradict
    the construction and raises DivisibilityFailure."""
    _check_base_section(ctx, a)
    if sum(index) != ctx.delta:
        raise ValueError(f"index weight {sum(index)} != delta = {ctx.delta}")
    frame = connection_frame(ctx)
    product = a * tau_power(ctx, index, ctx.r + 1)
    divisor = tau_power(ctx, index, ctx.r)
    holo = {}
    try:
        for z in frame.variables[1:]:
            d = product.diff(z)
            holo[z] = exact_divide(d, divisor) if d else d
        logpart = {"t": exact_divide(-product, divisor) if product else product}
    except NotDivisible as err:
        raise DivisibilityFailure(
            f"component for index {index} not divisible by tau^(r*I)"
        ) from err
    return LogForm.make(frame, holo, logpart)


def _as_polynomial(ctx: ConnectionContext, value) -> Polynomial:
    """A coefficient as a polynomial over the chart; scalars become constants."""
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(_chart_variables(ctx), value)


def monomial_basis(ctx: ConnectionContext) -> list[tuple[MultiIndex, Polynomial]]:
    """Chart forms of the degree-eps monomials (slot 0 dehomogenized away)."""
    return [
        (K, monomial(_chart_variables(ctx), (0,) + K[1:]))
        for K in enumerate_multiindices(ctx.n, ctx.eps)
    ]


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    """p/q from ``randint(-COEFF_BOUND, COEFF_BOUND)`` and then
    ``randint(1, COEFF_BOUND)``, both drawn again while ``nonzero`` asks for
    a nonzero value and p is zero: the stream ``logconn`` reads from whole
    words for its coefficients, basepoints and vectors."""
    while True:
        value = Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(1, COEFF_BOUND))
        if value or not nonzero:
            return value


def encode_draws(pairs: Iterable[tuple[int, int]]) -> bytes:
    """Kept words that decode to ``pairs``, as ``random_coefficients``
    returns them: the word (p + 1000) << 21 for a numerator p and
    (q - 1) << 22 for a denominator q, 4 bytes each, little-endian.  A pair
    outside the ranges of ``randint(-COEFF_BOUND, COEFF_BOUND)`` and
    ``randint(1, COEFF_BOUND)`` is refused."""
    words = bytearray()
    for p, q in pairs:
        if not (-COEFF_BOUND <= p <= COEFF_BOUND and 1 <= q <= COEFF_BOUND):
            raise ValueError(f"pair {(p, q)} is outside the randint ranges")
        words += struct.pack("<II", (p + COEFF_BOUND) << 21, (q - 1) << 22)
    return bytes(words)


def summed_random_coefficients(ctx: ConnectionContext, rng) -> CoefficientVector:
    """One random degree-<=eps section per weight-delta index, summed term by
    term from ``random_fraction`` draws: per index in index order, per basis
    monomial in basis order, the RNG stream ``sample`` draws."""
    basis = monomial_basis(ctx)
    entries = {}
    for index in enumerate_multiindices(ctx.n, ctx.delta):
        a = Polynomial.zero(_chart_variables(ctx))
        for _, mono in basis:
            a = a + mono * random_fraction(rng)
        entries[index] = a
    return CoefficientVector.make(ctx.n, ctx.delta, entries)


def fermat_section(ctx: ConnectionContext, coeffs: CoefficientVector) -> Polynomial:
    """Expand sum_I a_I * tau^((r+1)I) in chart form."""
    if coeffs.n != ctx.n or coeffs.degree != ctx.delta:
        raise DegreeMismatch(
            f"coefficient vector must be keyed by the full weight-{ctx.delta} index set"
        )
    total = Polynomial.zero(_chart_variables(ctx))
    for index, value in coeffs.entries:
        a = _as_polynomial(ctx, value)
        _check_base_section(ctx, a)
        if a.total_degree() > ctx.eps:
            raise DegreeMismatch(
                f"coefficient for {index} has degree {a.total_degree()} > eps = {ctx.eps}"
            )
        if a.is_zero:
            continue
        total = total + a * tau_power(ctx, index, ctx.r + 1)
    return total


def reference_cells(
    ctx: ConnectionContext, vector: LogTangentVector
) -> dict[MultiIndex, list[Fraction]]:
    """Each weight-delta index I with its component's values on the basis
    monomials m_K, in Fractions: m_K(p)*factor_I + tau^I(p)*xi(m_K)(p), with
    factor_I = (r+1)*xi(tau^I)(p) - xi0*tau^I(p).  Monomials are valued and
    differentiated term by term at the basepoint p, one coordinate at a time."""
    point = [Fraction(x) for x in vector.basepoint]

    def value_and_slope(exponent):
        value = prod(p**e for p, e in zip(point, exponent))
        slope = sum(
            x * e * point[j] ** (e - 1)
            * prod(p**f for i, (p, f) in enumerate(zip(point, exponent)) if i != j)
            for j, (e, x) in enumerate(zip(exponent, vector.xi))
            if e
        )
        return value, slope

    basis = [value_and_slope(K[1:]) for K in enumerate_multiindices(ctx.n, ctx.eps)]
    cells = {}
    for index in enumerate_multiindices(ctx.n, ctx.delta):
        tau, tau_slope = value_and_slope(index[1:])
        factor = (ctx.r + 1) * tau_slope - vector.xi0 * tau
        cells[index] = [m * factor + tau * m_slope for m, m_slope in basis]
    return cells


def reference_is_indeterminate(
    cells: dict[MultiIndex, list[Fraction]], draws: list[tuple[int, int]]
) -> bool:
    """Whether every component vanishes, given ``reference_cells`` and the
    draws of one section per index (index-major, basis-minor (p, q) pairs,
    the coefficient p/q)."""
    rows = list(cells.values())
    width = len(rows[0])
    assert len(draws) == len(rows) * width
    return all(
        sum(Fraction(p, q) * cell for (p, q), cell in zip(draws[i * width:], row)) == 0
        for i, row in enumerate(rows)
    )


def reference_to_text(matrix) -> str:
    """Dense exact text of a matrix, ``str`` of every cell: one row per line."""
    return "\n".join(" ".join(map(str, row)) for row in matrix)


def restriction_identity_residuals(
    ctx: ConnectionContext, coeffs: CoefficientVector
) -> list[Polynomial]:
    """Residuals of the graph-substitution identity, one per base coordinate.

    Substituting t = sigma into sum_I tau^(rI) * component_I(a_I) replaces
    dt/t by d(sigma)/sigma; clearing the denominator leaves
    sigma * h_j + g * d_j(sigma) per coordinate, which must vanish
    identically.
    """
    variables = _chart_variables(ctx)
    zero = Polynomial.zero(variables)
    sigma = fermat_section(ctx, coeffs)
    residuals = [zero] * ctx.n
    for index, value in coeffs.entries:
        a = _as_polynomial(ctx, value)
        if a.is_zero:
            continue
        form = connection_component(ctx, a, index)
        holo = form.holomorphic_map
        g = form.log_map.get("t", zero)
        weight = tau_power(ctx, index, ctx.r)
        for j, z in enumerate(variables[1:]):
            h = holo.get(z, zero)
            residuals[j] = residuals[j] + weight * (sigma * h + g * sigma.diff(z))
    return residuals


# -- residues ---------------------------------------------------------------------------


class ComponentNotLogMarked(LogresError):
    """Residue requested along a coordinate the chart does not log-mark."""


def residue_of_form(form: LogForm, coordinate: str) -> Polynomial:
    """Residue along the divisor (coordinate = 0), restricted to it."""
    if coordinate not in form.chart.log_marked:
        raise ComponentNotLogMarked(
            f"{coordinate!r} is not a log-marked coordinate of the chart"
        )
    beta = form.log_map.get(coordinate)
    variables = tuple(form.chart.variables)
    if beta is None:
        return Polynomial.zero(variables)
    idx = variables.index(coordinate)
    restricted = {e: c for e, c in beta.terms.items() if e[idx] == 0}
    return Polynomial(variables, restricted)


def as_coordinate_logform(
    arrangement: DivisorArrangement, residues: Sequence[Fraction], chart_index: int
) -> LogForm:
    """Chart-frame form of sum_k residues[k] * dlog(s_k) when every component
    s_k is a coordinate hyperplane."""
    variables = chart_variables(arrangement.n, chart_index)
    logpart: dict[str, Polynomial] = {}
    marked = set()
    for res, poly in zip(residues, arrangement.polynomials):
        if len(poly.terms) != 1 or poly.total_degree() != 1:
            raise ValueError(f"{poly} is not a coordinate hyperplane")
        (exp,) = poly.terms
        slot = exp.index(1)
        if slot == chart_index:
            continue  # dehomogenizes to a constant: no pole on this chart
        name = f"u{slot}"
        marked.add(name)
        if res:
            current = logpart.get(name, Polynomial.zero(variables))
            logpart[name] = current + Polynomial.constant(variables, res)
    return LogForm.make(Frame(variables, frozenset(marked)), {}, logpart)


# -- the polynomial text format, parsed factor by factor ---------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*~*)|(?P<op>[-+*/^]))"
)


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.variables = variables

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str]]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            pos = m.end()
            for kind in ("int", "name", "op"):
                val = m.group(kind)
                if val is not None:
                    tokens.append((kind, val))
                    break
        return tokens

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.parse_term(allow_sign=True)
        while True:
            tok = self.peek()
            if tok is None:
                return result
            if tok != ("op", "+") and tok != ("op", "-"):
                raise ValueError(f"unexpected token {tok}")
            self.take()
            term = self.parse_term(allow_sign=False)
            result = result + term if tok[1] == "+" else result - term

    def parse_term(self, allow_sign: bool) -> Polynomial:
        sign = 1
        while allow_sign and self.peek() in (("op", "-"), ("op", "+")):
            if self.take()[1] == "-":
                sign = -sign
        factors = [self.parse_factor()]
        while self.peek() == ("op", "*"):
            self.take()
            factors.append(self.parse_factor())
        result = Polynomial.constant(self.variables, sign)
        for fac in factors:
            result = result * fac
        return result

    def parse_factor(self) -> Polynomial:
        kind, val = self.take()
        if kind == "int":
            num = int(val)
            if self.peek() == ("op", "/"):
                self.take()
                dkind, dval = self.take()
                if dkind != "int":
                    raise ValueError("expected integer denominator")
                if int(dval) == 0:
                    raise ValueError(f"zero denominator in {val}/{dval}")
                return Polynomial.constant(self.variables, Fraction(num, int(dval)))
            return Polynomial.constant(self.variables, num)
        if kind == "name":
            if val not in self.variables:
                raise ValueError(f"unknown variable {val!r}")
            base = variable(self.variables, val)
            if self.peek() == ("op", "^"):
                self.take()
                ekind, eval_ = self.take()
                if ekind != "int":
                    raise ValueError("expected integer exponent")
                return base ** int(eval_)
            return base
        raise ValueError(f"unexpected token {val!r}")


def reference_parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse the ASCII polynomial format over a declared variable frame."""
    vs = tuple(variables)
    text = text.strip()
    if not text or text == "0":
        return Polynomial.zero(vs)
    return _Parser(text, vs).parse()


# -- JSON output -----------------------------------------------------------------


def _encode(value):
    """The `default=` hook: a Fraction as "p/q", a dataclass instance as the
    shallow dict of its fields; any other type is refused."""
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def reference_emit(payload) -> str:
    """A payload as key-sorted JSON, indented by two, through `json.dumps`."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_encode) + "\n"
