"""Logarithmic connections on the total space of a line bundle, twisted
connection components, exact evaluation matrices, and indeterminacy sampling.

Local model: base coordinates z1..zn plus a fiber coordinate t cutting the
zero section, which is the log divisor; the frame is (dt/t, dz1, ..., dzn).
The connection sends a function s to ds - s*dt/t.  For a section written as
a * tau^((r+1)I) with a of degree <= eps, the image is divisible by
tau^(rI); the quotient

  (r+1)*a*d(tau^I) + tau^I*da - a*tau^I*dt/t

is the twisted component attached to the weight-delta index I.  The
arrangement is written in its local normal form, tau_0 = 1 and tau_j = z_j:
general hypersurfaces meet at a point in simple normal crossings, so every
point has local coordinates in which they are these, and the strata are the
coordinate subspaces {z_j = 0 : j in J}, J a subset of 1..n.  The verbs
only evaluate components; the symbolic component with its certified exact
division, the deformed Fermat sections and their graph-substitution identity
are routes the tests check, in ``tests/oracles.py``.

Evaluating the components against a log tangent vector
xi = xi0*t*d/dt + sum xi_j*d/dz_j at a basepoint y assembles, block by index,
an exact rational matrix whose rank at a point where exactly the tau_j with
j in J vanish is at least C(k + delta, k), k = n - #J.

Both ``rank`` and ``sample`` evaluate from one table per (basepoint, vector)
of the powers of each coordinate.  The value and xi-slope of every
degree-eps basis monomial m_K, and of every tau^I, which is the chart
monomial of I, follow from it by the power rule.  Component I of the section
a = sum_K c_K*m_K is then

  sum_K c_K * (m_K(y)*factor_I + tau^I(y)*xi(m_K)(y)),
  factor_I = (r+1)*xi(tau^I)(y) - xi0*tau^I(y),

so no section polynomial is differentiated or evaluated.
The context holds only the sizes n, eps, delta and r, so neither verb
builds a polynomial.  ``component_value`` builds tau^I as a polynomial over
``_chart_variables`` and differentiates and evaluates it and the section; no
verb calls it.  It is the polynomial route the tests compare the table
against; beyond the context's cached listings it shares no code with the
table, and the benchmark's per-layer metrics name it.

``sample`` keeps each trial's random sections as the (numerator, denominator)
draws of their coefficients; ``random_coefficients`` makes every ``randint``
before it returns, so the RNG stream does not depend on what is read.
``is_indeterminate`` values each section from its draws and the point table,
stops at the first nonzero component, and builds no polynomial.

``RankReport`` and ``SamplingReport`` are plain frozen dataclasses; the
command line encodes them, field by field, as JSON.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .multiindex import MultiIndex, enumerate_multiindices, index_count
from .symcore import LogresError, Polynomial


class BasepointNotInStratum(LogresError):
    """The basepoint's vanishing pattern disagrees with the declared stratum."""


class DegreeMismatch(LogresError):
    """Coefficient data does not fit the declared degrees."""


COEFF_BOUND = 1000  # numerator/denominator bound for reproducible random draws


@dataclass(frozen=True)
class ConnectionContext:
    """Fixed data: dimension and twist degrees.  The section arrangement is
    its local normal form, tau = (1, z1, ..., zn), so it needs no data."""

    n: int
    eps: int
    delta: int
    r: int

    def stratum_candidates(self) -> list[int]:
        """Indices j whose tau_j can vanish: 1..n, since tau_0 = 1."""
        return list(range(1, self.n + 1))

    @cached_property
    def delta_indices(self) -> tuple[MultiIndex, ...]:
        """The weight-delta indices, listed once per context."""
        return tuple(enumerate_multiindices(self.n, self.delta))

    @cached_property
    def basis_exponents(self) -> tuple[tuple[int, ...], ...]:
        """Exponents in z1..zn of the degree-eps basis monomials (slot 0
        dehomogenized away), in weight-eps index order, listed once per
        context.  Distinct indices of one weight give distinct exponents."""
        return tuple(K[1:] for K in enumerate_multiindices(self.n, self.eps))


def make_connection_context(
    n: int,
    eps: int,
    delta: int,
    r: int,
) -> ConnectionContext:
    if n < 1 or eps < 1 or delta < 1 or r < 1:
        raise ValueError("n, eps, delta, r must all be positive")
    return ConnectionContext(n, eps, delta, r)


@dataclass(frozen=True)
class LogTangentVector:
    """xi0 * t d/dt + sum xi_j d/dz_j, anchored at a base point."""

    xi0: Fraction
    xi: tuple[Fraction, ...]
    basepoint: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.xi0 and not any(self.xi):
            raise ValueError("log tangent vector must be nonzero")


def _chart_variables(ctx: ConnectionContext) -> tuple[str, ...]:
    """The chart coordinates a polynomial section lives over: the fiber
    coordinate t in slot 0, then z1..zn."""
    return ("t",) + tuple(f"z{j}" for j in range(1, ctx.n + 1))


def _check_base_section(ctx: ConnectionContext, a: Polynomial) -> None:
    if a.variables != _chart_variables(ctx):
        raise ValueError("section must live over the chart frame")
    if any(exp[0] for exp in a.terms):  # slot 0 of the chart is t
        raise ValueError("section must not involve the fiber coordinate")


def component_value(
    ctx: ConnectionContext,
    a: Polynomial,
    index: MultiIndex,
    vector: LogTangentVector,
) -> Fraction:
    """Evaluate the twisted component on a log tangent vector at its basepoint.

    Computed directly from (r+1)*a*d(tau^I) + tau^I*(da - a*dt/t), which
    avoids the symbolic division; agrees with evaluating the symbolic
    component of ``tests/oracles.py`` (tested).  With xi(f) = sum_j xi_j * df/dz_j
    this is a * ((r+1)*xi(tau^I) - xi0*tau^I) + tau^I * xi(a).

    This is the polynomial route: it builds tau^I = z1^I_1*...*zn^I_n
    (tau_0 = 1 contributes nothing) as a polynomial, then differentiates and
    evaluates it and ``a``.  No verb calls it;
    ``is_indeterminate`` and the rank blocks read a ``_PointTable`` instead.
    It stays as the route the tests compare the table against, and the
    benchmark's per-layer metrics name it."""
    _check_base_section(ctx, a)
    if len(index) != ctx.n + 1:
        raise ValueError(f"index {index} has wrong length")
    if len(vector.basepoint) != ctx.n:
        raise ValueError(f"basepoint needs {ctx.n} coordinates")
    variables = a.variables
    point = dict(zip(variables, (Fraction(0),) + tuple(map(Fraction, vector.basepoint))))
    tau_i = Polynomial(variables, {(0,) + tuple(index[1:]): 1})
    tau_val, tau_slope = _value_and_slope(tau_i, point, vector)
    a_val, a_slope = _value_and_slope(a, point, vector)
    return a_val * ((ctx.r + 1) * tau_slope - vector.xi0 * tau_val) + tau_val * a_slope


def _value_and_slope(
    f: Polynomial, point: dict[str, Fraction], vector: LogTangentVector
) -> tuple[Fraction, Fraction]:
    """f at the point, and its derivative xi(f) along the base part of the
    vector; the base coordinates follow the fiber coordinate in slot 0."""
    slope = sum(
        f.diff(z).evaluate(point) * x for z, x in zip(f.variables[1:], vector.xi)
    )
    return f.evaluate(point), slope


def _power_rule(
    exponent: tuple[int, ...], powers: Sequence[Sequence[Fraction]], xi: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    """m(p) and xi(m)(p) for the monomial m = z1^e_1*...*zn^e_n, from
    powers[j][e] = p_(j+1)^e, by the Leibniz rule over its factors."""
    value, slope = 1, 0
    for e, power, x in zip(exponent, powers, xi):
        if e:
            value, slope = value * power[e], slope * power[e] + value * e * power[e - 1] * x
    return value, slope


class _PointTable:
    """Everything one (basepoint, vector) pair contributes to component values.

    ``powers[j][e]`` is p_(j+1)^e for e <= max(eps, delta).  ``basis`` lists
    (m(p), xi(m)(p)) for each degree-<=eps basis monomial m in basis order,
    and ``factors`` values tau^I, the chart monomial of I, by the same power
    rule.  Component I of a section a is
    a(p) * factor_I + tau^I(p) * xi(a)(p), with no polynomial built.
    """

    def __init__(self, ctx: ConnectionContext, vector: LogTangentVector):
        if len(vector.basepoint) != ctx.n:
            raise ValueError(f"basepoint needs {ctx.n} coordinates")
        self.ctx = ctx
        self.vector = vector
        self.powers = []
        for p in map(Fraction, vector.basepoint):
            row = [1]
            for _ in range(max(ctx.eps, ctx.delta)):
                row.append(row[-1] * p)
            self.powers.append(row)
        self.basis = [_power_rule(exp, self.powers, vector.xi) for exp in ctx.basis_exponents]

    def factors(self, index: MultiIndex) -> tuple[Fraction, Fraction]:
        """The two factors index I contributes to every component value:
        tau^I(p) and (r+1)*xi(tau^I)(p) - xi0*tau^I(p)."""
        value, slope = _power_rule(index[1:], self.powers, self.vector.xi)
        return value, (self.ctx.r + 1) * slope - self.vector.xi0 * value


def stratum_of_point(ctx: ConnectionContext, basepoint: Sequence[Fraction]) -> frozenset[int]:
    """The slots j >= 1 whose coordinate z_j vanishes at the basepoint."""
    if len(basepoint) != ctx.n:
        raise ValueError(f"basepoint needs {ctx.n} coordinates")
    return frozenset(j for j, p in enumerate(basepoint, 1) if p == 0)


@dataclass(frozen=True)
class RankReport:
    rank: int
    bound: int
    satisfied: bool
    rows: int
    cols: int


def _row_blocks(
    ctx: ConnectionContext, vector: LogTangentVector, stratum: frozenset[int]
) -> Iterator[tuple[MultiIndex, Iterator[Fraction]]]:
    """Each row index of the restricted evaluation map with its own block,
    the values of its component on the basis monomials, built lazily from
    the point table.
    """
    point_stratum = stratum_of_point(ctx, vector.basepoint)
    if point_stratum != stratum:
        raise BasepointNotInStratum(
            f"basepoint vanishes on {sorted(point_stratum)}, declared {sorted(stratum)}"
        )
    table = _PointTable(ctx, vector)
    basis = table.basis

    # a function, not a generator expression: each block binds its own
    # row's factors even when it is read after the next row is yielded
    def block(tau_val: Fraction, factor: Fraction) -> Iterator[Fraction]:
        for a_val, a_slope in basis:
            yield a_val * factor + tau_val * a_slope

    for row_index in ctx.delta_indices:
        if not any(row_index[j] for j in stratum):
            yield row_index, block(*table.factors(row_index))


def connection_matrix(
    ctx: ConnectionContext,
    vector: LogTangentVector,
    stratum: Iterable[int],
) -> tuple[list[MultiIndex], list[list[Fraction | int]]]:
    """Exact matrix of the restricted evaluation map; only ``rank --matrix``
    and the tests build it.

    Rows: weight-delta indices supported away from the stratum.  Columns:
    (index, basis monomial) pairs; entries vanish off the diagonal index
    block, which is what makes the rank bound a per-block statement.  Each
    row meets exactly one block (its own index).  ``connection_rank`` reads
    the same blocks and never builds this matrix; here every off-block cell
    is one shared int zero, which prints as a Fraction zero does.
    """
    position = {I: p for p, I in enumerate(ctx.delta_indices)}
    width = index_count(ctx.n, ctx.eps)
    rows: list[MultiIndex] = []
    matrix: list[list[Fraction | int]] = []
    for row_index, block in _row_blocks(ctx, vector, frozenset(stratum)):
        before = position[row_index] * width
        after = (len(position) - 1) * width - before
        rows.append(row_index)
        matrix.append([0] * before + list(block) + [0] * after)
    return rows, matrix


def connection_rank(
    ctx: ConnectionContext, vector: LogTangentVector, stratum: Iterable[int]
) -> RankReport:
    """Rank of the evaluation matrix against the bound C(k + delta, k).

    Each block is read up to its first nonzero entry; the matrix is never
    built and nothing is eliminated.  ``ratmat.rank`` is the dense oracle the
    tests compare against.
    """
    J = frozenset(stratum)
    return rank_report(ctx, J, [any(block) for _, block in _row_blocks(ctx, vector, J)])


def rank_report(
    ctx: ConnectionContext, stratum: Iterable[int], nonzero_rows: Sequence[bool]
) -> RankReport:
    """The report for an evaluation matrix, given whether each row has a
    nonzero entry: the matrix is block diagonal with one row per block (see
    ``connection_matrix``), so its rank is the number of nonzero rows."""
    got = sum(nonzero_rows)
    bound = index_count(ctx.n, ctx.delta, len(frozenset(stratum)))
    return RankReport(
        rank=got,
        bound=bound,
        satisfied=got >= bound,
        rows=len(nonzero_rows),
        cols=index_count(ctx.n, ctx.delta) * index_count(ctx.n, ctx.eps),
    )


# -- indeterminacy sampling ----------------------------------------------------------


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(
            rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(1, COEFF_BOUND)
        )
        if value or not nonzero:
            return value


def random_coefficients(ctx: ConnectionContext, rng: random.Random) -> list[tuple[int, int]]:
    """The draws of one random degree-<=eps section per weight-delta index.

    A flat list of (numerator, denominator) pairs, index-major and
    basis-minor: per index in index order, per basis monomial in basis order,
    the two ``randint`` calls of ``random_fraction``, all made before this
    returns.  The pair (p, q) is the coefficient p/q of its basis monomial."""
    randint = rng.randint
    return [
        (randint(-COEFF_BOUND, COEFF_BOUND), randint(1, COEFF_BOUND))
        for _ in range(len(ctx.delta_indices) * len(ctx.basis_exponents))
    ]


def random_stratum_point(
    ctx: ConnectionContext, rng: random.Random, stratum: Iterable[int]
) -> tuple[Fraction, ...]:
    """A random point with z_j = 0 for j in the stratum; the other
    coordinates are drawn in order, nonzero."""
    J = frozenset(stratum)
    return tuple(
        Fraction(0) if j in J else random_fraction(rng, nonzero=True)
        for j in range(1, ctx.n + 1)
    )


def random_log_tangent_vector(
    ctx: ConnectionContext, rng: random.Random, stratum: Iterable[int]
) -> LogTangentVector:
    """A random base point on the stratum, then a nonzero (xi0, xi) by rejection."""
    basepoint = random_stratum_point(ctx, rng, stratum)
    while True:
        xi0 = random_fraction(rng)
        xi = tuple(random_fraction(rng) for _ in range(ctx.n))
        if xi0 or any(xi):
            return LogTangentVector(xi0, xi, basepoint)


def is_indeterminate(
    ctx: ConnectionContext, draws: Sequence[tuple[int, int]], vector: LogTangentVector
) -> bool:
    """True when every twisted component vanishes on the vector at once.

    ``draws`` are as ``random_coefficients`` returns them.  Row i values its
    section from the point table, skipping zero numerators, as
    a(p) = sum_K (p/q)*m_K(p) and xi(a)(p) = sum_K (p/q)*xi(m_K)(p); component
    I is a(p)*factor_I + tau^I(p)*xi(a)(p).  The loop stops at the first
    nonzero component.  Draws of any other length raise DegreeMismatch."""
    width = len(ctx.basis_exponents)
    if len(draws) != len(ctx.delta_indices) * width:
        raise DegreeMismatch(f"need {len(ctx.delta_indices) * width} draws, got {len(draws)}")
    table = _PointTable(ctx, vector)
    basis = table.basis
    for row, index in enumerate(ctx.delta_indices):
        value = slope = 0
        for (p, q), (v, s) in zip(draws[row * width:(row + 1) * width], basis):
            if p:
                c = Fraction(p, q)
                value += c * v
                slope += c * s
        tau_val, factor = table.factors(index)
        if value * factor + tau_val * slope:
            return False
    return True


@dataclass(frozen=True)
class SamplingReport:
    trials: int
    failures: int
    histogram: dict[str, int]  # draws per stratum, keyed "{j,...}"


def sample_indeterminacy(
    ctx: ConnectionContext, trials: int, seed: int
) -> SamplingReport:
    """Randomized search for simultaneous vanishing of all components.

    Requires delta >= 2n (the regime in which the locus provably misses
    generic coefficient data); the expected failure count is zero.
    """
    if ctx.delta < 2 * ctx.n:
        raise ValueError(f"sampling requires delta >= 2n, got {ctx.delta} < {2 * ctx.n}")
    rng = random.Random(seed)
    candidates = ctx.stratum_candidates()
    histogram: dict[str, int] = {}
    failures = 0
    for _ in range(trials):
        J = frozenset(j for j in candidates if rng.random() < 0.5)
        key = "{" + ",".join(map(str, sorted(J))) + "}"
        histogram[key] = histogram.get(key, 0) + 1
        vector = random_log_tangent_vector(ctx, rng, J)
        if is_indeterminate(ctx, random_coefficients(ctx, rng), vector):
            failures += 1
    return SamplingReport(trials, failures, histogram)
