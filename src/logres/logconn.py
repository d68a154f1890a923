"""Logarithmic connections on the total space of a line bundle, twisted
connection components, exact evaluation matrices, and indeterminacy sampling.

Local model: base coordinates z1..zn plus a fiber coordinate t cutting the
zero section, which is the log divisor; the frame is (dt/t, dz1, ..., dzn).
The connection sends a function s to ds - s*dt/t.  For a section written as
a * tau^((r+1)I) with a of degree <= eps and tau_0..tau_n a fixed
general-position arrangement (defaults: tau_0 = 1, tau_j = z_j), the image is
divisible by tau^(rI); the quotient

  (r+1)*a*d(tau^I) + tau^I*da - a*tau^I*dt/t

is the twisted component attached to the weight-delta index I.  The verbs
only evaluate components; the symbolic component with its certified exact
division, the deformed Fermat sections and their graph-substitution identity
are routes the tests check, in ``tests/oracles.py``.

Evaluating the components against a log tangent vector
xi = xi0*t*d/dt + sum xi_j*d/dz_j at a basepoint y assembles, block by index,
an exact rational matrix whose rank at a point where exactly the tau_j with
j in J vanish is at least C(k + delta, k), k = n - #J.

Both ``rank`` and ``sample`` evaluate from one table per (basepoint, vector):
the value and xi-slope of every degree-eps basis monomial m_K, computed by
the power rule from its exponent, and of each arrangement entry, valued the
first time an index's support needs it.  Component I of the section
a = sum_K c_K*m_K is then

  sum_K c_K * (m_K(y)*factor_I + tau^I(y)*xi(m_K)(y)),
  factor_I = (r+1)*xi(tau^I)(y) - xi0*tau^I(y),

so no section polynomial is differentiated or evaluated.
``component_value`` differentiates and evaluates the section itself; no verb
calls it.  It is the polynomial route the tests compare the table against,
and the benchmark's per-layer metrics name it.

``sample`` draws one random section per weight-delta index in each trial.
Every ``randint`` of a trial happens when ``random_coefficients`` is called,
so the RNG stream does not depend on what is read; the draws are kept as
integer pairs, and each section is built the first time its entry is read.
A trial whose first component is nonzero builds one section.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .multiindex import (
    CoefficientVector,
    MultiIndex,
    enumerate_multiindices,
    index_count,
)
from .symcore import Frame, LogresError, Polynomial


class BasepointNotInStratum(LogresError):
    """The basepoint's vanishing pattern disagrees with the declared stratum."""


class DegreeMismatch(LogresError):
    """Coefficient data does not fit the declared degrees."""


COEFF_BOUND = 1000  # numerator/denominator bound for reproducible random draws


@dataclass(frozen=True)
class ConnectionContext:
    """Fixed data: dimension, twist degrees, and the section arrangement.

    tau entries must be coordinate-like in the chart: nonzero constants or
    scalar multiples of a single base coordinate, with distinct coordinates
    across entries, so that the strata are coordinate subspaces.
    """

    n: int
    eps: int
    delta: int
    r: int
    chart: Frame
    tau: tuple[Polynomial, ...]

    @property
    def base_vars(self) -> tuple[str, ...]:
        return self.chart.variables[1:]

    def stratum_candidates(self) -> list[int]:
        """Indices j whose tau_j can vanish (non-constant entries)."""
        return [j for j, f in enumerate(self.tau) if f.total_degree() >= 1]

    @cached_property
    def delta_indices(self) -> tuple[MultiIndex, ...]:
        """The weight-delta indices, listed once per context."""
        return tuple(enumerate_multiindices(self.n, self.delta))

    @cached_property
    def basis_exponents(self) -> tuple[tuple[int, ...], ...]:
        """Chart exponents of the degree-eps basis monomials, in weight-eps
        index order, listed once per context."""
        return tuple(_chart_exponent(K) for K in enumerate_multiindices(self.n, self.eps))


def make_connection_context(
    n: int,
    eps: int,
    delta: int,
    r: int,
    tau: Sequence[Polynomial] | None = None,
) -> ConnectionContext:
    if n < 1 or eps < 1 or delta < 1 or r < 1:
        raise ValueError("n, eps, delta, r must all be positive")
    variables = ("t",) + tuple(f"z{i}" for i in range(1, n + 1))
    chart = Frame(variables, frozenset({"t"}))
    if tau is None:
        entries = [Polynomial.constant(variables, 1)]
        entries += [Polynomial.variable(variables, f"z{j}") for j in range(1, n + 1)]
        tau = tuple(entries)
    else:
        tau = tuple(tau)
    if len(tau) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} arrangement sections")
    seen_vars: set[str] = set()
    for j, f in enumerate(tau):
        if f.variables != variables:
            raise ValueError("arrangement sections must live over the chart frame")
        if f.is_zero or f.degree_in("t") > 0:
            raise ValueError(f"tau_{j} must be a nonzero function of the base")
        deg = f.total_degree()
        if deg == 0:
            continue
        if deg != 1 or len(f.terms) != 1:
            raise ValueError(f"tau_{j} = {f} is not coordinate-like")
        (exp,) = f.terms
        name = variables[exp.index(1)]
        if name in seen_vars:
            raise ValueError(f"two arrangement sections vanish along {name}")
        seen_vars.add(name)
    return ConnectionContext(n, eps, delta, r, chart, tau)


@dataclass(frozen=True)
class LogTangentVector:
    """xi0 * t d/dt + sum xi_j d/dz_j, anchored at a base point."""

    xi0: Fraction
    xi: tuple[Fraction, ...]
    basepoint: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.xi0 and not any(self.xi):
            raise ValueError("log tangent vector must be nonzero")


def _check_base_section(ctx: ConnectionContext, a: Polynomial) -> None:
    if a.variables != ctx.chart.variables:
        raise ValueError("section must live over the chart frame")
    if a.degree_in("t") > 0:
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

    This is the polynomial route: it differentiates and evaluates ``a``
    itself.  No verb calls it; ``is_indeterminate`` and the rank blocks read
    a ``_PointTable`` instead.  It stays as the route the tests compare the
    table against, and the benchmark's per-layer metrics name it."""
    _check_base_section(ctx, a)
    point = point_map(ctx, vector.basepoint)
    tau_val, factor = _index_factors(
        ctx, index, lambda j: _value_and_slope(ctx, ctx.tau[j], point, vector), vector
    )
    a_val, a_slope = _value_and_slope(ctx, a, point, vector)
    return a_val * factor + tau_val * a_slope


def _value_and_slope(
    ctx: ConnectionContext,
    f: Polynomial,
    point: dict[str, Fraction],
    vector: LogTangentVector,
) -> tuple[Fraction, Fraction]:
    """f at the point, and its derivative xi(f) along the base part of the vector."""
    slope = sum(
        f.diff(z).evaluate(point) * vector.xi[j] for j, z in enumerate(ctx.base_vars)
    )
    return f.evaluate(point), slope


def _index_factors(
    ctx: ConnectionContext,
    index: MultiIndex,
    entry: Callable[[int], tuple[Fraction, Fraction]],
    vector: LogTangentVector,
) -> tuple[Fraction, Fraction]:
    """The two factors an index contributes to every component value:
    tau^I and (r+1)*xi(tau^I) - xi0*tau^I, from (tau_j, xi(tau_j)) at the
    point, which ``entry(j)`` gives, for each j in the support of the index.

    tau^I and xi(tau^I) come from the entries' values by the Leibniz rule,
    xi(f^e * g) = e*f^(e-1)*xi(f)*g + f^e*xi(g), without expanding tau^I."""
    if len(index) != ctx.n + 1:
        raise ValueError(f"index {index} has wrong length")
    value, slope = Fraction(1), Fraction(0)
    for j, e in enumerate(index):
        if e:
            v, s = entry(j)
            power = v ** (e - 1)
            full = power * v
            value, slope = value * full, slope * full + value * e * power * s
    return value, (ctx.r + 1) * slope - vector.xi0 * value


def _power_rule(
    exponent: tuple[int, ...], powers: Sequence[Sequence[Fraction]], xi: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    """m(p) and xi(m)(p) for the chart monomial m with this exponent (no fiber
    part), from powers[j][e] = p_j^e, by the Leibniz rule over its factors."""
    value, slope = 1, 0
    for e, power, x in zip(exponent[1:], powers, xi):
        if e:
            value, slope = value * power[e], slope * power[e] + value * e * power[e - 1] * x
    return value, slope


class _PointTable:
    """Everything one (basepoint, vector) pair contributes to component values.

    ``basis`` maps the chart exponent of each degree-<=eps basis monomial m
    to (m(p), xi(m)(p)), computed by the power rule from the exponent.  A
    base section of degree <= eps is valued term by term from it, and so is
    each arrangement entry (degree <= 1 <= eps), once and only when an
    index's support first needs it.  Component I of a section a is then
    a(p) * factor_I + tau^I(p) * xi(a)(p), with no polynomial built.
    """

    def __init__(self, ctx: ConnectionContext, vector: LogTangentVector):
        if len(vector.basepoint) != ctx.n:
            raise ValueError(f"basepoint needs {ctx.n} coordinates")
        self.ctx = ctx
        self.vector = vector
        powers = []
        for p in map(Fraction, vector.basepoint):
            row = [1]
            for _ in range(ctx.eps):
                row.append(row[-1] * p)
            powers.append(row)
        self.basis = {
            exp: _power_rule(exp, powers, vector.xi) for exp in ctx.basis_exponents
        }
        self._entries: list[tuple[Fraction, Fraction] | None] = [None] * len(ctx.tau)

    def values(self, f: Polynomial) -> tuple[Fraction, Fraction]:
        """f(p) and xi(f)(p), summed over the terms of f, all in the table."""
        value = slope = 0
        for exp, c in f.terms.items():
            v, s = self.basis[exp]
            value += c * v
            slope += c * s
        return value, slope

    def entry(self, j: int) -> tuple[Fraction, Fraction]:
        """(tau_j(p), xi(tau_j)(p)), valued on first use."""
        values = self._entries[j]
        if values is None:
            values = self._entries[j] = self.values(self.ctx.tau[j])
        return values

    def factors(self, index: MultiIndex) -> tuple[Fraction, Fraction]:
        return _index_factors(self.ctx, index, self.entry, self.vector)

    def component(self, index: MultiIndex, a: Polynomial) -> Fraction:
        """The value of ``component_value(ctx, a, index, vector)``."""
        ctx = self.ctx
        if a.variables != ctx.chart.variables or not a.terms.keys() <= self.basis.keys():
            _check_base_section(ctx, a)
            raise DegreeMismatch(
                f"coefficient for {index} has degree {a.total_degree()} > eps = {ctx.eps}"
            )
        tau_val, factor = self.factors(index)
        a_val, a_slope = self.values(a)
        return a_val * factor + tau_val * a_slope


def point_map(ctx: ConnectionContext, basepoint: Sequence[Fraction]) -> dict[str, Fraction]:
    if len(basepoint) != ctx.n:
        raise ValueError(f"basepoint needs {ctx.n} coordinates")
    point = {"t": Fraction(0)}
    for name, value in zip(ctx.base_vars, basepoint):
        point[name] = Fraction(value)
    return point


def _chart_exponent(K: MultiIndex) -> tuple[int, ...]:
    """The chart exponent of a degree-eps index: slot 0 dehomogenized away,
    no fiber coordinate.  Distinct indices give distinct exponents."""
    return (0,) + K[1:]


def stratum_of_point(ctx: ConnectionContext, basepoint: Sequence[Fraction]) -> frozenset[int]:
    point = point_map(ctx, basepoint)
    return frozenset(
        j for j, f in enumerate(ctx.tau) if f.evaluate(point) == 0
    )


@dataclass(frozen=True)
class RankReport:
    rank: int
    bound: int
    satisfied: bool
    rows: int
    cols: int

    def to_dict(self) -> dict:
        return asdict(self)


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
    basis = list(table.basis.values())

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


def _as_polynomial(ctx: ConnectionContext, value) -> Polynomial:
    """A coefficient as a polynomial over the chart; scalars become constants."""
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(ctx.chart.variables, value)


# -- indeterminacy sampling ----------------------------------------------------------


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(
            rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(1, COEFF_BOUND)
        )
        if value or not nonzero:
            return value


class _DrawnSections(Sequence):
    """The entries of a ``random_coefficients`` vector, built on first read.

    Holds the raw (numerator, denominator) draws, one pair per basis monomial
    per weight-delta index.  Position i becomes (index_i, section_i), with its
    ``Fraction`` terms and zero draws dropped, the first time it is read, and
    is kept.  Length, iteration, indexing, slicing, ``==`` and ``hash`` match
    the tuple of the same entries.
    """

    __slots__ = ("_ctx", "_draws", "_built")

    def __init__(self, ctx: ConnectionContext, draws: list[tuple[int, int]]):
        self._ctx = ctx
        self._draws = draws
        self._built: list[tuple[MultiIndex, Polynomial] | None] = [None] * len(
            ctx.delta_indices
        )

    def _build(self, position: int) -> tuple[MultiIndex, Polynomial]:
        ctx = self._ctx
        exponents = ctx.basis_exponents
        start = position * len(exponents)
        draws = self._draws[start:start + len(exponents)]
        terms = {exp: Fraction(p, q) for exp, (p, q) in zip(exponents, draws) if p}
        entry = ctx.delta_indices[position], Polynomial._trusted(ctx.chart.variables, terms)
        self._built[position] = entry
        return entry

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, key):
        built = self._built
        if isinstance(key, slice):
            return tuple(built[p] or self._build(p) for p in range(len(built))[key])
        position = range(len(built))[key]
        return built[position] or self._build(position)

    def __iter__(self) -> Iterator[tuple[MultiIndex, Polynomial]]:
        built = self._built
        for position in range(len(built)):
            yield built[position] or self._build(position)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _DrawnSections)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def random_coefficients(ctx: ConnectionContext, rng: random.Random) -> CoefficientVector:
    """One random degree-<=eps section per weight-delta index.

    Every draw is made here, before this returns: per index in index order,
    per basis monomial in basis order, the two ``randint`` calls of
    ``random_fraction``.  Only the integer pairs are kept; a section's
    ``Fraction`` terms, zero draws dropped, are built the first time its
    entry is read, so a trial that stops at the first section builds one."""
    randint = rng.randint
    draws = [
        (randint(-COEFF_BOUND, COEFF_BOUND), randint(1, COEFF_BOUND))
        for _ in range(len(ctx.delta_indices) * len(ctx.basis_exponents))
    ]
    return CoefficientVector(ctx.n, ctx.delta, _DrawnSections(ctx, draws))


def random_stratum_point(
    ctx: ConnectionContext, rng: random.Random, stratum: Iterable[int]
) -> tuple[Fraction, ...]:
    J = frozenset(stratum)
    zeroed = set()
    for j in J:
        f = ctx.tau[j]
        (exp,) = f.terms
        zeroed.add(ctx.chart.variables[exp.index(1)])
    return tuple(
        Fraction(0) if z in zeroed else random_fraction(rng, nonzero=True)
        for z in ctx.base_vars
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
    ctx: ConnectionContext, coeffs: CoefficientVector, vector: LogTangentVector
) -> bool:
    """True when every twisted component vanishes on the vector at once.

    Every component is read from one point table; a section of degree > eps
    raises DegreeMismatch."""
    if coeffs.n != ctx.n or coeffs.degree != ctx.delta:
        raise DegreeMismatch(
            f"coefficient vector must be keyed by the full weight-{ctx.delta} index set"
        )
    table = _PointTable(ctx, vector)
    for index, value in coeffs.entries:
        if table.component(index, _as_polynomial(ctx, value)):
            return False
    return True


@dataclass(frozen=True)
class SamplingReport:
    trials: int
    failures: int
    histogram: tuple[tuple[str, int], ...]  # per-stratum draw counts

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "histogram": {key: count for key, count in self.histogram},
        }


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
        coeffs = random_coefficients(ctx, rng)
        if is_indeterminate(ctx, coeffs, vector):
            failures += 1
    return SamplingReport(trials, failures, tuple(sorted(histogram.items())))
