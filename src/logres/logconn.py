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
of the powers of each coordinate, in integers.  Write p_j = a_j/b_j, let
E = max(eps, delta), P = prod_j b_j^E and D the lcm of the vector's
denominators.  The table holds a_j^e*b_j^(E-e) for e = 0..E, one row per
coordinate; the power rule reads the derivative of z_j^e from entry e - 1 of
that row, so it gives the value of every degree-eps basis monomial m_K,
and of every tau^I, which is the chart monomial of I, times P, and its
xi-slope times P*D.  Component I of the section a = sum_K c_K*m_K is then

  sum_K c_K * (m_K(y)*factor_I + tau^I(y)*xi(m_K)(y)),
  factor_I = (r+1)*xi(tau^I)(y) - xi0*tau^I(y),

and each cell m_K(y)*factor_I + tau^I(y)*xi(m_K)(y) is an integer, its
rational value times P^2*D.  A positive scale does not change whether a
value is zero, so the rank blocks and the indeterminacy test read the
integers; only ``rank --matrix`` divides the scale back out, and no section
polynomial is differentiated or evaluated.
The context holds only the sizes n, eps, delta and r, so neither verb
builds a polynomial.  ``component_value`` builds tau^I as a polynomial over
``_chart_variables`` and differentiates and evaluates it and the section; no
verb calls it.  It is the polynomial route the tests compare the table
against; beyond the context's cached listings it shares no code with the
table, and the benchmark's per-layer metrics name it.

``sample`` keeps each trial's random sections as the kept Mersenne Twister
words of their coefficients' (numerator, denominator) draws.
``random_coefficients`` keeps exactly the words that one ``randint`` call
per numerator and per denominator would return, and leaves the RNG in the
same state, reading whole 32-bit words: ``randint`` draws
``getrandbits(k)``, one word shifted right by 32 - k, until the value is in
range.  Only a word whose top byte is 0xFA or more can be redrawn, so a
search of the top bytes finds the few words to look at one by one.  The
basepoint and the vector read their fractions the same way.
``is_indeterminate`` decodes a row's pairs from their words when it reads
that row, clears the row's denominators, values its section from the point
table, and stops at the first nonzero component, so it decodes only the
rows it reads, and builds no polynomial.

``RankReport`` and ``SamplingReport`` are plain frozen dataclasses; the
command line encodes them, field by field, as JSON.
"""

from __future__ import annotations

import random
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Iterable, Iterator

from .multiindex import MultiIndex, enumerate_multiindices, index_count
from .symcore import LogresError, Polynomial


class BasepointNotInStratum(LogresError):
    """The basepoint's vanishing pattern disagrees with the declared stratum."""


class DegreeMismatch(LogresError):
    """Coefficient data does not fit the declared degrees."""


COEFF_BOUND = 1000  # numerator/denominator bound for reproducible random draws
# randint(lo, hi) keeps the top bits of a 32-bit word, as many as hi - lo + 1 has
_NUMERATOR_SHIFT = 32 - (2 * COEFF_BOUND + 1).bit_length()
_DENOMINATOR_SHIFT = 32 - COEFF_BOUND.bit_length()


@dataclass(frozen=True)
class ConnectionContext:
    """Fixed data: dimension and twist degrees.  The section arrangement is
    its local normal form, tau = (1, z1, ..., zn), so it needs no data."""

    n: int
    eps: int
    delta: int
    r: int

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
    exponent: tuple[int, ...],
    powers: Sequence[Sequence[int]],
    xi: Sequence[int],
) -> tuple[int, int]:
    """P*m(p) and P*D*xi(m)(p) for the monomial m = z1^e_1*...*zn^e_n, by the
    Leibniz rule over its factors, from the integer table of ``_PointTable``:
    powers[j][e] = p^e*b^E for p = p_(j+1) with denominator b, so the
    derivative of a factor, e*p^(e-1)*b^E, is e*powers[j][e - 1], and
    xi[j] = D*xi_(j+1).  A factor with e = 0 still contributes its b^E to the
    scale P = prod b^E."""
    value, slope = 1, 0
    for e, power, x in zip(exponent, powers, xi):
        if e:
            value, slope = value * power[e], slope * power[e] + value * e * power[e - 1] * x
        else:
            value, slope = value * power[0], slope * power[0]
    return value, slope


class _PointTable:
    """Everything one (basepoint, vector) pair contributes to component
    values, in integers.

    With p_j = a_j/b_j, E = max(eps, delta) and D the lcm of the vector's
    denominators, ``powers[j][e]`` is a^e*b^(E-e), where (a, b) =
    (a_(j+1), b_(j+1)), so ``powers[j][e - 1]`` is the a^(e-1)*b^(E-e+1) the
    power rule needs for the derivative of z^e; ``xi`` and ``xi0`` are the
    vector's components times D.  ``basis`` lists (m(p), xi(m)(p)) for each
    degree-<=eps basis monomial m in basis order, and ``factors`` values
    tau^I, the chart monomial of I, by the same power rule.  Values come out times ``scale`` = P = prod_j b_j^E and slopes
    times ``slope_scale`` = P*D, so the cell a(p) * factor_I + tau^I(p) *
    xi(a)(p) of a basis monomial a is its rational value times
    ``scale*slope_scale``.
    """

    def __init__(self, ctx: ConnectionContext, vector: LogTangentVector):
        if len(vector.basepoint) != ctx.n:
            raise ValueError(f"basepoint needs {ctx.n} coordinates")
        self.ctx = ctx
        top = max(ctx.eps, ctx.delta)
        common = lcm(vector.xi0.denominator, *(x.denominator for x in vector.xi))
        self.xi0 = vector.xi0.numerator * (common // vector.xi0.denominator)
        self.xi = [x.numerator * (common // x.denominator) for x in vector.xi]
        self.powers = [
            [p.numerator**e * p.denominator ** (top - e) for e in range(top + 1)]
            for p in vector.basepoint
        ]
        self.scale = prod(row[0] for row in self.powers)
        self.slope_scale = self.scale * common
        self.basis = [_power_rule(exp, self.powers, self.xi) for exp in ctx.basis_exponents]

    def factors(self, index: MultiIndex) -> tuple[int, int]:
        """The two factors index I contributes to every component value:
        tau^I(p) and (r+1)*xi(tau^I)(p) - xi0*tau^I(p), times ``scale`` and
        ``slope_scale``."""
        value, slope = _power_rule(index[1:], self.powers, self.xi)
        return value, (self.ctx.r + 1) * slope - self.xi0 * value


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
) -> tuple[int, Iterator[tuple[MultiIndex, Iterator[int]]]]:
    """The common scale of the cells, and each row index of the restricted
    evaluation map with its own block: the integer cells of its component on
    the basis monomials, built lazily from the point table.  A cell is its
    rational entry times the scale.
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
    def block(tau_val: int, factor: int) -> Iterator[int]:
        for a_val, a_slope in basis:
            yield a_val * factor + tau_val * a_slope

    rows = (
        (row_index, block(*table.factors(row_index)))
        for row_index in ctx.delta_indices
        if not any(row_index[j] for j in stratum)
    )
    return table.scale * table.slope_scale, rows


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
    the same blocks and never builds this matrix; here each in-block cell is
    divided by the table's scale, and every off-block cell is one shared int
    zero, which prints as a Fraction zero does.
    """
    position = {I: p for p, I in enumerate(ctx.delta_indices)}
    width = index_count(ctx.n, ctx.eps)
    rows: list[MultiIndex] = []
    matrix: list[list[Fraction | int]] = []
    scale, blocks = _row_blocks(ctx, vector, frozenset(stratum))
    for row_index, block in blocks:
        before = position[row_index] * width
        after = (len(position) - 1) * width - before
        rows.append(row_index)
        matrix.append([0] * before + [Fraction(cell, scale) for cell in block] + [0] * after)
    return rows, matrix


def connection_rank(
    ctx: ConnectionContext, vector: LogTangentVector, stratum: Iterable[int]
) -> RankReport:
    """Rank of the evaluation matrix against the bound C(k + delta, k).

    Each block is read up to its first nonzero integer cell; the matrix is
    never built, nothing is eliminated and no cell is divided by its scale.
    ``ratmat.rank`` is the dense oracle the tests compare against.
    """
    J = frozenset(stratum)
    _, blocks = _row_blocks(ctx, vector, J)
    return rank_report(ctx, J, [any(block) for _, block in blocks])


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


# The top byte of a word at or above 0xFA000000, the least word some role refuses.
_HIGH_BYTE = re.compile(rb"[\xfa-\xff]")


def _kept_words(rng: random.Random, size: int) -> bytes:
    """The words of ``size`` (numerator, denominator) pairs of ``randint``
    calls, 4 bytes each, little-endian, with every redrawn word left out.

    A word below 0xFA000000 is kept in either role, one at or above
    0xFA200000 is refused in either role, and one between is kept only as a
    numerator.  So only the words whose top byte is 0xFA or more, about 2%,
    are looked at one by one, in order, each in the role an even or odd
    count of kept words before it gives it."""
    kept = bytearray()
    while owed := 2 * size - len(kept) // 4:  # randint calls
        data = rng.getrandbits(32 * owed).to_bytes(4 * owed, "little")
        start = 0  # the first word of data not yet copied to kept
        for match in _HIGH_BYTE.finditer(data[3::4]):
            i = 4 * match.start()
            numerator = (len(kept) + i - start) % 8 == 0
            if not (numerator and data[i + 3] == 0xFA and data[i + 2] < 0x20):
                kept += data[start:i]
                start = i + 4
        kept += data[start:]
    return bytes(kept)


def _pairs(words: bytes, start: int, stop: int) -> list[tuple[int, int]]:
    """Pairs start..stop-1 of kept words as ``randint`` returns them: a
    numerator word w reads (w >> 21) - COEFF_BOUND, a denominator (w >> 22) + 1."""
    return [
        ((p >> _NUMERATOR_SHIFT) - COEFF_BOUND, (q >> _DENOMINATOR_SHIFT) + 1)
        for p, q in struct.iter_unpack("<II", words[8 * start:8 * stop])
    ]


def random_coefficients(ctx: ConnectionContext, rng: random.Random) -> bytes:
    """The draws of one random degree-<=eps section per weight-delta index.

    The kept words of (numerator, denominator) pairs, 8 bytes a pair,
    index-major and basis-minor: per index in index order, per basis
    monomial in basis order, the words of what the two calls
    ``randint(-COEFF_BOUND, COEFF_BOUND)`` and ``randint(1, COEFF_BOUND)``
    return, which ``_pairs`` decodes.  The pair (p, q) is the coefficient
    p/q of its basis monomial.

    Every word is drawn before this returns, and the RNG ends in the state
    the calls leave, but no pair is decoded here.  ``randint(lo, hi)`` is lo
    plus ``getrandbits(k)``, k the bit length of hi - lo + 1, redrawn until
    below hi - lo + 1; for k <= 32 that is one 32-bit Mersenne Twister word
    shifted right by 32 - k.  So while c calls are owed, ``getrandbits(32*c)``
    yields the next c words, least significant first, and each word is a
    numerator or a denominator drawn, or one redrawn.  Every call takes at
    least one word, so no word is drawn that the calls would not draw.  The
    redrawn words are found by a search of the words' top bytes (see
    ``_kept_words``)."""
    return _kept_words(rng, len(ctx.delta_indices) * len(ctx.basis_exponents))


def _fractions(rng: random.Random, count: int) -> list[Fraction]:
    """The next ``count`` coefficients p/q, drawn as ``random_coefficients``
    draws its pairs and decoded as ``is_indeterminate`` decodes them."""
    return [Fraction(p, q) for p, q in _pairs(_kept_words(rng, count), 0, count)]


def random_stratum_point(
    ctx: ConnectionContext, rng: random.Random, stratum: Iterable[int]
) -> tuple[Fraction, ...]:
    """A random point with z_j = 0 for j in the stratum; the other
    coordinates are drawn in order, nonzero: a pair with a zero numerator is
    redrawn, so they are the first nonzero fractions of the stream."""
    J = frozenset(stratum)
    free = sum(j not in J for j in range(1, ctx.n + 1))
    drawn: list[Fraction] = []
    while len(drawn) < free:
        drawn += filter(None, _fractions(rng, free - len(drawn)))
    values = iter(drawn)
    return tuple(Fraction(0) if j in J else next(values) for j in range(1, ctx.n + 1))


def random_log_tangent_vector(
    ctx: ConnectionContext, rng: random.Random, stratum: Iterable[int]
) -> LogTangentVector:
    """A random base point on the stratum, then a nonzero (xi0, xi) by rejection."""
    basepoint = random_stratum_point(ctx, rng, stratum)
    while True:
        xi0, *xi = _fractions(rng, ctx.n + 1)
        if xi0 or any(xi):
            return LogTangentVector(xi0, tuple(xi), basepoint)


def is_indeterminate(ctx: ConnectionContext, draws: bytes, vector: LogTangentVector) -> bool:
    """True when every twisted component vanishes on the vector at once.

    ``draws`` are kept words as ``random_coefficients`` returns them.  Row i
    decodes its pairs when the loop reads it, so no row after the first
    nonzero component is decoded, and values its section from the point
    table, skipping zero numerators, with its denominators cleared: for L
    the lcm of the row's q, L*a(p) = sum_K p*(L/q)*m_K(p) and L*xi(a)(p) =
    sum_K p*(L/q)*xi(m_K)(p), each times the table's scale, and component I
    is a(p)*factor_I + tau^I(p)*xi(a)(p).  Every scale is positive, so the integer is zero
    exactly when the component is.  The loop stops at the first nonzero
    component.  Draws of any other length, in bytes, raise DegreeMismatch."""
    width = len(ctx.basis_exponents)
    if len(draws) != 8 * len(ctx.delta_indices) * width:
        raise DegreeMismatch(f"need {len(ctx.delta_indices) * width} draws, got {len(draws) // 8}")
    table = _PointTable(ctx, vector)
    basis = table.basis
    for row, index in enumerate(ctx.delta_indices):
        section = _pairs(draws, row * width, (row + 1) * width)
        common = lcm(*(q for _, q in section))
        value = slope = 0
        for (p, q), (v, s) in zip(section, basis):
            if p:
                c = p * (common // q)
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
    histogram: dict[str, int] = {}
    failures = 0
    for _ in range(trials):
        J = frozenset(j for j in range(1, ctx.n + 1) if rng.random() < 0.5)
        key = "{" + ",".join(map(str, sorted(J))) + "}"
        histogram[key] = histogram.get(key, 0) + 1
        vector = random_log_tangent_vector(ctx, rng, J)
        if is_indeterminate(ctx, random_coefficients(ctx, rng), vector):
            failures += 1
    return SamplingReport(trials, failures, histogram)
