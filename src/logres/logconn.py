"""Logarithmic connections on the total space of a line bundle, twisted
connection components, exact evaluation matrices, and indeterminacy sampling.

Local model: base coordinates z1..zn plus a fiber coordinate t cutting the
zero section, which is the log divisor; the frame is (dt/t, dz1, ..., dzn).
The connection sends a function s to ds - s*dt/t.  For a section written as
a * tau^((r+1)I) with a of degree <= eps and tau_0..tau_n a fixed
general-position arrangement (defaults: tau_0 = 1, tau_j = z_j), the image is
divisible by tau^(rI); the quotient

  (r+1)*a*d(tau^I) + tau^I*da - a*tau^I*dt/t

is the twisted component attached to the weight-delta index I.  Division is
performed symbolically and certified; a failure would contradict the
construction and is surfaced as DivisibilityFailure.

Evaluating the components against a log tangent vector
xi = xi0*t*d/dt + sum xi_j*d/dz_j at a basepoint y assembles, block by index,
an exact rational matrix whose rank at a point where exactly the tau_j with
j in J vanish is at least C(k + delta, k), k = n - #J.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import ratmat
from .multiindex import (
    CoefficientVector,
    MultiIndex,
    enumerate_multiindices,
    index_count,
)
from .symcore import (
    Frame,
    LogForm,
    LogresError,
    NotDivisible,
    Polynomial,
    exact_divide,
)


class DivisibilityFailure(LogresError):
    """The connection image was not divisible by tau^(rI); a bug signal."""


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


def tau_power(ctx: ConnectionContext, index: MultiIndex, scale: int = 1) -> Polynomial:
    """The product of tau_j raised to scale * index_j."""
    if len(index) != ctx.n + 1:
        raise ValueError(f"index {index} has wrong length")
    out = Polynomial.constant(ctx.chart.variables, 1)
    for f, e in zip(ctx.tau, index):
        if e:
            out = out * f ** (scale * e)
    return out


def _check_base_section(ctx: ConnectionContext, a: Polynomial) -> None:
    if a.variables != ctx.chart.variables:
        raise ValueError("section must live over the chart frame")
    if a.degree_in("t") > 0:
        raise ValueError("section must not involve the fiber coordinate")


def connection_component(
    ctx: ConnectionContext, a: Polynomial, index: MultiIndex
) -> LogForm:
    """The twisted component: apply the connection to a*tau^((r+1)I) and
    exact-divide every coefficient by tau^(rI)."""
    _check_base_section(ctx, a)
    if sum(index) != ctx.delta:
        raise ValueError(f"index weight {sum(index)} != delta = {ctx.delta}")
    product = a * tau_power(ctx, index, ctx.r + 1)
    divisor = tau_power(ctx, index, ctx.r)
    holo = {}
    try:
        for z in ctx.base_vars:
            d = product.diff(z)
            holo[z] = exact_divide(d, divisor) if d else d
        logpart = {"t": exact_divide(-product, divisor) if product else product}
    except NotDivisible as err:
        raise DivisibilityFailure(
            f"component for index {index} not divisible by tau^(r*I)"
        ) from err
    return LogForm.make(ctx.chart, holo, logpart)


def component_value(
    ctx: ConnectionContext,
    a: Polynomial,
    index: MultiIndex,
    vector: LogTangentVector,
) -> Fraction:
    """Evaluate the twisted component on a log tangent vector at its basepoint.

    Computed directly from (r+1)*a*d(tau^I) + tau^I*(da - a*dt/t), which
    avoids the symbolic division; agrees with evaluating
    ``connection_component`` (tested)."""
    _check_base_section(ctx, a)
    point = point_map(ctx, vector.basepoint)
    tau_i = tau_power(ctx, index)
    tau_val = tau_i.evaluate(point)
    a_val = a.evaluate(point)
    total = -a_val * tau_val * vector.xi0
    for j, z in enumerate(ctx.base_vars):
        slope = (ctx.r + 1) * a_val * tau_i.diff(z).evaluate(point)
        slope += tau_val * a.diff(z).evaluate(point)
        total += slope * vector.xi[j]
    return total


def point_map(ctx: ConnectionContext, basepoint: Sequence[Fraction]) -> dict[str, Fraction]:
    if len(basepoint) != ctx.n:
        raise ValueError(f"basepoint needs {ctx.n} coordinates")
    point = {"t": Fraction(0)}
    for name, value in zip(ctx.base_vars, basepoint):
        point[name] = Fraction(value)
    return point


def monomial_basis(ctx: ConnectionContext) -> list[tuple[MultiIndex, Polynomial]]:
    """Chart forms of the degree-eps monomials (slot 0 dehomogenized away)."""
    out = []
    for K in enumerate_multiindices(ctx.n, ctx.eps):
        exp = (0,) + K[1:]
        out.append((K, Polynomial.monomial(ctx.chart.variables, exp)))
    return out


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
        return {
            "rank": self.rank,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "rows": self.rows,
            "cols": self.cols,
        }


def connection_matrix(
    ctx: ConnectionContext,
    vector: LogTangentVector,
    stratum: Iterable[int],
) -> tuple[list[MultiIndex], list[list[Fraction]]]:
    """Exact matrix of the restricted evaluation map.

    Rows: weight-delta indices supported away from the stratum.  Columns:
    (index, basis monomial) pairs; entries vanish off the diagonal index
    block, which is what makes the rank bound a per-block statement.
    """
    J = frozenset(stratum)
    point_stratum = stratum_of_point(ctx, vector.basepoint)
    if point_stratum != J:
        raise BasepointNotInStratum(
            f"basepoint vanishes on {sorted(point_stratum)}, declared {sorted(J)}"
        )
    rows = enumerate_multiindices(ctx.n, ctx.delta, J)
    all_indices = enumerate_multiindices(ctx.n, ctx.delta)
    basis = monomial_basis(ctx)
    matrix: list[list[Fraction]] = []
    for row_index in rows:
        row: list[Fraction] = []
        for I in all_indices:
            for _, mono in basis:
                if I != row_index:
                    row.append(Fraction(0))
                else:
                    row.append(component_value(ctx, mono, I, vector))
        matrix.append(row)
    return rows, matrix


def connection_rank(
    ctx: ConnectionContext, vector: LogTangentVector, stratum: Iterable[int]
) -> RankReport:
    J = frozenset(stratum)
    rows, matrix = connection_matrix(ctx, vector, J)
    k = ctx.n - len(J)
    bound = index_count(ctx.n, ctx.delta, len(J))
    got = ratmat.rank(matrix) if rows else 0
    return RankReport(
        rank=got,
        bound=bound,
        satisfied=got >= bound,
        rows=len(rows),
        cols=len(matrix[0]) if matrix else 0,
    )


# -- deformed Fermat sections -----------------------------------------------------


def _as_polynomial(ctx: ConnectionContext, value) -> Polynomial:
    """A coefficient as a polynomial over the chart; scalars become constants."""
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(ctx.chart.variables, value)


def fermat_section(ctx: ConnectionContext, coeffs: CoefficientVector) -> Polynomial:
    """Expand sum_I a_I * tau^((r+1)I) in chart form."""
    if coeffs.n != ctx.n or coeffs.degree != ctx.delta or coeffs.excluded:
        raise DegreeMismatch(
            f"coefficient vector must be keyed by the full weight-{ctx.delta} index set"
        )
    total = Polynomial.zero(ctx.chart.variables)
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


def log_connection_cleared(s: Polynomial, s_ref: Polynomial) -> dict[str, Polynomial]:
    """Numerators of (ds - s * d s_ref / s_ref), one polynomial per coordinate.

    Multiplying through by s_ref clears the pole; the reference section is
    tautologically flat: all numerators vanish when s = s_ref.
    """
    if s.variables != s_ref.variables:
        raise ValueError("sections must share a variable frame")
    return {
        v: s_ref * s.diff(v) - s * s_ref.diff(v)
        for v in s.variables
    }


def restriction_identity_residuals(
    ctx: ConnectionContext, coeffs: CoefficientVector
) -> list[Polynomial]:
    """Residuals of the graph-substitution identity, one per base coordinate.

    Substituting t = sigma into sum_I tau^(rI) * component_I(a_I) replaces
    dt/t by d(sigma)/sigma; clearing the denominator leaves
    sigma * h_j + g * d_j(sigma) per coordinate, which must vanish
    identically.
    """
    sigma = fermat_section(ctx, coeffs)
    residuals = [Polynomial.zero(ctx.chart.variables) for _ in ctx.base_vars]
    for index, value in coeffs.entries:
        a = _as_polynomial(ctx, value)
        if a.is_zero:
            continue
        form = connection_component(ctx, a, index)
        holo = form.holomorphic_map
        g = form.log_map.get("t", Polynomial.zero(ctx.chart.variables))
        weight = tau_power(ctx, index, ctx.r)
        for j, z in enumerate(ctx.base_vars):
            h = holo.get(z, Polynomial.zero(ctx.chart.variables))
            residuals[j] = residuals[j] + weight * (sigma * h + g * sigma.diff(z))
    return residuals


# -- indeterminacy sampling ----------------------------------------------------------


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(
            rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(1, COEFF_BOUND)
        )
        if value or not nonzero:
            return value


def random_coefficients(ctx: ConnectionContext, rng: random.Random) -> CoefficientVector:
    basis = monomial_basis(ctx)
    entries = {}
    for index in enumerate_multiindices(ctx.n, ctx.delta):
        a = Polynomial.zero(ctx.chart.variables)
        for _, mono in basis:
            a = a + mono * random_fraction(rng)
        entries[index] = a
    return CoefficientVector.make(ctx.n, ctx.delta, entries)


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
    """True when every twisted component vanishes on the vector at once."""
    lookup = coeffs.as_dict
    for index in enumerate_multiindices(ctx.n, ctx.delta):
        if component_value(ctx, _as_polynomial(ctx, lookup[index]), index, vector):
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
