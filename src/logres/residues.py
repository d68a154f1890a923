"""Explicit global log 1-forms on projective space and their residues.

For an arrangement of c distinct hypersurfaces s_1..s_c in P^n with degrees
d_1..d_c, the combinations

  eta_i = d_{i+1} * dlog(s_i) - d_i * dlog(s_{i+1}),    i = 1..c-1

are global logarithmic 1-forms: rewriting dlog(s_k) on the affine chart
{x_j != 0} as dlog of the dehomogenization plus d_k * dlog(x_j), the chart
coordinate terms cancel exactly because the residue vector is balanced
against the degrees (sum_k residue_k * d_k = 0).  Their residues are
(d_{i+1}, -d_i) on components (i, i+1) and zero elsewhere, so the
(c-1) x c residue matrix has full rank c-1: the space of global log forms
has dimension at least c-1.

Smoothness/transversality of the arrangement is an input assumption; the
constructor only enforces what is decidable exactly (homogeneity, declared
degrees, pairwise non-proportionality).

The ``forms`` verb reads the residues off each form's constant vector.
Residues of forms written in a chart frame, and a global form rewritten as a
chart form when every component is a coordinate hyperplane, are the second
routes the tests check this against, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import ratmat
from .symcore import LogresError, Polynomial


# -- arrangements on projective space ---------------------------------------------


def projective_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n + 1))


def chart_variables(n: int, chart_index: int) -> tuple[str, ...]:
    return tuple(f"u{i}" for i in range(n + 1) if i != chart_index)


def dehomogenize(f: Polynomial, n: int, chart_index: int) -> Polynomial:
    """Chart form of a homogeneous polynomial: x_j -> 1, x_i -> u_i."""
    variables = chart_variables(n, chart_index)
    keep = [i for i in range(n + 1) if i != chart_index]
    terms = {}
    for exp, coeff in f.terms.items():
        e = tuple(exp[i] for i in keep)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return Polynomial(variables, terms)


@dataclass(frozen=True)
class DivisorArrangement:
    n: int
    components: tuple[tuple[Polynomial, int], ...]

    @classmethod
    def make(
        cls, n: int, components: Sequence[Polynomial | tuple[Polynomial, int]]
    ) -> "DivisorArrangement":
        variables = projective_variables(n)
        entries = []
        for item in components:
            if isinstance(item, tuple):
                poly, degree = item
            else:
                poly, degree = item, item.total_degree()
            if poly.variables != variables:
                raise ValueError(f"component must live over {variables}")
            if poly.is_zero or not poly.is_homogeneous(degree):
                raise ValueError(f"{poly} is not homogeneous of degree {degree}")
            entries.append((poly, degree))
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if _proportional(entries[i][0], entries[j][0]):
                    raise ValueError("arrangement components must be distinct")
        return cls(n, tuple(entries))

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.components)


def _proportional(f: Polynomial, g: Polynomial) -> bool:
    if set(f.terms) != set(g.terms):
        return False
    exp = next(iter(f.terms))
    ratio = g.terms[exp] / f.terms[exp]
    return all(g.terms[e] == ratio * c for e, c in f.terms.items())


@dataclass(frozen=True)
class GlobalLogForm:
    """A constant-residue combination sum_k residue_k * dlog(s_k)."""

    arrangement: DivisorArrangement
    residues: tuple[Fraction, ...]

    def degree_balance(self) -> Fraction:
        """Coefficient of dlog(x_j) after dehomogenizing on any chart; the
        form is chart-regular exactly when this vanishes."""
        return sum(
            (res * d for res, (_, d) in zip(self.residues, self.arrangement.components)),
            Fraction(0),
        )

    def chart_numerators(self, chart_index: int) -> tuple[Polynomial, ...]:
        """Numerators over the common denominator (product of all chart
        forms), one polynomial per chart coordinate."""
        n = self.arrangement.n
        charts = [
            dehomogenize(poly, n, chart_index)
            for poly, _ in self.arrangement.components
        ]
        variables = chart_variables(n, chart_index)
        nums = []
        for v in variables:
            total = Polynomial.zero(variables)
            for k, (res, s) in enumerate(zip(self.residues, charts)):
                if not res:
                    continue
                partial = s.diff(v) * res
                for other_index, other in enumerate(charts):
                    if other_index != k:
                        partial = partial * other
                total = total + partial
            nums.append(total)
        return tuple(nums)

    def chart_denominator(self, chart_index: int) -> Polynomial:
        n = self.arrangement.n
        out = Polynomial.constant(chart_variables(n, chart_index), 1)
        for poly, _ in self.arrangement.components:
            out = out * dehomogenize(poly, n, chart_index)
        return out

    def serialize(self) -> dict:
        return {
            "residues": [str(r) for r in self.residues],
            "charts": {
                str(j): {
                    "denominator": str(self.chart_denominator(j)),
                    "numerators": [str(p) for p in self.chart_numerators(j)],
                }
                for j in range(self.arrangement.n + 1)
            },
        }


def construct_global_log_forms(arrangement: DivisorArrangement) -> list[GlobalLogForm]:
    """The c-1 adjacent-pair combinations, verified balanced and independent."""
    c = arrangement.count
    if c < 1:
        raise ValueError("arrangement needs at least one component")
    forms = []
    degrees = arrangement.degrees
    for i in range(c - 1):
        residues = [Fraction(0)] * c
        residues[i] = Fraction(degrees[i + 1])
        residues[i + 1] = Fraction(-degrees[i])
        form = GlobalLogForm(arrangement, tuple(residues))
        if form.degree_balance() != 0:
            raise LogresError(f"degree balance failed for pair ({i}, {i + 1})")
        forms.append(form)
    matrix = [list(form.residues) for form in forms]
    if forms and ratmat.rank(matrix) != c - 1:
        raise LogresError("residue matrix is rank-deficient")
    return forms


def residue_matrix(forms: Sequence[GlobalLogForm]) -> list[list[Fraction]]:
    return [list(form.residues) for form in forms]
