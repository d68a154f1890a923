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

Over a fixed arrangement a form sum_k r_k * dlog(s_k) is its residue vector
(r_1, ..., r_c), a tuple of ``Fraction``s.  Smoothness/transversality of the
arrangement is an input assumption; the constructor only enforces what is
decidable exactly (homogeneity, declared degrees, pairwise
non-proportionality).

On the chart {x_j != 0} a form is written over the common denominator
s_1 * ... * s_c of the dehomogenized components, with one numerator per
chart coordinate.  ``forms_on_charts`` builds that representation for all
forms of an arrangement at once: each chart's components, cofactors and
denominator are built once and shared by every form.

Residues of forms written in a chart frame, and a global form rewritten as a
chart form when every component is a coordinate hyperplane, are the second
routes the tests check the residue vectors against, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
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
    terms = ((tuple(e[i] for i in keep), c) for e, c in f.terms.items())
    return Polynomial(variables, terms)  # adds up the terms that meet on one exponent


@dataclass(frozen=True)
class DivisorArrangement:
    n: int
    polynomials: tuple[Polynomial, ...]
    degrees: tuple[int, ...]

    @classmethod
    def make(cls, n: int, components: Sequence[Polynomial]) -> "DivisorArrangement":
        variables = projective_variables(n)
        degrees = tuple(poly.total_degree() for poly in components)
        for poly, degree in zip(components, degrees):
            if poly.variables != variables:
                raise ValueError(f"component must live over {variables}")
            if poly.is_zero or not poly.is_homogeneous(degree):
                raise ValueError(f"{poly} is not homogeneous of degree {degree}")
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                if _proportional(components[i], components[j]):
                    raise ValueError("arrangement components must be distinct")
        return cls(n, tuple(components), degrees)


def _proportional(f: Polynomial, g: Polynomial) -> bool:
    if set(f.terms) != set(g.terms):
        return False
    exp = next(iter(f.terms))
    ratio = g.terms[exp] / f.terms[exp]
    return all(g.terms[e] == ratio * c for e, c in f.terms.items())


def construct_global_log_forms(arrangement: DivisorArrangement) -> list[tuple[Fraction, ...]]:
    """The residue vectors of the c-1 adjacent-pair combinations, verified
    balanced (sum_k residue_k * d_k = 0, the coefficient of dlog(x_j) after
    dehomogenizing on any chart) and independent."""
    degrees = arrangement.degrees
    c = len(degrees)
    if c < 1:
        raise ValueError("arrangement needs at least one component")
    forms = []
    for i in range(c - 1):
        residues = [Fraction(0)] * c
        residues[i] = Fraction(degrees[i + 1])
        residues[i + 1] = Fraction(-degrees[i])
        if sum(res * d for res, d in zip(residues, degrees)) != 0:
            raise LogresError(f"degree balance failed for pair ({i}, {i + 1})")
        forms.append(tuple(residues))
    if forms and ratmat.rank(residue_matrix(forms)) != c - 1:
        raise LogresError("residue matrix is rank-deficient")
    return forms


def residue_matrix(forms: Sequence[tuple[Fraction, ...]]) -> list[list[Fraction]]:
    return [list(residues) for residues in forms]


def forms_on_charts(
    arrangement: DivisorArrangement, forms: Sequence[tuple[Fraction, ...]]
) -> list[dict]:
    """Each form's residues and its representation on every standard chart
    {x_j != 0}: one numerator per chart coordinate v,

      sum_k residue_k * ds_k/dv * prod_{l != k} s_l,

    over the common denominator s_1 * ... * s_c of the chart forms s_k.

    Per chart, each component is dehomogenized once, each product
    ds_k/dv * prod_{l != k} s_l is built once and the denominator is built
    and formatted once; every form scales and sums the products its nonzero
    residues pick.
    """
    n = arrangement.n
    out = [{"residues": residues, "charts": {}} for residues in forms]
    for j in range(n + 1):
        variables = chart_variables(n, j)
        charts = [dehomogenize(poly, n, j) for poly in arrangement.polynomials]
        one = Polynomial.constant(variables, 1)
        cofactors = [
            math.prod(charts[:k] + charts[k + 1:], start=one) for k in range(len(charts))
        ]
        denominator = str(cofactors[0] * charts[0])
        products = [[s.diff(v) * cof for v in variables] for s, cof in zip(charts, cofactors)]
        zero = Polynomial.zero(variables)
        for residues, entry in zip(forms, out):
            picked = [(k, res) for k, res in enumerate(residues) if res]
            entry["charts"][str(j)] = {
                "denominator": denominator,
                "numerators": [
                    str(sum((products[k][i] * res for k, res in picked), zero))
                    for i in range(len(variables))
                ],
            }
    return out
