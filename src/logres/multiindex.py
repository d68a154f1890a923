"""Multi-index combinatorics for homogeneous polynomials on projective space.

A multi-index is a tuple (i0, ..., in) of non-negative integers; its weight is
the sum of the entries.  The weight-d indices over n+1 slots are in bijection
with the degree-d monomials in x0..xn.  The indices whose support avoids a
slot set J, which ``index_count`` counts, are those of the restriction of a
homogeneous form to the coordinate subspace {x_j = 0 : j in J}; callers keep
them by testing the support of the full listing.

Indices are 0-based and listed in descending graded-lex order, so listings are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

MultiIndex = tuple[int, ...]


def index_count(n: int, degree: int, excluded_size: int = 0) -> int:
    """Number of weight-`degree` indices avoiding `excluded_size` slots."""
    k = n - excluded_size
    if k < 0:
        # only the zero index survives, and only in degree zero
        return 1 if degree == 0 else 0
    return math.comb(k + degree, k)


def enumerate_multiindices(n: int, degree: int) -> list[MultiIndex]:
    """All I with |I| = degree over slots {0..n}.

    Listed in descending lexicographic order (equivalently graded-lex, since
    the weight is fixed).
    """
    if n < 1:
        raise ValueError("need at least two slots (n >= 1)")
    if degree < 0:
        raise ValueError("degree must be non-negative")

    out: list[MultiIndex] = []
    prefix = [0] * (n + 1)

    def fill(slot: int, remaining: int) -> None:
        if slot == n:
            prefix[slot] = remaining
            out.append(tuple(prefix))
            prefix[slot] = 0
            return
        for e in range(remaining, -1, -1):
            prefix[slot] = e
            fill(slot + 1, remaining - e)
        prefix[slot] = 0

    fill(0, degree)
    return out


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of a degree-d form, keyed by the full weight-d index set,
    zero entries stored explicitly.  Values may be rationals or polynomials.

    ``entries`` is a tuple of (index, value) pairs in index order.  Only the
    tests and their oracles build this class; ``make`` stays in the package
    because a per-layer benchmark metric names it, until that metric is
    replaced (ROADMAP item 2).
    """

    n: int
    degree: int
    entries: tuple[tuple[MultiIndex, object], ...]

    @classmethod
    def make(
        cls, n: int, degree: int, entries: Mapping[MultiIndex, object] | None = None
    ) -> "CoefficientVector":
        keys = enumerate_multiindices(n, degree)
        given = dict(entries or {})
        unknown = set(given) - set(keys)
        if unknown:
            raise ValueError(f"entries keyed outside the index set: {sorted(unknown)}")
        return cls(n, degree, tuple((key, given.get(key, Fraction(0))) for key in keys))
