"""Effective degree arithmetic: the blow-up weights b_i, the twist threshold
r, the resulting section degrees m_i = eps_i + (r+1)*delta_i, and the closed
chain of inequalities reducing everything to a single power bound.

All arithmetic is exact big-integer / rational; thresholds are reported,
never clamped.  The reports are plain frozen dataclasses; the command line
encodes them, field by field, as JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def _integers(values: Sequence[int], name: str) -> tuple[int, ...]:
    """The entries as ints; a non-integral entry raises instead of being truncated."""
    if any(int(v) != v for v in values):
        raise ValueError(f"{name} entries must be integers, got {list(values)}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class BoundsReport:
    n: int
    delta: tuple[int, ...]
    eps: tuple[int, ...]
    b: tuple[int, ...]
    r_min: int
    m: tuple[int, ...]
    applicable: bool


def effective_bounds(n: int, delta: Sequence[int], eps: Sequence[int]) -> BoundsReport:
    """Weights b_i = prod(delta)/delta_i, the least admissible r, and the
    degrees m_i at that r.  `applicable` flags delta_i >= 4n-1 for all i."""
    delta = _integers(delta, "delta")
    eps = _integers(eps, "eps")
    if len(delta) != n or len(eps) != n:
        raise ValueError(f"need {n} entries in delta and eps")
    if any(d < 1 for d in delta) or any(e < 1 for e in eps):
        raise ValueError("delta and eps entries must be positive")
    product = math.prod(delta)
    b = [product // d for d in delta]  # exact: d is a factor of the product
    r_min = 1 + sum(bi * (ei + di) for bi, di, ei in zip(b, delta, eps))
    m = tuple(ei + (r_min + 1) * di for di, ei in zip(delta, eps))
    applicable = all(d >= 4 * n - 1 for d in delta)
    return BoundsReport(n, delta, eps, tuple(b), r_min, m, applicable)


def chain_inequality_holds(n: int) -> bool:
    """(4n-1) * (3 + 2n*(4n-1)^n) <= (4n)^(n+2), exactly."""
    lhs = (4 * n - 1) * (3 + 2 * n * (4 * n - 1) ** n)
    rhs = (4 * n) ** (n + 2)
    return lhs <= rhs


@dataclass(frozen=True)
class ThresholdReport:
    n: int
    c: int
    m_threshold: int
    chain_holds: bool
    alpha_min: int


def degree_threshold(n: int, c: int, delta: Sequence[int]) -> ThresholdReport:
    """Uniform degree threshold (4n)^(n+2), the chain inequality check, and
    the per-delta lower bound 3 + 2n * (max delta)^n."""
    if n < 1 or c < n:
        raise ValueError("need n >= 1 and c >= n")
    ds = _integers(delta, "delta")
    if not ds:
        raise ValueError("empty delta vector")
    return ThresholdReport(
        n=n,
        c=c,
        m_threshold=(4 * n) ** (n + 2),
        chain_holds=chain_inequality_holds(n),
        alpha_min=3 + 2 * n * max(ds) ** n,
    )


@dataclass(frozen=True)
class ReconstructionReport:
    alpha: Fraction
    r: int
    eps: tuple[int, ...]
    m: tuple[int, ...]
    valid: bool


def reconstruct_parameters(alpha: Fraction, delta: Sequence[int]) -> ReconstructionReport:
    """Split a scaling factor alpha into (r, eps): r = ceil(alpha) - 2 and
    eps_i = (alpha - ceil(alpha) + 1) * delta_i, so that
    m_i = alpha * delta_i = eps_i + (r+1) * delta_i with 1 <= eps_i <= delta_i.

    Requires alpha * delta_i integral for every i.
    """
    alpha = Fraction(alpha)
    delta = _integers(delta, "delta")
    for d in delta:
        if (alpha * d).denominator != 1:
            raise ValueError(f"alpha * {d} is not an integer")
    ceiling = -((-alpha.numerator) // alpha.denominator)
    r = ceiling - 2
    frac_shift = alpha - ceiling + 1
    eps = tuple(int(frac_shift * d) for d in delta)
    m = tuple(int(alpha * d) for d in delta)
    valid = all(
        1 <= e <= d and mi == e + (r + 1) * d
        for e, d, mi in zip(eps, delta, m)
    )
    return ReconstructionReport(alpha, r, eps, m, valid)
