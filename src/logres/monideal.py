"""Monomial ideal algebra for coordinate-subspace configurations.

A ``MonomialIdeal`` stores its minimal monomial generators as exponent tuples
over a fixed variable frame.  Square-free generators are the main case (each
is just a subset of the variables), but blow-up transforms introduce powers of
exceptional coordinates, so general exponents are supported.  A
``SimpleVariety`` is a coordinate subspace, given by the slots of its vanishing
coordinates: indices into the chart's variable tuple, which only names them.

The verbs need sums, intersections and containment of monomial ideals.  The
*simple* shape <x_1, ..., x_p, x_{p+1}*x_{r+1}, ..., x_r*x_{2r-p}>, its
decomposition into coordinate subspaces and the prime of a subspace are
routes the tests check, in ``tests/oracles.py``.

Two constructors build ideals.  The public ``MonomialIdeal.make`` coerces
and checks every exponent it is given.  The private ``MonomialIdeal._trusted``
only minimalizes: it takes exponents that this module's own operations
(``from_varsets``, ``ideal_sum``, ``intersect_monomial_ideals``) or the
monomial maps of the blow-up engine have just produced, which are well
formed by construction, so they are not checked again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .symcore import Exponent, LogresError, grlex_key, monomial_string


class MixedVariableSets(LogresError):
    """Ideal operation applied across different variable frames."""


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(operator.le, a, b))


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def minimalize(generators: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Drop every generator strictly divisible by another; sort graded-lex.

    A monomial ideal is principal exactly when the componentwise minimum of
    its generators is one of them (Miller--Sturmfels, ch. 1): that generator
    divides all the others, so it is returned alone, with no sort and no
    divisibility scan.
    """
    distinct = set(map(tuple, generators))
    if len(distinct) > 1:
        gcd = tuple(map(min, *distinct))
        if gcd in distinct:
            return (gcd,)
    gens = sorted(distinct, key=grlex_key)
    kept: list[Exponent] = []
    for g in gens:
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    variables: tuple[str, ...]
    generators: tuple[Exponent, ...]

    @classmethod
    def make(cls, variables: Iterable[str], generators: Iterable[Exponent]) -> "MonomialIdeal":
        """Validating constructor: every exponent is coerced and checked."""
        vs = tuple(variables)
        gens = []
        for g in generators:
            e = tuple(int(x) for x in g)
            if len(e) != len(vs) or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} over {vs}")
            gens.append(e)
        return cls._trusted(vs, gens)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], generators: Iterable[Exponent]) -> "MonomialIdeal":
        """Minimalize exponents already known to be well formed: tuples of
        nonnegative ints, one per variable.  For results of this module's own
        operations and of monomial maps; anything else goes through `make`."""
        return cls(variables, minimalize(generators))

    @classmethod
    def from_varsets(cls, variables: Iterable[str], sets: Iterable[Iterable[str]]) -> "MonomialIdeal":
        """Square-free constructor: each generator given as a set of variables."""
        vs = tuple(variables)
        index = {v: i for i, v in enumerate(vs)}
        gens = []
        for s in sets:
            exp = [0] * len(vs)
            for v in s:
                exp[index[v]] = 1
            gens.append(tuple(exp))
        return cls._trusted(vs, gens)

    @classmethod
    def unit(cls, variables: Iterable[str]) -> "MonomialIdeal":
        vs = tuple(variables)
        return cls(vs, ((0,) * len(vs),))

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and not any(self.generators[0])

    def contains_monomial(self, exponent: Exponent) -> bool:
        return any(_divides(g, exponent) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        if other.variables != self.variables:
            raise MixedVariableSets(f"{other.variables} vs {self.variables}")
        return all(self.contains_monomial(g) for g in other.generators)

    def gens_as_strings(self) -> list[str]:
        return [monomial_string(self.variables, g) for g in self.generators]

    def __str__(self) -> str:
        return "<" + ", ".join(self.gens_as_strings()) + ">"


def ideal_sum(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    if not ideals:
        raise ValueError("sum of no ideals")
    vs = ideals[0].variables
    gens: list[Exponent] = []
    for ideal in ideals:
        if ideal.variables != vs:
            raise MixedVariableSets(f"{ideal.variables} vs {vs}")
        gens.extend(ideal.generators)
    return MonomialIdeal._trusted(vs, gens)


def intersect_monomial_ideals(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    """Intersection via pairwise least common multiples, minimalized.

    The empty intersection is the unit ideal.
    """
    if not ideals:
        raise ValueError("intersection of no ideals")
    vs = ideals[0].variables
    for ideal in ideals:
        if ideal.variables != vs:
            raise MixedVariableSets(f"{ideal.variables} vs {vs}")
    acc = MonomialIdeal.unit(vs)
    for ideal in ideals:
        gens = [_lcm(a, b) for a in acc.generators for b in ideal.generators]
        acc = MonomialIdeal._trusted(vs, gens)
    return acc


@dataclass(frozen=True)
class SimpleVariety:
    """A coordinate subspace V(x_s : s in vanishing) of a chart, cut out by
    the chart slots in `vanishing`."""

    vanishing: frozenset[int]

    def __post_init__(self):
        if not self.vanishing:
            raise ValueError("a simple variety needs a nonempty vanishing set")

    @property
    def codim(self) -> int:
        return len(self.vanishing)

    def __str__(self) -> str:
        return "V(" + ",".join(map(str, sorted(self.vanishing))) + ")"

