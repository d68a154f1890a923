"""Exact sparse multivariate polynomial arithmetic over the rationals and
its text format.

A polynomial is a pair (variables, terms): an ordered tuple of variable names
and a dictionary mapping exponent tuples to nonzero rational coefficients.

  terms = {(2, 1): Fraction(3, 2), (0, 0): Fraction(-1)}   # 3/2*x^2*y - 1

Zero coefficients are never stored; the zero polynomial has an empty term map.
Scalars are `fractions.Fraction`, so every value is automatically reduced to
lowest terms with a positive denominator.

The canonical term order is graded lexicographic (total degree first, then
lexicographic on exponent tuples, with earlier variables ranking higher);
printing lists terms in descending order.  The text format

  3/2*x1^2*x2 - x3

round-trips bit-exactly through ``parse_polynomial`` / ``str``.  Its grammar,
with whitespace allowed between tokens:

  polynomial := empty | sign* term (sign term)*     sign := "+" | "-"
  term       := factor ("*" factor)*
  factor     := int ["/" int] | name ["^" int]

An int is a run of decimal digits, a denominator must be nonzero, and a name
must be a variable of the declared frame.  Only the first term may carry
more than one sign; empty text is the zero polynomial.

No verb divides, substitutes or builds a 1-form: exact division,
substitution, frame extension, the ``Frame`` of a chart and the ``LogForm``
class live in ``tests/oracles.py``, as the second routes the tests check the
verbs against.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


class LogresError(Exception):
    """Base class for all structured errors raised by this package."""


class MissingAssignment(LogresError):
    """An evaluation point or a substitution omits a variable of the polynomial."""


def _accumulate(terms: dict[Exponent, Fraction], exp: Exponent, coeff: Fraction) -> None:
    """Add a nonzero coefficient into a term map, dropping the term if it cancels."""
    old = terms.get(exp)
    if old is None:
        terms[exp] = coeff
        return
    total = old + coeff
    if total:
        terms[exp] = total
    else:
        del terms[exp]


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing the graded lexicographic order."""
    return (sum(exponent), exponent)


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients.

    Arithmetic requires both operands to share the same variable tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: object = ()) -> None:
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        object.__setattr__(self, "variables", vs)
        items: Iterable[tuple[Exponent, object]]
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms  # iterable of (exponent, coefficient)
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in items:
            e = tuple(int(x) for x in exp)
            if len(e) != len(vs):
                raise ValueError(f"exponent {e} has wrong length for {vs}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = clean.get(e, Fraction(0)) + Fraction(coeff)
            if c:
                clean[e] = c
            else:
                clean.pop(e, None)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], terms: dict[Exponent, Fraction]
    ) -> "Polynomial":
        """Wrap a term map that is already clean, without re-validating it.

        The caller guarantees distinct variable names, int exponent tuples of
        the frame's length, and only nonzero ``Fraction`` coefficients.  The
        package's own arithmetic uses it; outside input goes through
        ``Polynomial(...)``.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "Polynomial":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order (canonical listing)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def is_homogeneous(self, degree: int) -> bool:
        """Every term has this total degree (true of the zero polynomial)."""
        return all(sum(e) == degree for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same_frame(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable frames differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        self._require_same_frame(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            _accumulate(terms, exp, coeff)
        return Polynomial._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            scalar = Fraction(other)
            if not scalar:
                return Polynomial._trusted(self.variables, {})
            return Polynomial._trusted(
                self.variables, {e: c * scalar for e, c in self.terms.items()}
            )
        self._require_same_frame(other)
        prod: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(prod, tuple(map(add, e1, e2)), c1 * c2)
        return Polynomial._trusted(self.variables, prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.variables, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, name: str) -> "Polynomial":
        """Partial derivative with respect to one variable."""
        idx = self.variables.index(name)
        terms: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[idx] == 0:
                continue
            e = list(exp)
            k = e[idx]
            e[idx] = k - 1
            terms[tuple(e)] = coeff * k  # distinct: lowering one slot is injective
        return Polynomial._trusted(self.variables, terms)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise MissingAssignment(f"no value for {missing}")
        values = [Fraction(point[v]) for v in self.variables]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exp):
                if e:
                    term *= val**e
            total += term
        return total

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == Polynomial.constant(self.variables, other)
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.variables!r}, {str(self)!r})"


# -- text format -------------------------------------------------------------

# the last alternative catches a stray character and the rest of the text
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*~*)|(?P<op>[-+*/^])|(?P<bad>.+))",
    re.DOTALL,
)


def monomial_string(variables: tuple[str, ...], exponent: Exponent) -> str:
    """Render a unit monomial (`x1^2*x2`), or `1` for the empty exponent."""
    factors = []
    for v, e in zip(variables, exponent):
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append(f"{v}^{e}")
    return "*".join(factors) if factors else "1"


def format_polynomial(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    pieces: list[str] = []
    for exp, coeff in f.sorted_terms():
        mono = monomial_string(f.variables, exp)
        if mono == "1":
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _present(tok: tuple[str, str] | None) -> tuple[str, str]:
    if tok is None:
        raise ValueError("unexpected end of polynomial text")
    return tok


_SIGNS = (("op", "+"), ("op", "-"))


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse the text format over a declared variable frame.

    One pass over the tokens adds each term's coefficient into a term map;
    the one ``Polynomial`` is built at the end.
    """
    vs = tuple(variables)
    slots = {v: i for i, v in enumerate(vs)}
    matches = list(_TOKEN.finditer(text.strip()))
    if not matches:
        return Polynomial(vs)
    if matches[-1].lastgroup == "bad":
        raise ValueError(f"cannot tokenize {matches[-1].group()!r}")
    stream = ((m.lastgroup, m.group(m.lastgroup)) for m in matches)
    tok = next(stream, None)
    terms: dict[Exponent, Fraction] = {}
    sign = 1
    while tok in _SIGNS:  # only the first term may carry several signs
        if tok[1] == "-":
            sign = -sign
        tok = next(stream, None)
    while True:  # one term per pass
        coeff = Fraction(sign)
        exponent = [0] * len(vs)
        while True:  # one factor per pass
            kind, val = _present(tok)
            tok = next(stream, None)
            if kind == "int":
                value = Fraction(int(val))
                if tok == ("op", "/"):
                    dkind, dval = _present(next(stream, None))
                    if dkind != "int":
                        raise ValueError("expected integer denominator")
                    if int(dval) == 0:
                        raise ValueError(f"zero denominator in {val}/{dval}")
                    value /= int(dval)
                    tok = next(stream, None)
                coeff *= value
            elif kind == "name":
                if val not in slots:
                    raise ValueError(f"unknown variable {val!r}")
                power = 1
                if tok == ("op", "^"):
                    ekind, eval_ = _present(next(stream, None))
                    if ekind != "int":
                        raise ValueError("expected integer exponent")
                    power = int(eval_)
                    tok = next(stream, None)
                exponent[slots[val]] += power
            else:
                raise ValueError(f"unexpected token {val!r}")
            if tok != ("op", "*"):
                break
            tok = next(stream, None)
        key = tuple(exponent)
        terms[key] = terms.get(key, 0) + coeff
        if tok is None:
            return Polynomial(vs, terms)
        if tok not in _SIGNS:
            raise ValueError(f"unexpected token {tok}")
        sign = -1 if tok[1] == "-" else 1
        tok = next(stream, None)
