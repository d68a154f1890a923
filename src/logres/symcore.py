"""Exact sparse multivariate polynomial arithmetic over the rationals, plus
logarithmic 1-forms in chart frames.

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

round-trips bit-exactly through ``parse_polynomial`` / ``str``.

A ``LogForm`` is a 1-form written in a chart frame with some coordinates
marked as logarithmic: it stores one polynomial coefficient per ``dz_j`` and
one per ``dz_j/z_j`` (the latter only for log-marked coordinates).  No verb
builds one: ``rank`` and ``sample`` evaluate connection components without
forming them, and ``forms`` reads residues off ``residues.GlobalLogForm``.
Log forms are the second routes the tests check those verbs against
(``logconn.connection_component`` and ``GlobalLogForm.as_coordinate_logform``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


class LogresError(Exception):
    """Base class for all structured errors raised by this package."""


class DivisionByZero(LogresError):
    """Exact division by the zero polynomial."""


class NotDivisible(LogresError):
    """Exact polynomial division has a nonzero remainder."""


class MissingAssignment(LogresError):
    """A substitution omits a variable of the polynomial."""


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

    Arithmetic requires both operands to share the same variable tuple;
    ``extend_variables`` embeds a polynomial into a larger frame by name.
    """

    __slots__ = ("variables", "terms", "_hash")

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
        object.__setattr__(self, "_hash", None)

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
        object.__setattr__(poly, "_hash", None)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "Polynomial":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r} for frame {vs}")
        exp = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, variables: Iterable[str], exponent: Exponent, coeff=1) -> "Polynomial":
        return cls(variables, {tuple(exponent): Fraction(coeff)})

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

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order (canonical listing)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return True
        if degree is None:
            return len(degrees) == 1
        return degrees == {degree}

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
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash((self.variables, frozenset(self.terms.items()))),
            )
        return self._hash

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.variables!r}, {str(self)!r})"


# -- exact operations -------------------------------------------------------


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Return q with f = q*g exactly.

    Raises NotDivisible when no exact quotient exists and DivisionByZero when
    g = 0.  Single-divisor reduction in graded-lex order terminates because
    the leading monomial strictly decreases; for a divisible f the remainder
    reaches zero, and a leading monomial not divisible by g's certifies
    non-divisibility.
    """
    if g.is_zero:
        raise DivisionByZero("exact division by the zero polynomial")
    f._require_same_frame(g)
    if f.is_zero:
        return Polynomial.zero(f.variables)
    g_lead, g_coeff = g.leading()
    remainder = dict(f.terms)
    quotient: dict[Exponent, Fraction] = {}
    while remainder:
        lead = max(remainder, key=grlex_key)
        shift = tuple(a - b for a, b in zip(lead, g_lead))
        if any(s < 0 for s in shift):
            raise NotDivisible(f"{f} is not divisible by {g}")
        coeff = remainder[lead] / g_coeff
        quotient[shift] = coeff
        for exp, c in g.terms.items():
            e = tuple(a + b for a, b in zip(shift, exp))
            nc = remainder.get(e, Fraction(0)) - coeff * c
            if nc:
                remainder[e] = nc
            else:
                remainder.pop(e, None)
    return Polynomial._trusted(f.variables, quotient)


def substitute(f: Polynomial, assignment: Mapping[str, Polynomial]) -> Polynomial:
    """Replace every variable of f by its assigned polynomial, fully expanded.

    All images must share one variable frame, which becomes the result frame.
    """
    missing = [v for v in f.variables if v not in assignment]
    if missing:
        raise MissingAssignment(f"no assignment for {missing}")
    images = [assignment[v] for v in f.variables]
    if not images:
        raise ValueError("cannot substitute into a polynomial with no variables")
    target = images[0].variables
    for img in images:
        if img.variables != target:
            raise ValueError("substitution images use inconsistent variable frames")
    result = Polynomial.zero(target)
    # cache powers of each image; exponents in charts stay small
    powers: list[dict[int, Polynomial]] = [
        {0: Polynomial.constant(target, 1)} for _ in images
    ]

    def power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * images[i]
        return cache[e]

    for exp, coeff in sorted(f.terms.items()):
        term = Polynomial.constant(target, coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


def extend_variables(f: Polynomial, variables: Iterable[str]) -> Polynomial:
    """Embed f into a larger variable frame, matching variables by name."""
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs}")
    positions = []
    for v in f.variables:
        if v not in vs:
            raise ValueError(f"target frame {vs} is missing variable {v!r}")
        positions.append(vs.index(v))
    terms = {}
    for exp, coeff in f.terms.items():
        e = [0] * len(vs)
        for pos, x in zip(positions, exp):
            e[pos] = x
        terms[tuple(e)] = coeff
    return Polynomial._trusted(vs, terms)


# -- text format -------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*~*)|(?P<op>[-+*/^]))"
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


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.variables = variables

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str]]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            pos = m.end()
            for kind in ("int", "name", "op"):
                val = m.group(kind)
                if val is not None:
                    tokens.append((kind, val))
                    break
        return tokens

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.parse_term(allow_sign=True)
        while True:
            tok = self.peek()
            if tok is None:
                return result
            if tok != ("op", "+") and tok != ("op", "-"):
                raise ValueError(f"unexpected token {tok}")
            self.take()
            term = self.parse_term(allow_sign=False)
            result = result + term if tok[1] == "+" else result - term

    def parse_term(self, allow_sign: bool) -> Polynomial:
        sign = 1
        while allow_sign and self.peek() in (("op", "-"), ("op", "+")):
            if self.take()[1] == "-":
                sign = -sign
        factors = [self.parse_factor()]
        while self.peek() == ("op", "*"):
            self.take()
            factors.append(self.parse_factor())
        result = Polynomial.constant(self.variables, sign)
        for fac in factors:
            result = result * fac
        return result

    def parse_factor(self) -> Polynomial:
        kind, val = self.take()
        if kind == "int":
            num = int(val)
            if self.peek() == ("op", "/"):
                self.take()
                dkind, dval = self.take()
                if dkind != "int":
                    raise ValueError("expected integer denominator")
                if int(dval) == 0:
                    raise ValueError(f"zero denominator in {val}/{dval}")
                return Polynomial.constant(self.variables, Fraction(num, int(dval)))
            return Polynomial.constant(self.variables, num)
        if kind == "name":
            if val not in self.variables:
                raise ValueError(f"unknown variable {val!r}")
            base = Polynomial.variable(self.variables, val)
            if self.peek() == ("op", "^"):
                self.take()
                ekind, eval_ = self.take()
                if ekind != "int":
                    raise ValueError("expected integer exponent")
                return base ** int(eval_)
            return base
        raise ValueError(f"unexpected token {val!r}")


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse the ASCII polynomial format over a declared variable frame."""
    vs = tuple(variables)
    text = text.strip()
    if not text or text == "0":
        return Polynomial.zero(vs)
    return _Parser(text, vs).parse()


# -- logarithmic 1-forms ------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """A coordinate frame: ordered variables, some marked as logarithmic."""

    variables: tuple[str, ...]
    log_marked: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate frame variables in {self.variables}")
        unknown = self.log_marked - set(self.variables)
        if unknown:
            raise ValueError(f"log-marked names {sorted(unknown)} not in frame")


@dataclass(frozen=True)
class LogForm:
    """A 1-form `sum h_j dz_j + sum b_j dz_j/z_j` in a chart frame.

    Log coefficients are only allowed on log-marked coordinates of the
    frame.  Coefficients are stored sorted by the frame's variable order,
    zero entries dropped, so equal forms compare equal.
    """

    chart: Frame
    holomorphic: tuple[tuple[str, Polynomial], ...]
    log: tuple[tuple[str, Polynomial], ...]

    @classmethod
    def make(
        cls,
        chart: Frame,
        holomorphic: Mapping[str, Polynomial] | None = None,
        log: Mapping[str, Polynomial] | None = None,
    ) -> "LogForm":
        variables = tuple(chart.variables)
        order = {v: i for i, v in enumerate(variables)}
        holo = {}
        for v, p in (holomorphic or {}).items():
            if v not in order:
                raise ValueError(f"coefficient on unknown coordinate {v!r}")
            if p:
                holo[v] = p
        logpart = {}
        for v, p in (log or {}).items():
            if v not in chart.log_marked:
                raise ValueError(f"log coefficient on non-log coordinate {v!r}")
            if p:
                logpart[v] = p
        return cls(
            chart,
            tuple(sorted(holo.items(), key=lambda kv: order[kv[0]])),
            tuple(sorted(logpart.items(), key=lambda kv: order[kv[0]])),
        )

    @property
    def holomorphic_map(self) -> dict[str, Polynomial]:
        return dict(self.holomorphic)

    @property
    def log_map(self) -> dict[str, Polynomial]:
        return dict(self.log)

    @property
    def is_zero(self) -> bool:
        return not self.holomorphic and not self.log

    def __add__(self, other: "LogForm") -> "LogForm":
        if tuple(self.chart.variables) != tuple(other.chart.variables):
            raise ValueError("cannot add forms from different charts")
        holo = self.holomorphic_map
        for v, p in other.holomorphic:
            holo[v] = holo.get(v, Polynomial.zero(p.variables)) + p
        logpart = self.log_map
        for v, p in other.log:
            logpart[v] = logpart.get(v, Polynomial.zero(p.variables)) + p
        return LogForm.make(self.chart, holo, logpart)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = [f"({p})*dlog({v})" for v, p in self.log]
        pieces += [f"({p})*d({v})" for v, p in self.holomorphic]
        return " + ".join(pieces)
