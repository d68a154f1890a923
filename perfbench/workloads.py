"""Seeded workloads and the output oracle.

A workload is an endless stream of *decks*.  A deck is a fixed list of slots;
each slot fixes the parameters that set an op's cost (verb, size, matrix
flag, sample count) and the seed draws the rest (chart index, mode or format
where cheap, strata, CLI seeds, polynomials, degree lists) and the order of
the ops in the deck.  Every run therefore holds the same mix of cost classes,
which keeps medians and tail percentiles steady from seed to seed, while the
inputs themselves differ.

An op is a dict with the argv handed to `logres.cli.run_command`, the expected
exit code, and what the oracle must find in the output.
"""

from __future__ import annotations

import math
import random
import re
import shlex
from typing import Iterator

WORKLOADS = ("jet", "resolve", "connection")

# One untimed command that ends set-up; fixed, so set-up does the same work
# for every seed.
WARMUP = {
    "jet": ["verify-jet", "--n", "3"],
    "resolve": ["resolve", "--n", "4", "--c", "4", "--k", "4", "--t", "1",
                "--mode", "canonical", "--format", "json"],
    "connection": ["sample", "--n", "2", "--delta", "4", "--trials", "5", "--seed", "1789"],
}

# Decks the traced run executes, once untraced and once traced.
TRACE_DECKS = {"jet": 3, "resolve": 1, "connection": 1}

# Out-of-contract argv: each should be refused with exit 2 (usage error).
# The first group ends in a Python traceback or a wrong exit code at the
# commit that introduced this benchmark; the second is refused correctly.
MALFORMED = [
    "bounds --n 2 --delta 7,8 --eps 1,1 --c 1",
    "bounds --n 2 --delta 4,6 --eps 1,1 --alpha 1/3",
    "bounds --n 0 --delta '' --eps ''",
    "rank --n 0 --delta 4",
    "rank --n 2 --delta 4 --samples -3",
    "sample --n 0 --delta 4",
    "sample --n 2 --delta 4 --eps 0",
    "sample --n 2 --delta 4 --trials -5",
    "forms --n 2 --components 1/0*x0",
    "forms --n 2 --components 2",
    "rank --n 2 --delta 4 --stratum 7",
    "rank --n 2",
    "sample --n 2 --delta 3",
    "bounds --n 2 --delta 4,x --eps 1,1",
    "bounds --n 2 --delta 4 --eps 1",
    "forms --n 2 --components ;",
]


def key(argv: list[str]) -> str:
    """Canonical text of an argv, used to look up recorded digests."""
    return shlex.join(argv)


def _op(argv: list[str], check: dict, expect: int = 0) -> dict:
    return {"argv": [str(a) for a in argv], "expect": expect, "check": check}


# -- jet ----------------------------------------------------------------------

# (n, format) per slot: n = 5 takes about 12 s and is left out.
_JET_SLOTS = [(3, "json")] * 4 + [(3, "text")] * 2 + [(4, "json"), (4, "text")]


def jet_op(n: int, fmt: str) -> dict:
    ideals = n * (n + 1) * (2**n - 1)
    return _op(["verify-jet", "--n", n, "--format", fmt],
               {"kind": "verify-jet", "format": fmt, "n": n, "ideals": ideals})


def _jet_deck(rng: random.Random) -> list[dict]:
    return [jet_op(n, fmt) for n, fmt in _JET_SLOTS]


# -- resolve --------------------------------------------------------------------

# (active k, n, c or None for a seeded c in k..n, mode or None for seeded).
# "Active" means the chart index t is one of the k components through the
# point; with t > k the system is empty and the op is cheap.
_RESOLVE_SLOTS = (
    [(6, 6, 6, "canonical")]                       # largest output, sets peak RSS
    + [(5, 5, 5, "canonical")] * 4 + [(5, 6, 5, "minimal")]   # the tail
    + [(4, 4, None, None), (4, 5, None, None), (4, 6, None, None), (4, 6, None, None)]
    + [(3, 6, 6, "canonical")] * 12                               # the median
    + [(2, 5, None, None), (2, 6, None, None), (1, 4, None, None), (1, 6, None, None)]
    + [(0, None, None, None)] * 5
)


def resolve_op(n: int, c: int, k: int, t: int, mode: str, fmt: str) -> dict:
    argv = ["resolve", "--n", n, "--c", c, "--k", k, "--t", t, "--mode", mode, "--format", fmt]
    targets = c + (mode == "canonical")  # complement of each component, plus all
    return _op(argv, {"kind": "resolve", "format": fmt, "targets": targets})


def _resolve_deck(rng: random.Random) -> list[dict]:
    deck = []
    for k, n, c, mode in _RESOLVE_SLOTS:
        if k == 0:  # inactive: empty system in this chart
            n = rng.randint(3, 6)
            c = rng.randint(2, n)
            k = rng.randint(0, min(c, n - 1))
            t = rng.randint(k + 1, n)
        else:
            c = c if c is not None else rng.randint(max(k, 2), n)
            t = rng.randint(1, k)
        mode = mode or rng.choice(("canonical", "minimal"))
        fmt = "json" if (k, n) == (6, 6) else rng.choice(("json", "text"))
        deck.append(resolve_op(n, c, k, t, mode, fmt))
    return deck


# -- connection -----------------------------------------------------------------

# rank slots: (n, delta, eps, stratum size, samples, matrix).  The first
# five are the slowest ops of the deck; the three alike ones hold its tail.
_RANK_SLOTS = [
    (3, 4, 2, 0, 2, True), (3, 4, 2, 0, 2, True), (3, 4, 2, 0, 2, True),
    (3, 6, 1, 0, 2, False), (3, 6, 2, 1, 2, True),
    (2, 4, 1, 0, 1, True), (2, 6, 2, 1, 2, False), (2, 6, 1, 0, 3, False), (2, 4, 2, 0, 2, False),
]
# sample slots: (n, delta, trials).  The twelve alike n = 2 slots of about
# 50 ms hold the median of the deck.
_SAMPLE_SLOTS = [(2, 4, 22)] * 12 + [
    (2, 4, 5), (2, 5, 25), (2, 5, 40), (2, 6, 12), (2, 6, 40),
    (3, 6, 5), (3, 6, 15), (3, 7, 10), (3, 7, 20), (3, 8, 5), (3, 8, 12),
]
_FORMS_SLOTS = 4
_BOUNDS_SLOTS = 4
_MALFORMED_SLOTS = 2


def _random_form(rng: random.Random, n: int) -> tuple[str, frozenset]:
    """A random homogeneous polynomial of degree 1 or 2 in x0..xn, and its
    set of monomials."""
    degree = rng.choice((1, 2))
    monomials = sorted({
        tuple(sorted(rng.randrange(n + 1) for _ in range(degree)))
        for _ in range(rng.randint(1, 3))
    })
    text = ""
    for mono in monomials:
        coeff = rng.choice((1, 1, 2, 3, -1, -2, "1/2", "3/2"))
        negative = isinstance(coeff, int) and coeff < 0
        magnitude = -coeff if negative else coeff
        factors = "*".join(f"x{i}" for i in mono)
        body = factors if magnitude == 1 else f"{magnitude}*{factors}"
        text += ("-" if negative else ("+" if text else "")) + body
    return text, frozenset(monomials)


def _forms_op(rng: random.Random) -> dict:
    """2-4 components with distinct monomial sets, so none is proportional
    to another."""
    n = rng.choice((2, 3))
    comps: dict[frozenset, str] = {}
    count = rng.randint(2, 4)
    while len(comps) < count:
        text, monomials = _random_form(rng, n)
        comps.setdefault(monomials, text)
    # `=` keeps a leading minus sign from reading as an option
    argv = ["forms", "--n", n, "--components=" + ";".join(comps.values())]
    return _op(argv, {"kind": "forms"})


def _bounds_op(rng: random.Random) -> dict:
    n = rng.randint(1, 4)
    delta = [rng.randint(2, 20) for _ in range(n)]
    eps = [rng.randint(1, d) for d in delta]
    argv = ["bounds", "--n", n, "--delta", ",".join(map(str, delta)),
            "--eps", ",".join(map(str, eps))]
    if rng.random() < 0.5:
        argv += ["--c", rng.randint(n, n + 2)]
    if rng.random() < 0.5:
        g = math.gcd(*delta)
        q = rng.choice([d for d in range(1, g + 1) if g % d == 0])
        argv += ["--alpha", f"{rng.randint(q, 12 * q)}/{q}"]
    fmt = rng.choice(("text", "json"))
    argv += ["--format", fmt]
    return _op(argv, {"kind": "bounds", "format": fmt})


def _rank_op(rng: random.Random, slot) -> dict:
    n, delta, eps, size, samples, matrix = slot
    stratum = sorted(rng.sample(range(1, n + 1), size))
    argv = ["rank", "--n", n, "--delta", delta, "--eps", eps]
    if stratum:
        argv += ["--stratum", ",".join(map(str, stratum))]
    argv += ["--samples", samples, "--seed", rng.randrange(10**6)]
    if matrix:
        argv.append("--matrix")
    return _op(argv, {"kind": "rank", "samples": samples})


def _sample_op(rng: random.Random, slot) -> dict:
    n, delta, trials = slot
    argv = ["sample", "--n", n, "--delta", delta, "--trials", trials,
            "--seed", rng.randrange(10**6)]
    return _op(argv, {"kind": "sample", "trials": trials})


def _connection_deck(rng: random.Random) -> list[dict]:
    deck = [_rank_op(rng, slot) for slot in _RANK_SLOTS]
    deck += [_sample_op(rng, slot) for slot in _SAMPLE_SLOTS]
    deck += [_forms_op(rng) for _ in range(_FORMS_SLOTS)]
    deck += [_bounds_op(rng) for _ in range(_BOUNDS_SLOTS)]
    for text in rng.sample(MALFORMED, _MALFORMED_SLOTS):
        op = _op(shlex.split(text), {"kind": "usage"}, expect=2)
        op["out_of_contract"] = True
        deck.append(op)
    return deck


_DECKS = {"jet": _jet_deck, "resolve": _resolve_deck, "connection": _connection_deck}


def decks(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless seeded stream of shuffled decks for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        deck = _DECKS[workload](rng)
        rng.shuffle(deck)
        yield deck


# -- oracle ---------------------------------------------------------------------

_PRINCIPAL_TRUE = '"principal": true'
_PRINCIPAL_FALSE = '"principal": false'


def check(op: dict, code: int, text: str) -> str | None:
    """None when the output passes; otherwise a one-line reason."""
    if code != op["expect"]:
        return f"exit {code}, expected {op['expect']}"
    c = op["check"]
    kind = c["kind"]
    if kind == "verify-jet":
        if c["format"] == "text":
            want = (f"verify-jet n={c['n']}: {c['ideals']} ideals checked, "
                    "0 lift failures, 0 relation failures\n")
            return None if text == want else "unexpected text summary"
        if '\n  "verified": true\n' not in text:
            return "verified is not true"
        if f'\n  "ideals_checked": {c["ideals"]},\n' not in text:
            return "wrong ideals_checked"
        if _PRINCIPAL_FALSE in text or text.count(_PRINCIPAL_TRUE) != c["ideals"]:
            return "a certificate is not principal"
        return None
    if kind == "resolve":
        if c["format"] == "text":
            principal = len(re.findall(r"\): principal$", text, re.M))
            failed = "FAILED" in text
        else:
            principal = text.count(_PRINCIPAL_TRUE)
            failed = _PRINCIPAL_FALSE in text
        if failed or principal != c["targets"]:
            return f"{principal} of {c['targets']} ideals principal"
        return None
    if kind == "rank":
        if '\n  "verified": true\n' not in text:
            return "verified is not true"
        if '"satisfied": false' in text or text.count('"satisfied": true') != c["samples"]:
            return "a rank report is not satisfied"
        return None
    if kind == "sample":
        if '\n  "failures": 0,\n' not in text or f'\n  "trials": {c["trials"]}\n' not in text:
            return "failures is not 0"
        return None
    if kind == "forms":
        return None if '\n  "count": ' in text else "no forms count"
    if kind == "bounds":
        if c["format"] == "json":
            return None if '"effective": {' in text else "no effective bounds"
        return None if text.startswith("n=") and "r_min = " in text else "no bounds table"
    if kind == "usage":
        return None if text.startswith("usage error: ") else "no usage error message"
    raise ValueError(f"unknown check {kind!r}")
