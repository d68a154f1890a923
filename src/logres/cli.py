"""Command-line front end: resolution runs, jet-chart verification, rank
reports, global form construction, degree bounds, and indeterminacy sampling.

Exit codes: 0 success / all checks verified, 1 verification failure (the
report names the offending certificate), 2 usage error.  All JSON output is
key-sorted and seeded, so identical invocations are byte-identical.

A verb returns either text or a plain payload dict; ``run_command`` stamps
the payload with ``schema_version`` and ``command`` and ``_emit``, the one
encoder, writes it.  Besides JSON's own types ``_emit`` accepts exactly two:
a ``Fraction``, printed as the string "p/q", and a dataclass instance, written
as its fields.  Anything else raises ``TypeError``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import random
import sys
from fractions import Fraction

from . import __version__, bounds, logconn, logjet, residues
from .ratmat import to_text
from .symcore import LogresError, parse_polynomial

DEFAULT_SEED = 1789
SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # Help wraps at a fixed width, not the terminal's COLUMNS, so --help
        # prints the same bytes everywhere; add_parser builds subparsers here too.
        super().__init__(formatter_class=functools.partial(argparse.HelpFormatter, width=78), **kwargs)

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as err:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from err


def _positive_int(text: str) -> int:
    """argparse type for sizes and counts: an integer of at least 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="logres",
        description="exact blow-up resolution and log differential form toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("resolve", help="resolve a fiber-chart obstruction system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--k", type=int, default=None, help="components through the point (default c)")
    p.add_argument("--t", type=int, default=1, help="fiber chart index (default 1)")
    p.add_argument("--mode", choices=("canonical", "minimal"), default="canonical")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-jet", help="verify obstruction-ideal identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("rank", help="exact rank reports for the evaluation map")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta", type=_positive_int, required=True)
    p.add_argument("--eps", type=_positive_int, default=1)
    p.add_argument("--r", type=_positive_int, default=1)
    p.add_argument("--stratum", default="", help="comma-separated vanishing slots")
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--matrix", action="store_true", help="include the matrix text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("forms", help="global log 1-forms for an arrangement")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--components",
        required=True,
        help="semicolon-separated homogeneous polynomials in x0..xn",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="effective degree bounds")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta", required=True, help="comma-separated degrees")
    p.add_argument("--eps", required=True, help="comma-separated twist degrees")
    p.add_argument("--c", type=_positive_int, default=None)
    p.add_argument("--alpha", default=None, help="rational scale p/q to split")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="indeterminacy sampling")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta", type=_positive_int, required=True)
    p.add_argument("--eps", type=_positive_int, default=1)
    p.add_argument("--r", type=_positive_int, default=1)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> _Parser:
    """One parser per process: parsing leaves it unchanged."""
    return build_parser()


def _fields(instance) -> dict:
    """A dataclass instance as the shallow dict of its fields."""
    return {field.name: getattr(instance, field.name) for field in dataclasses.fields(instance)}


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _fields(value)
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _emit(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_encode) + "\n"


# -- verbs ----------------------------------------------------------------------


def _cmd_resolve(args) -> tuple[int, dict | str]:
    k = args.c if args.k is None else args.k
    if args.n < 2:
        raise UsageError("resolve needs n >= 2")
    if args.c > args.n:
        raise UsageError(f"c = {args.c} exceeds n = {args.n}")
    if not (0 <= k <= args.c) or not (1 <= args.t <= args.n):
        raise UsageError(f"need 0 <= k <= c and 1 <= t <= n, got k={k}, t={args.t}")
    resolution, leaves, certificates, failed = _resolve_certificates(
        args.n, args.c, k, args.t, args.mode
    )
    code = 1 if failed else 0
    if args.format == "json":
        params = {
            "n": args.n,
            "c": args.c,
            "k": k,
            "t": args.t,
            "mode": args.mode,
            "seed": args.seed,
        }
        return code, {"params": params, "result": resolution, "certificates": certificates}
    lines = [f"resolution mode={args.mode} n={args.n} c={args.c} k={k} t={args.t}"]
    lines.append(f"stages: {len(resolution['per_stage_systems'])}")
    lines.append(f"leaf charts: {leaves}")
    for entry in certificates:
        status = "principal" if entry.get("principal") else "FAILED"
        lines.append(f"  {entry['ideal']} (I={entry['I']}): {status}")
    return code, "\n".join(lines) + "\n"


def _certify_principal(entry: dict, result, jet, I) -> str | None:
    """Mark a certificate entry principal, with its exceptional divisor per
    leaf, or not principal; returns the reason when it is not.  A mismatch of
    the two obstruction-ideal routes leaves no ideal to certify, so it counts
    as not principal too."""
    try:
        divisor = logjet.verify_principalization(result, jet, I).per_chart
    except LogresError as err:
        entry["principal"] = False
        return str(err)
    entry.update(principal=True, divisor=divisor)
    return None


def _resolve_certificates(
    n: int, c: int, k: int, t: int, mode: str
) -> tuple[dict, int, list, str | None]:
    """The resolution's dict form, its leaf count, the principalization
    certificates and the first target that failed, if any.  The atlas is
    freed when this returns, before the JSON is built."""
    jet, system = logjet.build_obstruction_system(n, c, k, t)
    result = logjet.resolve_obstruction_system(jet, system, mode)

    targets = []
    for i in range(1, c + 1):
        complement = sorted(set(range(1, c + 1)) - {i})
        if complement:
            targets.append((f"complement_of_{i}", complement))
    if mode == "canonical":
        targets.append(("all_components", list(range(1, c + 1))))

    certificates = []
    failed = None
    for name, I in targets:
        # the intersected route; _certify_principal reports a route mismatch
        generators = logjet.obstruction_certificate(jet, I)["generators"]
        entry = {"ideal": name, "I": I, "base_generators": generators}
        error = _certify_principal(entry, result, jet, I)
        if error:
            entry["error"] = error
            failed = failed or name
        certificates.append(entry)
    return result.to_dict(), len(result.leaves()), certificates, failed


def _verify_jet_chart(n: int, k: int, t: int, subsets: list) -> tuple[list, list, list]:
    """Certificates, principality failures and relation failures of one fiber
    chart (c = n).  The chart's atlas is freed when this returns."""
    jet, system = logjet.build_obstruction_system(n, n, k, t)
    result = logjet.resolve_obstruction_system(jet, system, "canonical")
    certificates = []
    principality_failures = []
    for I in subsets:
        cert = logjet.obstruction_certificate(jet, I)
        error = _certify_principal(cert, result, jet, I)
        if error:
            principality_failures.append({"k": k, "t": t, "I": list(I), "error": error})
        certificates.append(cert)
    # The relation is symmetric and holds for I = J: check each unordered
    # pair once, report failures in ordered (I, J) order.
    failed = {
        frozenset((I, J))
        for pos, I in enumerate(subsets)
        for J in subsets[pos + 1:]
        if not logjet.stratum_relation_holds(jet, I, J)
    }
    relation_failures = [
        {"k": k, "t": t, "I": list(I), "J": list(J)}
        for I in subsets
        for J in subsets
        if failed and frozenset((I, J)) in failed
    ]
    return certificates, principality_failures, relation_failures


def _cmd_verify_jet(args) -> tuple[int, dict | str]:
    n = args.n
    if n < 2:
        raise UsageError("verify-jet needs n >= 2")
    c = n
    relation_failures = []
    principality_failures = []
    certificates = []
    subsets = logjet.component_subsets(range(1, c + 1))
    for k in range(0, c + 1):
        for t in range(1, n + 1):
            certs, principality, relations = _verify_jet_chart(n, k, t, subsets)
            certificates += certs
            principality_failures += principality
            relation_failures += relations
    lift_failures = [cert for cert in certificates if not cert["equal"]]
    checked = len(certificates)
    verified = not lift_failures and not relation_failures and not principality_failures
    code = 0 if verified else 1
    if args.format == "text":
        unprincipal = len(principality_failures)  # named only when nonzero
        return code, (
            f"verify-jet n={n}: {checked} ideals checked, "
            f"{len(lift_failures)} lift failures, "
            f"{len(relation_failures)} relation failures"
            f"{f', {unprincipal} principality failures' if unprincipal else ''}\n"
        )
    return code, {
        "params": {"n": n, "c": c},
        "ideals_checked": checked,
        "certificates": certificates,
        "lift_ideal_failures": lift_failures,
        "intersection_failures": relation_failures,
        "principality_failures": principality_failures,
        "verified": verified,
    }


def _connection_context(args) -> logconn.ConnectionContext:
    try:
        return logconn.make_connection_context(args.n, args.eps, args.delta, args.r)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _cmd_rank(args) -> tuple[int, dict]:
    stratum = frozenset(_int_list(args.stratum))
    ctx = _connection_context(args)
    if not stratum <= set(ctx.stratum_candidates()):
        raise UsageError(
            f"stratum {sorted(stratum)} not attainable; "
            f"vanishing slots are {ctx.stratum_candidates()}"
        )
    rng = random.Random(args.seed)
    reports = []
    all_ok = True
    for _ in range(args.samples):
        vector = logconn.random_log_tangent_vector(ctx, rng, stratum)
        entry = _fields(vector)  # basepoint, xi0, xi
        if args.matrix:
            # one pass over the blocks: the report is read off the printed matrix
            _, matrix = logconn.connection_matrix(ctx, vector, stratum)
            report = logconn.rank_report(ctx, stratum, [any(row) for row in matrix])
            entry["matrix"] = to_text(matrix)
        else:
            report = logconn.connection_rank(ctx, vector, stratum)
        entry.update(_fields(report))
        reports.append(entry)
        all_ok = all_ok and report.satisfied
    params = {
        "n": args.n,
        "delta": args.delta,
        "eps": args.eps,
        "r": args.r,
        "stratum": sorted(stratum),
        "samples": args.samples,
        "seed": args.seed,
    }
    return (0 if all_ok else 1), {"params": params, "reports": reports, "verified": all_ok}


def _cmd_forms(args) -> tuple[int, dict]:
    variables = residues.projective_variables(args.n)
    texts = [part.strip() for part in args.components.split(";") if part.strip()]
    if not texts:
        raise UsageError("no components given")
    polys = []
    for text in texts:
        try:
            poly = parse_polynomial(text, variables)
        except ValueError as err:
            raise UsageError(f"cannot parse component {text!r}: {err}") from err
        if poly.total_degree() < 1:
            raise UsageError(f"component {text!r} is constant, not a hypersurface")
        polys.append(poly)
    try:
        arrangement = residues.DivisorArrangement.make(args.n, polys)
        forms = residues.construct_global_log_forms(arrangement)
    except (ValueError, LogresError) as err:
        return 1, {"error": str(err)}
    return 0, {
        "params": {"n": args.n, "components": texts},
        "count": len(forms),
        "degrees": arrangement.degrees,
        "forms": residues.forms_on_charts(arrangement, forms),
        "residue_matrix": residues.residue_matrix(forms),
    }


def _cmd_bounds(args) -> tuple[int, dict | str]:
    delta = _int_list(args.delta)
    eps = _int_list(args.eps)
    alpha = None
    if args.alpha is not None:
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError) as err:
            raise UsageError(f"bad rational {args.alpha!r}") from err
    try:
        report = bounds.effective_bounds(args.n, delta, eps)
        threshold = None if args.c is None else bounds.degree_threshold(args.n, args.c, delta)
        split = None if alpha is None else bounds.reconstruct_parameters(alpha, delta)
    except (ValueError, LogresError) as err:
        raise UsageError(str(err)) from err
    if args.format == "json":
        payload = {"effective": report}
        if threshold is not None:
            payload["threshold"] = threshold
        if split is not None:
            payload["reconstruction"] = split
        return 0, payload
    lines = [
        f"n={report.n}  applicable={'yes' if report.applicable else 'no'}",
        f"{'i':>3} {'delta':>6} {'eps':>5} {'b':>8} {'m':>10}",
    ]
    for i, (d, e, b, m) in enumerate(
        zip(report.delta, report.eps, report.b, report.m), start=1
    ):
        lines.append(f"{i:>3} {d:>6} {e:>5} {b:>8} {m:>10}")
    lines.append(f"r_min = {report.r_min}")
    if threshold is not None:
        lines.append(
            f"m_threshold = {threshold.m_threshold}  chain_holds = {threshold.chain_holds}"
            + (f"  alpha_min = {threshold.alpha_min}" if threshold.alpha_min else "")
        )
    if split is not None:
        lines.append(
            f"alpha = {split.alpha}: r = {split.r}, eps = {list(split.eps)}, valid = {split.valid}"
        )
    return 0, "\n".join(lines) + "\n"


def _cmd_sample(args) -> tuple[int, dict]:
    ctx = _connection_context(args)
    try:
        report = logconn.sample_indeterminacy(ctx, args.trials, args.seed)
    except ValueError as err:
        raise UsageError(str(err)) from err
    params = {
        "n": args.n,
        "delta": args.delta,
        "eps": args.eps,
        "r": args.r,
        "trials": args.trials,
        "seed": args.seed,
    }
    return (0 if report.failures == 0 else 1), {"params": params, **_fields(report)}


_HANDLERS = {
    "resolve": _cmd_resolve,
    "verify-jet": _cmd_verify_jet,
    "rank": _cmd_rank,
    "forms": _cmd_forms,
    "bounds": _cmd_bounds,
    "sample": _cmd_sample,
}


def run_command(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit status, output text)."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            args = _parser().parse_args(argv)
        code, output = _HANDLERS[args.verb](args)
    except SystemExit:
        # argparse exits only after printing --help or --version; its parse
        # errors raise UsageError (see _Parser.error)
        return 0, printed.getvalue()
    except UsageError as err:
        return 2, f"usage error: {err}\n"
    except LogresError as err:
        return 1, f"verification failure: {err}\n"
    if isinstance(output, dict):
        output = _emit({"schema_version": SCHEMA_VERSION, "command": args.verb, **output})
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as err:
            return 2, f"usage error: cannot write --out {args.out!r}: {err.strerror}\n"
        return code, ""
    return code, output


def main(argv: list[str] | None = None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if code == 2:
        sys.stderr.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
