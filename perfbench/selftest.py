"""Self-tests of the benchmark's tracer and metric table.

    python3 perfbench/selftest.py

1. Every module of src/logres maps to at least one per-layer metric, and every
   per-layer metric in BENCHMARK.json is one the traced run can produce.
2. The tracer patches each traced function where it is looked up (module
   globals that import it, class attributes and aliases), and restores every
   original when uninstalled.
3. stdout is byte-identical with tracing on and off, on cheap ops from every
   workload.

Exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import COUNT_ONLY, COUNTERS, Tracer, logres_modules  # noqa: E402
# Package marker with no functions; nothing to trace.
UNTRACED_MODULES = {"__init__"}


def _per_layer() -> list[str]:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def test_metric_table() -> list[str]:
    problems = []
    modules = logres_modules()
    names = _per_layer()
    tracer = Tracer()
    tracer.install()
    traced = set(tracer.names)
    tracer.uninstall()
    files = {p.stem for p in (HERE.parent / "src" / "logres").glob("*.py")}
    if files - UNTRACED_MODULES != set(modules):
        problems.append(f"modules on disk {sorted(files)} vs imported {sorted(modules)}")
    for module in sorted(files - UNTRACED_MODULES):
        if not any(name.startswith(module + ".") for name in names):
            problems.append(f"module {module} has no per-layer metric")
    for name in names:
        if name in COUNTERS or name == "trace_overhead":
            continue
        func, _, stat = name.rpartition(".")
        if func not in traced:
            problems.append(f"{name}: {func} is not traced")
        elif stat not in ("calls", "total_s", "self_s") or (stat != "calls" and func in COUNT_ONLY):
            problems.append(f"{name}: {func} does not give {stat}")
    return problems


def test_lookup_sites() -> list[str]:
    problems = []
    modules = logres_modules()
    before = {
        (id(owner), attr): value
        for owner in [*modules.values(), *(c for m in modules.values() for c in vars(m).values()
                                           if inspect.isclass(c))]
        for attr, value in list(vars(owner).items())
    }
    tracer = Tracer()
    tracer.install()
    try:
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if callable(value) and id(value) in tracer.wrapped:
                    problems.append(f"{short}.{attr} still refers to the unwrapped function")
                if inspect.isclass(value):
                    for cattr, raw in vars(value).items():
                        func = getattr(raw, "__func__", raw)
                        if id(func) in tracer.wrapped:
                            problems.append(f"{short}.{attr}.{cattr} is unwrapped")
        m = modules
        for owner, attr, original in (
            (m["resolution"], "blow_up_center", m["blowup"].blow_up_center),
            (m["logjet"], "intersect_monomial_ideals", m["monideal"].intersect_monomial_ideals),
            (m["cli"], "to_text", m["ratmat"].to_text),
        ):
            if getattr(owner, attr) is not original or not hasattr(original, "__wrapped__"):
                problems.append(f"{owner.__name__}.{attr} is not the shared wrapper")
        poly = m["symcore"].Polynomial
        if poly.__radd__ is not poly.__add__ or not hasattr(poly.__add__, "__wrapped__"):
            problems.append("Polynomial.__radd__ alias is not patched")
        for cls, attr in ((m["blowup"].Atlas, "total_transform"), (m["monideal"].MonomialIdeal, "make")):
            if not hasattr(getattr(cls, attr), "__wrapped__"):
                problems.append(f"{cls.__name__}.{attr} is not wrapped")
    finally:
        tracer.uninstall()
    for owner in [*modules.values(), *(c for mod in modules.values() for c in vars(mod).values()
                                       if inspect.isclass(c))]:
        for attr, value in vars(owner).items():
            if before.get((id(owner), attr), value) is not value:
                problems.append(f"{getattr(owner, '__name__', owner)}.{attr} not restored")
    return problems


def test_stdout_unchanged() -> list[str]:
    from logres import cli

    ops = [op for w in workloads.WORKLOADS for op in next(workloads.decks(w, 0))
           if op["argv"][0] in ("verify-jet", "forms", "bounds", "sample")
           and op["argv"][:3] != ["verify-jet", "--n", "4"]]
    ops += [op for op in next(workloads.decks("resolve", 0)) if op["argv"][2] != "6"]
    ops += [op for op in next(workloads.decks("connection", 0)) if op["argv"][:3] == ["rank", "--n", "2"]]

    def digests() -> list[str]:
        out = []
        for op in ops:
            try:
                out.append(hashlib.sha256(cli.run_command(op["argv"])[1].encode()).hexdigest())
            except Exception as err:  # out-of-contract ops may raise; compare the error
                out.append(repr(err))
        return out

    plain = digests()
    tracer = Tracer()
    tracer.install()
    try:
        traced = digests()
    finally:
        tracer.uninstall()
    problems = [f"stdout differs with tracing on: {workloads.key(op['argv'])}"
                for op, a, b in zip(ops, plain, traced) if a != b]
    layers = tracer.aggregate()
    for name in ("cli.run_command.calls", "blowup.Atlas.total_transform.calls",
                 "logconn.random_coefficients.calls", "symcore.Polynomial.__mul__.calls"):
        if not layers.get(name):
            problems.append(f"traced run recorded no {name}")
    return problems


def main() -> int:
    failed = 0
    for test in (test_metric_table, test_lookup_sites, test_stdout_unchanged):
        problems = test()
        print(f"{'ok  ' if not problems else 'FAIL'} {test.__name__}")
        for line in problems:
            print(f"     {line}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
