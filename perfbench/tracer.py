"""In-memory span tracer that wraps the public functions of every logres module.

The tracer lives entirely in the benchmark: it patches functions and methods
from outside the package, records one span per call (name, start, end, parent
span, op id) in flat integer arrays, and folds them into per-function calls,
inclusive time and self time when the run ends.  The hottest functions are
only counted, not timed, so that tracing does not swamp the work it measures.

Each wrapped object is patched where it is looked up, not only where it is
defined: every module global and every class attribute that refers to the
original function is replaced by the same wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from pathlib import Path

# Counters kept besides per-function calls and times.
COUNTERS = (
    "resolution.charts",
    "resolution.centers",
    "logjet.leaves_checked",
    "logjet.not_resolved",
    "cli.output_bytes",
    "logconn.sample_indeterminacy.trials",
    "logconn.matrix_cells",
    "monideal.minimalize.gens_in",
    "monideal.minimalize.gens_out",
)

# Functions whose arguments or result feed the counters (see Tracer._after).
HOOKED = {
    "resolution.resolve_system",
    "logjet.verify_principalization",
    "cli.run_command",
    "logconn.sample_indeterminacy",
    "logconn.connection_matrix",
    "monideal.minimalize",
}

# Dunder methods that are traced; every other dunder is left alone.
TRACED_DUNDERS = {"__init__", "__add__", "__mul__"}

# Called so often that a span per call would dominate the run: count only.
COUNT_ONLY = {
    "symcore.Polynomial.__init__",
    "symcore.Polynomial.__add__",
    "symcore.Polynomial.__mul__",
    "symcore.Polynomial.evaluate",
    "symcore.Polynomial.diff",
    "symcore.Polynomial.constant",
    "symcore.grlex_key",
    "symcore.monomial_string",
    "blowup.push_exponent",
    "blowup.Chart.variable_index",
    "monideal.MonomialIdeal.unit",
    "monideal.MonomialIdeal.contains_monomial",
    "logjet.stratum_prime",
    "logconn.random_fraction",
}


def logres_modules() -> dict[str, object]:
    """Every module of the logres package, keyed by its short name."""
    import logres

    modules = {}
    for info in pkgutil.iter_modules(logres.__path__):
        modules[info.name] = importlib.import_module(f"logres.{info.name}")
    return modules


def _traced_members(short: str, module) -> list[tuple[str, object, str, object]]:
    """(metric name, owner, attribute, raw object) for each traced callable."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{short}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in TRACED_DUNDERS:
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(func):
                    found.append((f"{short}.{name}.{attr}", obj, attr, raw))
    return found


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.count_only: list[int] = []  # call counts, indexed like names
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_outer = array("b")  # 1 unless a same-name span encloses it
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: dict[int, object] = {}  # id(original function) -> wrapper

    # -- counters attached to particular calls --------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

    def _after(self, name: str, args, result) -> None:
        if name == "resolution.resolve_system":
            self.count("resolution.charts", len(result.atlas.charts))
            self.count("resolution.centers", sum(len(r.centers) for r in result.atlas.stage_log))
        elif name == "logjet.verify_principalization":
            self.count("logjet.leaves_checked", len(result.per_chart))
        elif name == "cli.run_command":
            self.count("cli.output_bytes", len(result[1].encode()))
        elif name == "logconn.sample_indeterminacy":
            self.count("logconn.sample_indeterminacy.trials", result.trials)
        elif name == "logconn.connection_matrix":
            self.count("logconn.matrix_cells", sum(len(row) for row in result[1]))
        elif name == "monideal.minimalize":
            self.count("monideal.minimalize.gens_in", len(args[0]))
            self.count("monideal.minimalize.gens_out", len(result))

    def _failed(self, name: str, err: BaseException) -> None:
        if name == "logjet.verify_principalization" and type(err).__name__ == "NotResolved":
            self.count("logjet.not_resolved")

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, index: int, name: str, func):
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, outer = self.span_parent, self.span_op, self.span_outer
        hooked = name in HOOKED
        materialize = name == "monideal.minimalize"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if materialize:
                args = (tuple(args[0]),) + args[1:]
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            outer.append(0 if active[index] else 1)
            ends.append(0)
            active[index] += 1
            stack.append(span)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                ends[span] = clock()
                stack.pop()
                active[index] -= 1
                self._failed(name, err)
                raise
            ends[span] = clock()
            stack.pop()
            active[index] -= 1
            if hooked:
                self._after(name, args, result)
            return result

        return wrapper

    def _counted(self, index: int, func):
        counts = self.count_only

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[index] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = logres_modules()
        originals: dict[int, object] = {}  # id(raw) -> replacement raw
        for short, module in sorted(modules.items()):
            for name, owner, attr, raw in _traced_members(short, module):
                index = len(self.names)
                self.names.append(name)
                self.count_only.append(0)
                self._active.append(0)
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if name in COUNT_ONLY:
                    wrapper = self._counted(index, func)
                else:
                    wrapper = self._timed(index, name, func)
                self.wrapped[id(func)] = wrapper
                originals[id(raw)] = type(raw)(wrapper) if func is not raw else wrapper
        # Patch every place a traced object is looked up: module globals
        # (including names imported from other modules) and class attributes
        # (including aliases such as __radd__ = __add__).
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patch(module, attr, value, originals[id(value)])
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for cattr, raw in list(vars(value).items()):
                        if id(raw) in originals:
                            self._patch(value, cattr, raw, originals[id(raw)])

    def _patch(self, owner, attr: str, old, new) -> None:
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict[str, float | int]:
        """Per-function `calls`, `total_s` (inclusive, outermost spans) and
        `self_s` (minus child spans), plus the named counters."""
        n = len(self.names)
        calls = list(self.count_only)
        total = [0] * n
        own = [0] * n
        child = [0] * len(self.span_start)
        for span in range(len(self.span_start) - 1, -1, -1):
            dur = self.span_end[span] - self.span_start[span]
            index = self.span_name[span]
            calls[index] += 1
            own[index] += dur - child[span]
            if self.span_outer[span]:
                total[index] += dur
            parent = self.span_parent[span]
            if parent >= 0:
                child[parent] += dur
        out: dict[str, float | int] = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index]
            if name not in COUNT_ONLY:
                out[f"{name}.total_s"] = total[index] / 1e9
                out[f"{name}.self_s"] = own[index] / 1e9
        out.update(self.counters)
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as one JSON document: the name table and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op"],\n')
            fh.write(' "names": ' + json.dumps(self.names) + ',\n "spans": [\n')
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
            fh.write(",\n".join(f"[{a},{b},{c},{d},{e}]" for a, b, c, d, e in rows))
            fh.write("\n]}\n")
