"""Every public function and method of the package is reached by a verb.

A small argv of each verb runs under ``sys.setprofile``; every public
(non-underscore) module function, method, classmethod, property and cached
property defined in ``src/logres`` must be entered at least once.  A helper
that only the tests call belongs in ``tests/oracles.py``.
"""

import importlib
import inspect
import pkgutil
import sys
from functools import cached_property

import logres
from logres import cli

ARGV = [
    ["verify-jet", "--n", "2"],
    ["verify-jet", "--n", "2", "--format", "text"],
    ["resolve", "--n", "3", "--c", "3"],
    ["resolve", "--n", "3", "--c", "3", "--mode", "minimal", "--format", "text"],
    ["rank", "--n", "2", "--delta", "2", "--stratum", "1", "--samples", "2"],
    ["rank", "--n", "2", "--delta", "2", "--matrix"],
    ["forms", "--n", "2", "--components", "x0; x1; x0^2 + x1^2 + x2^2"],
    ["bounds", "--n", "2", "--delta", "7,8", "--eps", "1,1", "--c", "2", "--alpha", "201"],
    ["bounds", "--n", "2", "--delta", "7,8", "--eps", "1,1", "--c", "2", "--alpha", "201",
     "--format", "json"],
    ["sample", "--n", "2", "--delta", "4", "--trials", "5"],
]

# Public names no verb reaches, each kept for a reason outside the verbs.
ALLOWED = {
    # the console entry point; the verbs above run through run_command
    "cli.main",
    # each of the next four is named by a per-layer metric in BENCHMARK.json,
    # and perfbench/selftest.py fails when a named function is not traced;
    # they move to tests/oracles.py when those metrics are replaced
    "blowup.Atlas.substitution_to_root",  # .calls and .total_s
    "logconn.component_value",  # .calls
    "monideal.MonomialIdeal.make",  # .calls and .total_s
    "multiindex.CoefficientVector.make",  # .total_s
}


def _function(raw):
    """The plain function behind a class attribute, or None."""
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    elif isinstance(raw, property):
        raw = raw.fget
    elif isinstance(raw, cached_property):
        raw = raw.func
    return raw if inspect.isfunction(raw) else None


def public_functions() -> dict[str, object]:
    """Qualified name -> code object of every public function and method."""
    found = {}
    for info in pkgutil.iter_modules(logres.__path__):
        module = importlib.import_module(f"logres.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    func = _function(raw)
                    if func is not None and not attr.startswith("_"):
                        found[f"{info.name}.{name}.{attr}"] = func.__code__
    return found


def reached_codes() -> set:
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cli._parser.cache_clear()  # build the parser inside the profiled runs
    sys.setprofile(hook)
    try:
        codes = [cli.run_command(argv)[0] for argv in ARGV]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(ARGV)
    return seen


def test_every_public_function_is_reached_by_a_verb():
    functions = public_functions()
    seen = reached_codes()
    unreached = {name for name, code in functions.items() if code not in seen}
    assert ALLOWED <= set(functions), sorted(ALLOWED - set(functions))
    assert unreached - ALLOWED == set(), sorted(unreached - ALLOWED)
    # an allowlisted name that a verb now reaches no longer needs its entry
    assert ALLOWED - unreached == set(), sorted(ALLOWED - unreached)
