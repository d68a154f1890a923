"""The output-only checkers of ``tests/checkers.py`` against printed output."""

import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

from checkers import rank_output_problems
from logres.cli import run_command

HERE = Path(__file__).resolve().parent


def connection_deck(seed):
    """The connection workload's deck for a seed, from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "workloads", HERE.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return next(workloads.decks("connection", seed))


def matrix_argvs():
    return [
        op["argv"] for op in connection_deck(0)
        if op["argv"][0] == "rank" and "--matrix" in op["argv"]
    ]


def test_checkers_import_no_logres_module():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, checkers; print([m for m in sys.modules if m.split('.')[0] == 'logres'])"],
        cwd=HERE, capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.strip() == "[]"


def test_rank_checker_accepts_the_connection_deck():
    argvs = matrix_argvs()
    assert argvs
    for argv in argvs:
        code, text = run_command(argv)
        assert code == 0, shlex.join(argv)
        assert rank_output_problems(text) == [], shlex.join(argv)


def test_rank_checker_refuses_spoiled_output():
    """A block row zeroed, and the printed rank off by one."""
    code, text = run_command(matrix_argvs()[0])
    assert code == 0
    zeroed = json.loads(text)
    report = zeroed["reports"][0]
    lines = report["matrix"].split("\n")
    assert lines[0].strip("0 ")  # the row has a nonzero entry
    lines[0] = " ".join("0" for _ in lines[0].split())
    report["matrix"] = "\n".join(lines)
    assert any(p.startswith("report 0: rank is") for p in rank_output_problems(json.dumps(zeroed)))
    off_by_one = json.loads(text)
    off_by_one["reports"][0]["rank"] += 1
    assert any(p.startswith("report 0: rank is") for p in rank_output_problems(json.dumps(off_by_one)))
