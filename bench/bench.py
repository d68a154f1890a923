"""Write BENCH_<label>.json: the benchmark's results and fixed-size cases.

    python3 bench/bench.py --label <label> [--parent DIR] [--frontier]

Measures the logres checkout holding this file and writes BENCH_<label>.json
at its root.  With --parent it measures the checkout at DIR too, in the same
invocation, and writes BENCH_<short commit of DIR>.json beside the first:
each measurement is taken of both checkouts before the next one starts,
the parent first in even turns and this checkout first in odd ones, so a
drift in host load, or an edge to whichever side runs second, reaches both
files alike.
Each record holds:

- `perfbench`: for each workload of BENCHMARK.json, the last stdout line of
  `perfbench/run.py` run unchanged as a subprocess, once with `--trace 0`
  (end-to-end metrics) and once with `--trace 1` (per-layer metrics);
- `cases`: fixed-size commands, each run 3 times in a fresh `python -m
  logres.cli` process (the `sample` case loops over 40 seeds in one
  process), with each run's wall time, CPU time (user + sys) and peak RSS
  from `os.wait4`, the medians, the exit code and the sha256 of stdout, and
  the Python-level peak of one more run under `-X tracemalloc`;
- `cold_start`: a fresh `sample` command and a bare `python -c pass`, 15
  alternating processes each, with the medians of wall and CPU time;
- `frontier` (only with --frontier): `verify-jet --n 7 --format text`, once;
- `metadata`: the commit, the `src/logres` line count, Python and `nproc`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPEATS = 3
COLD_STARTS = 15
SAMPLE_SEEDS = 40
CASES = {
    "verify-jet --n 5": ["verify-jet", "--n", "5"],
    "verify-jet --n 6": ["verify-jet", "--n", "6"],
    "verify-jet --n 6 --format text": ["verify-jet", "--n", "6", "--format", "text"],
    "resolve --n 6 --c 6": ["resolve", "--n", "6", "--c", "6"],
    "rank --n 3 --delta 4 --eps 2 --samples 2 --matrix":
        ["rank", "--n", "3", "--delta", "4", "--eps", "2", "--samples", "2", "--matrix"],
}
SAMPLE = ["sample", "--n", "2", "--delta", "4", "--trials", "22"]
# One process runs SAMPLE once per seed and prints the exit codes and the
# sha256 of everything the runs printed.
SAMPLE_LOOP = (
    "import hashlib, sys\n"
    "from logres.cli import run_command\n"
    "digest, codes = hashlib.sha256(), set()\n"
    f"for seed in range({SAMPLE_SEEDS}):\n"
    "    code, text = run_command(sys.argv[1:] + ['--seed', str(seed)])\n"
    "    codes.add(code)\n"
    "    digest.update(text.encode())\n"
    "print(sorted(codes), digest.hexdigest())\n"
)


# Prepended to a command's code under -X tracemalloc: print the peak of
# traced memory to stderr at exit, after the command's own SystemExit.
PEAK_AT_EXIT = (
    "import atexit, sys, tracemalloc\n"
    "atexit.register(lambda: print(tracemalloc.get_traced_memory()[1], file=sys.stderr))\n"
)


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LOGRES_TRACE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure(command: list[str], root: Path) -> dict:
    """One fresh process: wall time, its own CPU time and peak RSS, exit code
    and the sha256 of its stdout."""
    with tempfile.TemporaryFile() as out:
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, env=child_env(root), stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
        "sha256": digest.hexdigest(),
    }


def tracemalloc_peak_mb(command: list[str], root: Path) -> float:
    """The peak of Python-level allocations of one more fresh process of
    `command`, `python -m module ...` or `python -c code ...`, traced from
    start-up.  Unlike peak RSS, it does not move with glibc's mmap threshold."""
    python, flag, target, *rest = command
    code = target if flag == "-c" else (
        f"import runpy\nrunpy.run_module({target!r}, run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([python, "-X", "tracemalloc", "-c", PEAK_AT_EXIT + code, *rest],
                          cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return round(int(proc.stderr.split()[-1]) / 2**20, 2)


def in_turn(roots: dict[str, Path], turn: int) -> list[tuple[str, Path]]:
    """The checkouts in the order of one turn: as given in even turns and
    reversed in odd ones, so that neither always runs first."""
    order = list(roots.items())
    return order if turn % 2 == 0 else order[::-1]


def repeated(command: list[str], roots: dict[str, Path]) -> dict:
    """REPEATS fresh processes of `command` per checkout, the checkouts in
    turn within each repeat, then one traced process each; per label."""
    runs = {label: [] for label in roots}
    for turn in range(REPEATS):
        for label, root in in_turn(roots, turn):
            runs[label].append(measure(command, root))
    return {
        label: {
            "runs": these,
            **{f"median_{key}": statistics.median(run[key] for run in these)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")},
            "tracemalloc_peak_mb": tracemalloc_peak_mb(command, roots[label]),
        }
        for label, these in runs.items()
    }


def cold_start(roots: dict[str, Path]) -> dict:
    """Alternating fresh processes of `sample` and of a bare interpreter, the
    checkouts in turn within each round; per label."""
    commands = {
        "python -m logres.cli " + " ".join(SAMPLE): [sys.executable, "-m", "logres.cli", *SAMPLE],
        "python -c pass": [sys.executable, "-c", "pass"],
    }
    runs = {label: {name: [] for name in commands} for label in roots}
    for turn in range(COLD_STARTS):
        for label, root in in_turn(roots, turn):
            for name, command in commands.items():
                runs[label][name].append(measure(command, root))
    return {
        label: {
            name: {
                "median_wall_s": statistics.median(run["wall_s"] for run in these),
                "median_cpu_s": statistics.median(run["cpu_s"] for run in these),
                "runs": these,
            }
            for name, these in by_name.items()
        }
        for label, by_name in runs.items()
    }


def perfbench(roots: dict[str, Path]) -> dict:
    """perfbench/run.py per workload, unchanged, traced and untraced, each
    checkout's own in turn, a turn per workload; per label."""
    out = {label: {} for label in roots}
    workloads = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    for turn, workload in enumerate(workloads):
        for trace in (0, 1):
            command = [sys.executable, "perfbench/run.py", "--workload", workload["name"],
                       "--trace", str(trace)]
            for label, root in in_turn(roots, turn):
                proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                                      check=True)
                out[label][f"{workload['name']}.trace{trace}"] = json.loads(
                    proc.stdout.strip().splitlines()[-1])
    return out


def commit(root: Path, *short: str) -> str:
    """`git rev-parse [--short=7] HEAD` of the checkout, or "" outside git."""
    return subprocess.run(["git", "rev-parse", *short, "HEAD"], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True).stdout.strip()


def metadata(root: Path) -> dict:
    return {
        "commit": commit(root) or None,
        "src_logres_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((root / "src" / "logres").glob("*.py"))
        ),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, default=None, metavar="DIR",
                        help="also measure the checkout at DIR, alternating with this one")
    parser.add_argument("--frontier", action="store_true",
                        help="also run verify-jet --n 7 --format text once per checkout")
    args = parser.parse_args()
    roots = {args.label: HERE.parent}
    if args.parent is not None:
        parent = args.parent.resolve()
        label = commit(parent, "--short=7")
        if not label or label == args.label:
            parser.error(f"--parent {args.parent} needs a git commit other than {args.label!r}")
        roots = {label: parent, **roots}  # the parent runs first in even turns
    python = [sys.executable, "-m", "logres.cli"]
    records = {label: {"label": label, "metadata": metadata(root)} for label, root in roots.items()}
    for label, result in perfbench(roots).items():
        records[label]["perfbench"] = result
    loop = f"{' '.join(SAMPLE)} over seeds 0..{SAMPLE_SEEDS - 1}, in one process"
    commands = {name: python + argv for name, argv in CASES.items()}
    commands[loop] = [sys.executable, "-c", SAMPLE_LOOP, *SAMPLE]
    for record in records.values():
        record["cases"] = {}
    for name, command in commands.items():
        for label, result in repeated(command, roots).items():
            records[label]["cases"][name] = result
    for label, result in cold_start(roots).items():
        records[label]["cold_start"] = result
    if args.frontier:
        frontier = python + ["verify-jet", "--n", "7", "--format", "text"]
        for label, root in roots.items():
            records[label]["frontier"] = {"verify-jet --n 7 --format text": measure(frontier, root)}
    for label, record in records.items():
        target = HERE.parent / f"BENCH_{label}.json"
        target.write_text(json.dumps(record, indent=1) + "\n")
        print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
