"""Write BENCH_<label>.json: the benchmark's results and fixed-size cases.

    python3 bench/bench.py --label <label> [--checkout DIR] [--frontier]

Measures the logres checkout at DIR (default: the one holding this file)
and writes BENCH_<label>.json at the root of the checkout holding this
file.  The record holds:

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


def repeated(command: list[str], root: Path) -> dict:
    runs = [measure(command, root) for _ in range(REPEATS)]
    return {
        "runs": runs,
        **{f"median_{key}": statistics.median(run[key] for run in runs)
           for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        "tracemalloc_peak_mb": tracemalloc_peak_mb(command, root),
    }


def cold_start(root: Path) -> dict:
    """Alternating fresh processes of `sample` and of a bare interpreter."""
    commands = {
        "python -m logres.cli " + " ".join(SAMPLE): [sys.executable, "-m", "logres.cli", *SAMPLE],
        "python -c pass": [sys.executable, "-c", "pass"],
    }
    runs = {name: [] for name in commands}
    for _ in range(COLD_STARTS):
        for name, command in commands.items():
            runs[name].append(measure(command, root))
    return {
        name: {
            "median_wall_s": statistics.median(run["wall_s"] for run in these),
            "median_cpu_s": statistics.median(run["cpu_s"] for run in these),
            "runs": these,
        }
        for name, these in runs.items()
    }


def perfbench(root: Path) -> dict:
    """perfbench/run.py per workload, unchanged, traced and untraced."""
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    out = {}
    for workload in workloads:
        for trace in (0, 1):
            command = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--trace", str(trace)]
            proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
            out[f"{workload}.trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def metadata(root: Path) -> dict:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True).stdout.strip()
    return {
        "commit": commit or None,
        "src_logres_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((root / "src" / "logres").glob("*.py"))
        ),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=HERE.parent)
    parser.add_argument("--frontier", action="store_true",
                        help="also run verify-jet --n 7 --format text once")
    args = parser.parse_args()
    root = args.checkout.resolve()
    python = [sys.executable, "-m", "logres.cli"]
    record = {"label": args.label, "metadata": metadata(root)}
    record["perfbench"] = perfbench(root)
    record["cases"] = {name: repeated(python + argv, root) for name, argv in CASES.items()}
    loop = f"{' '.join(SAMPLE)} over seeds 0..{SAMPLE_SEEDS - 1}, in one process"
    record["cases"][loop] = repeated([sys.executable, "-c", SAMPLE_LOOP, *SAMPLE], root)
    record["cold_start"] = cold_start(root)
    if args.frontier:
        record["frontier"] = {"verify-jet --n 7 --format text": measure(
            python + ["verify-jet", "--n", "7", "--format", "text"], root)}
    target = HERE.parent / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(record, indent=1) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
