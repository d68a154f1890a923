"""logres benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload jet|connection|resolve|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  `all` (the default) runs the workloads
listed in BENCHMARK.json, one after another; `resolve` is not listed there
and runs only when named (see README.md).  Each workload runs in its own client
process (`client.py`), started one after another, so that peak RSS belongs
to that workload alone.  With `--trace 0` the run reports the end-to-end
metrics of BENCHMARK.json; with `--trace 1` a separate traced run reports
the per-layer metrics.  Every metric is printed by name with its unit; the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Results, with run metadata, are also written under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # set-up-only clients per run, besides the measuring client
CLIENT_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _client(args: list[str]) -> dict:
    """Run one client process to completion and parse its result."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("LOGRES_THREADS", "LOGRES_TRACE", "PYTHONPATH")}
    cmd = [sys.executable, str(HERE / "client.py"), *args,
           "--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=CLIENT_TIMEOUT_S, check=False, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile).
    With too few samples for that, the maximum (p100)."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def metadata(seed: int) -> dict:
    src = ROOT / "src" / "logres"
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_logres_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def _commit() -> str | None:
    """HEAD commit read from .git without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_client(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    raw = _client(common)
    setups.append(raw["setup_s"])
    # Latencies of ops that passed; only if none passed, of those that failed.
    samples = raw["latencies_s"] or raw["failed_latencies_s"]
    value, percentile = tail(samples)
    values = {
        "ops_per_s": raw["attempted"] / raw["busy_s"],
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_tail_ms": 1000 * value,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    raw["setup_samples_s"] = setups
    raw["tail"] = {"percentile": percentile, "samples": len(samples),
                   "beyond": TAIL_BEYOND}
    return values, raw


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    raw = _client(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1", "--spans", str(spans)])
    return raw.pop("layers"), raw


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    wanted = spec["per_layer" if trace else "end_to_end"]
    values, raw = (per_layer if trace else end_to_end)(workload, seed, seconds)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    ooc = raw["out_of_contract"]
    print(f"== {workload} (seed {seed}, trace {trace})")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload}.{name} = {shown} {metric['unit']}")
    if not trace:
        print(f"{workload}.latency_tail_ms is p{raw['tail']['percentile']:.1f} of "
              f"{raw['tail']['samples']} samples ({TAIL_BEYOND} beyond)")
    print(f"{workload}: {raw['attempted']} ops, {raw['failed']} failed in-contract "
          f"(failed_frac {raw['failed'] / raw['attempted']:.4f}); out-of-contract "
          f"{ooc['failed']} of {ooc['attempted']} not refused with exit 2")
    for line in raw["failures"]:
        print(f"  failed: {line}")
    for line in ooc["failures"]:
        print(f"  out-of-contract, not refused: {line}")
    record = {"workload": workload, "trace": trace, "metadata": metadata(seed),
              "metrics": metrics, "raw": raw}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "logres" / "cli.py").is_file():
        print(f"no logres sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        names = [w["name"] for w in spec["workloads"]]
    else:
        names = [args.workload]
    records = [run_workload(w, args.seed, seconds, args.trace, spec) for w in names]
    print(json.dumps({"metadata": metadata(args.seed)}))
    failed = sum(r["raw"]["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["raw"]["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
