"""The single benchmark client: one process, one thread, one op at a time.

Started by `run.py`, once per workload (and a few more times with
`--setup-only` to time set-up).  It imports logres from the checkout's
`src/`, builds the seeded ops, runs one untimed warm-up command and then a
closed loop: each `run_command(argv)` call starts when the previous one has
returned and been checked.  It prints one JSON object with raw measurements;
`run.py` turns them into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_LISTED_FAILURES = 20


def _load_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from logres import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"logres imported from {cli.__file__}, not from the checkout")
    return cli


def _digests() -> dict[str, str]:
    with open(Path(__file__).with_name("digests.json")) as fh:
        return json.load(fh)["digests"]


def _call(cli, op: dict, digests: dict[str, str]) -> tuple[float, str, str | None]:
    """Run one op; returns (seconds, stdout sha256, failure reason or None)."""
    start = time.perf_counter()
    try:
        code, text = cli.run_command(op["argv"])
    except Exception as err:  # an escaped exception is a failed op, not a crash
        elapsed = time.perf_counter() - start
        return elapsed, "", f"{type(err).__name__} escaped run_command: {err}"
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(text.encode()).hexdigest()
    reason = workloads.check(op, code, text)
    recorded = digests.get(workloads.key(op["argv"]))
    if reason is None and recorded is not None and recorded != digest:
        reason = "stdout differs from the recorded digest"
    return elapsed, digest, reason


class Tally:
    """Outcomes of in-contract and out-of-contract ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed_latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.digests_checked = 0
        self.ooc_attempted = 0
        self.ooc_failures: list[str] = []
        self.ooc_failed = 0

    def add(self, op: dict, elapsed: float, reason: str | None, checked: bool) -> None:
        self.attempted += 1
        self.busy += elapsed
        self.digests_checked += checked
        line = f"{workloads.key(op['argv'])}: {reason}"
        if op.get("out_of_contract"):
            self.ooc_attempted += 1
            if reason:
                self.ooc_failed += 1
                if line not in self.ooc_failures:
                    self.ooc_failures.append(line)
        elif reason:
            self.failed += 1
            self.failed_latencies.append(elapsed)
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(line)
        else:
            self.latencies.append(elapsed)

    def to_dict(self) -> dict:
        return {
            "latencies_s": self.latencies,
            "failed_latencies_s": self.failed_latencies,
            "busy_s": self.busy,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "digests_checked": self.digests_checked,
            "out_of_contract": {
                "attempted": self.ooc_attempted,
                "failed": self.ooc_failed,
                "failures": self.ooc_failures[:MAX_LISTED_FAILURES],
            },
        }


def timed_loop(cli, stream, seconds: float, digests) -> Tally:
    """Whole decks until `seconds` of wall time have passed."""
    tally = Tally()
    start = time.perf_counter()
    for deck in stream:
        for op in deck:
            elapsed, _, reason = _call(cli, op, digests)
            tally.add(op, elapsed, reason, workloads.key(op["argv"]) in digests)
        if time.perf_counter() - start >= seconds:
            return tally


def traced_run(cli, stream, count: int, digests, spans_path: Path) -> dict:
    """The first `count` decks untraced, then traced: per-layer stats and
    tracing overhead, and a check that tracing leaves stdout unchanged."""
    from tracer import Tracer

    ops = [op for _ in range(count) for op in next(stream)]
    plain, traced = Tally(), Tally()
    plain_digests = []
    for op in ops:
        elapsed, digest, reason = _call(cli, op, digests)
        plain.add(op, elapsed, reason, False)
        plain_digests.append(digest)
    tracer = Tracer()
    tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.op = index
            elapsed, digest, reason = _call(cli, op, digests)
            if reason is None and digest != plain_digests[index]:
                reason = "stdout differs with tracing on"
            traced.add(op, elapsed, reason, False)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    result = traced.to_dict()
    result["failed"] += plain.failed
    result["failures"] = plain.failures + traced.failures
    result["layers"] = tracer.aggregate()
    result["layers"]["trace_overhead"] = traced.busy / plain.busy
    result["spans"] = len(tracer.span_start)
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    cli = _load_cli()
    digests = _digests()
    stream = workloads.decks(args.workload, args.seed)
    first = next(stream)  # input generation
    code, _ = cli.run_command(workloads.WARMUP[args.workload])
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if code != 0:
        raise SystemExit(f"warm-up command exited {code}")
    stream = itertools.chain([first], stream)
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = traced_run(cli, stream, workloads.TRACE_DECKS[args.workload], digests, args.spans)
    else:
        result = timed_loop(cli, stream, args.seconds, digests).to_dict()
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
