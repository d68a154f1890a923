"""Record the sha256 of stdout for the ops the oracle compares byte for byte.

    python3 perfbench/record_digests.py

Covers every `verify-jet` and `resolve` argv the workloads can generate, and
the first connection decks of the default seed.  Only outputs that already
pass the oracle are recorded.  Rerun only when a change to the program's
output is intended, and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
CONNECTION_DECKS = 12


def all_ops():
    for n, fmt in itertools.product((3, 4), ("json", "text")):
        yield workloads.jet_op(n, fmt)
    for n in range(3, 7):
        for c in range(2, n + 1):
            for k, t, mode, fmt in itertools.product(
                range(c + 1), range(1, n + 1), ("canonical", "minimal"), ("json", "text")
            ):
                yield workloads.resolve_op(n, c, k, t, mode, fmt)
    stream = workloads.decks("connection", DEFAULT_SEED)
    for _ in range(CONNECTION_DECKS):
        yield from next(stream)


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from logres.cli import run_command

    digests = {}
    for op in all_ops():
        try:
            code, text = run_command(op["argv"])
        except Exception:  # a traceback has no output to record
            continue
        if workloads.check(op, code, text) is None:
            digests[workloads.key(op["argv"])] = hashlib.sha256(text.encode()).hexdigest()
    with open(HERE / "digests.json", "w") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
