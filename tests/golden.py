"""Digests of the benchmark's output bytes, for a byte-identity check.

`digest(workload, seed, count)` runs the first `count` queries of a
workload's seeded stream (`benchmark/gen.py`) through `benchmark/run.py`:
`run_api` for books and entail, `run_in_process` for cli.  It returns the
sha256 of `json.dumps(verdicts, sort_keys=True)`.  `test_golden_outputs`
compares a short prefix with recorded digests.

Run as a script from the root of a checkout, it prints the digests of the
first 200 queries of seeds 1-3 on every workload, nine lines in all:

    PYTHONPATH=src python tests/golden.py

Running it on two checkouts and comparing the lines shows whether a change
moved any output byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
WORKLOADS = ("books", "entail", "cli")


def digest(workload: str, seed: int, count: int) -> str:
    """sha256 of the sorted-key JSON verdicts of the first `count` queries.

    `benchmark/` must be on `sys.path`.
    """
    import gen
    import run

    stream = gen.queries(workload, seed)
    query_fn = run.run_in_process if workload == "cli" else run.run_api
    verdicts = [query_fn(next(stream)) for _ in range(count)]
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            print(workload, seed, digest(workload, seed, 200), flush=True)
