"""In-process query time of two checkouts, in fresh interpreters.

    python tests/inproc.py OLD/src NEW/src WORKLOAD COUNT [REPEATS]

WORKLOAD is `books` or `entail`.  Each fresh interpreter imports `coh` from
one side's `src/` only, and `benchmark/gen.py` and `benchmark/run.py` from
this checkout, unedited.  It builds the first COUNT queries of the seed-1
stream of WORKLOAD, runs them all through `run.run_api` three times, and
reports its best pass, so that interpreter start, imports and query
generation stay outside the time.  REPEATS interpreters run per side
(default and least 5), the side that goes first alternating from one
repeat to the next; the script prints the median and the quartiles of the
best passes of each side, in seconds, and in how many of the pairs (one
interpreter per side each) the second checkout was faster.  Pytest does
not collect this module.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
WORKLOADS = ("books", "entail")
MIN_REPEATS = 5
PASSES = 3
CHILD = f"""
import sys
from time import perf_counter
import gen, run
stream = gen.queries(sys.argv[1], 1)
queries = [next(stream) for _ in range(int(sys.argv[2]))]
best = float("inf")
for _ in range({PASSES}):
    start = perf_counter()
    for query in queries:
        run.run_api(query)
    best = min(best, perf_counter() - start)
print(best)
"""


def best_pass(src: str, workload: str, count: int) -> float:
    """The best of the passes of one fresh interpreter that imports coh from `src`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(BENCH)]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, workload, str(count)], env=env, capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5) or argv[2] not in WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides, workload, count = argv[:2], argv[2], int(argv[3])
    repeats = int(argv[4]) if len(argv) == 5 else MIN_REPEATS
    if repeats < MIN_REPEATS:
        print(f"error: at least {MIN_REPEATS} repeats", file=sys.stderr)
        return 2
    times: list[list[float]] = [[], []]
    for i in range(repeats):
        for j in (0, 1) if i % 2 == 0 else (1, 0):
            times[j].append(best_pass(sides[j], workload, count))
    print(f"python {sys.version.split()[0]}, {workload}, first {count} queries of seed 1,"
          f" {repeats} interpreters per side, best of {PASSES} passes each; s")
    for side, runs in zip(sides, times):
        q1, median, q3 = statistics.quantiles(runs, n=4)
        print(f"{side}  median {median:.3f}  quartiles {q1:.3f}-{q3:.3f}")
    wins = sum(new < old for old, new in zip(*times))
    print(f"{sides[1]} faster in {wins} of {repeats} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
