"""Start-up time of two checkouts' `coh` command, in fresh interpreters.

    python tests/startup.py OLD/src NEW/src [REPEATS]

For each of two small commands, `coh check --events x --book 1/2 --json`
and `coh fp entail --premise 'P(x)' --conclusion 'P(x)+P(x)' --json`, it
runs REPEATS fresh interpreters per side (default and least 21), the side
that goes first alternating from one repeat to the next, and prints the
median and the quartiles of the wall time of each side and command, in
milliseconds.  Each process imports `coh` from the given `src/` only, and
inherits the rest of the environment: under `PYTHONDONTWRITEBYTECODE=1`
every process compiles the sources again, otherwise the first run of each
side writes the bytecode the later ones load.  Pytest does not collect this
module.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

COMMANDS = {
    "check": ["check", "--events", "x", "--book", "1/2", "--json"],
    "fp entail": ["fp", "entail", "--premise", "P(x)", "--conclusion", "P(x)+P(x)", "--json"],
}
MIN_REPEATS = 21
CLI_MAIN = "import sys; from coh.cli import main; sys.exit(main())"


def run_ms(src: str, argv: list[str]) -> float:
    """Wall time of one `coh` process that imports coh from `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], env=env, stdout=subprocess.DEVNULL, check=True)
    return (perf_counter() - start) * 1000


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = argv[:2]
    repeats = int(argv[2]) if len(argv) == 3 else MIN_REPEATS
    if repeats < MIN_REPEATS:
        print(f"error: at least {MIN_REPEATS} repeats", file=sys.stderr)
        return 2
    times = {(cmd, side): [] for cmd in COMMANDS for side in sides}
    for i in range(repeats):
        order = sides if i % 2 == 0 else sides[::-1]
        for cmd, cmd_argv in COMMANDS.items():
            for side in order:
                times[cmd, side].append(run_ms(side, cmd_argv))
    print(f"python {sys.version.split()[0]}, PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')},"
          f" {repeats} runs per side and command; ms")
    for (cmd, side), runs in times.items():
        q1, median, q3 = statistics.quantiles(runs, n=4)
        print(f"{cmd:<10} {side}  median {median:.1f}  quartiles {q1:.1f}-{q3:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
