"""The coh benchmark: seeded, closed-loop, single-client workloads.

    python3 benchmark/run.py --workload books --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory (and the CLI spawned from it), so nothing needs installing.
One client sends the next query only after the previous one has returned.

The seed fixes an endless stream of queries.  With `--trace 0` the run
sends queries until they have taken `--seconds` in all (and number at
least MIN_QUERIES) and prints the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it runs a fixed prefix of the stream twice, plain and then
with spans around every layer, and prints the per-layer metrics.  Either
way every verdict is checked (see check.py) outside the timed region; a
wrong verdict prints `"correct": false` and exits 1.

The last line of stdout is the result object; the line before it is a
record of the environment and the run (inputs digest, failures, trace
self-check).  Spans of a traced run are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A query running longer than this fails (and counts in ok_ratio).
QUERY_LIMIT_S = 10.0
# Fresh interpreters timed for setup_s, spread evenly over the timed loop.
SETUP_RUNS = 15
MIN_QUERIES = 100
# Queries a traced run replays, plain and traced: about 25 s in all at the
# first measured commit.
TRACE_QUERIES = {"books": 150, "entail": 600, "cli": 80}
# CLI queries run a second time to check that the output bytes repeat.
CLI_REPEATS = 5

# What a fresh interpreter does after `import coh` before it is ready; the
# smallest query of the workload.
WARMUP = {
    "books": "coh.check_book(['x | y', 'x + y'], ['1/2', '1'])",
    "entail": "coh.decide_consequence('P(x)', 'P(x) + P(x)')",
    "cli": "import coh.cli; coh.cli.main(['check', '--events', 'x', '--book', '1/2', '--json'])",
}
CLI_MAIN = "import sys; from coh.cli import main; sys.exit(main())"

# Layers each workload is meant to exercise: the traced self-check fails if
# one of them records no call.
EXPECTED_LAYERS = {
    "books": [
        "formula.parse", "pwl.mcnaughton", "pwl.refinement", "polytope.cut",
        "polytope.intersect", "polytope.hull", "polytope.membership",
        "exact.rank", "simplex.lp", "coherence.coherent_set", "coherence.check_book",
        "coherence.extension",
    ],
    "entail": [
        "formula.parse", "pwl.mcnaughton", "pwl.refinement", "polytope.cut", "simplex.lp",
        "coherence.coherent_set", "fplogic.consequence", "fplogic.deduction",
    ],
    "cli": [
        "cli.run_query", "formula.parse", "pwl.mcnaughton", "pwl.oneset", "polytope.halfspaces",
        "fplogic.oneset_formula", "fplogic.verify_oneset", "fplogic.consequence",
    ],
}
# Where the profile behind the workload choice put most self time.
EXPECTED_DOMINANT = {
    "books": ("polytope.cut_s", "pwl."),
    "entail": ("simplex.lp_s",),
    "cli": ("cli.process_overhead_ms",),
}


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so library handlers pass it on."""


def _alarm(signum, frame):
    raise QueryTimeout()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# Running one query.


def cli_argv(query: dict) -> list[str]:
    op = query["op"]
    if op == "check":
        return ["check", "--events", *query["events"], "--book", *query["book"], "--json"]
    if op in ("set", "chi"):
        return [op, "--events", *query["events"], "--json"]
    if op == "extend":
        return ["extend", "--events", *query["events"], "--book", *query["book"],
                "--new", query["new"], "--json"]
    if op == "prove":
        return ["fp", "prove", query["conclusion"], "--json"]
    if op == "entail":
        return ["fp", "entail", "--premise", query["premise"], "--conclusion", query["conclusion"], "--json"]
    if op == "ldt":
        return ["ldt", "--premise", query["premise"], "--conclusion", query["conclusion"], "--json"]
    if op == "unify-verify":
        argv = ["unify", "verify"]
        for lhs, rhs in query["identities"]:
            argv += ["--identity", f"{lhs}={rhs}"]
        for event, image in query["substitution"].items():
            argv += ["--map", f"{event}={image}"]
        return argv + ["--json"]
    raise ValueError(op)


def spawn(argv: list[str], limit: float, stdout=subprocess.PIPE) -> tuple[int, bytes, bytes]:
    """Run a child to completion, killing it after `limit` seconds.

    A watchdog thread does the killing: `subprocess.run(timeout=...)` polls
    for the exit with sleeps of up to 50 ms, which would quantize the
    timings measured around it.
    """
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=stdout, stderr=subprocess.PIPE)
    fired = threading.Event()

    def kill():
        fired.set()
        proc.kill()

    watchdog = threading.Timer(limit, kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    if fired.is_set():
        raise subprocess.TimeoutExpired(argv, limit)
    return proc.returncode, out, err


def run_process(query: dict) -> str:
    """One fresh `coh` process; its stdout is the verdict."""
    code, out, err = spawn([sys.executable, "-c", CLI_MAIN, *cli_argv(query)], QUERY_LIMIT_S)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.decode(errors='replace').strip()}")
    return out.decode()


def run_in_process(query: dict) -> str:
    """The same query through `cli.run_query`, rendered as the CLI prints it."""
    import coh.cli

    return json.dumps(coh.cli.run_query(query)) + "\n"


def run_api(query: dict):
    """books and entail queries through the public library API."""
    import coh

    op = query["op"]
    if op == "books":
        events = query["events"]
        book = [coh.parse_rational(p) for p in query["book"]]
        grid = [coh.parse_rational(p) for p in query["grid"]]
        verdict = {
            "book": coh.check_book(events, book).to_json_dict(),
            "grid": coh.check_book(events, grid).to_json_dict(),
        }
        try:
            lo, hi = coh.extension_interval(events, book, query["new"])
        except coh.IncoherentBookError as err:
            verdict["extension"] = err.verdict.to_json_dict()
        else:
            verdict["extension"] = {"lo": coh.rat_str(lo), "hi": coh.rat_str(hi)}
        return verdict
    if op == "entail":
        return coh.decide_consequence(query["premise"], query["conclusion"]).to_json_dict()
    if op == "ldt":
        return {"exponent": coh.deduction_exponent(query["premise"], query["conclusion"])}
    raise ValueError(op)


def attempt(run, query: dict) -> tuple[float, object, str | None]:
    """(seconds, verdict, error); the verdict is None when the query failed."""
    start = perf_counter()
    try:
        if run is run_process:
            verdict = run(query)
        else:
            signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
            try:
                verdict = run(query)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (QueryTimeout, subprocess.TimeoutExpired):
        return perf_counter() - start, None, f"over the {QUERY_LIMIT_S:g} s limit"
    except Exception as err:  # a failed query is counted, not fatal
        return perf_counter() - start, None, f"{type(err).__name__}: {err}"
    return perf_counter() - start, verdict, None


# ---------------------------------------------------------------------------
# Correctness gate.


def verdict_error(workload: str, index: int, query: dict, verdict) -> str | None:
    """Check one completed query's verdict; None when it is right."""
    import check
    import coh

    if workload == "books":
        error = check.books_error(query, verdict, coh.check_book)
    elif workload == "entail":
        error = check.entail_error(query, verdict, coh)
    else:
        expected = run_in_process(query)
        error = None if verdict == expected else f"stdout {verdict!r} != run_query {expected!r}"
        if error is None and index < CLI_REPEATS and run_process(query) != verdict:
            error = "stdout differs between two runs"
        if error is None and query["op"] == "chi":
            error = check.chi_error(query, json.loads(verdict))
    return f"{error}: {json.dumps(query, sort_keys=True)}" if error else None


def gate(workload: str, queries: list[dict], verdicts: list) -> list[str]:
    """Check every completed query's verdict."""
    errors = [verdict_error(workload, i, q, v) for i, (q, v) in enumerate(zip(queries, verdicts)) if v is not None]
    return [e for e in errors if e]


# ---------------------------------------------------------------------------
# Measurements.


def measure_setup(workload: str) -> float:
    """Wall time of a fresh interpreter that imports coh and runs the warm-up."""
    start = perf_counter()
    status, _, err = spawn([sys.executable, "-c", f"import coh\n{WARMUP[workload]}"], 60,
                           stdout=subprocess.DEVNULL)
    took = perf_counter() - start
    if status != 0:
        raise RuntimeError(f"set-up failed: {err.decode(errors='replace').strip()}")
    return took


def cpu_probe_ms(rounds: int = 9) -> list[float]:
    """Times of a fixed exact-arithmetic loop: how fast this core runs now.

    Other tenants of the machine can slow it by half for tens of seconds;
    the probe lets a reader tell such a run from a change in the code.
    """
    times = []
    for _ in range(rounds):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 10_000):
            total += Fraction(1, i % 97 + 1)
        times.append((perf_counter() - start) * 1000)
    return times


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the process that runs the queries: this one, or for the
    CLI the largest child.  It includes the checks made between queries."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(workload: str, stream, seconds: float):
    """Queries from the seeded stream, each sent when the last has returned,
    until they have run for `seconds` in all and number at least MIN_QUERIES.

    Each verdict is checked, and set-up is timed, between queries and
    outside the timing.  Spreading the timed work over the whole run this
    way averages it over more of the machine's slow and fast spells than
    timing it in one block before the checks.
    """
    run = run_process if workload == "cli" else run_api
    queries, latency, verdicts, failures, problems, setup = [], [], [], [], [], []
    busy = 0.0
    while busy < 3 * seconds and (busy < seconds or len(queries) < MIN_QUERIES):
        if len(setup) < SETUP_RUNS and busy >= len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup(workload))
        query = next(stream)
        took, verdict, error = attempt(run, query)
        busy += took
        if error:
            failures.append(f"query {len(queries)}: {error}")
        elif wrong := verdict_error(workload, len(queries), query, verdict):
            problems.append(wrong)
        queries.append(query)
        latency.append(took)
        verdicts.append(verdict)
    completed = sum(v is not None for v in verdicts)
    # A failed query counts at the time it took to fail, so it misses every
    # latency limit below that.
    metrics = {
        "query_p50_ms": statistics.median(latency) * 1000,
        "query_p90_ms": statistics.quantiles(latency, n=10)[-1] * 1000,
        "queries_per_s": completed / busy,
        "ok_ratio": completed / len(queries),
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": statistics.median(setup),
    }
    return queries, verdicts, failures, problems, metrics, setup


def traced_run(workload: str, queries: list[dict]):
    """The queries once plain, then once with spans around every layer."""
    import check
    from spans import Tracer

    plain_run = run_process if workload == "cli" else run_api
    # The traced pass runs in this process; for the CLI that is run_query.
    traced_fn = run_in_process if workload == "cli" else run_api

    plain = [attempt(plain_run, q) for q in queries]
    inproc = [attempt(run_in_process, q) for q in queries] if workload == "cli" else plain

    tracer = Tracer()
    tracer.install()
    unbound = tracer.unbound()
    traced = []
    try:
        for i, q in enumerate(queries):
            tracer.qid = i
            traced.append(attempt(traced_fn, q))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)

    verdicts = [v for _, v, _ in plain]
    problems = [f"binding not wrapped: {name}" for name in unbound]
    for i, ((_, a, _), (_, b, _)) in enumerate(zip(plain, traced)):
        if a != b:
            problems.append(f"traced verdict differs from the plain one at query {i}")
    for layer in EXPECTED_LAYERS[workload]:
        if tracer.calls[layer] == 0:
            problems.append(f"layer {layer} recorded no call")

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    plain_s = sum(t for t, _, _ in inproc)
    traced_s = sum(t for t, _, _ in traced)
    ok = [i for i, (_, v, _) in enumerate(plain) if v is not None and inproc[i][1] is not None]
    metrics = {
        "cli.run_query_ms": statistics.median(inproc[i][0] for i in ok) * 1000 if workload == "cli" else 0.0,
        "cli.process_overhead_ms": (
            statistics.median(plain[i][0] - inproc[i][0] for i in ok) * 1000 if workload == "cli" else 0.0
        ),
        "exact.max_bits": max(
            (check.max_bits(json.loads(v) if isinstance(v, str) else v) for v in verdicts if v is not None),
            default=0,
        ),
        "trace.overhead_ratio": ratio(traced_s, plain_s) - 1,
        "pwl.mcnaughton_cells": counts["pwl.mcnaughton_cells"],
        "pwl.refinement_cells": counts["pwl.refinement_cells"],
        "polytope.intersect_nonempty_ratio": ratio(counts["polytope.intersect_nonempty"], calls["polytope.intersect"]),
        "polytope.hull_kept_ratio": ratio(counts["polytope.hull_vertices_out"], counts["polytope.hull_points_in"]),
        "simplex.lp_infeasible_ratio": ratio(counts["simplex.lp_infeasible"], calls["simplex.lp"]),
        "simplex.lp_mean_size": ratio(counts["simplex.lp_entries"], calls["simplex.lp"]),
        "fplogic.chi_nodes": ratio(counts["fplogic.formula_nodes"], counts["fplogic.formulas"]),
    }
    for name in list(calls) + [layer for layers in EXPECTED_LAYERS.values() for layer in layers]:
        metrics.setdefault(name + "_calls", calls[name])
        metrics.setdefault(name + "_s", self_s[name])

    layer_s = {k: v for k, v in metrics.items() if k.endswith("_s")}
    if workload == "cli":
        layer_s["cli.process_overhead_ms"] = sum(plain[i][0] - inproc[i][0] for i in ok)
    dominant = max(layer_s, key=layer_s.get)
    info = {
        "trace_queries": len(queries),
        "spans": tracer.next_id,
        "spans_file": str((OUT / f"trace-{workload}.json").relative_to(ROOT)),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "dominant_self_time": dominant,
        "dominant_as_profiled": dominant.startswith(EXPECTED_DOMINANT[workload]),
        "top_self_time": sorted(layer_s.items(), key=lambda kv: -kv[1])[:5],
        "self_check": problems or "passed",
    }
    tracer.write(OUT / f"trace-{workload}.json")
    failures = [f"query {i}: {e}" for i, (_, _, e) in enumerate(plain) if e]
    failures += [f"traced query {i}: {e}" for i, (_, _, e) in enumerate(traced) if e]
    return verdicts, failures, metrics, problems, info


# ---------------------------------------------------------------------------
# Entry point.


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def render(names_units: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names_units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARMUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coh" / "__init__.py").is_file():
        print(f"error: no coh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    bench = spec()
    load_start = os.getloadavg()
    probe_start = cpu_probe_ms()

    import coh
    import gen

    with contextlib.redirect_stdout(io.StringIO()):
        exec(WARMUP[args.workload], {"coh": coh})
    stream = gen.queries(args.workload, args.seed)
    if args.trace:
        queries = [next(stream) for _ in range(TRACE_QUERIES[args.workload])]
        verdicts, failures, metrics, problems, info = traced_run(args.workload, queries)
        problems += gate(args.workload, queries, verdicts)
        shown = render(bench["per_layer"], metrics)
    else:
        queries, verdicts, failures, problems, metrics, setup = timed_run(args.workload, stream, args.seconds)
        info = {"setup_runs_s": setup}
        shown = render(bench["end_to_end"], metrics)
    attempted = len(queries)
    failed = sum(v is None for v in verdicts)
    if args.workload == "books":
        # Grid books are not redrawn until incoherent; this is the share the
        # library proved incoherent (each proof is checked by the gate).
        grids = [v["grid"]["coherent"] is False for v in verdicts if v is not None]
        info["grid_incoherent_share"] = sum(grids) / len(grids) if grids else 0.0
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "backend": "gmpy2.mpq" if coh.exact.GMPY2 else "fractions.Fraction",
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "cpu_probe_ms": {"start": statistics.median(probe_start), "end": statistics.median(cpu_probe_ms())},
        "inputs_digest": gen.digest(queries),
        "samples": attempted,
        "query_limit_s": QUERY_LIMIT_S,
        "failures": failures[:20],
        "over_limit": [f for f in failures if "limit" in f],
        "wrong_verdicts": problems[:20],
        **info,
    }
    print(json.dumps({"record": record}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
