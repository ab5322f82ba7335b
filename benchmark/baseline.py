"""Measure the current commit twice on ten seeds and record it as a baseline.

    python3 benchmark/baseline.py

Runs `run.py` with tracing off once per seed 1-10 and workload, then does
the same a second time, and then runs each workload once with tracing on.
It writes `benchmark/baseline.json`: for every end-to-end metric and each
of the two sets, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median); how far the second
median is worse than the first, as a share of the first; whether both stay
within the metric's bound in BENCHMARK.json; the wall time of every run;
and the per-layer numbers of the traced run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    wall = perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), wall


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def measure_set(workload: str, seconds: int) -> dict:
    per_metric: dict[str, list[float]] = {}
    probes, walls, records = [], [], []
    for seed in SEEDS:
        record, result, wall = run_once(workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        probes.append(record["cpu_probe_ms"])
        walls.append(wall)
        records.append(record)
        print(workload, seed, f"{wall:.1f}s", {k: round(v[-1], 4) for k, v in per_metric.items()},
              probes[-1], flush=True)
    return {
        "end_to_end": {name: summary(values) for name, values in per_metric.items()},
        "cpu_probe_ms": probes,
        "run_wall_s": walls,
        "grid_incoherent_share": [r.get("grid_incoherent_share") for r in records],
        "record": records[0],
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    spec = {m["name"]: m for m in bench["end_to_end"]}

    sets = [{w: measure_set(w, seconds) for w in workloads} for _ in range(SETS)]
    doc: dict = {"run_seconds": seconds, "seeds": SEEDS, "sets": SETS, "workloads": {}}
    for workload in workloads:
        runs = [s[workload] for s in sets]
        metrics = {}
        for name, m in spec.items():
            first, second = (r["end_to_end"][name] for r in runs)
            change = (second["median"] - first["median"]) / first["median"]
            worse_by = change if m["better"] == "lower" else -change
            metrics[name] = {
                "sets": [first, second],
                "second_median_worse_by": worse_by,
                "spread_within_bound": all(s["spread"] <= m["bound"] for s in (first, second)),
                "spread_within_third_of_bound": all(s["spread"] < m["bound"] / 3 for s in (first, second)),
                "shift_within_bound": worse_by <= m["bound"],
            }
            print(f"{workload:7s} {name:16s} medians {first['median']:10.4f} {second['median']:10.4f} "
                  f"spreads {first['spread']:.3f} {second['spread']:.3f} worse_by {worse_by:+.3f}", flush=True)
        trace_record, traced, trace_wall = run_once(workload, SEEDS[0], seconds, 1)
        record = runs[0]["record"]
        doc["workloads"][workload] = {
            "why": why[workload],
            "environment": {k: record[k] for k in ("commit", "python", "backend", "nproc")},
            "end_to_end": metrics,
            "cpu_probe_ms": [r["cpu_probe_ms"] for r in runs],
            "run_wall_s": [r["run_wall_s"] for r in runs] + [[trace_wall]],
            **({"grid_incoherent_share": [r["grid_incoherent_share"] for r in runs]} if workload == "books" else {}),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "trace": {k: trace_record[k] for k in (
                "dominant_self_time", "dominant_as_profiled", "top_self_time", "self_check")},
        }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
