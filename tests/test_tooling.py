"""The benchmark's tracer against the library, without running the benchmark.

`benchmark/spans.py` wraps layer functions and `Polytope` methods by name,
so renaming one of them breaks a traced benchmark run; this catches that in
the test suite.  Neither benchmark file is edited: they are imported as
they are, and a few queries of each workload's seeded stream run plain and
traced.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
PREFIX = {"books": 3, "entail": 5, "cli": 12}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import gen
    import run
    import spans

    return gen, run, spans


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_traced_queries_match_plain(bench, workload):
    gen, run, spans = bench
    stream = gen.queries(workload, 1)
    queries = [next(stream) for _ in range(PREFIX[workload])]
    query_fn = run.run_in_process if workload == "cli" else run.run_api
    plain = [query_fn(q) for q in queries]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unbound() == []
        traced = [query_fn(q) for q in queries]
    finally:
        tracer.uninstall()
    assert traced == plain
    missing = [layer for layer in run.EXPECTED_LAYERS[workload] if tracer.calls[layer] == 0]
    assert missing == []
