"""The benchmark's tracer and outputs against the library, without running
the benchmark.

`benchmark/spans.py` wraps layer functions and `Polytope` methods by name,
so renaming one of them breaks a traced benchmark run; this catches that in
the test suite.  Neither benchmark file is edited: they are imported as
they are, and a few queries of each workload's seeded stream run plain and
traced.  A longer prefix of each stream pins the output bytes (see
`golden.py`): a change meant to move them updates `GOLDEN` and says so.
"""

import pytest

from golden import BENCH, digest

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


# Queries of seed 1 and the sha256 of their sorted-key JSON verdicts.
GOLDEN = {
    "books": (30, "0631da1dda66f0c222d937be9d65e72d925baf7efd4833684ca3f52f85dc3e84"),
    "entail": (150, "a08867f0599a17e4c5238c6eda95b334dd5b8b56e595735d572976a853a6d3cd"),
    "cli": (30, "b680703f6f5dcb85529fe9236619214afe9395b5430afce88e5bc6aeba6c7f11"),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_golden_outputs(bench, workload):
    count, expected = GOLDEN[workload]
    assert digest(workload, 1, count) == expected
