"""Spans and counts at the layer boundaries, installed from outside.

Every module binds the names it imports at import time, so a wrapper has to
replace each binding the code calls through, not just the defining one:
`install` swaps every attribute of every loaded `coh` module that is the
original function object, and `unbound` reports any that was missed.
Methods are wrapped on the class, so calls through `self` are caught too.

A span is (id, name, start, end, parent id, query id).  Self time is the
span's duration minus the time covered by its direct children; it is
accumulated online, so the aggregates do not depend on how many spans are
kept for the written trace.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from oracle import dag_size

# Spans beyond this many are still aggregated but not written out.
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [span id, child time]
        self.next_id = 0
        self.qid: int | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []
        self._originals: list[object] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append((sid, name, start, end, parent, tracer.qid))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer.counts, args, out)
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in _coh_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)
        self._originals.append(original)

    def install(self) -> None:
        import coh.cli
        from coh import coherence, exact, formula, fplogic, polytope, pwl, simplex

        functions = [
            (formula.parse_event, "formula.parse", None),
            (formula.parse_modal, "formula.parse", None),
            (pwl.mcnaughton, "pwl.mcnaughton", _count_cells("pwl.mcnaughton_cells")),
            (pwl.common_refinement, "pwl.refinement", _count_refined),
            (pwl.oneset, "pwl.oneset", None),
            (polytope.membership, "polytope.membership", None),
            (exact.mat_rank, "exact.rank", None),
            (simplex.solve_standard, "simplex.lp", _count_lp),
            (coherence.coherent_set, "coherence.coherent_set", None),
            (coherence.check_book, "coherence.check_book", None),
            (coherence.extension_interval, "coherence.extension", None),
            (fplogic.decide_consequence, "fplogic.consequence", None),
            (fplogic.deduction_exponent, "fplogic.deduction", None),
            (fplogic.oneset_formula, "fplogic.oneset_formula", _count_nodes),
            (fplogic.verify_oneset, "fplogic.verify_oneset", None),
            (coh.cli.run_query, "cli.run_query", None),
        ]
        for fn, name, post in functions:
            self._rebind(fn, self.wrap(name, fn, post))

        cls = polytope.Polytope
        for attr, name, post in (
            ("cut", "polytope.cut", None),
            ("intersect", "polytope.intersect", _count_nonempty),
        ):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, post))

        hull = cls.__dict__["from_vertices"]
        self._restore.append((cls, "from_vertices", hull))
        wrapped_hull = self.wrap("polytope.hull", hull.__func__, _count_hull)

        def from_vertices(klass, points):
            return wrapped_hull(klass, list(points))

        setattr(cls, "from_vertices", classmethod(from_vertices))

        facets = cls.__dict__["halfspaces"]
        self._restore.append((cls, "halfspaces", facets))
        timed_facets = self.wrap("polytope.halfspaces", facets.fget)

        def halfspaces(poly):
            if poly._halfspaces is None:
                return timed_facets(poly)
            return poly._halfspaces

        setattr(cls, "halfspaces", property(halfspaces))

    def unbound(self) -> list[str]:
        """Bindings in coh modules that still point at an unwrapped original."""
        missing = []
        for mod in _coh_modules():
            for attr, value in vars(mod).items():
                if any(value is orig for orig in self._originals):
                    missing.append(f"{mod.__name__}.{attr}")
        return missing

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "query"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _coh_modules():
    return [m for name, m in list(sys.modules.items()) if name == "coh" or name.startswith("coh.")]


def _count_cells(key):
    def post(counts, args, out):
        counts[key] += len(out.cells)

    return post


def _count_refined(counts, args, out):
    counts["pwl.refinement_cells"] += len(out[0])


def _count_nonempty(counts, args, out):
    counts["polytope.intersect_nonempty"] += out is not None


def _count_hull(counts, args, out):
    counts["polytope.hull_points_in"] += len(args[1])
    counts["polytope.hull_vertices_out"] += len(out.vertices)


def _count_lp(counts, args, out):
    c, A = args[0], args[1]
    counts["simplex.lp_infeasible"] += out.status == "infeasible"
    counts["simplex.lp_entries"] += len(A) * len(c)


def _count_nodes(counts, args, out):
    counts["fplogic.formulas"] += 1
    counts["fplogic.formula_nodes"] += dag_size(out)
