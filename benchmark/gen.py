"""Seeded input generators for the benchmark workloads.

The event and modal grammars are frozen copies of the random generators the
test suite uses (c07, c08 and c10), kept here so that a later change to the
tests cannot shift a workload.  The workloads draw from them at a fixed
input size (number of events, atoms and variables), because the cost of a
query grows steeply with that size: with the tests' mixed sizes, which lists
land in a run would decide its timing more than the code does.

Every generator takes a `random.Random` built from the workload name and
the seed, so the same seed always yields the same inputs; `digest`
fingerprints them for the result record.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from oracle import evaluate, parse, variables_of

EVENT_OPS = ["+", "*", "|", "&", "->", "<->"]
VARIABLES = ["x", "y"]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def random_event(rng: random.Random, variables, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.12:
            return rng.choice(["0", "1"])
        return rng.choice(variables)
    op = rng.choice(EVENT_OPS + ["~", "^", "."])
    if op == "~":
        return "~(" + random_event(rng, variables, depth - 1) + ")"
    if op == "^":
        return "(" + random_event(rng, variables, depth - 1) + ")^" + str(rng.randint(2, 3))
    if op == ".":
        return str(rng.randint(2, 3)) + ".(" + random_event(rng, variables, depth - 1) + ")"
    left = random_event(rng, variables, depth - 1)
    right = random_event(rng, variables, depth - 1)
    return f"({left} {op} {right})"


def random_modal(rng: random.Random, atoms, depth: int) -> str:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.08:
            return rng.choice(["0", "1"])
        return rng.choice(atoms)
    op = rng.choice(EVENT_OPS + ["~", "^"])
    if op == "~":
        return "~(" + random_modal(rng, atoms, depth - 1) + ")"
    if op == "^":
        return "(" + random_modal(rng, atoms, depth - 1) + ")^" + str(rng.randint(2, 3))
    left = random_modal(rng, atoms, depth - 1)
    right = random_modal(rng, atoms, depth - 1)
    return f"({left} {op} {right})"


def coherent_book(rng: random.Random, events: list[str]) -> tuple[list[str], list]:
    """A state's prices, and the state: valuations with positive weights.

    Valuations are drawn on the grid with denominator 4 and combined with
    random positive integer weights, so the book is coherent by definition
    and needs no call into the library to construct.
    """
    trees = [parse(e) for e in events]
    names = variables_of(trees)
    prices = [Fraction(0)] * len(events)
    weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    total = sum(weights)
    state = []
    for w in weights:
        env = {n: Fraction(rng.randint(0, 4), 4) for n in names}
        state.append([str(Fraction(w, total)), {n: str(v) for n, v in env.items()}])
        for i, tree in enumerate(trees):
            prices[i] += Fraction(w, total) * evaluate(tree, env)
    return [str(p) for p in prices], state


def grid_book(rng: random.Random, k: int) -> list[str]:
    """Prices on the grid with denominator 8.  They are not redrawn until
    incoherent: telling needs the coherent set, which only the library under
    test computes.  The books record gives the share proved incoherent."""
    return [str(Fraction(rng.randint(0, 8), 8)) for _ in range(k)]


def _covering_events(rng: random.Random, count: int, max_depth: int, min_depth: int = 1) -> list[str]:
    """`count` events over x and y that mention both variables between them.

    Draws that miss a variable are redrawn, which fixes the dimension of
    the cube the library decomposes.
    """
    while True:
        events = [random_event(rng, VARIABLES[:2], rng.randint(min_depth, max_depth)) for _ in range(count)]
        if len(variables_of([parse(e) for e in events])) == 2:
            return events


def books_queries(rng: random.Random):
    """c07 grammar at a fixed size: three events of depth <= 3 over x and y.

    One query asks, of one event list, the coherence of a book built from a
    state, the coherence of a grid book, and the extension of the first book
    to one more event.
    """
    while True:
        events = _covering_events(rng, 3, max_depth=3)
        book, state = coherent_book(rng, events)
        yield {
            "op": "books",
            "events": events,
            "book": book,
            "state": state,
            "grid": grid_book(rng, len(events)),
            "new": random_event(rng, VARIABLES[:2], rng.randint(1, 3)),
        }


# One query in this many is a deduction-exponent query (c10 grammar); the
# rest are consequence queries (c08 grammar).
LDT_EVERY = 5


def _modal_pair(rng: random.Random, atoms: list[str], max_depth: int) -> tuple[str, str]:
    """Premise and conclusion that mention every atom between them."""
    while True:
        phi = random_modal(rng, atoms, rng.randint(0, max_depth))
        psi = random_modal(rng, atoms, rng.randint(0, max_depth))
        if all(a in phi or a in psi for a in atoms):
            return phi, psi


def entail_queries(rng: random.Random):
    """Modal formulas over exactly two atoms P(e1), P(e2), the events over
    x and y of depth <= 2."""
    i = 0
    while True:
        i += 1
        events = _covering_events(rng, 2, max_depth=2, min_depth=0)
        if events[0] == events[1]:
            continue
        atoms = [f"P({e})" for e in events]
        if i % LDT_EVERY == 0:
            phi, psi = _modal_pair(rng, atoms, 2)
            yield {"op": "ldt", "premise": phi, "conclusion": psi}
        else:
            phi, psi = _modal_pair(rng, atoms, 3)
            yield {"op": "entail", "premise": phi, "conclusion": psi}


def _small_events(rng: random.Random, max_events: int) -> list[str]:
    variables = VARIABLES[: rng.randint(1, 2)]
    count = rng.randint(1, max_events)
    return [random_event(rng, variables, rng.randint(1, 2)) for _ in range(count)]


CLI_KINDS = ["check", "set", "extend", "prove", "entail", "chi", "ldt", "unify-verify"]


def _cli_query(rng: random.Random, kind: str) -> dict:
    if kind in ("check", "set", "extend", "chi"):
        events = _small_events(rng, 1 if kind == "chi" else 3)
        query: dict = {"op": kind, "events": events}
        if kind == "check":
            query["book"] = coherent_book(rng, events)[0] if rng.random() < 0.5 else grid_book(rng, len(events))
        elif kind == "extend":
            query["book"] = coherent_book(rng, events)[0]
            query["new"] = random_event(rng, VARIABLES[:2], rng.randint(1, 2))
        return query
    events = list(dict.fromkeys(_small_events(rng, 2)))
    atoms = [f"P({e})" for e in events]
    phi = random_modal(rng, atoms, rng.randint(0, 2))
    psi = random_modal(rng, atoms, rng.randint(0, 2))
    if kind == "prove":
        return {"op": "prove", "conclusion": psi}
    if kind == "unify-verify":
        # The identity must mention an atom, or the problem is rejected.
        lhs = phi if "P(" in phi else atoms[0]
        images = {e: random_modal(rng, ["0", "1"] + atoms, rng.randint(0, 1)) for e in events}
        return {"op": "unify-verify", "identities": [[lhs, psi]], "substitution": images}
    return {"op": kind, "premise": phi, "conclusion": psi}


def cli_queries(rng: random.Random):
    """Small queries of every `coh` subcommand family, in turn."""
    i = 0
    while True:
        yield _cli_query(rng, CLI_KINDS[i % len(CLI_KINDS)])
        i += 1


GENERATORS = {
    "books": books_queries,
    "entail": entail_queries,
    "cli": cli_queries,
}


def queries(workload: str, seed: int):
    """The workload's endless query stream for this seed."""
    return GENERATORS[workload](rng_for(workload, seed))


def digest(items: list[dict]) -> str:
    blob = json.dumps(items, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
