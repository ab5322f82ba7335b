"""Command-line front end.

Subcommands: check, set, extend, chi, ldt, fp prove, fp entail,
unify verify, unify generality, batch.  Prices are accepted only as exact
rationals ("p/q" or integers); decimal input is rejected because certificates
would silently lose exactness.  With --json every result is a single JSON
document on stdout, byte-identical across identical invocations.

Exit codes: 0 for any decided query (regardless of verdict), 2 for parse or
validation errors, 3 when a size cap is exceeded.  Caps (defaults: 6 events,
4 inner variables, formula depth 12) guard the double-description blow-up;
COH_MAX_DIM overrides the event cap at your own risk.  Nesting past the
parser's own cap (formula.MAX_NESTING) also exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coherence import Book, EventList, IncoherentBookError, check_book, coherent_set, extension_interval
from .exact import parse_rational, rat_str
from .formula import NestingError, ParseError, canonical_serialize, formula_depth, parse_event, parse_modal
from .polytope import FacetDimensionError
from .fplogic import (
    ProbSubstitution,
    UnificationProblem,
    decide_consequence,
    deduction_exponent,
    oneset_formula,
    verify_generality,
    verify_unifier,
)

MAX_EVENTS = 6
MAX_INNER_VARS = 4
MAX_DEPTH = 12


class CapExceeded(ValueError):
    pass


def _max_events() -> int:
    override = os.environ.get("COH_MAX_DIM")
    if override:
        try:
            cap = int(override)
        except ValueError:
            raise CapExceeded(f"COH_MAX_DIM is not an integer: {override!r}") from None
        from . import polytope

        polytope.MAX_FACET_DIM = max(polytope.MAX_FACET_DIM, cap)
        return cap
    return MAX_EVENTS


def _enforce_caps(event_list: EventList, formulas=()) -> None:
    cap = _max_events()
    if len(event_list) > cap:
        raise CapExceeded(f"{len(event_list)} events exceed the cap of {cap}")
    if event_list.context.arity > MAX_INNER_VARS:
        raise CapExceeded(
            f"{event_list.context.arity} propositional variables exceed the cap of {MAX_INNER_VARS}"
        )
    for f in list(event_list.events) + list(formulas):
        if formula_depth(f) > MAX_DEPTH:
            raise CapExceeded(f"formula depth {formula_depth(f)} exceeds the cap of {MAX_DEPTH}")


def _parse_events(texts) -> EventList:
    return EventList([parse_event(t) for t in texts])


def _parse_book(texts) -> Book:
    return Book([parse_rational(t) for t in texts])


# ---------------------------------------------------------------------------
# Query execution; each returns a JSON-able dict.


def run_check(events, book) -> dict:
    ev = _parse_events(events)
    _enforce_caps(ev)
    return check_book(ev, _parse_book(book)).to_json_dict()


def run_set(events) -> dict:
    ev = _parse_events(events)
    _enforce_caps(ev)
    cs = coherent_set(ev)
    return {
        "events": ev.labels(),
        "vertices": [[rat_str(x) for x in v] for v in cs.polytope.vertices],
        "boolean_point": [rat_str(x) for x in cs.boolean_point()],
    }


def run_extend(events, book, new) -> dict:
    ev = _parse_events(events)
    psi = parse_event(new)
    _enforce_caps(ev, [psi])
    try:
        lo, hi = extension_interval(ev, _parse_book(book), psi)
    except IncoherentBookError as err:
        return err.verdict.to_json_dict()
    return {"lo": rat_str(lo), "hi": rat_str(hi)}


def _enforce_modal_caps(*formulas) -> None:
    from .formula import modal_atoms

    atoms: dict[str, object] = {}
    for f in formulas:
        for event in modal_atoms(f):
            atoms.setdefault(canonical_serialize(event), event)
    if atoms:
        _enforce_caps(EventList(list(atoms.values())), formulas)


def run_prove(formula) -> dict:
    psi = parse_modal(formula)
    _enforce_modal_caps(psi)
    return decide_consequence("1", psi).to_json_dict()


def run_entail(premise, conclusion) -> dict:
    phi, psi = parse_modal(premise), parse_modal(conclusion)
    _enforce_modal_caps(phi, psi)
    return decide_consequence(phi, psi).to_json_dict()


def run_chi(events) -> dict:
    ev = _parse_events(events)
    _enforce_caps(ev)
    cs = coherent_set(ev)
    chi = oneset_formula(cs.polytope)
    return {
        "events": ev.labels(),
        "formula": canonical_serialize(chi),
        "verified": True,
    }


def run_ldt(premise, conclusion) -> dict:
    phi, psi = parse_modal(premise), parse_modal(conclusion)
    _enforce_modal_caps(phi, psi)
    exponent = deduction_exponent(phi, psi)
    if exponent is None:
        return {"holds": False}
    return {"holds": True, "exponent": exponent}


def _parse_substitution(mapping: dict) -> ProbSubstitution:
    return ProbSubstitution(dict(mapping))


def run_unify_verify(identities, substitution) -> dict:
    problem = UnificationProblem([tuple(pair) for pair in identities])
    _enforce_caps(problem.atoms)
    sub = _parse_substitution(substitution)
    return {"holds": verify_unifier(problem, sub)}


def run_unify_generality(identities, sigma, tau, delta) -> dict:
    problem = UnificationProblem([tuple(pair) for pair in identities])
    _enforce_caps(problem.atoms)
    return {
        "holds": verify_generality(
            _parse_substitution(sigma), _parse_substitution(tau), _parse_substitution(delta), problem
        )
    }


def run_query(query: dict) -> dict:
    """Dispatch one batch-file query.

    The "op" key wins when present; otherwise the operation is inferred from
    the fields: identities+sigma/tau/delta -> unify generality,
    identities+substitution -> unify verify, premise+conclusion -> entail,
    conclusion alone -> prove, events+book+new -> extend, events+book ->
    check, events alone -> set.
    """
    op = query.get("op")
    if op is None:
        if "identities" in query and {"sigma", "tau", "delta"} <= query.keys():
            op = "unify-generality"
        elif "identities" in query:
            op = "unify-verify"
        elif "premise" in query and "conclusion" in query:
            op = "entail"
        elif "conclusion" in query:
            op = "prove"
        elif "new" in query:
            op = "extend"
        elif "book" in query:
            op = "check"
        elif "events" in query:
            op = "set"
        else:
            raise ValueError(f"cannot infer operation from keys {sorted(query)}")
    if op == "check":
        book = query["book"]
        if isinstance(book, dict):
            book = [book[e] for e in query["events"]]
        return run_check(query["events"], book)
    if op == "set":
        return run_set(query["events"])
    if op == "extend":
        book = query["book"]
        if isinstance(book, dict):
            book = [book[e] for e in query["events"]]
        return run_extend(query["events"], book, query["new"])
    if op == "prove":
        return run_prove(query["conclusion"])
    if op == "entail":
        return run_entail(query["premise"], query["conclusion"])
    if op == "chi":
        return run_chi(query["events"])
    if op == "ldt":
        return run_ldt(query["premise"], query["conclusion"])
    if op == "unify-verify":
        return run_unify_verify(query["identities"], query["substitution"])
    if op == "unify-generality":
        return run_unify_generality(
            query["identities"], query["sigma"], query["tau"], query["delta"]
        )
    raise ValueError(f"unknown op {op!r}")


def run_batch(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    queries = doc["queries"] if isinstance(doc, dict) else doc
    return [run_query(q) for q in queries]


# ---------------------------------------------------------------------------
# Rendering.


def _emit(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result))
        return
    if isinstance(result, list):
        for item in result:
            _emit(item, False)
        return
    if "coherent" in result:
        if result["coherent"]:
            witness = result["witness"]
            print("coherent")
            for point, weight in zip(witness["points"], witness["weights"]):
                print(f"  weight {weight} at valuation ({', '.join(point)})")
        else:
            db = result["dutch_book"]
            stakes = ", ".join(str(s) for s in db["stakes"])
            print(f"incoherent: stakes ({stakes}) guarantee loss {db['guaranteed_loss']}")
    elif "lo" in result:
        print(f"coherent extensions: [{result['lo']}, {result['hi']}]")
    elif "formula" in result:
        print(result["formula"])
    elif "vertices" in result:
        print("coherent set vertices:")
        for v in result["vertices"]:
            print(f"  ({', '.join(v)})")
    elif "exponent" in result:
        print(f"holds with least exponent {result['exponent']}")
    elif "holds" in result:
        if result["holds"]:
            print("holds")
        elif "countermodel" in result:
            parts = ", ".join(f"P({e}) = {p}" for e, p in result["countermodel"].items())
            print(f"fails; countermodel book: {parts}")
        else:
            print("fails")
    else:
        print(json.dumps(result))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="decide coherence of a book")
    p.add_argument("--events", nargs="+", required=True)
    p.add_argument("--book", nargs="+", required=True, help='prices, e.g. "1/2" 1')
    add_json(p)

    p = sub.add_parser("set", help="compute the coherent set of an event list")
    p.add_argument("--events", nargs="+", required=True)
    add_json(p)

    p = sub.add_parser("extend", help="coherent extension interval for a new event")
    p.add_argument("--events", nargs="+", required=True)
    p.add_argument("--book", nargs="+", required=True)
    p.add_argument("--new", required=True)
    add_json(p)

    p = sub.add_parser("chi", help="synthesize a formula whose oneset is the coherent set")
    p.add_argument("--events", nargs="+", required=True)
    add_json(p)

    p = sub.add_parser("ldt", help="least n with premise^n -> conclusion provable")
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    add_json(p)

    fp = sub.add_parser("fp", help="probability-logic queries")
    fpsub = fp.add_subparsers(dest="fpcmd", required=True)
    p = fpsub.add_parser("prove", help="theoremhood of a modal formula")
    p.add_argument("formula")
    add_json(p)
    p = fpsub.add_parser("entail", help="consequence between modal formulas")
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    add_json(p)

    un = sub.add_parser("unify", help="probabilistic unification checks")
    unsub = un.add_subparsers(dest="unifycmd", required=True)
    p = unsub.add_parser("verify", help="verify a substitution unifies identities")
    p.add_argument("--file", help="query file with identities and substitution")
    p.add_argument("--identity", action="append", default=[], metavar="LHS=RHS")
    p.add_argument("--map", action="append", default=[], metavar="EVENT=MODAL",
                   help="image of the atom P(EVENT)")
    add_json(p)
    p = unsub.add_parser("generality", help="verify sigma = delta∘tau on a problem")
    p.add_argument("--file", required=True, help="query file with identities, sigma, tau, delta")
    add_json(p)

    p = sub.add_parser("batch", help="run a JSON file of queries")
    p.add_argument("file")
    add_json(p)
    return parser


def _split_pairs(items, what: str) -> list[tuple[str, str]]:
    out = []
    for item in items:
        if "=" not in item:
            raise ValueError(f"{what} must be written LEFT=RIGHT: {item!r}")
        left, right = item.split("=", 1)
        out.append((left.strip(), right.strip()))
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "check":
            result = run_check(args.events, args.book)
        elif args.cmd == "set":
            result = run_set(args.events)
        elif args.cmd == "extend":
            result = run_extend(args.events, args.book, args.new)
        elif args.cmd == "chi":
            result = run_chi(args.events)
        elif args.cmd == "ldt":
            result = run_ldt(args.premise, args.conclusion)
        elif args.cmd == "fp" and args.fpcmd == "prove":
            result = run_prove(args.formula)
        elif args.cmd == "fp" and args.fpcmd == "entail":
            result = run_entail(args.premise, args.conclusion)
        elif args.cmd == "unify" and args.unifycmd == "verify":
            if args.file:
                with open(args.file, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                result = run_unify_verify(doc["identities"], doc["substitution"])
            else:
                identities = _split_pairs(args.identity, "--identity")
                mapping = dict(_split_pairs(args.map, "--map"))
                result = run_unify_verify(identities, mapping)
        elif args.cmd == "unify" and args.unifycmd == "generality":
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            result = run_unify_generality(doc["identities"], doc["sigma"], doc["tau"], doc["delta"])
        elif args.cmd == "batch":
            result = run_batch(args.file)
        else:  # pragma: no cover
            raise AssertionError(args.cmd)
    except (CapExceeded, FacetDimensionError, NestingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(result, args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
