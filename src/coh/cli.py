"""Command-line front end.

Subcommands: check, set, extend, chi, ldt, fp prove, fp entail,
unify verify, unify generality, batch.  Prices are accepted only as exact
rationals ("p/q" or integers); decimal input is rejected because certificates
would silently lose exactness.  With --json every result is a single JSON
document on stdout, byte-identical across identical invocations.

Exit codes: 0 for any decided query (regardless of verdict), 2 for parse or
validation errors, 3 when a size cap is exceeded.  The caps (MAX_EVENTS 6
events, MAX_INNER_VARS 4 inner variables, MAX_DEPTH formula depth 12) guard
the double-description blow-up.  Nesting past the parser's own cap
(formula.MAX_NESTING) also exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coherence import Book, EventList, IncoherentBookError, check_book, coherent_set, extension_interval
from .exact import parse_rational, rat_str
from .formula import (
    NestingError, ParseError, canonical_serialize, formula_depth, modal_atoms, parse_event, parse_modal
)
from .polytope import FacetDimensionError

# The runners that need fplogic import it themselves: check, set and extend never load it.

MAX_EVENTS = 6
MAX_INNER_VARS = 4
MAX_DEPTH = 12


class CapExceeded(ValueError):
    pass


def _enforce_caps(event_list: EventList, formulas=()) -> None:
    if len(event_list) > MAX_EVENTS:
        raise CapExceeded(f"{len(event_list)} events exceed the cap of {MAX_EVENTS}")
    if event_list.context.arity > MAX_INNER_VARS:
        raise CapExceeded(
            f"{event_list.context.arity} propositional variables exceed the cap of {MAX_INNER_VARS}"
        )
    _enforce_depth(*event_list.events, *formulas)


def _enforce_depth(*formulas) -> None:
    for f in formulas:
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
    _enforce_caps(ev.extended_with(psi))
    try:
        lo, hi = extension_interval(ev, _parse_book(book), psi)
    except IncoherentBookError as err:
        return err.verdict.to_json_dict()
    return {"lo": rat_str(lo), "hi": rat_str(hi)}


def _enforce_modal_caps(*formulas) -> None:
    atoms = modal_atoms(*formulas)
    if atoms:
        _enforce_caps(EventList(atoms), formulas)
    else:
        _enforce_depth(*formulas)


def run_entail(premise, conclusion) -> dict:
    from .fplogic import decide_consequence
    phi, psi = parse_modal(premise), parse_modal(conclusion)
    _enforce_modal_caps(phi, psi)
    return decide_consequence(phi, psi).to_json_dict()


def run_chi(events) -> dict:
    from .fplogic import oneset_formula
    ev = _parse_events(events)
    _enforce_caps(ev)
    chi = oneset_formula(coherent_set(ev).polytope)
    return {"events": ev.labels(), "formula": canonical_serialize(chi), "verified": True}


def run_ldt(premise, conclusion) -> dict:
    from .fplogic import deduction_exponent
    phi, psi = parse_modal(premise), parse_modal(conclusion)
    _enforce_modal_caps(phi, psi)
    exponent = deduction_exponent(phi, psi)
    if exponent is None:
        return {"holds": False}
    return {"holds": True, "exponent": exponent}


def _unification_problem(identities):
    """The problem of the identities, with every side within the caps."""
    from .fplogic import UnificationProblem
    problem = UnificationProblem([tuple(pair) for pair in identities])
    _enforce_modal_caps(*(side for pair in problem.identities for side in pair))
    return problem


def run_unify_verify(identities, substitution) -> dict:
    from .fplogic import ProbSubstitution, verify_unifier
    problem = _unification_problem(identities)
    subst = ProbSubstitution(substitution)
    _enforce_modal_caps(*subst.images.values())
    return {"holds": verify_unifier(problem, subst)}


def run_unify_generality(identities, sigma, tau, delta) -> dict:
    from .fplogic import ProbSubstitution, verify_generality
    problem = _unification_problem(identities)
    sigma, tau, delta = (ProbSubstitution(m) for m in (sigma, tau, delta))
    # τ's images range over δ's domain, not over the atoms of σ and δ's images.
    _enforce_modal_caps(*tau.images.values())
    _enforce_modal_caps(*sigma.images.values(), *delta.images.values())
    return {"holds": verify_generality(sigma, tau, delta, problem)}


def _texts(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# What a query field must hold: a description and a test.
_TEXT = ("a string", lambda v: isinstance(v, str))
_TEXTS = ("a list of strings", _texts)
_BOOK = (
    'a list of exact rationals written as strings ("p/q"), or an object of them keyed by the events',
    lambda v: _texts(v) or (isinstance(v, dict) and _texts(list(v.values()))),
)
_PAIRS = (
    "a list of [left, right] pairs of strings",
    lambda v: isinstance(v, list)
    and all(isinstance(p, (list, tuple)) and len(p) == 2 and _texts(list(p)) for p in v),
)
_MAP = ("an object whose values are strings", lambda v: isinstance(v, dict) and _texts(list(v.values())))

# Each operation's runner, and the fields passed to it, in order.
_OPERATIONS = {
    "check": (run_check, {"events": _TEXTS, "book": _BOOK}),
    "set": (run_set, {"events": _TEXTS}),
    "extend": (run_extend, {"events": _TEXTS, "book": _BOOK, "new": _TEXT}),
    "prove": (lambda conclusion: run_entail("1", conclusion), {"conclusion": _TEXT}),
    "entail": (run_entail, {"premise": _TEXT, "conclusion": _TEXT}),
    "chi": (run_chi, {"events": _TEXTS}),
    "ldt": (run_ldt, {"premise": _TEXT, "conclusion": _TEXT}),
    "unify-verify": (run_unify_verify, {"identities": _PAIRS, "substitution": _MAP}),
    "unify-generality": (
        run_unify_generality, {"identities": _PAIRS, "sigma": _MAP, "tau": _MAP, "delta": _MAP}
    ),
}
# Without an "op" key, the first operation whose keys a query has.
_INFERRED = [
    ({"identities", "sigma", "tau", "delta"}, "unify-generality"),
    ({"identities"}, "unify-verify"),
    ({"premise", "conclusion"}, "entail"),
    ({"conclusion"}, "prove"),
    ({"new"}, "extend"),
    ({"book"}, "check"),
    ({"events"}, "set"),
]


def _parse_query(query) -> tuple:
    """(runner, arguments) of a query document; a ValueError names the
    first field that is missing or malformed.  A book given as an object
    is turned into the list of its events' prices."""
    if not isinstance(query, dict):
        raise ValueError(f"a query must be a JSON object, not {type(query).__name__}")
    op = query.get("op")
    if op is None:
        op = next((op for keys, op in _INFERRED if keys <= query.keys()), None)
        if op is None:
            raise ValueError(f"cannot infer operation from keys {sorted(query)}")
    if not isinstance(op, str) or op not in _OPERATIONS:
        raise ValueError(f"unknown op {op!r}")
    runner, fields = _OPERATIONS[op]
    args = []
    for name, (what, ok) in fields.items():
        if name not in query:
            raise ValueError(f"query field {name!r} is missing")
        value = query[name]
        if not ok(value):
            raise ValueError(f"query field {name!r} must be {what}")
        if name == "book" and isinstance(value, dict):
            missing = [e for e in query["events"] if e not in value]
            if missing:
                raise ValueError(f"query field 'book' has no price for event {missing[0]!r}")
            value = [value[e] for e in query["events"]]
        args.append(value)
    return runner, args


def run_query(query: dict) -> dict:
    """Check and run one query document: see `_OPERATIONS` and `_INFERRED`."""
    runner, args = _parse_query(query)
    return runner(*args)


# The errors a query can raise: a cap exceeded exits 3, anything else 2.
_CAPPED = (CapExceeded, FacetDimensionError, NestingError)
_INVALID = (ParseError, ValueError, KeyError, OSError, json.JSONDecodeError)


def run_batch(path: str) -> tuple[list, int]:
    """One entry per query of a batch file, and the exit code: its verdict,
    or {"error": message, "exit": code} with an `error: batch query i:` line
    on stderr.  The batch exits with the highest code of its queries."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    queries = doc.get("queries") if isinstance(doc, dict) else doc
    if not isinstance(queries, list):
        raise ValueError("a batch file must hold a list of queries, or an object with a 'queries' list")
    results, worst = [], 0
    for i, query in enumerate(queries):
        try:
            results.append(run_query(query))
        except _CAPPED + _INVALID as err:
            code = 3 if isinstance(err, _CAPPED) else 2
            print(f"error: batch query {i}: {err}", file=sys.stderr)
            results.append({"error": str(err), "exit": code})
            worst = max(worst, code)
    return results, worst


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


_EVENTS = ("--events", {"nargs": "+", "required": True})
_PAIR = [("--premise", {"required": True}), ("--conclusion", {"required": True})]

# The subcommands in help order: their help line, and their options as
# (name, add_argument keywords), or a table of their own subcommands.
_COMMANDS = {
    "check": ("decide coherence of a book", [
        _EVENTS, ("--book", {"nargs": "+", "required": True, "help": 'prices, e.g. "1/2" 1'})]),
    "set": ("compute the coherent set of an event list", [_EVENTS]),
    "extend": ("coherent extension interval for a new event", [
        _EVENTS, ("--book", {"nargs": "+", "required": True}), ("--new", {"required": True})]),
    "chi": ("synthesize a formula whose oneset is the coherent set", [_EVENTS]),
    "ldt": ("least n with premise^n -> conclusion provable", _PAIR),
    "fp": ("probability-logic queries", {
        "prove": ("theoremhood of a modal formula", [("formula", {})]),
        "entail": ("consequence between modal formulas", _PAIR),
    }),
    "unify": ("probabilistic unification checks", {
        "verify": ("verify a substitution unifies identities", [
            ("--file", {"help": "query file with identities and substitution"}),
            ("--identity", {"action": "append", "default": [], "metavar": "LHS=RHS"}),
            ("--map", {"action": "append", "default": [], "metavar": "EVENT=MODAL",
                       "help": "image of the atom P(EVENT)"})]),
        "generality": ("verify sigma = delta∘tau on a problem", [
            ("--file", {"required": True, "help": "query file with identities, sigma, tau, delta"})]),
    }),
    "batch": ("run a JSON file of queries", [("file", {})]),
}


def _add_subcommands(sub, table: dict, names) -> None:
    for name in names:
        help_text, options = table[name]
        p = sub.add_parser(name, help=help_text)
        if isinstance(options, dict):  # fp and unify: dest fpcmd, unifycmd
            _add_subcommands(p.add_subparsers(dest=name + "cmd", required=True), options, options)
            continue
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The argument parser.  When `argv` starts with a subcommand only that
    subcommand's parser is built; the usage line still lists them all."""
    parser = argparse.ArgumentParser(prog="coh", description=__doc__.splitlines()[0])
    chosen = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(chosen) == 1 else None
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    _add_subcommands(sub, _COMMANDS, chosen)
    return parser


def _split_pairs(items, what: str) -> list[tuple[str, str]]:
    out = []
    for item in items:
        if "=" not in item:
            raise ValueError(f"{what} must be written LEFT=RIGHT: {item!r}")
        left, right = item.split("=", 1)
        out.append((left.strip(), right.strip()))
    return out


# The options that carry over by name into a run_query document.
_QUERY_FIELDS = ("events", "book", "new", "premise", "conclusion")


def _query_of(args) -> dict:
    """The run_query document of a parsed command line."""
    query = {key: value for key, value in vars(args).items() if key in _QUERY_FIELDS}
    if args.cmd == "fp":
        op = args.fpcmd
        if op == "prove":
            query["conclusion"] = args.formula
    elif args.cmd == "unify":
        op = "unify-" + args.unifycmd
        if args.file:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError(f"--file must hold a JSON object, not {type(doc).__name__}")
            query.update(doc)
        else:
            query["identities"] = _split_pairs(args.identity, "--identity")
            query["substitution"] = dict(_split_pairs(args.map, "--map"))
    else:
        op = args.cmd
    query["op"] = op
    return query


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        if args.cmd == "batch":
            result, code = run_batch(args.file)
        else:
            result, code = run_query(_query_of(args)), 0
    except _CAPPED as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except _INVALID as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(result, args.json)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
