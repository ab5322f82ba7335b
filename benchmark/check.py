"""Verdict checks, run outside the timed region.

Each check returns None for an accepted verdict and a message otherwise.
Certificates are re-checked with the oracles of `oracle.py`; where a check
needs a certificate the verdict does not carry (a countermodel's coherence,
a failed exponent, the ends of an extension interval), it asks the library
for one and then checks that certificate the same way, so no library answer
is taken on trust.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd

from oracle import atoms_of, evaluate, grid, parse, variables_of

ONE = Fraction(1)
# How far outside a claimed extension interval a price is tried, and shown
# incoherent; halved where it would leave [0, 1].
EXTENSION_STEP = Fraction(1, 256)
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def max_bits(value) -> int:
    """Largest numerator/denominator bit length among the rationals in a
    JSON-like verdict."""
    if isinstance(value, bool) or value is None:
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, str):
        if not _RATIONAL.match(value):
            return 0
        q = Fraction(value)
        return max(abs(q.numerator).bit_length(), q.denominator.bit_length())
    items = value.values() if isinstance(value, dict) else value
    return max((max_bits(v) for v in items), default=0)


def _images(event_trees, points, names):
    return [tuple(evaluate(t, dict(zip(names, p))) for t in event_trees) for p in points]


def witness_error(events: list[str], prices: list[Fraction], witness: dict) -> str | None:
    """A state witness: valuations in the cube whose weighted images are the book."""
    trees = [parse(e) for e in events]
    names = variables_of(trees)
    points = [tuple(Fraction(x) for x in p) for p in witness["points"]]
    weights = [Fraction(w) for w in witness["weights"]]
    if not weights or any(w <= 0 for w in weights) or sum(weights) != 1:
        return "witness weights are not a convex combination"
    if any(len(p) != len(names) or any(not 0 <= x <= 1 for x in p) for p in points):
        return "witness valuation outside the cube"
    images = _images(trees, points, names)
    for i, price in enumerate(prices):
        if sum(w * img[i] for w, img in zip(weights, images)) != price:
            return f"witness does not reproduce price {i}"
    return None


def dutch_book_error(events: list[str], prices: list[Fraction], dutch: dict) -> str | None:
    """Integer stakes of content 1 that lose at least the stated amount at
    every valuation of the Farey grid."""
    stakes = dutch["stakes"]
    loss = Fraction(dutch["guaranteed_loss"])
    if loss <= 0 or len(stakes) != len(prices):
        return "Dutch book without a positive loss"
    if gcd(*(abs(s) for s in stakes)) != 1:
        return "Dutch-book stakes are not reduced"
    trees = [parse(e) for e in events]
    names = variables_of(trees)
    for image in _images(trees, grid(len(names)), names):
        payoff = sum(s * (p - f) for s, p, f in zip(stakes, prices, image))
        if payoff > -loss:
            return f"Dutch book wins {payoff} at a grid valuation"
    return None


def book_error(events: list[str], prices: list[Fraction], verdict: dict) -> str | None:
    if verdict.get("coherent") is True:
        return witness_error(events, prices, verdict["witness"])
    if verdict.get("coherent") is False:
        return dutch_book_error(events, prices, verdict["dutch_book"])
    return f"not a coherence verdict: {verdict}"


def _state_value(tree, state) -> Fraction:
    """Price of an event under a state; variables the state leaves free are
    set to 0, which extends every valuation without changing the book."""
    names = variables_of([tree])
    total = Fraction(0)
    for w, env in state:
        point = {n: Fraction(env.get(n, 0)) for n in names}
        total += Fraction(w) * evaluate(tree, point)
    return total


def extension_error(events: list[str], prices: list[Fraction], new: str,
                    lo: Fraction, hi: Fraction, check_book) -> str | None:
    """Both ends of the interval extend the book coherently, with checked
    state witnesses, and prices just outside it are refuted by checked Dutch
    books; so the interval is neither too narrow nor too wide."""
    if not 0 <= lo <= hi <= 1:
        return f"extension interval [{lo}, {hi}] is not inside [0, 1]"
    labels = events + [new]
    for end in (lo, hi):
        extended = prices + [end]
        verdict = check_book(labels, [str(p) for p in extended]).to_json_dict()
        if verdict["coherent"] is not True:
            return f"extension end {end} is declared incoherent"
        error = witness_error(labels, extended, verdict["witness"])
        if error:
            return f"extension end {end}: {error}"
    outside = []
    if lo > 0:
        outside.append(lo - min(EXTENSION_STEP, lo / 2))
    if hi < 1:
        outside.append(hi + min(EXTENSION_STEP, (1 - hi) / 2))
    for price in outside:
        extended = prices + [price]
        verdict = check_book(labels, [str(p) for p in extended]).to_json_dict()
        if verdict["coherent"] is not False:
            return f"price {price} outside the extension interval [{lo}, {hi}] is declared coherent"
        error = dutch_book_error(labels, extended, verdict["dutch_book"])
        if error:
            return f"price {price} outside [{lo}, {hi}]: {error}"
    return None


def books_error(query: dict, verdict: dict, check_book) -> str | None:
    events = query["events"]
    prices = [Fraction(p) for p in query["book"]]
    if verdict["book"].get("coherent") is not True:
        return "book built from a state was declared incoherent"
    error = book_error(events, prices, verdict["book"])
    error = error or book_error(events, [Fraction(p) for p in query["grid"]], verdict["grid"])
    if error:
        return error
    extension = verdict["extension"]
    if "lo" not in extension:
        return "extension of a coherent book was refused"
    lo, hi = Fraction(extension["lo"]), Fraction(extension["hi"])
    # The state that built the book extends it, so its price must lie inside.
    value = _state_value(parse(query["new"]), query["state"])
    if not lo <= value <= hi:
        return f"a coherent extension price {value} lies outside [{lo}, {hi}]"
    return extension_error(events, prices, query["new"], lo, hi, check_book)


def _atom_books(atoms: list) -> list[tuple]:
    """Coherent books on the atoms: images of grid valuations, and midpoints
    of pairs of them (a convex combination of coherent books is coherent)."""
    events = [a[1] for a in atoms]
    names = variables_of(events)
    images = sorted(set(_images(events, grid(len(names)), names)))
    head = images[:16]
    mids = [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in itertools.combinations(head, 2)]
    return images + mids


def _formula_atoms(*trees) -> list:
    out: dict = {}
    for t in trees:
        atoms_of(t, out)
    return list(out)


def holds_error(phi, psi) -> str | None:
    """Farey-grid oracle: no coherent grid book satisfies phi and refutes psi."""
    atoms = _formula_atoms(phi, psi)
    for book in _atom_books(atoms) if atoms else [()]:
        env = dict(zip(atoms, book))
        if evaluate(phi, env) == 1 and evaluate(psi, env) < 1:
            return f"consequence declared valid, refuted at coherent book {book}"
    return None


def countermodel_error(phi, psi, countermodel: dict, check_book) -> str | None:
    """The countermodel satisfies phi, refutes psi and is a coherent book;
    coherence is shown by a state witness that passes `witness_error`."""
    labels = list(countermodel)
    prices = [Fraction(p) for p in countermodel.values()]
    env = {("P", parse(label)): price for label, price in zip(labels, prices)}
    if set(env) != set(_formula_atoms(phi, psi)):
        return "countermodel prices other atoms than the formulas"
    if evaluate(phi, env) != 1 or evaluate(psi, env) >= 1:
        return "countermodel does not separate premise and conclusion"
    if not labels:
        return None
    verdict = check_book(labels, [str(p) for p in prices]).to_json_dict()
    if verdict["coherent"] is not True:
        return "countermodel book is incoherent"
    return witness_error(labels, prices, verdict["witness"])


def consequence_error(phi, psi, verdict: dict, check_book) -> str | None:
    if verdict["holds"]:
        return holds_error(phi, psi)
    if not _formula_atoms(phi, psi):
        return None if evaluate(phi, {}) == 1 and evaluate(psi, {}) < 1 else "ground verdict wrong"
    return countermodel_error(phi, psi, verdict["countermodel"], check_book)


def _power(tree, n: int):
    return tree if n == 1 else ("pow", tree, n)


def entail_error(query: dict, verdict: dict, api) -> str | None:
    """`api` offers the library entry points used to obtain certificates."""
    phi, psi = parse(query["premise"]), parse(query["conclusion"])
    if query["op"] == "entail":
        return consequence_error(phi, psi, verdict, api.check_book)
    n = verdict["exponent"]
    if n is None:
        refuted = api.decide_consequence(query["premise"], query["conclusion"]).to_json_dict()
        if refuted["holds"]:
            return "no exponent, yet the consequence holds"
        return consequence_error(phi, psi, refuted, api.check_book)
    top = ("const", ONE)
    if n < 1:
        return f"exponent {n} below 1"
    error = holds_error(top, ("imp", _power(phi, n), psi))
    if error or n == 1:
        return error
    weaker = f"({query['premise']})^{n - 1}" if n > 2 else f"({query['premise']})"
    refuted = api.prove(f"{weaker} -> ({query['conclusion']})").to_json_dict()
    if refuted["holds"]:
        return f"exponent {n} is not the least"
    return consequence_error(top, ("imp", _power(phi, n - 1), psi), refuted, api.check_book)


def chi_error(query: dict, verdict: dict) -> str | None:
    """The synthesized formula is 1 at every coherent grid book."""
    formula = parse(verdict["formula"])
    events = [parse(e) for e in query["events"]]
    names = variables_of(events)
    coords = [f"x{i + 1}" for i in range(len(events))]
    for image in _images(events, grid(len(names)), names):
        if evaluate(formula, dict(zip(coords, image))) != 1:
            return f"synthesized formula is below 1 at coherent book {image}"
    return None
