"""de Finetti coherence of rational books on Łukasiewicz events.

The coherent books on events φ_1..φ_k are exactly the points of the convex
hull of {(f_1(v), ..., f_k(v)) : v a vertex of any complex linearizing all
f_i}.  Checking a book is then an exact membership query: convex weights
over hull vertices convert into a state witness (a convex combination of
valuations reproducing every price), while a separating hyperplane converts
into Dutch-book stakes with a guaranteed sure loss.  Both certificates are
re-verified in exact arithmetic before being returned.
"""

from __future__ import annotations

from typing import Sequence

from . import simplex
from .exact import ONE, Rat, ZERO, dot, rat_str, vec_content
from .formula import Formula, VarContext, canonical_serialize, is_event_formula, parse_event
from .polytope import Polytope, membership
from .pwl import PwlFunction, common_refinement, mcnaughton
from .record import Record


class EventList:
    """Ordered events fixing the coordinate axes of the book space.

    Order is significant and duplicates are allowed (a book must price every
    occurrence).  The variable context is the first-occurrence union over
    all events.
    """

    __slots__ = ("events", "context")

    def __init__(self, events: Sequence[Formula | str], context: VarContext | None = None):
        parsed = tuple(parse_event(e) if isinstance(e, str) else e for e in events)
        if not parsed:
            raise ValueError("event list must be nonempty")
        for e in parsed:
            if not is_event_formula(e):
                raise ValueError(f"not an event formula: {canonical_serialize(e)}")
        self.events = parsed
        base = context if context is not None else VarContext()
        self.context = base.extended(*parsed)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def labels(self) -> list[str]:
        return [canonical_serialize(e) for e in self.events]

    def extended_with(self, event: Formula) -> "EventList":
        return EventList(self.events + (event,), context=self.context)

    def __repr__(self) -> str:
        return f"EventList({self.labels()!r})"


class Book:
    """Exact rational prices, one per event (aligned with an EventList)."""

    __slots__ = ("prices",)

    def __init__(self, prices: Sequence):
        vals = tuple(Rat(p) for p in prices)
        for p in vals:
            if p < 0 or p > 1:
                raise ValueError(f"price outside [0,1]: {rat_str(p)}")
        self.prices = vals

    def __len__(self) -> int:
        return len(self.prices)

    def __iter__(self):
        return iter(self.prices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Book) and self.prices == other.prices

    def __repr__(self) -> str:
        return "Book(" + ", ".join(rat_str(p) for p in self.prices) + ")"


class CoherentSet:
    """The polytope of all coherent books on an event list.

    Keeps the linearizing refinement and a valuation preimage for every hull
    vertex so that membership weights convert directly into state witnesses.
    """

    __slots__ = ("events", "polytope", "cells", "forms", "valuation_of")

    def __init__(self, events: EventList, polytope: Polytope, cells, forms, valuation_of):
        self.events = events
        self.polytope = polytope
        self.cells = cells
        self.forms = forms
        self.valuation_of = valuation_of

    def boolean_point(self) -> tuple:
        for v in self.polytope.vertices:
            if all(x == 0 or x == 1 for x in v):
                return v
        raise AssertionError("coherent set without a Boolean point")  # pragma: no cover

    def payoff_bound(self, stakes: Sequence, prices: Sequence) -> Rat:
        """Exact max over all valuations of sum_i stakes_i (beta_i - f_i(v)).

        The payoff is affine on every refinement cell, so the maximum over
        the cube is attained at a refinement vertex.
        """
        best = None
        for cell, cell_forms in zip(self.cells, self.forms):
            for v in cell.vertices:
                payoff = ZERO
                for stake, price, form in zip(stakes, prices, cell_forms):
                    payoff += stake * (price - form.value(v))
                if best is None or payoff > best:
                    best = payoff
        return best


class CoherenceVerdict(Record):
    """Exactly one of state_witness / dutch_book is present."""

    __slots__ = __match_args__ = ("coherent", "state_witness", "dutch_book")

    def __init__(
        self,
        coherent: bool,
        state_witness: tuple[list[tuple], list[Rat]] | None = None,
        dutch_book: tuple[tuple[int, ...], Rat] | None = None,
    ):
        self.coherent = coherent
        self.state_witness = state_witness
        self.dutch_book = dutch_book

    def to_json_dict(self) -> dict:
        if self.coherent:
            points, weights = self.state_witness
            return {
                "coherent": True,
                "witness": {
                    "points": [[rat_str(x) for x in p] for p in points],
                    "weights": [rat_str(w) for w in weights],
                },
            }
        stakes, loss = self.dutch_book
        return {
            "coherent": False,
            "dutch_book": {
                "stakes": [int(s) for s in stakes],
                "guaranteed_loss": rat_str(loss),
            },
        }


class IncoherentBookError(ValueError):
    """Raised where a coherent book is required; carries the Dutch book."""

    def __init__(self, verdict: CoherenceVerdict):
        super().__init__("book is incoherent: " + str(verdict.to_json_dict()["dutch_book"]))
        self.verdict = verdict


def coherent_set(
    events: EventList | Sequence,
    order: list[int] | None = None,
    extra_cuts: list[tuple[tuple[int, ...], int]] | None = None,
) -> CoherentSet:
    """Construct the coherent set of an event list.

    `order` and `extra_cuts` vary the linearizing refinement; the resulting
    polytope is independent of them.
    """
    ev = events if isinstance(events, EventList) else EventList(events)
    funcs: list[PwlFunction] = [mcnaughton(e, ev.context) for e in ev.events]
    cells, forms = common_refinement(funcs, order=order, extra_cuts=extra_cuts)
    images: dict[tuple, tuple] = {}
    for cell, cell_forms in zip(cells, forms):
        for v in cell.vertices:
            image = tuple(f.value(v) for f in cell_forms)
            images.setdefault(image, v)
    poly = Polytope.from_vertices(list(images))
    valuation_of = {vert: images[vert] for vert in poly.vertices}
    return CoherentSet(ev, poly, cells, forms, valuation_of)


def check_book(events: EventList | Sequence, book: Book | Sequence) -> CoherenceVerdict:
    """Decide coherence; the verdict carries a re-verified certificate."""
    ev = events if isinstance(events, EventList) else EventList(events)
    bk = book if isinstance(book, Book) else Book(book)
    if len(bk) != len(ev):
        raise ValueError(f"book prices {len(bk)} events {len(ev)}")
    cs = coherent_set(ev)
    cert = membership(bk.prices, cs.polytope)
    if cert.inside:
        points: list[tuple] = []
        weights: list[Rat] = []
        for vert, w in zip(cs.polytope.vertices, cert.weights):
            if w != 0:
                points.append(cs.valuation_of[vert])
                weights.append(w)
        # Re-verify through the complex: the weighted function values must
        # reproduce every price exactly.
        cell_of = {p: _cell_containing(cs, p) for p in points}
        for i in range(len(ev)):
            price = ZERO
            for p, w in zip(points, weights):
                price += w * cs.forms[cell_of[p]][i].value(p)
            if price != bk.prices[i]:
                raise AssertionError("state witness failed re-verification")
        return CoherenceVerdict(coherent=True, state_witness=(points, weights))
    normal, _threshold, margin = cert.separator
    stakes = tuple(-x for x in normal)
    loss = margin
    if vec_content(stakes) != 1 or cs.payoff_bound(stakes, bk.prices) > -loss:
        raise AssertionError("Dutch book failed re-verification")
    return CoherenceVerdict(coherent=False, dutch_book=(stakes, loss))


def _cell_containing(cs: CoherentSet, valuation: tuple) -> int:
    for idx, cell in enumerate(cs.cells):
        if all(dot(a, valuation) <= b for a, b in cell.halfspaces):
            return idx
    raise AssertionError("valuation outside every refinement cell")  # pragma: no cover


def extension_interval(
    events: EventList | Sequence, book: Book | Sequence, new_event: Formula | str
) -> tuple[Rat, Rat]:
    """Exact range of prices extending a coherent book to one more event.

    Every value in [lo, hi] yields a coherent extension and nothing outside
    does.  Raises IncoherentBookError (with the Dutch book) when the given
    book is already incoherent.
    """
    ev = events if isinstance(events, EventList) else EventList(events)
    bk = book if isinstance(book, Book) else Book(book)
    verdict = check_book(ev, bk)
    if not verdict.coherent:
        raise IncoherentBookError(verdict)
    psi = parse_event(new_event) if isinstance(new_event, str) else new_event
    extended = ev.extended_with(psi)
    cs = coherent_set(extended)
    verts = cs.polytope.vertices
    k = len(ev)
    A = [[v[i] for v in verts] for i in range(k)]
    A.append([ONE] * len(verts))
    b = list(bk.prices) + [ONE]
    objective = [v[k] for v in verts]
    lo_res = simplex.minimize(objective, A, b)
    hi_res = simplex.maximize(objective, A, b)
    assert lo_res.status == simplex.OPTIMAL and hi_res.status == simplex.OPTIMAL
    return lo_res.value, hi_res.value
