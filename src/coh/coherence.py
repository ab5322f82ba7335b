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
from .exact import Rat, ZERO, common_denominator, rat_str, vec_content
from .formula import Formula, VarContext, canonical_serialize, evaluate_formula, is_event_formula, parse_event
from .polytope import Polytope, membership, weight_lp
from .pwl import common_refinement, mcnaughton, vertex_values
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

    `valuation_of` maps every distinct image (f_1(v), ..., f_k(v)) of a
    vertex v of the linearizing complex to the first such valuation v.  The
    hull vertices are among its keys, so membership weights convert directly
    into state witnesses, and the keys bound every payoff over the cube.
    """

    __slots__ = ("events", "polytope", "valuation_of")

    def __init__(self, events: EventList, polytope: Polytope, valuation_of: dict[tuple, tuple]):
        self.events = events
        self.polytope = polytope
        self.valuation_of = valuation_of

    def boolean_point(self) -> tuple:
        for v in self.polytope.vertices:
            if all(x == 0 or x == 1 for x in v):
                return v
        raise AssertionError("coherent set without a Boolean point")  # pragma: no cover

    def payoff_bound(self, stakes: Sequence, prices: Sequence) -> Rat:
        """Exact max over all valuations of sum_i stakes_i (beta_i - f_i(v)).

        The payoff is affine on every cell of the linearizing complex, so the
        maximum over the cube is attained at a vertex, whose image is a key
        of `valuation_of`; the hull is not consulted.
        """
        return max(
            sum((stake * (price - x) for stake, price, x in zip(stakes, prices, image)), ZERO)
            for image in self.valuation_of
        )


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


def coherent_set(events: EventList | Sequence) -> CoherentSet:
    """Construct the coherent set of an event list.

    The events' values at the vertices of one complex on which all of them
    are affine (the overlay of their McNaughton complexes) are read once, in
    integers (`vertex_values`); the hull of their images is the coherent
    set, and each image keeps its first valuation in table order.  No cell
    or form is kept.
    """
    ev = events if isinstance(events, EventList) else EventList(events)
    funcs = [mcnaughton(e, ev.context) for e in ev.events]
    cells, forms = common_refinement(funcs)
    valuation_of: dict[tuple, tuple] = {}
    for (P, d), values in vertex_values(cells, forms).items():
        image = tuple(Rat(v, d) for v in values)
        if image not in valuation_of:
            valuation_of[image] = tuple(Rat(p, d) for p in P)
    return CoherentSet(ev, Polytope.from_vertices(list(valuation_of)), valuation_of)


def _verify_state(events: EventList, prices: Sequence, points: list, weights: list) -> None:
    """Re-verify a state witness by evaluating the events at its valuations:
    the weights are convex and the weighted values reproduce every price
    exactly.  Shares no code with the complex, the hull or the LP."""
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise AssertionError("state witness failed re-verification")
    envs = [events.context.env(p) for p in points]
    for event, target in zip(events.events, prices):
        price = ZERO
        for env, w in zip(envs, weights):
            price += w * evaluate_formula(event, env)
        if price != target:
            raise AssertionError("state witness failed re-verification")


def _witness(cs: CoherentSet, weights: Sequence) -> tuple[list[tuple], list[Rat]]:
    """The valuations and weights of the hull vertices that carry weight;
    only those vertices are turned into rational tuples."""
    points: list[tuple] = []
    support: list[Rat] = []
    for (P, d), w in zip(cs.polytope.pairs, weights):
        if w != 0:
            points.append(cs.valuation_of[tuple(Rat(p, d) for p in P)])
            support.append(w)
    return points, support


def _book_and_events(events, book) -> tuple[EventList, Book]:
    ev = events if isinstance(events, EventList) else EventList(events)
    bk = book if isinstance(book, Book) else Book(book)
    if len(bk) != len(ev):
        raise ValueError(f"book prices {len(bk)} events {len(ev)}")
    return ev, bk


def check_book(events: EventList | Sequence, book: Book | Sequence) -> CoherenceVerdict:
    """Decide coherence; the verdict carries a re-verified certificate."""
    ev, bk = _book_and_events(events, book)
    cs = coherent_set(ev)
    cert = membership(bk.prices, cs.polytope)
    if cert.inside:
        points, weights = _witness(cs, cert.weights)
        _verify_state(ev, bk.prices, points, weights)
        return CoherenceVerdict(coherent=True, state_witness=(points, weights))
    normal, _threshold, margin = cert.separator
    stakes = tuple(-x for x in normal)
    loss = margin
    if vec_content(stakes) != 1 or cs.payoff_bound(stakes, bk.prices) > -loss:
        raise AssertionError("Dutch book failed re-verification")
    return CoherenceVerdict(coherent=False, dutch_book=(stakes, loss))


def extension_interval(
    events: EventList | Sequence, book: Book | Sequence, new_event: Formula | str
) -> tuple[Rat, Rat]:
    """Exact range of prices extending a coherent book to one more event.

    Every value in [lo, hi] yields a coherent extension and nothing outside
    does.  The coherent set of the extended events projects onto that of
    the events, so the lo LP over it is feasible exactly when the book is
    coherent; only when it is not is `check_book` run, to raise
    IncoherentBookError with the Dutch book.  Both LPs solve the integer
    system `weight_lp` of the hull pairs (P_j, d_j) and the prices' pair
    (Q, e), with the new event's numerator P_j[k] as the cost of x_j: their
    optima are e times the price bounds, and w_j = d_j·x_j/e are the convex
    weights on the hull vertices.  The lo and hi optima are state witnesses
    on the extended events, re-verified like `check_book`'s (the events
    reproduce the prices, the new event lo or hi) before the interval is
    returned.

    The new event is parsed and checked before coherence is decided: with
    an incoherent book and an invalid new event, the new event's error is
    raised.
    """
    ev, bk = _book_and_events(events, book)
    psi = parse_event(new_event) if isinstance(new_event, str) else new_event
    extended = ev.extended_with(psi)
    cs = coherent_set(extended)
    pairs = cs.polytope.pairs
    k = len(ev)
    Q, e = common_denominator(bk.prices)
    A, b = weight_lp(pairs, (Q, e))
    objective = [P[k] for P, _ in pairs]
    lo_res = simplex.solve_standard(objective, A, b)
    if lo_res.status == simplex.INFEASIBLE:
        verdict = check_book(ev, bk)
        if verdict.coherent:
            raise AssertionError("extension LP infeasible for a coherent book")
        raise IncoherentBookError(verdict)
    hi_res = simplex.maximize(objective, A, b)
    assert lo_res.status == simplex.OPTIMAL and hi_res.status == simplex.OPTIMAL
    for res in (lo_res, hi_res):
        points, weights = _witness(cs, [x * d / e for x, (_, d) in zip(res.x, pairs)])
        _verify_state(extended, bk.prices + (res.value / e,), points, weights)
    return lo_res.value / e, hi_res.value / e
