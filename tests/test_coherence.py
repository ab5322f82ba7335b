"""Coherent sets, book verdicts and their certificates, extension intervals."""

import random
from types import SimpleNamespace

import pytest

from coh import coherence, simplex
from coh.coherence import (
    Book,
    EventList,
    IncoherentBookError,
    check_book,
    coherent_set,
    extension_interval,
)
from coh.exact import ONE, Rat, ZERO, dot, vec_content
from coh.formula import ParseError, parse_event, parse_modal
from coh.polytope import MembershipCertificate, Polytope, membership

from util import (
    eval_at,
    project,
    random_event,
    random_event_list,
    reference_extension_interval,
    varied_coherent_set,
)


def rp(*vals):
    return tuple(Rat(v) for v in vals)


class TestCoherentSet:
    def test_two_event_triangle(self):
        cs = coherent_set(["x | y", "x + y"])
        assert cs.polytope == Polytope.from_vertices([rp(0, 0), rp(1, 1), rp("1/2", 1)])

    def test_three_event_tetrahedron(self):
        cs = coherent_set(["x + y", "x * y", "x & y"])
        assert cs.polytope == Polytope.from_vertices(
            [rp(0, 0, 0), rp(1, 0, 0), rp(1, 1, 1), rp(1, 0, "1/2")]
        )

    def test_bare_variables_fill_cube(self):
        from coh.polytope import Polytope

        assert coherent_set(["x", "y"]).polytope == Polytope.cube(2)
        assert coherent_set(["x", "y", "z"]).polytope == Polytope.cube(3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            EventList([])

    def test_boolean_point_always_present(self):
        rng = random.Random(21)
        for _ in range(30):
            cs = coherent_set(random_event_list(rng))
            b = cs.boolean_point()
            assert all(x in (ZERO, ONE) for x in b)

    def test_refinement_strategy_independence(self):
        rng = random.Random(22)
        for _ in range(20):
            events = random_event_list(rng)
            cs1 = coherent_set(events)
            k = len(events)
            order = list(range(k))[::-1]
            extra = [((1,) + (0,) * (cs1.events.context.arity - 1), 1)]
            assert cs1.polytope == varied_coherent_set(events, order, extra)

    def test_projection_is_sub_coherent_set(self):
        # Dropping events projects the coherent set onto the kept axes; the
        # sub-list must be rebuilt over the full variable context so that
        # dropped events cannot change the coordinate meaning.
        rng = random.Random(23)
        checked = 0
        while checked < 15:
            events = random_event_list(rng, max_events=3)
            if len(events) < 2:
                continue
            cs = coherent_set(events)
            coords = sorted(rng.sample(range(len(events)), rng.randint(1, len(events) - 1)))
            sub = EventList([events[c] for c in coords], context=cs.events.context)
            assert project(cs.polytope, coords) == coherent_set(sub).polytope
            checked += 1

    def test_duplicate_events_forced_equal(self):
        cs = coherent_set(["x + y", "x + y"])
        for v in cs.polytope.vertices:
            assert v[0] == v[1]
        verdict = check_book(["x + y", "x + y"], ["1/2", "3/4"])
        assert not verdict.coherent


class TestCheckBook:
    def test_triangle_vertex_book(self):
        verdict = check_book(["x | y", "x + y"], ["1/2", "1"])
        assert verdict.coherent
        points, weights = verdict.state_witness
        assert points == [rp("1/2", "1/2")]
        assert weights == [ONE]

    def test_excluded_middle_quarter(self):
        verdict = check_book(["x | ~x"], ["1/4"])
        assert not verdict.coherent
        stakes, loss = verdict.dutch_book
        assert loss >= Rat(1, 4)
        assert vec_content(stakes) == 1

    def test_zero_valuation_image_coherent(self):
        events = ["x * y", "~x", "x + (y | ~y)"]
        prices = [eval_at(e, (0, 0)) for e in events]
        assert check_book(events, prices).coherent

    def test_price_validation(self):
        with pytest.raises(ValueError, match="price outside"):
            Book(["3/2"])
        with pytest.raises(ValueError, match="prices"):
            check_book(["x"], ["1/2", "1/2"])

    def test_corrupted_state_witness_rejected(self, monkeypatch):
        def shifted(point, poly):
            cert = membership(point, poly)
            weights = list(cert.weights)
            src = next(i for i, w in enumerate(weights) if w >= Rat(1, 10))
            weights[src] -= Rat(1, 10)
            weights[src - 1] += Rat(1, 10)
            return MembershipCertificate(inside=True, weights=tuple(weights))

        monkeypatch.setattr(coherence, "membership", shifted)
        with pytest.raises(AssertionError, match="state witness failed re-verification"):
            check_book(["x | y", "x + y"], ["1/2", "1"])

    def test_corrupted_dutch_book_rejected(self, monkeypatch):
        def doubled(point, poly):
            normal, threshold, margin = membership(point, poly).separator
            return MembershipCertificate(inside=False, separator=(normal, threshold, 2 * margin))

        monkeypatch.setattr(coherence, "membership", doubled)
        with pytest.raises(AssertionError, match="Dutch book failed re-verification"):
            check_book(["x | y", "x + y"], ["1", "0"])

    def verify_verdict(self, events, prices, verdict):
        cs = coherent_set(events)
        names = cs.events.context.names
        if verdict.coherent:
            assert verdict.dutch_book is None
            points, weights = verdict.state_witness
            assert sum(weights) == 1 and all(w > 0 for w in weights)
            for i, text in enumerate(events):
                total = sum(
                    w * eval_at(text, p, names=names) for p, w in zip(points, weights)
                )
                assert total == Rat(prices[i])
        else:
            assert verdict.state_witness is None
            stakes, loss = verdict.dutch_book
            assert loss > 0
            # Sure loss at every refinement vertex (payoff is affine per cell).
            bound = cs.payoff_bound(stakes, [Rat(p) for p in prices])
            assert bound <= -loss

    def test_dichotomy_and_soundness_randomized(self):
        rng = random.Random(31)
        coherent_seen = incoherent_seen = 0
        for _ in range(40):
            events = random_event_list(rng)
            cs = coherent_set(events)
            k = len(events)
            if rng.random() < 0.5:
                # Convex combination of vertex images is coherent.
                verts = cs.polytope.vertices
                weights = [Rat(rng.randint(0, 3)) for _ in verts]
                if sum(weights) == 0:
                    weights[0] = ONE
                total = sum(weights)
                prices = [
                    sum(w * v[i] for w, v in zip(weights, verts)) / total for i in range(k)
                ]
            else:
                prices = [Rat(rng.randint(0, 8), 8) for _ in range(k)]
            verdict = check_book(events, prices)
            self.verify_verdict(events, prices, verdict)
            member = membership(tuple(Rat(p) for p in prices), cs.polytope)
            assert member.inside == verdict.coherent
            coherent_seen += verdict.coherent
            incoherent_seen += not verdict.coherent
        assert coherent_seen and incoherent_seen


class TestExtension:
    def test_negation_forced(self):
        lo, hi = extension_interval(["x"], ["1/3"], "~x")
        assert (lo, hi) == (Rat(2, 3), Rat(2, 3))

    def test_square_of_half(self):
        lo, hi = extension_interval(["x"], ["1/2"], "x*x")
        assert (lo, hi) == (ZERO, Rat(1, 2))

    def test_top_padded(self):
        # Prices for psi coherently extending the trivial book on ⊤ span the
        # full range of psi's function.
        lo, hi = extension_interval(["1"], ["1"], "x & ~x")
        assert (lo, hi) == (ZERO, Rat(1, 2))

    def test_incoherent_book_reports_dutch_book(self):
        with pytest.raises(IncoherentBookError) as err:
            extension_interval(["x | ~x"], ["1/4"], "x")
        assert err.value.verdict.dutch_book is not None

    def test_new_variables_merge_context(self):
        lo, hi = extension_interval(["x"], ["1/2"], "x & w")
        assert (lo, hi) == (ZERO, Rat(1, 2))

    def test_every_value_in_interval_extends(self):
        events = ["x | y", "x + y"]
        prices = ["1/2", "3/4"]
        lo, hi = extension_interval(events, prices, "x * y")
        mid = (lo + hi) / 2
        for value in {lo, mid, hi}:
            verdict = check_book(events + ["x * y"], [Rat(p) for p in prices] + [value])
            assert verdict.coherent
        if hi < 1:
            beyond = hi + (1 - hi) / 2
            assert not check_book(events + ["x * y"], [Rat(p) for p in prices] + [beyond]).coherent

    def test_matches_reference(self):
        # Coherence read off the extension LP against `check_book` first:
        # the same interval for a coherent book, the same Dutch book for an
        # incoherent one.
        rng = random.Random(32)
        incoherent = 0
        for _ in range(250):
            events = random_event_list(rng, max_events=2, max_vars=2, max_depth=3)
            new = random_event(rng, ["x", "y"], rng.randint(1, 3))
            if rng.random() < 0.5:
                verts = coherent_set(events).polytope.vertices
                weights = [Rat(rng.randint(0, 3)) for _ in verts]
                weights[0] += 1
                prices = [
                    sum(w * v[i] for w, v in zip(weights, verts)) / sum(weights)
                    for i in range(len(events))
                ]
            else:
                prices = [Rat(rng.randint(0, 6), 6) for _ in events]
            try:
                expected = reference_extension_interval(events, prices, new)
            except IncoherentBookError as err:
                with pytest.raises(IncoherentBookError) as got:
                    extension_interval(events, prices, new)
                assert got.value.verdict.to_json_dict() == err.verdict.to_json_dict()
                incoherent += 1
                continue
            assert extension_interval(events, prices, new) == expected
        assert 50 <= incoherent <= 170

    def test_check_book_only_after_infeasible_lp(self, monkeypatch):
        calls = []

        def counted(events, book):
            calls.append(book)
            return check_book(events, book)

        monkeypatch.setattr(coherence, "check_book", counted)
        extension_interval(["x"], ["1/2"], "x*x")
        assert calls == []
        with pytest.raises(IncoherentBookError):
            extension_interval(["x | ~x"], ["1/4"], "x")
        assert len(calls) == 1

    def test_corrupted_lo_weight_rejected(self, monkeypatch):
        def shifted(c, A, b):
            res = simplex.solve_standard(c, A, b)
            x = list(res.x)
            src = next(i for i, w in enumerate(x) if w >= Rat(1, 10))
            x[src] -= Rat(1, 10)
            x[src - 1] += Rat(1, 10)
            return simplex.LPResult(res.status, x=tuple(x), value=res.value)

        fake = SimpleNamespace(
            solve_standard=shifted,
            maximize=simplex.maximize,
            OPTIMAL=simplex.OPTIMAL,
            INFEASIBLE=simplex.INFEASIBLE,
        )
        monkeypatch.setattr(coherence, "simplex", fake)
        with pytest.raises(AssertionError, match="state witness failed re-verification"):
            extension_interval(["x"], ["1/2"], "x*x")

    def test_invalid_new_event_raised_before_incoherence(self):
        # The new event is parsed before coherence is decided, as the CLI
        # parses --new first: an incoherent book does not mask its error.
        with pytest.raises(ParseError):
            extension_interval(["x | ~x"], ["1/4"], "x |")
        with pytest.raises(ValueError, match="not an event formula"):
            extension_interval(["x | ~x"], ["1/4"], parse_modal("P(x)"))
