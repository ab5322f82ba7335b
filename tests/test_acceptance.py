"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact (zero tolerance); the only numeric thresholds
are the stated wall-clock budgets.
"""

import itertools
import random
import time

from coh.coherence import EventList, check_book, coherent_set
from coh.exact import ONE, Rat, ZERO, dot, vec_content
from coh.formula import (
    Iff,
    Imp,
    Power,
    VarContext,
    canonical_serialize,
    evaluate_formula,
    parse_event,
    parse_modal,
)
from coh.fplogic import (
    ProbSubstitution,
    TranslationContext,
    UnificationProblem,
    decide_consequence,
    deduction_exponent,
    is_probabilistic_substitution,
    oneset_formula,
    prove,
    translate,
    verify_generality,
    verify_oneset,
    verify_unifier,
)
from coh.polytope import convex_hull, membership

from util import farey, random_event, random_event_list, random_modal


def rp(*vals):
    return tuple(Rat(v) for v in vals)


def report(number, description):
    print(f"PASS criterion {number}: {description}")


def test_c01_two_event_example():
    start = time.perf_counter()
    cs = coherent_set(["x | y", "x + y"])
    expected = convex_hull([rp(0, 0), rp(1, 1), rp("1/2", 1)])
    assert cs.polytope == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"coherent set of {{x|y, x+y}} has vertices (0,0),(1/2,1),(1,1) [{elapsed:.3f}s]")


def test_c02_three_event_example_and_projections():
    start = time.perf_counter()
    events = ["x + y", "x * y", "x & y"]
    cs = coherent_set(events)
    # In the event order (x⊕y, x⊙y, x∧y) the vertex arising from the
    # valuation (1/2,1/2) is (1, 0, 1/2): strong conjunction vanishes there
    # while min is 1/2.  (Quoting the same polytope with the last two events
    # swapped gives the tuple (1, 1/2, 0).)
    assert cs.polytope == convex_hull([rp(0, 0, 0), rp(1, 0, 0), rp(1, 1, 1), rp(1, 0, "1/2")])
    swapped = coherent_set(["x + y", "x & y", "x * y"])
    assert swapped.polytope == convex_hull(
        [rp(0, 0, 0), rp(1, 0, 0), rp(1, 1, 1), rp(1, "1/2", 0)]
    )
    # Each 2-coordinate projection equals the coherent set of the pair,
    # rebuilt over the same variable context.
    for coords in ([0, 1], [0, 2], [1, 2]):
        pair = EventList([events[c] for c in coords], context=cs.events.context)
        assert cs.polytope.project(coords) == coherent_set(pair).polytope
    # Non-uniqueness: {x∧y, x⊕y} and {x⊙y, x⊕y} share one coherent set.
    left = coherent_set(["x & y", "x + y"]).polytope
    right = coherent_set(["x * y", "x + y"]).polytope
    assert left == right
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(2, f"three-event set, its projections, and the shared-pair identity [{elapsed:.3f}s]")


def test_c03_substitution_invariance_remark():
    constrained = "(P(x | ~x))^2 <-> (~P(x | ~x))^2 | (P(x | ~x))^2"
    assert prove(constrained).holds
    free = "(P(y))^2 <-> (~P(y))^2 | (P(y))^2"
    result = prove(free)
    assert not result.holds
    (price,) = result.countermodel.prices
    assert ZERO <= price < Rat(1, 2)
    sub = ProbSubstitution({"x | ~x": "P(y)"})
    ok, witness = is_probabilistic_substitution(sub, EventList(["x | ~x"]))
    assert not ok
    assert witness[0] < Rat(1, 2)
    report(3, f"invariance remark: countermodel {price}, rejection witness {witness[0]}")


def test_c04_axiom_and_derived_theorem_suite():
    start = time.perf_counter()
    rng = random.Random(404)
    names = ["x", "y", "z"]
    for _ in range(20):
        a = random_event(rng, names, rng.randint(0, 2))
        b = random_event(rng, names, rng.randint(0, 2))
        assert prove(f"~P({a}) <-> P(~({a}))").holds, ("P1", a)
        assert prove(f"P(({a}) -> ({b})) -> (P({a}) -> P({b}))").holds, ("P2", a, b)
        assert prove(
            f"P(({a}) + ({b})) <-> (P({a}) -> P(({a}) * ({b}))) -> P({b})"
        ).holds, ("P3", a, b)
        assert prove(f"P(({a}) + ~({a})) <-> P({a}) + P(~({a}))").holds, ("additivity", a)
    assert prove("P(1) <-> 1").holds
    assert prove("P(0) <-> 0").holds
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"P1-P3, P(1)<->1, P(0)<->0, additivity over 20 random instances [{elapsed:.1f}s]")


def _hundred_event_lists():
    rng = random.Random(500)
    return [random_event_list(rng, max_events=3, max_vars=3, max_depth=4) for _ in range(100)]


def test_c05_boolean_point():
    lists = _hundred_event_lists()
    for events in lists:
        cs = coherent_set(events)
        assert any(all(x in (ZERO, ONE) for x in v) for v in cs.polytope.vertices), events
    report(5, "all 100 random coherent sets contain a Boolean vertex")


def test_c06_triangulation_independence():
    lists = _hundred_event_lists()
    rng = random.Random(600)
    for events in lists:
        cs1 = coherent_set(events)
        k = len(events)
        arity = cs1.events.context.arity
        order = list(range(k))
        rng.shuffle(order)
        cut_normal = tuple(rng.choice([-1, 0, 1]) for _ in range(arity))
        extra = [(cut_normal, 1)] if any(cut_normal) else [((1,) + (0,) * (arity - 1), 1)]
        cs2 = coherent_set(events, order=order, extra_cuts=extra)
        assert cs1.polytope == cs2.polytope, events
    report(6, "two refinement strategies agree on all 100 coherent sets")


def test_c07_certificate_soundness_200_books():
    rng = random.Random(700)
    inside_count = outside_count = 0
    while inside_count + outside_count < 200:
        events = random_event_list(rng, max_events=3, max_vars=3, max_depth=3)
        cs = coherent_set(events)
        k = len(events)
        verts = cs.polytope.vertices
        want_outside = (outside_count < 100 and rng.random() < 0.5) or inside_count >= 100
        if want_outside:
            prices = None
            for _ in range(30):
                candidate = tuple(Rat(rng.randint(0, 8), 8) for _ in range(k))
                if not membership(candidate, cs.polytope).inside:
                    prices = candidate
                    break
            if prices is None:
                continue  # coherent set fills the cube; no incoherent book exists
            outside_count += 1
        else:
            weights = [Rat(rng.randint(0, 4)) for _ in verts]
            if sum(weights) == 0:
                weights[0] = ONE
            total = sum(weights)
            prices = tuple(
                sum(w * v[i] for w, v in zip(weights, verts)) / total for i in range(k)
            )
            inside_count += 1
        verdict = check_book(events, prices)
        # Dichotomy: exactly one certificate kind.
        assert verdict.coherent == (verdict.state_witness is not None)
        assert verdict.coherent == (verdict.dutch_book is None)
        if verdict.coherent:
            points, ws = verdict.state_witness
            assert sum(ws) == 1 and all(w > 0 for w in ws)
            names = cs.events.context.names
            for i, text in enumerate(events):
                env_total = ZERO
                for p, w in zip(points, ws):
                    env = {n: v for n, v in zip(names, p)}
                    env_total += w * evaluate_formula(parse_event(text), env)
                assert env_total == prices[i]
        else:
            stakes, loss = verdict.dutch_book
            assert loss > 0 and vec_content(stakes) == 1
            assert cs.payoff_bound(stakes, prices) <= -loss
    assert inside_count == 100 and outside_count == 100
    report(7, "200 book verdicts (100 coherent / 100 not) re-verified exactly")


def test_c08_consequence_vs_grid_oracle():
    rng = random.Random(800)
    negatives = 0
    for _ in range(200):
        nvars = rng.randint(1, 2)
        events = list(
            dict.fromkeys(
                random_event(rng, ["x", "y"][:nvars], rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            )
        )
        atoms = [f"P({e})" for e in events]
        phi_text = random_modal(rng, atoms, rng.randint(0, 3))
        psi_text = random_modal(rng, atoms, rng.randint(0, 3))
        result = decide_consequence(phi_text, psi_text)

        tctx = TranslationContext()
        phi = translate(parse_modal(phi_text), tctx)
        psi = translate(parse_modal(psi_text), tctx)
        names = list(tctx.names.values())
        if result.holds:
            # No grid book in the coherent set may satisfy phi and refute psi.
            if names:
                cs = coherent_set(EventList(tctx.events))
                hs = cs.polytope.halfspaces
                for pt in itertools.product(farey(8), repeat=len(names)):
                    if any(dot(a, pt) > b for a, b in hs):
                        continue
                    env = dict(zip(names, pt))
                    if evaluate_formula(phi, env) == 1:
                        assert evaluate_formula(psi, env) == 1, (phi_text, psi_text, pt)
            else:
                assert evaluate_formula(phi, {}) < 1 or evaluate_formula(psi, {}) == 1
        else:
            negatives += 1
            book = result.countermodel
            env = dict(zip(names, book.prices))
            assert evaluate_formula(phi, env) == 1
            assert evaluate_formula(psi, env) < 1
            if names:
                cs = coherent_set(EventList(tctx.events))
                assert membership(book.prices, cs.polytope).inside
    assert negatives >= 20
    report(8, f"200 consequence decisions consistent with the grid oracle ({negatives} negative)")


def test_c09_oneset_formula_roundtrip():
    rng = random.Random(900)
    for trial in range(50):
        events = random_event_list(rng, max_events=3, max_vars=3, max_depth=3)
        cs = coherent_set(events)
        chi = oneset_formula(cs.polytope)
        ctx = VarContext([f"x{i+1}" for i in range(cs.polytope.dim)])
        assert verify_oneset(chi, cs.polytope, ctx), events
    report(9, "50 synthesized formulas exactly recover their coherent sets")


def test_c10_local_deduction_exponents():
    assert deduction_exponent("P(x)", "P(x) * P(x)") == 2
    assert not prove("P(x) -> P(x) * P(x)").holds
    rng = random.Random(1000)
    found = 0
    while found < 20:
        nvars = rng.randint(1, 2)
        events = [random_event(rng, ["x", "y"][:nvars], rng.randint(0, 2)) for _ in range(2)]
        atoms = [f"P({e})" for e in events]
        phi_text = random_modal(rng, atoms, rng.randint(0, 2))
        psi_text = random_modal(rng, atoms, rng.randint(0, 2))
        n = deduction_exponent(phi_text, psi_text)
        if n is None:
            continue
        found += 1
        phi, psi = parse_modal(phi_text), parse_modal(psi_text)
        powered = phi if n == 1 else Power(phi, n)
        assert prove(Imp(powered, psi)).holds
        if n > 1:
            weaker = phi if n == 2 else Power(phi, n - 1)
            assert not prove(Imp(weaker, psi)).holds
    report(10, "P(x) ⊢ P(x)*P(x) needs exponent 2; 20 random exponents minimal")


def test_c11_unification_fixtures():
    problem = UnificationProblem(
        [("P(x1) | ~P(x1) | P(x2) | ~P(x2)", "1")], atoms=["x1", "x2"]
    )
    assert verify_unifier(problem, ProbSubstitution({"x1": "1", "x2": "1"}))
    assert not verify_unifier(problem, ProbSubstitution({"x1": "P(x1)", "x2": "P(x1)"}))
    # Identity-delta composition is accepted.
    single = UnificationProblem([("P(x)", "P(x)")])
    sigma = ProbSubstitution({"x": "1"})
    tau = ProbSubstitution({"x": "P(y | ~y) + P(y | ~y)"})
    delta = ProbSubstitution({"y | ~y": "P(y | ~y)"})
    assert verify_generality(sigma, tau, delta, single)
    # Ground/non-ground mismatch is rejected.
    sigma2 = ProbSubstitution({"x": "P(y)"})
    tau2 = ProbSubstitution({"x": "1"})
    delta2 = ProbSubstitution({"y": "P(y)"})
    assert not verify_generality(sigma2, tau2, delta2, single)
    report(11, "unification fixtures: ground unifier accepted, collapse and mismatch rejected")
