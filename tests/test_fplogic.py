"""Modal layer: translation, entailment, synthesis, substitutions, unifiers."""

import gc
import itertools
import random

import pytest

from coh.coherence import EventList, check_book, coherent_set
from coh.exact import ONE, Rat, ZERO, dot
from coh.formula import (
    Iff,
    PAtom,
    TOP,
    Var,
    VarContext,
    canonical_serialize,
    evaluate_formula,
    parse_event,
    parse_modal,
)
from coh.fplogic import (
    ConsequenceResult,
    _least_exponent,
    OnesetSynthesisError,
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
from coh.polytope import Polytope, membership
from coh.pwl import mcnaughton, oneset

from util import (
    farey,
    form_at,
    is_constantly_one,
    random_event,
    random_event_list,
    random_modal,
    reference_decide_consequence,
    reference_deduction_exponent,
    reference_verify_oneset,
)


def rp(*vals):
    return tuple(Rat(v) for v in vals)


class TestTranslate:
    def test_constants_fixed(self):
        ctx = TranslationContext()
        assert translate(parse_modal("1"), ctx) == parse_event("1")
        assert translate(parse_modal("0"), ctx) == parse_event("0")

    def test_atom_gets_fresh_variable(self):
        ctx = TranslationContext()
        out = translate(parse_modal("P(x + y)"), ctx)
        assert out == Var("p0")

    def test_connectives_homomorphic(self):
        ctx = TranslationContext()
        out = translate(parse_modal("P(x) -> P(y)"), ctx)
        assert canonical_serialize(out) == "(p0 -> p1)"

    def test_injective_on_distinct_events(self):
        ctx = TranslationContext()
        translate(parse_modal("P(x) + P(~~x) + P(x)"), ctx)
        # x and ~~x are equivalent but syntactically distinct: two variables.
        assert list(ctx.names.values()) == ["p0", "p1"]

    def test_equivalent_but_distinct_events_same_semantics(self):
        # Fresh variables per syntactic event do not change provability.
        assert prove("P(x) <-> P(~~x)").holds


class TestDecideConsequence:
    def test_p1_theorem(self):
        assert decide_consequence("1", "~P(x) <-> P(~x)").holds

    def test_remark_on_constrained_atom(self):
        assert prove("(P(x | ~x))^2 <-> (~P(x | ~x))^2 | (P(x | ~x))^2").holds

    def test_remark_fails_on_free_atom(self):
        result = prove("(P(y))^2 <-> (~P(y))^2 | (P(y))^2")
        assert not result.holds
        (price,) = result.countermodel.prices
        assert 0 <= price < Rat(1, 2)

    def test_additivity_instance(self):
        assert prove("P(x + ~x) <-> P(x) + P(~x)").holds

    def test_p2_p3(self):
        assert prove("P(x -> y) -> (P(x) -> P(y))").holds
        assert prove("P(x + y) <-> (P(x) -> P(x*y)) -> P(y)").holds

    def test_ground_queries(self):
        assert prove("1").holds
        assert decide_consequence("0", "0").holds  # vacuous
        res = decide_consequence("1", "0")
        assert not res.holds and res.countermodel is not None

    def test_countermodel_is_coherent_and_discriminates(self):
        result = decide_consequence("P(x)", "P(x) * P(x)")
        assert result.holds
        result = decide_consequence("P(x) + P(x)", "P(x)")
        assert not result.holds
        book = result.countermodel
        ev = result.events
        cs = coherent_set(ev)
        assert membership(book.prices, cs.polytope).inside
        tctx = TranslationContext()
        phi = translate(parse_modal("P(x) + P(x)"), tctx)
        psi = translate(parse_modal("P(x)"), tctx)
        env = {name: price for name, price in zip(tctx.names.values(), book.prices)}
        assert evaluate_formula(phi, env) == 1
        assert evaluate_formula(psi, env) < 1

    def test_atoms_padded_to_union(self):
        # Conclusion introduces a new atom; the countermodel prices both.
        result = decide_consequence("P(x)", "P(y)")
        assert not result.holds
        assert len(result.countermodel.prices) == 2


def _grid_falsifiable(phi_text, psi_text, max_den=8):
    """Dense-grid falsification oracle for the entailment reduction."""
    tctx = TranslationContext()
    phi = translate(parse_modal(phi_text), tctx)
    psi = translate(parse_modal(psi_text), tctx)
    if not tctx.events:
        return evaluate_formula(phi, {}) == 1 and evaluate_formula(psi, {}) < 1
    cs = coherent_set(EventList(tctx.events))
    hs = cs.polytope.halfspaces
    names = list(tctx.names.values())
    for pt in itertools.product(farey(max_den), repeat=len(names)):
        if any(dot(a, pt) > b for a, b in hs):
            continue
        env = dict(zip(names, pt))
        if evaluate_formula(phi, env) == 1 and evaluate_formula(psi, env) < 1:
            return True
    return False


class TestReductionConsistency:
    def test_random_pairs_against_grid_oracle(self):
        rng = random.Random(47)
        negatives = 0
        for _ in range(60):
            nvars = rng.randint(1, 2)
            events = list(
                dict.fromkeys(
                    random_event(rng, ["x", "y"][:nvars], rng.randint(0, 2))
                    for _ in range(rng.randint(1, 3))
                )
            )
            atoms = [f"P({e})" for e in events]
            phi = random_modal(rng, atoms, rng.randint(0, 3))
            psi = random_modal(rng, atoms, rng.randint(0, 3))
            result = decide_consequence(phi, psi)
            if result.holds:
                assert not _grid_falsifiable(phi, psi), (phi, psi)
            else:
                negatives += 1
                book = result.countermodel
                tctx = TranslationContext()
                phi_t = translate(parse_modal(phi), tctx)
                psi_t = translate(parse_modal(psi), tctx)
                if tctx.events:
                    cs = coherent_set(EventList(tctx.events))
                    assert membership(book.prices, cs.polytope).inside
                env = dict(zip(tctx.names.values(), book.prices))
                assert evaluate_formula(phi_t, env) == 1
                assert evaluate_formula(psi_t, env) < 1
        assert negatives >= 5


def _decide_by_oneset_inclusion(phi_text: str, psi_text: str) -> bool:
    """Independent complete decision path: conjoin the coherence formula with
    the translated premise and check oneset inclusion by vertex enumeration
    (no LP anywhere on the deciding path)."""
    from coh.formula import And
    from coh.pwl import mcnaughton as build, oneset as pieces_of

    tctx = TranslationContext()
    phi = translate(parse_modal(phi_text), tctx)
    psi = translate(parse_modal(psi_text), tctx)
    if not tctx.events:
        return evaluate_formula(phi, {}) < 1 or evaluate_formula(psi, {}) == 1
    cs = coherent_set(EventList(tctx.events))
    pctx = tctx.book_context()
    chi = oneset_formula(cs.polytope, pctx)
    f_premise = build(And(chi, phi), pctx)
    f_psi = build(psi, pctx)
    for piece in pieces_of(f_premise):
        for cell in f_psi.cells:
            region = piece.intersect(cell.polytope)
            if region is None:
                continue
            for v in region.vertices:
                if form_at(cell.form, v) != 1:
                    return False
    return True


class TestCrossValidation:
    def test_lp_route_agrees_with_oneset_route(self):
        rng = random.Random(271)
        disagreements = []
        negatives = 0
        for _ in range(30):
            events = list(
                dict.fromkeys(
                    random_event(rng, ["x", "y"][: rng.randint(1, 2)], rng.randint(0, 2))
                    for _ in range(rng.randint(1, 2))
                )
            )
            atoms = [f"P({e})" for e in events]
            phi = random_modal(rng, atoms, rng.randint(0, 2))
            psi = random_modal(rng, atoms, rng.randint(0, 2))
            lp_route = decide_consequence(phi, psi).holds
            oneset_route = _decide_by_oneset_inclusion(phi, psi)
            if lp_route != oneset_route:
                disagreements.append((phi, psi))
            negatives += not lp_route
        assert not disagreements
        assert 0 < negatives < 30


class TestAxiomSuite:
    def random_events(self, rng, count):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        return [random_event(rng, names, rng.randint(0, 2)) for _ in range(count)]

    def test_axioms_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(12):
            a, b = self.random_events(rng, 2)
            assert prove(f"~P({a}) <-> P(~({a}))").holds
            assert prove(f"P(({a}) -> ({b})) -> (P({a}) -> P({b}))").holds
            assert prove(f"P(({a}) + ({b})) <-> (P({a}) -> P(({a}) * ({b}))) -> P({b})").holds
        assert prove("P(1) <-> 1").holds
        assert prove("P(0) <-> 0").holds

    def test_necessitation_for_tautologies(self):
        rng = random.Random(17)
        candidates = ["x -> x", "x | ~x | y", "(x * y) -> x", "1"]
        candidates += [random_event(rng, ["x", "y"], 3) for _ in range(20)]
        checked = 0
        for text in candidates:
            event = parse_event(text)
            ctx = VarContext().extended(event)
            if ctx.arity == 0:
                continue
            if is_constantly_one(mcnaughton(event, ctx)):
                assert prove(f"P({text}) <-> 1").holds
                checked += 1
        assert checked >= 3


class TestOnesetFormula:
    def test_half_interval(self):
        poly = Polytope.from_vertices([rp("1/2"), rp(1)])
        chi = oneset_formula(poly)
        ctx = VarContext(["x1"])
        pieces = oneset(mcnaughton(chi, ctx))
        assert poly in pieces
        assert all(poly.includes(piece) for piece in pieces)
        # Equivalent to doubling: same function values everywhere.
        for v in farey(6):
            expected = min(ONE, 2 * v)
            assert evaluate_formula(chi, {"x1": v}) == expected

    def test_full_cube_is_top_equivalent(self):
        for dim in (1, 2, 3):
            chi = oneset_formula(Polytope.cube(dim))
            ctx = VarContext([f"x{i+1}" for i in range(dim)])
            assert is_constantly_one(mcnaughton(chi, ctx))

    def test_triangle_roundtrip(self):
        poly = Polytope.from_vertices([rp(0, 0), rp(1, 1), rp("1/2", 1)])
        chi = oneset_formula(poly)
        ctx = VarContext(["x1", "x2"])
        assert verify_oneset(chi, poly, ctx)

    def test_lower_dimensional_targets(self):
        segment = Polytope.from_vertices([rp(0, "1/2"), rp(1, "1/2")])
        chi = oneset_formula(segment)
        assert verify_oneset(chi, segment, VarContext(["x1", "x2"]))
        point = Polytope.from_vertices([rp("1/3", "2/3")])
        chi2 = oneset_formula(point)
        assert verify_oneset(chi2, point, VarContext(["x1", "x2"]))

    def test_outside_cube_rejected(self):
        with pytest.raises(ValueError, match="unit cube"):
            oneset_formula(Polytope.from_vertices([rp(0), rp(2)]))

    def test_random_coherent_sets_roundtrip(self):
        from util import random_event_list

        rng = random.Random(3)
        for _ in range(15):
            cs = coherent_set(random_event_list(rng, max_depth=3))
            chi = oneset_formula(cs.polytope)
            ctx = VarContext([f"x{i+1}" for i in range(cs.polytope.dim)])
            assert verify_oneset(chi, cs.polytope, ctx)

    def test_determinism(self):
        poly = Polytope.from_vertices([rp(0, 0), rp(1, 1), rp("1/2", 1)])
        assert canonical_serialize(oneset_formula(poly)) == canonical_serialize(
            oneset_formula(poly)
        )


class TestDeductionExponent:
    def test_oplus_needs_one(self):
        assert deduction_exponent("P(x)", "P(x) + P(x)") == 1

    def test_otimes_needs_two(self):
        assert deduction_exponent("P(x)", "P(x) * P(x)") == 2
        # n = 1 genuinely fails: at price 9/10 the implication is below 1.
        assert not prove("P(x) -> P(x) * P(x)").holds

    def test_identity_premise(self):
        phi = "P(x) + P(y)"
        assert deduction_exponent(phi, phi) == 1

    def test_non_entailment_gives_none(self):
        assert deduction_exponent("P(x) + P(x)", "P(x)") is None

    def test_minimality_randomized(self):
        rng = random.Random(8)
        found = 0
        while found < 8:
            events = [random_event(rng, ["x", "y"], rng.randint(0, 2)) for _ in range(2)]
            atoms = [f"P({e})" for e in events]
            phi = random_modal(rng, atoms, rng.randint(0, 2))
            psi = random_modal(rng, atoms, rng.randint(0, 2))
            n = deduction_exponent(phi, psi)
            if n is None:
                continue
            found += 1
            from coh.formula import Imp, Power

            phi_f, psi_f = parse_modal(phi), parse_modal(psi)
            powered = phi_f if n == 1 else Power(phi_f, n)
            assert prove(Imp(powered, psi_f)).holds
            if n > 1:
                weaker = phi_f if n == 2 else Power(phi_f, n - 1)
                assert not prove(Imp(weaker, psi_f)).holds


# Event lists whose coherent sets are lower-dimensional: a segment, a
# triangle in 3-space, single points.
LOW_DIMENSIONAL_EVENTS = [
    ["x", "~x"],
    ["x", "~x", "y"],
    ["x", "~x", "x & ~x"],
    ["x & y", "~(x & y)"],
    ["x * ~x", "y"],
    ["1", "x"],
]


def _vertex_cases(seed, count=300):
    """Seeded premise/conclusion pairs in the c08/c10 grammar over up to
    three atoms; every fourth pair is over a lower-dimensional coherent set."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        if i % 4 == 0:
            events = rng.choice(LOW_DIMENSIONAL_EVENTS)
        else:
            names = ["x", "y"][: rng.randint(1, 2)]
            count = rng.randint(1, 3)
            events = list(dict.fromkeys(random_event(rng, names, rng.randint(0, 2)) for _ in range(count)))
        atoms = [f"P({e})" for e in events]
        phi = random_modal(rng, atoms, rng.randint(0, 3))
        cases.append((phi, random_modal(rng, atoms, rng.randint(0, 3))))
    return cases


def _translated(phi_text, psi_text):
    """Both translations over one context, in the library's atom order."""
    tctx = TranslationContext()
    phi, psi = translate(parse_modal(phi_text), tctx), translate(parse_modal(psi_text), tctx)
    return phi, psi, tctx


class TestVertexVerdicts:
    """The vertex reads against the LP-per-region reference procedures."""

    CASES = _vertex_cases(606)

    def test_consequence_matches_reference(self):
        negatives = lower_dimensional = 0
        for phi_text, psi_text in self.CASES:
            result = decide_consequence(phi_text, psi_text)
            holds, ref_point = reference_decide_consequence(phi_text, psi_text)
            assert result.holds == holds, (phi_text, psi_text)
            if holds:
                continue
            negatives += 1
            phi, psi, tctx = _translated(phi_text, psi_text)
            point = result.countermodel.prices
            env = dict(zip(tctx.names.values(), point))
            assert evaluate_formula(phi, env) == 1
            assert evaluate_formula(psi, env) < 1
            if tctx.events:
                cs = coherent_set(EventList(tctx.events))
                assert membership(point, cs.polytope).inside
                lower_dimensional += cs.polytope.affine_dim() < cs.polytope.dim
                ref_env = dict(zip(tctx.names.values(), ref_point))
                assert evaluate_formula(psi, env) <= evaluate_formula(psi, ref_env)
        assert negatives >= 60 and lower_dimensional >= 10

    def test_countermodel_independent_of_operand_order(self):
        from coh.formula import And, Iff, Or, OPlus, OTimes

        commuted = 0
        for phi_text, psi_text in self.CASES:
            phi = parse_modal(phi_text)
            if not isinstance(phi, (And, Or, OPlus, OTimes, Iff)):
                continue
            swapped = type(phi)(phi.right, phi.left)
            first = decide_consequence(phi, psi_text).to_json_dict()
            second = decide_consequence(swapped, psi_text).to_json_dict()
            assert first == second, (phi_text, psi_text)
            commuted += "countermodel" in first
        assert commuted >= 20

    def test_exponents_match_reference(self):
        raised = 0
        for phi_text, psi_text in self.CASES:
            n = deduction_exponent(phi_text, psi_text)
            assert n == reference_deduction_exponent(phi_text, psi_text), (phi_text, psi_text)
            if n is None or n < 2:
                continue
            raised += 1
            # The vertex that sets n refutes Φ^(n-1) -> Ψ.
            from coh.formula import Imp, Power

            _, point = _least_exponent(phi_text, psi_text)
            phi, psi, tctx = _translated(phi_text, psi_text)
            weaker = phi if n == 2 else Power(phi, n - 1)
            assert evaluate_formula(Imp(weaker, psi), dict(zip(tctx.names.values(), point))) < 1
            cs = coherent_set(EventList(tctx.events))
            assert membership(point, cs.polytope).inside
        assert raised >= 10

    def test_verify_oneset_matches_reference(self):
        rng = random.Random(61)
        rejected = 0
        for _ in range(20):
            poly = coherent_set(random_event_list(rng, max_depth=2)).polytope
            ctx = VarContext([f"x{i+1}" for i in range(poly.dim)])
            chi = oneset_formula(poly, ctx)
            verts = poly.vertices
            centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(poly.dim))
            shrunk = Polytope.from_vertices([tuple((x + c) / 2 for x, c in zip(v, centroid)) for v in verts])
            corners = [c for c in itertools.product((ZERO, ONE), repeat=poly.dim) if not poly.contains(c)]
            grown = Polytope.from_vertices(list(verts) + corners[:1])
            for target in (poly, shrunk, grown):
                expected = target == poly
                assert reference_verify_oneset(chi, target, ctx) == expected
                assert verify_oneset(chi, target, ctx) == expected
                rejected += not expected and target != poly
        assert rejected >= 25


class TestConsequenceLpCount:
    """The LPs a consequence query solves are the hull LPs of the points of
    its coherent set that no direction certifies as vertices.  Facet
    enumeration and the vertex reads solve none."""

    # Pinned: an LP added on the consequence path changes this count.
    LP_CALLS = 9

    def test_lp_count_pinned(self, monkeypatch):
        from coh import simplex

        rng = random.Random(808)
        pairs = []
        for _ in range(50):
            names = ["x", "y"][: rng.randint(1, 2)]
            events = list(
                dict.fromkeys(
                    random_event(rng, names, rng.randint(0, 2)) for _ in range(rng.randint(1, 3))
                )
            )
            atoms = [f"P({e})" for e in events]
            pairs.append(tuple(random_modal(rng, atoms, rng.randint(0, 3)) for _ in range(2)))
        calls = []
        solve = simplex.solve_standard

        def counted(c, A, b):
            calls.append(len(c))
            return solve(c, A, b)

        monkeypatch.setattr(simplex, "solve_standard", counted)
        for phi, psi in pairs:
            decide_consequence(phi, psi)
        assert len(calls) == self.LP_CALLS


class TestProbSubstitution:
    def test_identity_substitution(self):
        sub = ProbSubstitution({"x": "P(x)", "y": "P(y)"})
        ok, witness = is_probabilistic_substitution(sub, EventList(["x", "y"]))
        assert ok and witness is None

    def test_constrained_atom_to_free_atom_rejected(self):
        sub = ProbSubstitution({"x | ~x": "P(y)"})
        ok, witness = is_probabilistic_substitution(sub, EventList(["x | ~x"]))
        assert not ok
        assert witness[0] < Rat(1, 2)

    def test_doubling_accepted(self):
        sub = ProbSubstitution({"x": "P(x) + P(x)"})
        ok, _ = is_probabilistic_substitution(sub, EventList(["x"]))
        assert ok

    def test_ground_images(self):
        ok, _ = is_probabilistic_substitution(
            ProbSubstitution({"x": "1", "y": "0"}), EventList(["x", "y"])
        )
        assert ok
        # (1,1) is not a coherent book on {x, ~x}: rejected with witness.
        ok2, witness = is_probabilistic_substitution(
            ProbSubstitution({"x": "1", "~x": "1"}), EventList(["x", "~x"])
        )
        assert not ok2 and witness == (ONE, ONE)

    def test_invariance_transfer_and_breakage(self):
        # Accepted substitutions preserve random provable equivalences;
        # for the rejected one the witness beta* yields an explicit broken
        # pair via the coherent set's characteristic formula.
        events = EventList(["x | ~x"])
        cs = coherent_set(events)
        chi = oneset_formula(cs.polytope, VarContext(["q0"]))
        from coh.formula import substitute_atoms

        # Modal formula asserting chi over the atom: theorem by construction.
        modal_chi = _vars_to_atoms(chi, {"q0": parse_event("x | ~x")})
        assert prove(modal_chi).holds
        sub = ProbSubstitution({"x | ~x": "P(y)"})
        image = sub.apply(modal_chi)
        result = prove(image)
        assert not result.holds

    def test_substitution_preserves_equivalences_randomized(self):
        # Accepted substitutions transfer every provable equivalence; scan
        # random pairs until 50 provable ones have been transferred.
        rng = random.Random(5)
        sub = ProbSubstitution({"x": "P(x) + P(x)", "y": "P(x) * P(y)"})
        events = EventList(["x", "y"])
        ok, _ = is_probabilistic_substitution(sub, events)
        assert ok
        atoms = ["P(x)", "P(y)"]
        checked = 0
        attempts = 0
        while checked < 50:
            attempts += 1
            assert attempts < 2000
            phi = random_modal(rng, atoms, rng.randint(0, 2))
            psi = random_modal(rng, atoms, rng.randint(0, 2))
            if rng.random() < 0.4:
                psi = phi  # guarantee a stream of provable pairs
            pair = Iff(parse_modal(phi), parse_modal(psi))
            if prove(pair).holds:
                assert prove(sub.apply(pair)).holds
                checked += 1


def _vars_to_atoms(formula, mapping):
    """Replace propositional variables by modal atoms P(event)."""
    from coh.formula import Bot, Multiple, Neg, Power, Top, Var

    def walk(node):
        if isinstance(node, Var):
            return PAtom(mapping[node.name])
        if isinstance(node, (Bot, Top)):
            return node
        if isinstance(node, Neg):
            return Neg(walk(node.arg))
        if isinstance(node, Power):
            return Power(walk(node.arg), node.n)
        if isinstance(node, Multiple):
            return Multiple(node.n, walk(node.arg))
        return type(node)(walk(node.left), walk(node.right))

    return walk(formula)


class TestUnification:
    def problem(self):
        return UnificationProblem(
            [("P(x1) | ~P(x1) | P(x2) | ~P(x2)", "1")], atoms=["x1", "x2"]
        )

    def test_ground_top_unifier_accepted(self):
        assert verify_unifier(self.problem(), ProbSubstitution({"x1": "1", "x2": "1"}))

    def test_collapse_rejected(self):
        # Mapping both atoms to P(x1) admits price 1/2 where the identity
        # evaluates to 1/2, not 1.
        sub = ProbSubstitution({"x1": "P(x1)", "x2": "P(x1)"})
        assert not verify_unifier(self.problem(), sub)

    def test_trivial_identity(self):
        problem = UnificationProblem([("P(x)", "P(x)")])
        assert verify_unifier(problem, ProbSubstitution({"x": "P(x)"}))

    def test_undeclared_atom_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            UnificationProblem([("P(x)", "P(y)")], atoms=["x"])

    def test_substitution_must_cover_atoms(self):
        with pytest.raises(ValueError, match="undefined"):
            verify_unifier(self.problem(), ProbSubstitution({"x1": "1"}))


class TestGenerality:
    def test_identity_composition(self):
        problem = UnificationProblem([("P(x)", "P(x)")])
        sigma = ProbSubstitution({"x": "P(y) + P(y)"})
        delta = ProbSubstitution({"y": "P(y)"})
        assert verify_generality(sigma, sigma, delta, problem)

    def test_constrained_double_composes_to_top(self):
        # tau sends P(x) to P(y|~y) ⊕ P(y|~y); on [1/2,1] that is constantly
        # 1, so identity-delta composes to the ground unifier sigma = ⊤.
        problem = UnificationProblem([("P(x)", "P(x)")])
        sigma = ProbSubstitution({"x": "1"})
        tau = ProbSubstitution({"x": "P(y | ~y) + P(y | ~y)"})
        delta = ProbSubstitution({"y | ~y": "P(y | ~y)"})
        assert verify_generality(sigma, tau, delta, problem)

    def test_ground_mismatch_rejected(self):
        problem = UnificationProblem([("P(x)", "P(x)")])
        sigma = ProbSubstitution({"x": "P(y)"})
        tau = ProbSubstitution({"x": "1"})
        delta = ProbSubstitution({"y": "P(y)"})
        assert not verify_generality(sigma, tau, delta, problem)

    def test_domain_mismatch_raises(self):
        problem = UnificationProblem([("P(x)", "P(x)")])
        sigma = ProbSubstitution({"x": "P(y)"})
        tau = ProbSubstitution({"x": "P(z)"})
        delta = ProbSubstitution({"y": "P(y)"})
        with pytest.raises(ValueError, match="undefined"):
            verify_generality(sigma, tau, delta, problem)


class TestNoReferenceCycles:
    # The formula walks keep their memos in dicts read by closures; a
    # closure that referred to itself would leave each call's memo to the
    # cyclic collector.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_book(["x | y", "x + y"], ["1/2", "1"]),
            lambda: decide_consequence("P(x)", "P(x) + P(x)"),
            lambda: canonical_serialize(parse_event("2.(x * y)^2 -> ~(x <-> y)")),
        ],
        ids=["check_book", "decide_consequence", "canonical_serialize"],
    )
    def test_call_leaves_no_garbage_cycles(self, call):
        call()
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
