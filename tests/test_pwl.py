"""McNaughton complexes: construction, evaluation, onesets, refinement."""

import random
from itertools import combinations

import pytest

from coh.coherence import Book, CoherenceVerdict
from coh.exact import ONE, Rat, ZERO, dot
from coh.formula import VarContext, parse_event
from coh.fplogic import ConsequenceResult
from coh.polytope import MembershipCertificate, Polytope, convex_hull
from coh.pwl import (
    AffineForm,
    LinearCell,
    common_refinement,
    evaluate,
    function_range,
    is_tautology,
    mcnaughton,
    oneset,
    refinement_vertices,
)
from coh.simplex import LPResult

from util import eval_at, farey, grid_points, random_event


def rp(*vals):
    return tuple(Rat(v) for v in vals)


def build(text, names):
    return mcnaughton(parse_event(text), VarContext(list(names)))


class TestMcnaughton:
    def test_disjunction_vs_oplus_at_center(self):
        point = rp("1/2", "1/2")
        assert evaluate(build("x | y", "xy"), point) == Rat(1, 2)
        assert evaluate(build("x + y", "xy"), point) == 1

    def test_top_single_cell(self):
        f = build("1", "x")
        assert len(f.cells) == 1
        assert f.cells[0].form.const == 1 and f.cells[0].form.is_constant()

    def test_power_times_example(self):
        assert evaluate(build("(x + x) * x", "x"), rp("3/10")) == 0

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            build("x + q", "x")

    def test_arity_mismatch_on_evaluate(self):
        f = build("x + y", "xy")
        with pytest.raises(ValueError, match="arity"):
            evaluate(f, rp("1/2"))

    def test_point_outside_cube(self):
        f = build("x", "x")
        with pytest.raises(ValueError, match="outside"):
            evaluate(f, rp(2))


class TestEvaluate:
    def test_oplus_at_origin(self):
        assert evaluate(build("x + y", "xy"), rp(0, 0)) == 0

    def test_implication_tautology(self):
        f = build("x -> x", "x")
        for v in farey(5):
            assert evaluate(f, (v,)) == 1
        assert is_tautology(f)

    def test_multiple_times_negation(self):
        assert evaluate(build("2.x * ~x", "x"), rp("2/5")) == Rat(2, 5)


class TestOracleEquivalence:
    def test_random_formulas_against_pointwise_recursion(self):
        rng = random.Random(101)
        grid1 = [(v,) for v in farey(6)]
        for _ in range(60):
            nvars = rng.randint(1, 3)
            names = "xyz"[:nvars]
            text = random_event(rng, list(names), rng.randint(1, 5))
            func = build(text, names)
            if nvars == 1:
                points = grid1
            elif nvars == 2:
                points = [(a, b) for a in farey(4) for b in farey(4)]
            else:
                points = [
                    tuple(Rat(rng.randint(0, 6), 6) for _ in range(3)) for _ in range(25)
                ]
            for p in points:
                assert evaluate(func, p) == eval_at(text, p), (text, p)


class TestComplexInvariants:
    def assert_well_formed(self, func):
        n = func.arity
        # Cover: top-dimensional cell volumes sum to 1, exactly.
        assert sum(c.polytope.volume() for c in func.cells) == 1
        # Range: all vertex values in [0,1].
        for cell in func.cells:
            for v in cell.polytope.vertices:
                value = cell.form.value(v)
                assert 0 <= value <= 1
        # Continuity: forms agree on shared vertices of any two cells.
        for ca, cb in combinations(func.cells, 2):
            shared = set(ca.polytope.vertices) & set(cb.polytope.vertices)
            for v in shared:
                assert ca.form.value(v) == cb.form.value(v)

    def test_fixed_formulas(self):
        for text, names in [
            ("x + y", "xy"),
            ("(x | y) <-> (x + y)", "xy"),
            ("2.x * ~y -> x^2", "xy"),
            ("(x + y + z) & ~x", "xyz"),
        ]:
            self.assert_well_formed(build(text, names))

    def test_random_formulas(self):
        rng = random.Random(55)
        for _ in range(25):
            names = "xyz"[: rng.randint(1, 3)]
            text = random_event(rng, list(names), rng.randint(1, 4))
            self.assert_well_formed(build(text, names))


class TestOneset:
    def test_double_x(self):
        pieces = oneset(build("x + x", "x"))
        assert pieces == [convex_hull([rp("1/2"), rp(1)])]

    def test_bottom_empty(self):
        assert oneset(build("0", "x")) == []

    def test_excluded_middle_endpoints(self):
        pieces = oneset(build("x | ~x", "x"))
        assert sorted(p.vertices for p in pieces) == [(rp(0),), (rp(1),)]

    def test_oneset_subset_of_cube_randomized(self):
        rng = random.Random(77)
        for _ in range(20):
            names = "xy"[: rng.randint(1, 2)]
            func = build(random_event(rng, list(names), 3), names)
            for piece in oneset(func):
                for v in piece.vertices:
                    assert all(0 <= x <= 1 for x in v)
                    assert evaluate(func, v) == 1


class TestCommonRefinement:
    def test_fig_shapes(self):
        ctx = VarContext(["x", "y"])
        fs = [mcnaughton(parse_event(t), ctx) for t in ["x | y", "x + y"]]
        cells, forms = common_refinement(fs)
        verts = refinement_vertices(cells)
        assert rp("1/2", "1/2") in verts
        # Every function affine on every cell, checked via the pointwise oracle
        # at the vertices.
        for cell, cell_forms in zip(cells, forms):
            for v in cell.vertices:
                assert cell_forms[0].value(v) == eval_at("x | y", v)
                assert cell_forms[1].value(v) == eval_at("x + y", v)

    def test_single_tautology(self):
        ctx = VarContext(["x", "y"])
        cells, _ = common_refinement([mcnaughton(parse_event("1"), ctx)])
        assert len(cells) == 1
        assert cells[0] == Polytope.cube(2)

    def test_three_functions_consistent(self):
        ctx = VarContext(["x", "y"])
        texts = ["x + y", "x * y", "x & y"]
        fs = [mcnaughton(parse_event(t), ctx) for t in texts]
        cells, forms = common_refinement(fs)
        for cell, cell_forms in zip(cells, forms):
            for v in cell.vertices:
                for text, form in zip(texts, cell_forms):
                    assert form.value(v) == eval_at(text, v)

    def test_context_mismatch(self):
        f1 = build("x", "x")
        f2 = build("x", "xy")
        with pytest.raises(ValueError, match="context"):
            common_refinement([f1, f2])

    def test_refinement_idempotent_volume_preserving(self):
        ctx = VarContext(["x", "y"])
        fs = [mcnaughton(parse_event(t), ctx) for t in ["x | y", "x + y"]]
        cells, _ = common_refinement(fs)
        # Redundant extra split: total geometry unchanged, volumes preserved.
        cells2, _ = common_refinement(fs, extra_cuts=[((1, -1), 0), ((3, 1), 2)])
        assert sum(c.volume() for c in cells2) == sum(c.volume() for c in cells) == 1
        for cell in cells2:
            parents = [c for c in cells if all(c.contains(v) for v in cell.vertices)]
            assert parents, "split cell not inside an original cell"
        # Refining again by the same functions only re-slices existing cells.
        cells3, _ = common_refinement(fs + fs)
        assert sum(c.volume() for c in cells3) == 1
        for cell in cells3:
            assert any(all(c.contains(v) for v in cell.vertices) for c in cells)


class TestRange:
    def test_function_range(self):
        lo, hi = function_range(build("x * ~x", "x"))
        assert lo == 0
        # max of max(0, x + (1-x) - 1) = 0 everywhere: x ⊙ ¬x is Bot-valued.
        assert hi == 0
        lo2, hi2 = function_range(build("x | ~x", "x"))
        assert (lo2, hi2) == (Rat(1, 2), ONE)


class TestRecords:
    def test_cells_of_separate_builds_equal_with_equal_hashes(self):
        a, b = build("x + ~y", "xy"), build("x + ~y", "xy")
        assert a.cells == b.cells
        assert [hash(c) for c in a.cells] == [hash(c) for c in b.cells]
        assert {c.form for c in a.cells} == {c.form for c in b.cells}

    def test_hash_is_hash_of_fields(self):
        form = AffineForm(1, (2, -3))
        cell = LinearCell(Polytope.cube(2), form)
        assert hash(form) == hash((1, (2, -3)))
        assert hash(cell) == hash((Polytope.cube(2), form))

    def test_equality_is_per_class(self):
        form = AffineForm(0, (1,))
        assert form == AffineForm(const=0, coeffs=(1,))
        assert form != AffineForm(0, (2,)) and form != (0, (1,))
        assert LinearCell(Polytope.cube(1), form) != LinearCell(Polytope.cube(1), form.complement())

    def test_frozen(self):
        form = AffineForm(0, (1,))
        cell = LinearCell(Polytope.cube(1), form)
        with pytest.raises(AttributeError):
            form.const = 1
        with pytest.raises(AttributeError):
            cell.form = form.complement()
        assert cell.form is form

    def test_results_built_by_keyword_compare_by_fields(self):
        assert LPResult("optimal", x=(ONE,), value=ZERO) == LPResult(status="optimal", x=(ONE,), value=ZERO)
        assert LPResult("optimal") != LPResult("infeasible")
        assert MembershipCertificate(inside=True, weights=(ONE,)) == MembershipCertificate(True, (ONE,))
        assert CoherenceVerdict(coherent=False, dutch_book=((1,), ONE)) == CoherenceVerdict(False, None, ((1,), ONE))
        assert ConsequenceResult(holds=False, countermodel=Book(())) == ConsequenceResult(False, Book(()))
        assert ConsequenceResult(holds=True) != LPResult(status=True)
        assert repr(LPResult("unbounded")) == "LPResult(status='unbounded', x=None, value=None, farkas=None)"

    def test_results_are_mutable_and_unhashable(self):
        result = LPResult("optimal")
        result.value = ONE
        assert result == LPResult("optimal", value=ONE)
        for record in (result, MembershipCertificate(True), CoherenceVerdict(True), ConsequenceResult(True)):
            with pytest.raises(TypeError):
                hash(record)
