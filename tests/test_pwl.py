"""McNaughton complexes: construction, evaluation, onesets, refinement."""

import random
from itertools import combinations

import pytest

from coh.coherence import Book, CoherenceVerdict
from coh.exact import ONE, Rat, ZERO, dot
from coh.formula import (
    BOT,
    TOP,
    And,
    Iff,
    Imp,
    Multiple,
    Neg,
    OPlus,
    Or,
    OTimes,
    Power,
    Var,
    VarContext,
    parse_event,
    postorder,
)
from coh.fplogic import ConsequenceResult, oneset_formula
from coh.polytope import MembershipCertificate, Polytope
from coh.pwl import (
    AffineForm,
    LinearCell,
    common_refinement,
    mcnaughton,
    oneset,
)
from coh.simplex import LPResult

from util import (
    eval_at,
    farey,
    form_at,
    grid_points,
    is_constantly_one,
    random_event,
    reference_mcnaughton,
    values_at,
    varied_complex,
    vertex_table,
)


def rp(*vals):
    return tuple(Rat(v) for v in vals)


def build(text, names):
    return mcnaughton(parse_event(text), VarContext(list(names)))


def refinement_vertices(cells):
    """Distinct vertices across cells, in first-seen order."""
    return list(dict.fromkeys(v for cell in cells for v in cell.vertices))


class TestMcnaughton:
    def test_disjunction_vs_oplus_at_center(self):
        point = rp("1/2", "1/2")
        assert values_at(build("x | y", "xy"), point) == {Rat(1, 2)}
        assert values_at(build("x + y", "xy"), point) == {1}

    def test_top_single_cell(self):
        f = build("1", "x")
        assert len(f.cells) == 1
        assert f.cells[0].form == AffineForm(1, (0,))

    def test_power_times_example(self):
        assert values_at(build("(x + x) * x", "x"), rp("3/10")) == {0}

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            build("x + q", "x")


class TestEvaluate:
    def test_oplus_at_origin(self):
        assert values_at(build("x + y", "xy"), rp(0, 0)) == {0}

    def test_implication_tautology(self):
        f = build("x -> x", "x")
        for v in farey(5):
            assert values_at(f, (v,)) == {1}
        assert is_constantly_one(f)

    def test_multiple_times_negation(self):
        assert values_at(build("2.x * ~x", "x"), rp("2/5")) == {Rat(2, 5)}


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
                assert values_at(func, p) == {eval_at(text, p)}, (text, p)


def shared_formula(rng, names, size):
    """A formula built bottom-up as a chain over a pool of nodes: each new
    node takes the last one as an operand, and a binary node takes any
    earlier node as the other, so subterm objects recur."""
    pool = [Var(name) for name in names]
    if rng.random() < 0.2:
        pool.append(rng.choice([BOT, TOP]))
    for _ in range(size):
        kind = rng.choice([OPlus, OTimes, Imp, Or, And, Iff, Neg, Power, Multiple])
        a = pool[-1]
        if kind is Neg:
            node = Neg(a)
        elif kind is Power:
            node = Power(a, rng.randint(2, 3))
        elif kind is Multiple:
            node = Multiple(rng.randint(2, 3), a)
        elif rng.random() < 0.5:
            node = kind(a, rng.choice(pool))
        else:
            node = kind(rng.choice(pool), a)
        pool.append(node)
    return pool[-1]


def has_shared_node(formula):
    """Some node object is the operand of two parents, or twice of one."""
    seen = set()
    for node in postorder(formula):
        for name in ("arg", "left", "right"):
            arg = getattr(node, name, None)
            if arg is not None:
                if id(arg) in seen:
                    return True
                seen.add(id(arg))
    return False


class TestReferenceBuilder:
    """The one-pass builder returns the overlay builder's cells, in order."""

    def test_cells_equal_reference_overlay(self):
        rng = random.Random(2024)
        cases = []
        for _ in range(150):
            names = "xyz"[: rng.choice([1, 1, 2, 2, 2, 3])]
            cases.append((parse_event(random_event(rng, list(names), rng.randint(2, 5))), names))
        for _ in range(150):
            names = "xy"[: rng.randint(1, 2)]
            cases.append((shared_formula(rng, names, rng.randint(3, 8)), names))
        for dim, count in ((1, 6), (2, 6)):
            for _ in range(count):
                points = [tuple(Rat(rng.randint(0, 3), 3) for _ in range(dim)) for _ in range(3)]
                names = "xy"[:dim]
                ctx = VarContext(list(names))
                cases.append((oneset_formula(Polytope.from_vertices(points), ctx), names))
        kinds = {Power: 0, Multiple: 0, "shared": 0}
        for formula, names in cases:
            ctx = VarContext(list(names))
            assert mcnaughton(formula, ctx).cells == reference_mcnaughton(formula, ctx).cells
            classes = {type(node) for node in postorder(formula)}
            kinds[Power] += Power in classes
            kinds[Multiple] += Multiple in classes
            kinds["shared"] += has_shared_node(formula)
        assert len(cases) >= 300
        assert min(kinds.values()) >= 50, kinds


class TestComplexInvariants:
    def assert_well_formed(self, func):
        n = func.arity
        # Cover: top-dimensional cell volumes sum to 1, exactly.
        assert sum(c.polytope.volume() for c in func.cells) == 1
        # Range: all vertex values in [0,1].
        for cell in func.cells:
            for v in cell.polytope.vertices:
                value = form_at(cell.form, v)
                assert 0 <= value <= 1
        # Continuity: forms agree on shared vertices of any two cells.
        for ca, cb in combinations(func.cells, 2):
            shared = set(ca.polytope.vertices) & set(cb.polytope.vertices)
            for v in shared:
                assert form_at(ca.form, v) == form_at(cb.form, v)

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
        # The cell [0, 1/2] gives the point 1/2, inside the piece [1/2, 1] of
        # the next cell; the union is [1/2, 1].
        pieces = oneset(build("x + x", "x"))
        half_to_one = Polytope.from_vertices([rp("1/2"), rp(1)])
        assert half_to_one in pieces
        assert all(half_to_one.includes(piece) for piece in pieces)

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
                    assert values_at(func, v) == {1}

    def test_union_is_exactly_the_oneset(self):
        # Every piece lies in {f = 1}, and every grid point where f is 1 lies
        # in some piece.
        rng = random.Random(78)
        for _ in range(40):
            names = "xy"[: rng.randint(1, 2)]
            text = random_event(rng, list(names), rng.randint(1, 3))
            func = build(text, names)
            pieces = oneset(func)
            for piece in pieces:
                for v in piece.vertices:
                    assert values_at(func, v) == {1}, text
            for point in grid_points(len(names), 6):
                if eval_at(text, point) == 1:
                    assert any(piece.contains(point) for piece in pieces), (text, point)


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
                assert form_at(cell_forms[0], v) == eval_at("x | y", v)
                assert form_at(cell_forms[1], v) == eval_at("x + y", v)

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
                    assert form_at(form, v) == eval_at(text, v)

    def test_context_mismatch(self):
        f1 = build("x", "x")
        f2 = build("x", "xy")
        with pytest.raises(ValueError, match="context"):
            common_refinement([f1, f2])

    def test_refinement_idempotent_volume_preserving(self):
        ctx = VarContext(["x", "y"])
        fs = [mcnaughton(parse_event(t), ctx) for t in ["x | y", "x + y"]]
        cells, _ = common_refinement(fs)
        # Another builder (refine, other order) with extra splits: total
        # geometry unchanged, volumes preserved.
        events = [parse_event(t) for t in ["x | y", "x + y"]]
        cells2, _ = varied_complex(events, ctx, [1, 0], [((1, -1), 0), ((3, 1), 2)])
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
        # An affine form is extreme on a cell at a vertex, so the vertex
        # values give the range over the cube.
        def value_range(text):
            values = [Rat(v, d) for (_, d), (v,) in vertex_table(build(text, "x")).items()]
            return min(values), max(values)

        # max(0, x + (1-x) - 1) = 0 everywhere: x ⊙ ¬x is Bot-valued.
        assert value_range("x * ~x") == (0, 0)
        assert value_range("x | ~x") == (Rat(1, 2), ONE)


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
