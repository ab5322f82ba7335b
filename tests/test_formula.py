"""Parser, canonical text, normalization and pointwise semantics."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coh.exact import Rat
from coh.formula import (
    MAX_NESTING,
    And,
    BOT,
    Iff,
    Imp,
    Multiple,
    Neg,
    NestingError,
    OPlus,
    OTimes,
    Or,
    PAtom,
    ParseError,
    Power,
    TOP,
    Var,
    VarContext,
    canonical_serialize,
    evaluate_formula,
    formula_depth,
    free_vars,
    normalize,
    parse_event,
    parse_modal,
)

from util import eval_at


class TestParsing:
    def test_or_example(self):
        assert parse_event("x | y") == Or(Var("x"), Var("y"))

    def test_not_bot_is_top(self):
        assert parse_event("~0") == Neg(BOT)
        assert evaluate_formula(parse_event("~0"), {}) == 1

    def test_power_parses_as_node(self):
        assert parse_event("x^2") == Power(Var("x"), 2)

    def test_power_expands_to_otimes(self):
        # Expansion oracle: unfolding the power by repeated ⊙ gives the same
        # normal form.
        assert normalize(parse_event("x^2")) == normalize(OTimes(Var("x"), Var("x")))
        assert normalize(parse_event("x^3")) == normalize(
            OTimes(OTimes(Var("x"), Var("x")), Var("x"))
        )

    def test_multiple(self):
        assert parse_event("3.x") == Multiple(3, Var("x"))
        assert normalize(parse_event("2.x")) == normalize(OPlus(Var("x"), Var("x")))

    def test_precedence(self):
        # ~ binds tightest, then ^, *, +, &, |, ->, <->; -> right-assoc.
        assert parse_event("~x^2") == Neg(Power(Var("x"), 2))
        assert parse_event("x + y * z") == OPlus(Var("x"), OTimes(Var("y"), Var("z")))
        assert parse_event("x -> y -> z") == Imp(Var("x"), Imp(Var("y"), Var("z")))
        assert parse_event("x <-> y <-> z") == Iff(Iff(Var("x"), Var("y")), Var("z"))
        assert parse_event("x | y & z") == Or(Var("x"), And(Var("y"), Var("z")))

    def test_multiple_binds_as_atom(self):
        assert parse_event("3.x^2") == Power(Multiple(3, Var("x")), 2)
        assert parse_event("~3.x") == Neg(Multiple(3, Var("x")))
        assert parse_event("2.3.x") == Multiple(2, Multiple(3, Var("x")))

    @pytest.mark.parametrize(
        "bad,offset",
        [
            ("x +", 3),
            ("(x | y", 6),
            ("x ? y", 2),
            ("2", 0),
            ("x ^ 0", 4),
            ("0.x", 0),
            ("Q(x)", 0),
        ],
    )
    def test_positioned_errors(self, bad, offset):
        with pytest.raises(ParseError) as err:
            parse_event(bad)
        assert err.value.offset == offset

    def test_grammar_totality_no_crash(self):
        # Anything either parses or raises ParseError with a position.
        for text in ["", "))((", "x y", "^2", "p(", "xYz", "1.2.3", "~~~~~"]:
            try:
                parse_event(text)
            except ParseError as err:
                assert isinstance(err.offset, int)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="xy01+*|&<->~^.()P \t", max_size=25))
    def test_grammar_totality_fuzz(self, text):
        for parser in (parse_event, parse_modal):
            try:
                parser(text)
            except ParseError as err:
                assert 0 <= err.offset <= len(text)


    @pytest.mark.parametrize("opener,closer", [("~", ""), ("(", ")"), ("2.", ""), ("x -> ", "")])
    def test_nesting_cap(self, opener, closer):
        at_cap = opener * MAX_NESTING + "x" + closer * MAX_NESTING
        assert formula_depth(parse_event(at_cap)) == (0 if opener == "(" else MAX_NESTING)
        with pytest.raises(NestingError) as err:
            parse_event(opener + at_cap + closer)
        assert isinstance(err.value, ParseError)
        assert err.value.offset // len(opener) == MAX_NESTING  # in the first opener past the cap


class TestNodes:
    def test_separately_parsed_formulas_equal_with_equal_hashes(self):
        for text in ["x + ~y", "(x -> y) <-> 2.(x & y)^3", "x | 0 | 1"]:
            a, b = parse_event(text), parse_event(text)
            assert a is not b and a == b and hash(a) == hash(b)
        a, b = parse_modal("P(x) * P(x + y)"), parse_modal("P(x)*P(x+y)")
        assert a == b and hash(a) == hash(b)

    def test_equality_is_per_class(self):
        x, y = Var("x"), Var("y")
        assert OPlus(x, y) != OTimes(x, y)
        assert Power(x, 2) != Multiple(2, x)
        assert Neg(x) != PAtom(x)
        assert OPlus(x, y) != (x, y)
        assert OPlus(x, y) != OPlus(y, x)

    def test_fields_are_frozen(self):
        node = OPlus(Var("x"), Var("y"))
        for target, field in [(node, "left"), (node.left, "name"), (Power(node, 2), "n"), (BOT, "x")]:
            with pytest.raises(AttributeError):
                setattr(target, field, Var("z"))
        with pytest.raises(AttributeError):
            del node.right
        assert node == OPlus(Var("x"), Var("y"))
        assert copy.deepcopy(node) == node and pickle.loads(pickle.dumps(node)) == node

    def test_counts_below_one_rejected(self):
        with pytest.raises(ValueError):
            Power(Var("x"), 0)
        with pytest.raises(ValueError):
            Multiple(0, Var("x"))

    def test_hash_is_hash_of_fields(self):
        x, y = Var("x"), Var("y")
        assert hash(x) == hash(("x",))
        assert hash(BOT) == hash(()) == hash(TOP)
        assert hash(Neg(x)) == hash((x,))
        assert hash(PAtom(x)) == hash((x,))
        for cls in (OPlus, OTimes, Imp, Or, And, Iff):
            assert hash(cls(x, y)) == hash((x, y))
        assert hash(Power(x, 3)) == hash((x, 3))
        assert hash(Multiple(3, x)) == hash((3, x))

    def test_keyword_construction_and_repr(self):
        node = Multiple(n=2, arg=Power(arg=Var(name="x"), n=3))
        assert node == parse_event("2.(x^3)")
        assert repr(node) == "Multiple(n=2, arg=Power(arg=Var(name='x'), n=3))"


class TestModalParsing:
    def test_patom(self):
        f = parse_modal("P(x+y)")
        assert canonical_serialize(f) == "P((x + y))"

    def test_axiom_shape(self):
        f = parse_modal("~P(x) <-> P(~x)")
        assert canonical_serialize(f) == "(~P(x) <-> P(~x))"

    def test_nested_modality_rejected(self):
        with pytest.raises(ParseError, match="nested modality"):
            parse_modal("P(P(x))")

    def test_modality_rejected_in_event(self):
        with pytest.raises(ParseError, match="not allowed"):
            parse_event("P(x)")


class TestCanonicalText:
    def test_or_spelling(self):
        assert canonical_serialize(Or(Var("x"), Var("y"))) == "(x | y)"

    def test_parens_erased(self):
        a = parse_event("x|y")
        b = parse_event("(x)|(y)")
        assert canonical_serialize(a) == canonical_serialize(b)

    def test_no_logical_rewriting(self):
        # ~~x stays textually distinct from x although semantically equal.
        f = parse_event("~~x")
        assert canonical_serialize(f) == "~~x"
        for v in ["0", "1/3", "1"]:
            assert eval_at("~~x", (Rat(v),)) == eval_at("x", (Rat(v),))

    def test_power_of_multiple_distinct_from_multiple_of_power(self):
        a = Power(Multiple(3, Var("x")), 2)
        b = Multiple(3, Power(Var("x"), 2))
        assert canonical_serialize(a) == "3.x^2"
        assert canonical_serialize(b) == "3.(x^2)"
        assert parse_event(canonical_serialize(a)) == a
        assert parse_event(canonical_serialize(b)) == b


def formulas(max_leaves=12):
    leaf = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Var("z"), BOT, TOP]),
    )

    def extend(children):
        unary = children.flatmap(
            lambda a: st.one_of(
                st.just(Neg(a)),
                st.integers(1, 3).map(lambda n: Power(a, n)),
                st.integers(1, 3).map(lambda n: Multiple(n, a)),
            )
        )
        binary = st.tuples(children, children, st.sampled_from([OPlus, OTimes, Imp, Or, And, Iff])).map(
            lambda t: t[2](t[0], t[1])
        )
        return st.one_of(unary, binary)

    return st.recursive(leaf, extend, max_leaves=max_leaves)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_parse_serialize_roundtrip(self, f):
        assert parse_event(canonical_serialize(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_serialize_parse_identity_on_canonical_text(self, f):
        text = canonical_serialize(f)
        assert canonical_serialize(parse_event(text)) == text


class TestNormalization:
    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_idempotent(self, f):
        once = normalize(f)
        assert normalize(once) == once

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_leaves=8), st.lists(st.fractions(0, 1), min_size=3, max_size=3))
    def test_primitive_expansion_semantics(self, f, values):
        point = tuple(Rat(v.numerator, v.denominator) for v in values)
        env = dict(zip(["x", "y", "z"], point))
        assert evaluate_formula(f, env) == evaluate_formula(normalize(f), env)

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_normal_form_uses_primitive_basis(self, f):
        from coh.formula import Bot, Neg as N, OPlus as OP, Var as V

        def check(node):
            assert isinstance(node, (V, Bot, N, OP))
            if isinstance(node, N):
                check(node.arg)
            elif isinstance(node, OP):
                check(node.left)
                check(node.right)

        check(normalize(f))


class TestEvaluation:
    @pytest.mark.parametrize(
        "text,point,expected",
        [
            ("x | y", ("1/2", "1/2"), "1/2"),
            ("x + y", ("1/2", "1/2"), "1"),
            ("(x + x) * x", ("3/10",), "0"),
            ("2.x * ~x", ("2/5",), "2/5"),
            ("x -> x", ("17/31",), "1"),
        ],
    )
    def test_fixed_values(self, text, point, expected):
        assert eval_at(text, [Rat(p) for p in point]) == Rat(expected)


class TestVarContext:
    def test_first_occurrence_order(self):
        ctx = VarContext.of(parse_event("y + x * y + z"))
        assert ctx.names == ("y", "x", "z")

    def test_positions_stable_under_extension(self):
        ctx = VarContext.of(parse_event("y + x"))
        extended = ctx.extended(parse_event("z * x"))
        assert extended.names == ("y", "x", "z")
        for name in ctx.names:
            assert ctx.position(name) == extended.position(name)

    def test_free_vars(self):
        assert free_vars(parse_event("z -> (x | z)")) == ("z", "x")
