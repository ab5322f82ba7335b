"""Łukasiewicz formulas: ASTs, parsing, canonical text, normalization.

The event language has primitive connectives ⊕ (strong disjunction), ¬ and
the constant ⊥.  Derived connectives (→, ∨, ∧, ⊙, ↔, powers φ^n and
multiples n.φ) are kept as their own AST nodes so that serialized formulas
stay readable; :func:`normalize` rewrites any formula into the primitive
basis.  The modal language adds one leaf, ``P(event)``, and reuses the same
connective nodes for the outer layer.

Concrete syntax (ASCII):

    iff   := imp ("<->" imp)*          left associative
    imp   := disj ("->" imp)?          right associative
    disj  := conj ("|" conj)*
    conj  := sum ("&" sum)*
    sum   := prod ("+" prod)*          ⊕
    prod  := unary ("*" unary)*        ⊙
    unary := "~" unary | atom ("^" INT)*
    atom  := IDENT | "0" | "1" | "(" iff ")" | INT "." atom | "P(" iff ")"

``P(...)`` is accepted only when parsing modal formulas, and never nested.
Nesting through "~", "->", parentheses and "n." is capped at MAX_NESTING
levels, checked before the parser recurses.
"""

from __future__ import annotations

from typing import Iterator, Union

from .exact import ONE, Rat, ZERO
from .record import Frozen, set_field


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# The parser recurses one frame deep per "~", "->" and "n." and eight per
# parenthesis; this cap keeps it well inside the interpreter's default
# recursion limit of 1000.  Chains of left-associative operators are built
# by loops and are not counted.
MAX_NESTING = 100


class NestingError(ParseError):
    """Formula nested deeper than MAX_NESTING; raised before recursing further."""


# ---------------------------------------------------------------------------
# AST nodes.  All are frozen and hashable; equality is structural.  Variables,
# negations and the binary connectives, the bulk of every formula, have
# explicit methods; the rest use the generic ones of Frozen.


class Var(Frozen):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Bot(Frozen):
    __slots__ = ()


class Top(Frozen):
    __slots__ = ()


class Neg(Frozen):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: "Formula"):
        set_field(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.arg,) == (other.arg,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.arg,))


class _Binary(Frozen):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        set_field(self, "left", left)
        set_field(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class OPlus(_Binary):
    __slots__ = ()


class OTimes(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Power(Frozen):
    __slots__ = __match_args__ = ("arg", "n")

    def __init__(self, arg: "Formula", n: int):
        if n < 1:
            raise ValueError("power exponent must be >= 1")
        set_field(self, "arg", arg)
        set_field(self, "n", n)


class Multiple(Frozen):
    __slots__ = __match_args__ = ("n", "arg")

    def __init__(self, n: int, arg: "Formula"):
        if n < 1:
            raise ValueError("multiple count must be >= 1")
        set_field(self, "n", n)
        set_field(self, "arg", arg)


class PAtom(Frozen):
    """Atomic modal formula P(event); the argument is a pure event formula."""

    __slots__ = __match_args__ = ("event",)

    def __init__(self, event: "Formula"):
        set_field(self, "event", event)


Formula = Union[Var, Bot, Top, Neg, OPlus, OTimes, Imp, Or, And, Iff, Power, Multiple, PAtom]

BOT = Bot()
TOP = Top()


# ---------------------------------------------------------------------------
# Tokenizer / parser.

_SYMBOLS = ("<->", "->", "|", "&", "+", "*", "~", "^", ".", "(", ")")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "P" and i + 1 < n and text[i + 1] == "(":
            yield ("PMOD", "P(", i)
            i += 2
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                yield (sym, sym, i)
                i += len(sym)
                break
        else:
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                yield ("INT", text[i:j], i)
                i = j
            elif "a" <= ch <= "z":
                j = i
                while j < n and ("a" <= text[j] <= "z" or "0" <= text[j] <= "9" or text[j] == "_"):
                    j += 1
                yield ("IDENT", text[i:j], i)
                i = j
            else:
                raise ParseError(f"unknown token {ch!r}", i)
    yield ("EOF", "", n)


class _Parser:
    def __init__(self, text: str, modal: bool):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.modal = modal
        self.in_event = not modal
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nest(self, offset: int) -> None:
        """Enter one more level of recursion, refusing to pass MAX_NESTING."""
        if self.nesting == MAX_NESTING:
            raise NestingError(f"formula nesting exceeds the cap of {MAX_NESTING}", offset)
        self.nesting += 1

    def parse(self) -> Formula:
        node = self.iff()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def iff(self) -> Formula:
        node = self.imp()
        while self.peek()[0] == "<->":
            self.next()
            node = Iff(node, self.imp())
        return node

    def imp(self) -> Formula:
        node = self.disj()
        tok = self.peek()
        if tok[0] == "->":
            self.next()
            self.nest(tok[2])
            node = Imp(node, self.imp())
            self.nesting -= 1
        return node

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek()[0] == "|":
            self.next()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.sum()
        while self.peek()[0] == "&":
            self.next()
            node = And(node, self.sum())
        return node

    def sum(self) -> Formula:
        node = self.prod()
        while self.peek()[0] == "+":
            self.next()
            node = OPlus(node, self.prod())
        return node

    def prod(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "*":
            self.next()
            node = OTimes(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok[0] == "~":
            self.next()
            self.nest(tok[2])
            node = Neg(self.unary())
            self.nesting -= 1
            return node
        node = self.atom()
        while self.peek()[0] == "^":
            self.next()
            tok = self.expect("INT")
            n = int(tok[1])
            if n < 1:
                raise ParseError("power exponent must be >= 1", tok[2])
            node = Power(node, n)
        return node

    def atom(self) -> Formula:
        kind, value, offset = self.next()
        if kind == "IDENT":
            return Var(value)
        if kind == "INT":
            if self.peek()[0] == ".":
                self.next()
                n = int(value)
                if n < 1:
                    raise ParseError("multiple count must be >= 1", offset)
                # The operand of "n." is an atom; postfix powers bind to the
                # whole multiple ("3.x^2" is (3.x)^2), so none are consumed here.
                self.nest(offset)
                node = Multiple(n, self.atom())
                self.nesting -= 1
                return node
            if value == "0":
                return BOT
            if value == "1":
                return TOP
            raise ParseError("bare integer constant must be 0 or 1", offset)
        if kind == "(":
            self.nest(offset)
            node = self.iff()
            self.expect(")")
            self.nesting -= 1
            return node
        if kind == "PMOD":
            if not self.modal:
                raise ParseError("modality P(...) not allowed in an event formula", offset)
            if self.in_event:
                raise ParseError("nested modality", offset)
            self.in_event = True
            event = self.iff()
            self.in_event = False
            self.expect(")")
            return PAtom(event)
        raise ParseError(f"unexpected {value!r}", offset)


def parse_event(text: str) -> Formula:
    """Parse an event (propositional) formula."""
    return _Parser(text, modal=False).parse()


def parse_modal(text: str) -> Formula:
    """Parse a modal formula: the event grammar plus atoms ``P(event)``."""
    return _Parser(text, modal=True).parse()


# ---------------------------------------------------------------------------
# Canonical serialization.  Fully parenthesized binary connectives with a
# fixed spelling; the output reparses to a structurally identical AST and is
# used as the key for fresh propositional variables in the modal translation.

_OPS = {OPlus: "+", OTimes: "*", Imp: "->", Or: "|", And: "&", Iff: "<->"}


def canonical_serialize(formula: Formula) -> str:
    memo: dict[int, str] = {}

    def atomic(node: Formula) -> str:
        # Something usable as the operand of "n." or "^" without parentheses.
        if isinstance(node, (Var, Bot, Top, Multiple, PAtom)):
            return walk(node)
        return "(" + walk(node) + ")"

    def walk(node: Formula) -> str:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Var):
            out = node.name
        elif isinstance(node, Bot):
            out = "0"
        elif isinstance(node, Top):
            out = "1"
        elif isinstance(node, Neg):
            arg = node.arg
            if isinstance(arg, _Binary):
                out = "~(" + walk(arg) + ")"
            else:
                out = "~" + walk(arg)
        elif isinstance(node, Power):
            base = node.arg
            if isinstance(base, Power):
                out = walk(base) + "^" + str(node.n)
            else:
                out = atomic(base) + "^" + str(node.n)
        elif isinstance(node, Multiple):
            out = str(node.n) + "." + atomic(node.arg)
        elif isinstance(node, PAtom):
            out = "P(" + walk(node.event) + ")"
        else:
            out = "(" + walk(node.left) + " " + _OPS[type(node)] + " " + walk(node.right) + ")"
        memo[key] = out
        return out

    try:
        return walk(formula)
    finally:
        # walk and atomic refer to themselves and each other through their
        # closure cells; deleting them breaks those cycles, so the memo is
        # freed on return rather than by the cyclic garbage collector.
        del walk, atomic


# ---------------------------------------------------------------------------
# Normalization to the primitive basis {⊕, ¬, ⊥, variables}.


def normalize(formula: Formula) -> Formula:
    """Rewrite into the primitive basis.  Total and idempotent."""
    memo: dict[int, Formula] = {}

    def imp(a: Formula, b: Formula) -> Formula:
        return OPlus(Neg(a), b)

    def walk(node: Formula) -> Formula:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, (Var, Bot, PAtom)):
            out: Formula = node
        elif isinstance(node, Top):
            out = Neg(BOT)
        elif isinstance(node, Neg):
            out = Neg(walk(node.arg))
        elif isinstance(node, OPlus):
            out = OPlus(walk(node.left), walk(node.right))
        elif isinstance(node, OTimes):
            out = Neg(OPlus(Neg(walk(node.left)), Neg(walk(node.right))))
        elif isinstance(node, Imp):
            out = imp(walk(node.left), walk(node.right))
        elif isinstance(node, Or):
            a, b = walk(node.left), walk(node.right)
            out = imp(imp(a, b), b)
        elif isinstance(node, And):
            a, b = walk(node.left), walk(node.right)
            out = Neg(imp(imp(Neg(a), Neg(b)), Neg(b)))
        elif isinstance(node, Iff):
            a, b = walk(node.left), walk(node.right)
            left, right = imp(a, b), imp(b, a)
            out = Neg(imp(imp(Neg(left), Neg(right)), Neg(right)))
        elif isinstance(node, Power):
            out = walk(node.arg)
            base = out
            for _ in range(node.n - 1):
                out = Neg(OPlus(Neg(out), Neg(base)))
        elif isinstance(node, Multiple):
            out = walk(node.arg)
            base = out
            for _ in range(node.n - 1):
                out = OPlus(out, base)
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        memo[key] = out
        return out

    try:
        return walk(formula)
    finally:
        del walk  # break the closure's self-reference, as in canonical_serialize


# ---------------------------------------------------------------------------
# Pointwise evaluation over exact rationals (the semantics oracle).


def evaluate_formula(formula: Formula, env: dict[str, Rat]) -> Rat:
    """Evaluate at a point of [0,1]^vars using the standard MV operations.

    Derived connectives are evaluated by their closed forms (max, min, ...),
    which a property test checks against evaluating their expansions.
    """
    memo: dict[int, Rat] = {}

    def clamp01(x: Rat) -> Rat:
        return ZERO if x < 0 else ONE if x > 1 else x

    def walk(node: Formula) -> Rat:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Var):
            try:
                out = Rat(env[node.name])
            except KeyError:
                raise ValueError(f"unbound variable {node.name!r}") from None
        elif isinstance(node, Bot):
            out = ZERO
        elif isinstance(node, Top):
            out = ONE
        elif isinstance(node, Neg):
            out = ONE - walk(node.arg)
        elif isinstance(node, OPlus):
            out = clamp01(walk(node.left) + walk(node.right))
        elif isinstance(node, OTimes):
            out = clamp01(walk(node.left) + walk(node.right) - 1)
        elif isinstance(node, Imp):
            out = clamp01(ONE - walk(node.left) + walk(node.right))
        elif isinstance(node, Or):
            out = max(walk(node.left), walk(node.right))
        elif isinstance(node, And):
            out = min(walk(node.left), walk(node.right))
        elif isinstance(node, Iff):
            a, b = walk(node.left), walk(node.right)
            out = ONE - abs(a - b)
        elif isinstance(node, Power):
            out = clamp01(node.n * walk(node.arg) - (node.n - 1))
        elif isinstance(node, Multiple):
            out = clamp01(node.n * walk(node.arg))
        else:
            raise TypeError(f"cannot evaluate modal atom {node!r} pointwise")
        memo[key] = out
        return out

    try:
        return walk(formula)
    finally:
        del walk  # break the closure's self-reference, as in canonical_serialize


# ---------------------------------------------------------------------------
# Variable bookkeeping.


def _walk_leaves(formula: Formula, want: type) -> Iterator[Formula]:
    seen: set[int] = set()
    stack = [formula]
    out = []

    def visit(node: Formula):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, want):
            out.append(node)
            if not isinstance(node, PAtom):
                return
        if isinstance(node, Neg):
            visit(node.arg)
        elif isinstance(node, _Binary):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, Power):
            visit(node.arg)
        elif isinstance(node, Multiple):
            visit(node.arg)
        elif isinstance(node, PAtom) and want is not PAtom:
            visit(node.event)

    try:
        visit(formula)
    finally:
        del visit  # break the closure's self-reference, as in canonical_serialize
    return iter(out)


def free_vars(formula: Formula) -> tuple[str, ...]:
    """Variable names in order of first occurrence (left-to-right)."""
    names: list[str] = []
    seen: set[str] = set()
    for leaf in _walk_leaves(formula, Var):
        if leaf.name not in seen:
            seen.add(leaf.name)
            names.append(leaf.name)
    return tuple(names)


def modal_atoms(formula: Formula) -> tuple[Formula, ...]:
    """Distinct events under P, in order of first occurrence.

    Events are identified by canonical text: syntactically distinct but
    logically equivalent events count as different atoms.
    """
    events: list[Formula] = []
    seen: set[str] = set()
    for leaf in _walk_leaves(formula, PAtom):
        key = canonical_serialize(leaf.event)
        if key not in seen:
            seen.add(key)
            events.append(leaf.event)
    return tuple(events)


def is_event_formula(formula: Formula) -> bool:
    """True when the formula contains no modal atom."""
    return not any(True for _ in _walk_leaves(formula, PAtom))


def substitute_atoms(formula: Formula, mapping: dict[str, Formula]) -> Formula:
    """Replace each P(event) by mapping[canonical text of event].

    Raises KeyError when an atom has no image; used to apply probabilistic
    substitutions and to compose them.
    """
    memo: dict[int, Formula] = {}

    def walk(node: Formula) -> Formula:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, PAtom):
            out = mapping[canonical_serialize(node.event)]
        elif isinstance(node, (Var, Bot, Top)):
            out = node
        elif isinstance(node, Neg):
            out = Neg(walk(node.arg))
        elif isinstance(node, Power):
            out = Power(walk(node.arg), node.n)
        elif isinstance(node, Multiple):
            out = Multiple(node.n, walk(node.arg))
        else:
            out = type(node)(walk(node.left), walk(node.right))
        memo[key] = out
        return out

    try:
        return walk(formula)
    finally:
        del walk  # break the closure's self-reference, as in canonical_serialize


def formula_depth(formula: Formula) -> int:
    """Connective nesting depth (leaves have depth 0)."""
    memo: dict[int, int] = {}

    def walk(node: Formula) -> int:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, (Var, Bot, Top)):
            out = 0
        elif isinstance(node, Neg):
            out = 1 + walk(node.arg)
        elif isinstance(node, (Power, Multiple)):
            out = 1 + walk(node.arg)
        elif isinstance(node, PAtom):
            out = 1 + walk(node.event)
        else:
            out = 1 + max(walk(node.left), walk(node.right))
        memo[key] = out
        return out

    try:
        return walk(formula)
    finally:
        del walk  # break the closure's self-reference, as in canonical_serialize


class VarContext:
    """Ordered, stable assignment of variable names to coordinate positions."""

    def __init__(self, names: Iterator[str] | list[str] | tuple[str, ...] = ()):  # noqa: D107
        self.names: tuple[str, ...] = ()
        self.index: dict[str, int] = {}
        self._extend(names)

    def _extend(self, names) -> None:
        new = list(self.names)
        for name in names:
            if name not in self.index:
                self.index[name] = len(new)
                new.append(name)
        self.names = tuple(new)

    @classmethod
    def of(cls, *formulas: Formula) -> "VarContext":
        ctx = cls()
        for f in formulas:
            ctx._extend(free_vars(f))
        return ctx

    def extended(self, *formulas: Formula) -> "VarContext":
        """New context with any unseen variables appended (positions stable)."""
        ctx = VarContext(self.names)
        for f in formulas:
            ctx._extend(free_vars(f))
        return ctx

    @property
    def arity(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def env(self, point) -> dict[str, Rat]:
        if len(point) != self.arity:
            raise ValueError(f"point has arity {len(point)}, context has {self.arity}")
        return {name: Rat(v) for name, v in zip(self.names, point)}

    def __repr__(self) -> str:
        return f"VarContext({list(self.names)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)
