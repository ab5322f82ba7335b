"""Łukasiewicz formulas: ASTs, parsing, traversal, canonical text, evaluation.

The event language has primitive connectives ⊕ (strong disjunction), ¬ and
the constant ⊥.  Derived connectives (→, ∨, ∧, ⊙, ↔, powers φ^n and
multiples n.φ) are kept as their own AST nodes so that serialized formulas
stay readable, and are evaluated by their closed forms.  The modal language
adds one leaf, ``P(event)``, and reuses the same connective nodes for the
outer layer.

Concrete syntax (ASCII):

    binary := unary (OP unary)*        OP a binary connective of _BINARY
    unary  := "~" unary | atom ("^" INT)*
    atom   := IDENT | "0" | "1" | "(" binary ")" | INT "." atom | "P(" binary ")"

`_BINARY` lists the spelling of each binary connective, loosest first;
implication associates to the right and the others to the left.
``P(...)`` is accepted only when parsing modal formulas, and never nested.
Nesting through "~", implication, parentheses and "n." is capped at
MAX_NESTING levels, checked before the parser recurses.  Left-associative
chains are built by loops and are not capped; every walk over a parsed
formula goes through :func:`postorder`, which does not recurse, so their
depth is bounded only by the callers' own caps.
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


# The parser recurses one frame deep per "~", implication and "n." and
# three per parenthesis; this cap keeps it well inside the interpreter's
# default recursion limit of 1000.  Chains of left-associative operators are
# built by loops and are not counted.
MAX_NESTING = 100


class NestingError(ParseError):
    """Formula nested deeper than MAX_NESTING; raised before recursing further."""


# ---------------------------------------------------------------------------
# AST nodes.  All are frozen and hashable; equality is structural, by the
# generic methods of Frozen.


class Var(Frozen):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Bot(Frozen):
    __slots__ = ()


class Top(Frozen):
    __slots__ = ()


class Neg(Frozen):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: "Formula"):
        set_field(self, "arg", arg)


class _Binary(Frozen):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        set_field(self, "left", left)
        set_field(self, "right", right)


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

# The binary connectives: spelling and node class, loosest first.
_BINARY = (("<->", Iff), ("->", Imp), ("|", Or), ("&", And), ("+", OPlus), ("*", OTimes))
_LEVEL = {symbol: level for level, (symbol, _) in enumerate(_BINARY)}
_SYMBOLS = (*_LEVEL, "~", "^", ".", "(", ")")


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
        node = self.binary(0)
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def binary(self, weakest: int) -> Formula:
        """A chain of unary operands joined by the connectives of
        `_BINARY[weakest:]`, by precedence climbing."""
        node = self.unary()
        while True:
            kind, _, offset = self.peek()
            level = _LEVEL.get(kind)
            if level is None or level < weakest:
                return node
            self.next()
            cls = _BINARY[level][1]
            if cls is Imp:  # right associative
                self.nest(offset)
                node = Imp(node, self.binary(level))
                self.nesting -= 1
            else:
                node = cls(node, self.binary(level + 1))

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
            node = self.binary(0)
            self.expect(")")
            self.nesting -= 1
            return node
        if kind == "PMOD":
            if not self.modal:
                raise ParseError("modality P(...) not allowed in an event formula", offset)
            if self.in_event:
                raise ParseError("nested modality", offset)
            self.in_event = True
            event = self.binary(0)
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
# Traversal.  Every walk over a formula goes through `postorder`, which lists
# the nodes with an explicit stack instead of recursing: the parser builds
# left-associative chains ("x + x + ...", "x^2^2...") by loops that the
# nesting cap does not count, so a formula may be far deeper than the
# interpreter's recursion limit.

_OPS = {cls: symbol for symbol, cls in _BINARY}
_UNARY = (Neg, Power, Multiple)


def postorder(formula: Formula, modal_leaves: bool = False) -> list[Formula]:
    """The distinct nodes of a formula (by identity), children before parents.

    Children are taken left to right, and a node shared by several parents
    is listed once, at its first occurrence.  With `modal_leaves` an atom
    P(event) is a leaf; otherwise its event is walked as its child.
    """
    order: list[Formula] = []
    seen: set[int] = set()
    stack: list = [formula]
    while stack:
        node = stack.pop()
        if node is None:  # the children of the node below are all listed
            order.append(stack.pop())
            continue
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        cls = node.__class__
        if cls in _OPS:
            stack += (node, None, node.right, node.left)
        elif cls in _UNARY:
            stack += (node, None, node.arg)
        elif cls is PAtom and not modal_leaves:
            stack += (node, None, node.event)
        else:
            order.append(node)
    return order


def fold(formula: Formula, step, modal_leaves: bool = False):
    """Compute a value bottom-up: step(node, value) at every node of
    `postorder`, where value(child) is the result already computed for a
    child of the node.  Returns the value of the root."""
    values: dict[int, object] = {}

    def value(child: Formula):
        return values[id(child)]

    for node in postorder(formula, modal_leaves):
        values[id(node)] = step(node, value)
    return values[id(formula)]


def rebuild(formula: Formula, leaf) -> Formula:
    """The formula with every leaf (variable, constant or modal atom P(e))
    replaced by leaf(node), and every connective rebuilt over the results."""

    def step(node: Formula, new) -> Formula:
        cls = node.__class__
        if cls in _OPS:
            return cls(new(node.left), new(node.right))
        if cls is Neg:
            return Neg(new(node.arg))
        if cls is Power:
            return Power(new(node.arg), node.n)
        if cls is Multiple:
            return Multiple(node.n, new(node.arg))
        return leaf(node)

    return fold(formula, step, modal_leaves=True)


# ---------------------------------------------------------------------------
# Canonical serialization.  Fully parenthesized binary connectives with a
# fixed spelling; the output reparses to a structurally identical AST and is
# used as the key for fresh propositional variables in the modal translation.


def _operand(node: Formula, text) -> str:
    """Text usable as the operand of "n." or "^" without parentheses."""
    if isinstance(node, (Var, Bot, Top, Multiple, PAtom)):
        return text(node)
    return "(" + text(node) + ")"


def _text(node: Formula, text) -> str:
    cls = node.__class__
    if cls in _OPS:
        return "(" + text(node.left) + " " + _OPS[cls] + " " + text(node.right) + ")"
    if cls is Var:
        return node.name
    if cls is Neg:
        arg = node.arg
        if isinstance(arg, _Binary):
            return "~(" + text(arg) + ")"
        return "~" + text(arg)
    if cls is Bot:
        return "0"
    if cls is Top:
        return "1"
    if cls is Power:
        base = node.arg
        head = text(base) if isinstance(base, Power) else _operand(base, text)
        return head + "^" + str(node.n)
    if cls is Multiple:
        return str(node.n) + "." + _operand(node.arg, text)
    return "P(" + text(node.event) + ")"


def canonical_serialize(formula: Formula) -> str:
    return fold(formula, _text)


# ---------------------------------------------------------------------------
# Pointwise evaluation over exact rationals (the semantics oracle).


def _clamp01(x: Rat) -> Rat:
    return ZERO if x < 0 else ONE if x > 1 else x


def evaluate_formula(formula: Formula, env: dict[str, Rat]) -> Rat:
    """Evaluate at a point of [0,1]^vars using the standard MV operations.

    Derived connectives are evaluated by their closed forms (max, min, ...),
    which a property test checks against evaluating their expansions.
    """

    def step(node: Formula, val) -> Rat:
        cls = node.__class__
        if cls is Var:
            try:
                return Rat(env[node.name])
            except KeyError:
                raise ValueError(f"unbound variable {node.name!r}") from None
        if cls is Bot:
            return ZERO
        if cls is Top:
            return ONE
        if cls is Neg:
            return ONE - val(node.arg)
        if cls is OPlus:
            return _clamp01(val(node.left) + val(node.right))
        if cls is OTimes:
            return _clamp01(val(node.left) + val(node.right) - 1)
        if cls is Imp:
            return _clamp01(ONE - val(node.left) + val(node.right))
        if cls is Or:
            return max(val(node.left), val(node.right))
        if cls is And:
            return min(val(node.left), val(node.right))
        if cls is Iff:
            return ONE - abs(val(node.left) - val(node.right))
        if cls is Power:
            return _clamp01(node.n * val(node.arg) - (node.n - 1))
        if cls is Multiple:
            return _clamp01(node.n * val(node.arg))
        raise TypeError(f"cannot evaluate modal atom {node!r} pointwise")

    return fold(formula, step, modal_leaves=True)


# ---------------------------------------------------------------------------
# Variable bookkeeping.


def free_vars(formula: Formula) -> tuple[str, ...]:
    """Variable names in order of first occurrence (left-to-right)."""
    return tuple(dict.fromkeys(node.name for node in postorder(formula) if node.__class__ is Var))


def modal_atoms(*formulas: Formula) -> tuple[Formula, ...]:
    """Distinct events under P across the formulas, in order of first
    occurrence.

    Events are identified by canonical text: syntactically distinct but
    logically equivalent events count as different atoms.
    """
    events: dict[str, Formula] = {}
    for formula in formulas:
        for node in postorder(formula, modal_leaves=True):
            if node.__class__ is PAtom:
                events.setdefault(canonical_serialize(node.event), node.event)
    return tuple(events.values())


def is_event_formula(formula: Formula) -> bool:
    """True when the formula contains no modal atom."""
    return all(node.__class__ is not PAtom for node in postorder(formula, modal_leaves=True))


def substitute_atoms(formula: Formula, mapping: dict[str, Formula]) -> Formula:
    """Replace each P(event) by mapping[canonical text of event].

    Raises KeyError when an atom has no image; used to apply probabilistic
    substitutions and to compose them.
    """

    def image(node: Formula) -> Formula:
        if node.__class__ is PAtom:
            return mapping[canonical_serialize(node.event)]
        return node

    return rebuild(formula, image)


def _depth(node: Formula, depth) -> int:
    cls = node.__class__
    if cls in _OPS:
        return 1 + max(depth(node.left), depth(node.right))
    if cls in _UNARY:
        return 1 + depth(node.arg)
    if cls is PAtom:
        return 1 + depth(node.event)
    return 0


def formula_depth(formula: Formula) -> int:
    """Connective nesting depth (leaves have depth 0)."""
    return fold(formula, _depth)


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
