"""Correctness oracles that share no code with the library under test.

Formulas are parsed by a small parser of the benchmark's own and evaluated
pointwise over `fractions.Fraction`.  The checks accept a verdict only when
its certificate survives these oracles.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)

_TOKEN = re.compile(r"\s*(<->|->|P\(|[|&+*~^.()]|\d+|[a-z][a-z0-9_]*)")
_BINARY = {"<->": "iff", "->": "imp", "|": "or", "&": "and", "+": "oplus", "*": "otimes"}


class _Parser:
    """Recursive descent over the grammar documented in the README."""

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"oracle cannot tokenize {text[pos:]!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.tokens.append("")
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self, want: str | None = None) -> str:
        tok = self.tokens[self.pos]
        if want is not None and tok != want:
            raise ValueError(f"oracle parser expected {want!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.iff()
        self.take("")
        return node

    def iff(self):
        node = self.imp()
        while self.peek() == "<->":
            self.take()
            node = ("iff", node, self.imp())
        return node

    def imp(self):
        node = self.left_assoc(0)
        if self.peek() == "->":
            self.take()
            return ("imp", node, self.imp())
        return node

    _LEVELS = ["|", "&", "+", "*"]

    def left_assoc(self, level: int):
        if level == len(self._LEVELS):
            return self.unary()
        sym = self._LEVELS[level]
        node = self.left_assoc(level + 1)
        while self.peek() == sym:
            self.take()
            node = (_BINARY[sym], node, self.left_assoc(level + 1))
        return node

    def unary(self):
        if self.peek() == "~":
            self.take()
            return ("neg", self.unary())
        node = self.atom()
        while self.peek() == "^":
            self.take()
            node = ("pow", node, int(self.take()))
        return node

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.iff()
            self.take(")")
            return node
        if tok == "P(":
            node = self.iff()
            self.take(")")
            return ("P", node)
        if tok in ("0", "1"):
            return ("const", Fraction(int(tok)))
        if tok.isdigit():
            self.take(".")
            return ("mul", self.atom(), int(tok))
        if tok and tok[0].isalpha():
            return ("var", tok)
        raise ValueError(f"oracle parser: unexpected {tok!r}")


def parse(text: str):
    """Event or modal formula as a nested tuple; P(e) atoms stay unexpanded."""
    return _Parser(text).parse()


def _clamp(x: Fraction) -> Fraction:
    return ZERO if x < 0 else ONE if x > 1 else x


def evaluate(tree, env: dict) -> Fraction:
    """Value at a point; `env` maps variable names, and P-atom subtrees, to values."""
    kind = tree[0]
    if kind == "var":
        return env[tree[1]]
    if kind == "P":
        return env[tree]
    if kind == "const":
        return tree[1]
    if kind == "neg":
        return ONE - evaluate(tree[1], env)
    if kind == "pow":
        n = tree[2]
        return _clamp(n * evaluate(tree[1], env) - (n - 1))
    if kind == "mul":
        return _clamp(tree[2] * evaluate(tree[1], env))
    a = evaluate(tree[1], env)
    b = evaluate(tree[2], env)
    if kind == "oplus":
        return _clamp(a + b)
    if kind == "otimes":
        return _clamp(a + b - 1)
    if kind == "imp":
        return _clamp(1 - a + b)
    if kind == "or":
        return max(a, b)
    if kind == "and":
        return min(a, b)
    if kind == "iff":
        return 1 - abs(a - b)
    raise ValueError(kind)


def atoms_of(tree, out: dict | None = None) -> dict:
    """P-atom subtrees in first-occurrence order (left to right)."""
    out = {} if out is None else out
    if tree[0] == "P":
        out.setdefault(tree, None)
    elif tree[0] in ("neg", "pow", "mul"):
        atoms_of(tree[1], out)
    elif tree[0] not in ("var", "const"):
        atoms_of(tree[1], out)
        atoms_of(tree[2], out)
    return out


def variables_of(trees) -> list[str]:
    """Variable names in order of first occurrence, left to right."""
    out: dict[str, None] = {}
    stack = list(reversed(trees))
    while stack:
        tree = stack.pop()
        if tree[0] == "var":
            out.setdefault(tree[1], None)
        elif tree[0] in ("neg", "pow", "mul", "P"):
            stack.append(tree[1])
        elif tree[0] != "const":
            stack.extend((tree[2], tree[1]))
    return list(out)


def dag_size(node) -> int:
    """Distinct nodes of a formula DAG (identity-based)."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        top = stack.pop()
        if id(top) in seen:
            continue
        seen.add(id(top))
        kind = type(top).__name__
        if kind in ("Neg", "Power", "Multiple"):
            stack.append(top.arg)
        elif kind not in ("Var", "Bot", "Top"):
            stack.extend((top.left, top.right))
    return len(seen)


def farey(max_denominator: int) -> list[Fraction]:
    vals = {Fraction(p, q) for q in range(1, max_denominator + 1) for p in range(q + 1)}
    return sorted(vals)


@functools.lru_cache(maxsize=None)
def grid(dim: int, max_points: int = 125) -> tuple[tuple, ...]:
    """The finest Farey grid on [0,1]^dim with at most `max_points` points."""
    if dim == 0:
        return ((),)
    q = 1
    while len(farey(q + 1)) ** dim <= max_points:
        q += 1
    return tuple(itertools.product(farey(q), repeat=dim))
