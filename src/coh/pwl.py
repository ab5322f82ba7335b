"""McNaughton functions as exact polyhedral complexes.

`refine` builds one complex on which several formulas are all affine, in
one pass over their nodes in postorder (`formula.postorder`), on a single
list of cells started from the cube or from a given polytope;
`mcnaughton` is its one-formula case.  A variable or constant
gives every cell one affine form and negation complements it.  Every other
connective is one row (switch, low, high) of affine forms computed from its
operands' forms on the cell: its function is `low` where switch <= 0 and
`high` where switch >= 0.  A cell is split only where that switch hyperplane
crosses it, so no two complexes are ever overlaid.  Powers and multiples are
rows too (n·f - (n-1) and n·f - 1), so derived connectives never expand into
their primitive-basis form here.  The cells, and their order, are those of
overlaying the operand complexes at every connective ("One-pass complexes"
in docs/design-notes.md).

Every cell carries one integer affine form per formula; the cells of a
complex cover the start region and agree on shared faces, which the test
suite checks exactly.  An affine form is least on a cell at a vertex, so
`vertex_values` decides "f >= c on the region" ("Vertex-only verdicts").

`common_refinement` overlays `mcnaughton` complexes one after another, as
`coherent_set` does, and `oneset` lists the pieces {form = 1} of a
complex's cells, one per cell: their union is {f = 1}, and no piece is
dropped for lying inside another.
"""

from __future__ import annotations

from operator import mul

from .formula import (
    And,
    Bot,
    Formula,
    Iff,
    Imp,
    Multiple,
    Neg,
    OPlus,
    Or,
    OTimes,
    PAtom,
    Power,
    Top,
    Var,
    VarContext,
    free_vars,
    postorder,
)
from .polytope import Polytope
from .record import Frozen, set_field


class AffineForm(Frozen):
    """Integer affine function const + coeffs·x."""

    __slots__ = __match_args__ = ("const", "coeffs")

    def __init__(self, const: int, coeffs: tuple[int, ...]):
        set_field(self, "const", const)
        set_field(self, "coeffs", coeffs)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.const + other.const,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.const - other.const,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def complement(self) -> "AffineForm":
        """1 - f."""
        return AffineForm(1 - self.const, tuple(-c for c in self.coeffs))

    def scaled(self, k: int) -> "AffineForm":
        return AffineForm(k * self.const, tuple(k * c for c in self.coeffs))

    def shifted(self, k: int) -> "AffineForm":
        return AffineForm(self.const + k, self.coeffs)

    @classmethod
    def constant(cls, value: int, arity: int) -> "AffineForm":
        return cls(value, (0,) * arity)

    @classmethod
    def coordinate(cls, index: int, arity: int) -> "AffineForm":
        return cls(0, tuple(1 if i == index else 0 for i in range(arity)))


class LinearCell(Frozen):
    __slots__ = __match_args__ = ("polytope", "form")

    def __init__(self, polytope: Polytope, form: AffineForm):
        set_field(self, "polytope", polytope)
        set_field(self, "form", form)


class PwlFunction:
    """A McNaughton function presented as a complex of linear cells."""

    __slots__ = ("context", "cells")

    def __init__(self, context: VarContext, cells: list[LinearCell]):
        self.context = context
        self.cells = cells

    @property
    def arity(self) -> int:
        return self.context.arity

    def __repr__(self) -> str:
        return f"PwlFunction(arity={self.arity}, cells={len(self.cells)})"


def _sides(cell: Polytope, normal, offset) -> tuple[Polytope | None, Polytope | None]:
    """The parts of a cell with normal·x <= offset and >= offset (integers).

    A hyperplane that crosses the cell's relative interior cuts it in two;
    otherwise the whole cell is the part on its side (the low side when the
    form normal·x - offset vanishes on it) and the other part is None.
    Either way both parts have the cell's dimension.
    """
    vals = [sum(map(mul, normal, P)) - offset * d for P, d in cell.pairs]
    if all(v <= 0 for v in vals):
        return cell, None
    if all(v >= 0 for v in vals):
        return None, cell
    return cell.cut(normal, offset), cell.cut(tuple(-c for c in normal), -offset)


# The function of each connective as one row (switch, low, high): it is
# `low` where switch <= 0 and `high` where switch >= 0, and the two agree
# where switch = 0.  A row takes the constant forms 1 and 0, the node and
# the forms of the node's operands.
_ROWS = {
    OPlus: lambda one, zero, node, a, b: ((a + b) - one, a + b, one),  # min(1, a+b)
    OTimes: lambda one, zero, node, a, b: ((a + b) - one, zero, (a + b) - one),  # max(0, a+b-1)
    And: lambda one, zero, node, a, b: (a - b, a, b),  # min(a, b)
    Or: lambda one, zero, node, a, b: (a - b, b, a),  # max(a, b)
    Imp: lambda one, zero, node, a, b: (b - a, a.complement() + b, one),  # min(1, 1-a+b)
    Iff: lambda one, zero, node, a, b: (a - b, b.complement() + a, a.complement() + b),  # 1-|a-b|
    Multiple: lambda one, zero, node, a: (  # min(1, n·a)
        a.scaled(node.n).shifted(-1), a.scaled(node.n), one
    ),
    Power: lambda one, zero, node, a: (  # max(0, n·a - (n-1))
        a.scaled(node.n).shifted(-(node.n - 1)), zero, a.scaled(node.n).shifted(-(node.n - 1))
    ),
}


def _operands(node: Formula) -> tuple:
    cls = node.__class__
    if cls is Neg or cls is Multiple or cls is Power:
        return (node.arg,)
    if cls in _ROWS:
        return (node.left, node.right)
    return ()


def refine(
    roots: list[Formula], ctx: VarContext, region: Polytope | None = None
) -> tuple[list[Polytope], list[tuple[AffineForm, ...]]]:
    """One complex on which every root formula is affine, over `region`.

    Returns parallel lists: the cells, and per cell the forms of the roots in
    their order.  The cells cover `region` (the cube by default) and have its
    dimension, so a lower-dimensional region is split within its affine hull.
    One pass over the nodes of all roots in postorder, shared nodes once,
    refines a single cell list: each cell maps the nodes still to be read to
    their forms on it, and a connective splits a cell only where its switch
    hyperplane crosses it.
    """
    unknown = [name for formula in roots for name in free_vars(formula) if name not in ctx.index]
    if unknown:
        raise ValueError(f"unknown variable {unknown[0]!r} for context {list(ctx.names)}")
    n = ctx.arity
    one, zero = AffineForm.constant(1, n), AffineForm.constant(0, n)
    nodes = list({id(node): node for f in roots for node in postorder(f, modal_leaves=True)}.values())
    last_read: dict[int, int] = {}
    for i, node in enumerate(nodes):
        for arg in _operands(node):
            last_read[id(arg)] = i
    for formula in roots:
        last_read[id(formula)] = len(nodes)
    start = Polytope.cube(n) if region is None else region
    cells: list[tuple[Polytope, dict[int, AffineForm]]] = [(start, {})]
    for i, node in enumerate(nodes):
        key = id(node)
        args = [id(arg) for arg in _operands(node)]
        done = {arg for arg in args if last_read[arg] == i}
        cls = node.__class__
        row = _ROWS.get(cls)
        if row is not None:
            split = []
            for cell, forms in cells:
                switch, low, high = row(one, zero, node, *[forms[arg] for arg in args])
                for arg in done:
                    del forms[arg]
                for part, form in zip(_sides(cell, switch.coeffs, -switch.const), (low, high)):
                    if part is not None:
                        split.append((part, {**forms, key: form}))
            cells = split
            continue
        if cls is Neg:
            for _, forms in cells:
                forms[key] = forms[args[0]].complement()
                for arg in done:
                    del forms[arg]
            continue
        if cls is Var:
            form = AffineForm.coordinate(ctx.position(node.name), n)
        elif cls is Bot:
            form = zero
        elif cls is Top:
            form = one
        elif cls is PAtom:
            raise TypeError("modal atom has no McNaughton function; translate it first")
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        for _, forms in cells:
            forms[key] = form
    return [cell for cell, _ in cells], [tuple(forms[id(f)] for f in roots) for _, forms in cells]


def mcnaughton(formula: Formula, ctx: VarContext) -> PwlFunction:
    """The function of an event formula over the coordinates of `ctx`."""
    cells, forms = refine([formula], ctx)
    return PwlFunction(ctx, [LinearCell(cell, form) for cell, (form,) in zip(cells, forms)])


def vertex_values(
    cells: list[Polytope], forms: list[tuple[AffineForm, ...]]
) -> dict[tuple[tuple[int, ...], int], tuple[int, ...]]:
    """Every distinct vertex of the cells, as its pair (P, d) (`Polytope.pairs`),
    mapped to the integers d·f(P/d) for the forms f of a cell that has it;
    the forms of a complex agree where cells meet."""
    table: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for cell, cell_forms in zip(cells, forms):
        for vertex in cell.pairs:
            if vertex not in table:
                P, d = vertex
                table[vertex] = tuple(f.const * d + sum(map(mul, f.coeffs, P)) for f in cell_forms)
    return table


def oneset_piece(cell: LinearCell) -> Polytope | None:
    """The polytope {x in cell : form(x) = 1}, or None when it is empty."""
    form = cell.form
    piece = cell.polytope.cut(form.coeffs, 1 - form.const)
    if piece is None:
        return None
    return piece.cut(tuple(-c for c in form.coeffs), form.const - 1)


def oneset(func: PwlFunction) -> list[Polytope]:
    """The polytopes {x in cell : form = 1}, one per cell in cell order,
    repeats dropped.  Their union is {f = 1}; a piece may lie inside
    another (a face of a neighbouring cell's piece), so inclusion in a
    polytope holds for the union exactly when it holds for every piece."""
    return list(dict.fromkeys(piece for piece in map(oneset_piece, func.cells) if piece is not None))


def common_refinement(funcs: list[PwlFunction]) -> tuple[list[Polytope], list[list[AffineForm]]]:
    """Overlay complexes so every input function is affine on every cell.

    Returns parallel lists: cells, and per cell the forms of all functions in
    their order.
    """
    if not funcs:
        raise ValueError("no functions to refine")
    ctx = funcs[0].context
    if any(f.context != ctx for f in funcs):
        raise ValueError("functions share no common variable context")
    n = ctx.arity
    work: list[tuple[Polytope, list[AffineForm]]] = [(Polytope.cube(n), [])]
    for func in funcs:
        nxt = []
        for region, forms in work:
            for cell in func.cells:
                piece = region.intersect(cell.polytope)
                if piece is None or (n > 0 and piece.affine_dim() < n):
                    continue
                nxt.append((piece, forms + [cell.form]))
        work = nxt
    return [region for region, _ in work], [forms for _, forms in work]
