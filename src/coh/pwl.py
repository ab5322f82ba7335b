"""McNaughton functions as exact polyhedral complexes.

The function of a formula is built by structural recursion: a variable is a
projection on the unit cube, negation flips forms cellwise, and every binary
connective overlays the two operand complexes and splits each overlay cell
along the single hyperplane where the connective's min/max expression
switches branch.  Powers and multiples split along one hyperplane as well
(n·f - (n-1) and n·f - 1), so derived connectives never expand into their
primitive-basis form here.

Every cell carries one integer affine form; the cells of a complex cover the
cube and agree on shared faces, which the test suite checks exactly.
"""

from __future__ import annotations

from .exact import Rat, dot
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
)
from .polytope import Polytope
from .record import Frozen, set_field


class AffineForm(Frozen):
    """Integer affine function const + coeffs·x."""

    __slots__ = __match_args__ = ("const", "coeffs")

    def __init__(self, const: int, coeffs: tuple[int, ...]):
        set_field(self, "const", const)
        set_field(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.const == other.const and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.const, self.coeffs))

    def value(self, point) -> Rat:
        return self.const + dot(self.coeffs, point)

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

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.polytope, self.form) == (other.polytope, other.form)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.polytope, self.form))


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


def _split(
    cell: Polytope, switch: AffineForm, low: AffineForm, high: AffineForm
) -> list[LinearCell]:
    """Cells for a function equal to `low` where switch <= 0 and `high` above.

    `low` and `high` agree on the switching hyperplane by construction of the
    callers, so both closed sides may keep it.
    """
    vals = [switch.value(v) for v in cell.vertices]
    if all(v <= 0 for v in vals):
        return [LinearCell(cell, low)]
    if all(v >= 0 for v in vals):
        return [LinearCell(cell, high)]
    out = []
    low_cell = cell.cut(switch.coeffs, -switch.const)
    if low_cell is not None:
        out.append(LinearCell(low_cell, low))
    high_cell = cell.cut(tuple(-c for c in switch.coeffs), switch.const)
    if high_cell is not None:
        out.append(LinearCell(high_cell, high))
    return out


def _combine(a_cells: list[LinearCell], b_cells: list[LinearCell], op: str, dim: int):
    one = AffineForm.constant(1, dim)
    zero = AffineForm.constant(0, dim)
    out: list[LinearCell] = []
    for ca in a_cells:
        for cb in b_cells:
            region = ca.polytope.intersect(cb.polytope)
            if region is None or region.affine_dim() < dim:
                continue
            fa, fb = ca.form, cb.form
            if op == "oplus":  # min(1, a+b)
                out.extend(_split(region, (fa + fb) - one, fa + fb, one))
            elif op == "otimes":  # max(0, a+b-1)
                out.extend(_split(region, (fa + fb) - one, zero, (fa + fb) - one))
            elif op == "and":  # min(a, b)
                out.extend(_split(region, fa - fb, fa, fb))
            elif op == "or":  # max(a, b)
                out.extend(_split(region, fa - fb, fb, fa))
            elif op == "imp":  # min(1, 1-a+b)
                out.extend(_split(region, fb - fa, fa.complement() + fb, one))
            elif op == "iff":  # 1 - |a-b|
                out.extend(_split(region, fa - fb, fb.complement() + fa, fa.complement() + fb))
            else:  # pragma: no cover
                raise ValueError(op)
    return out


def mcnaughton(formula: Formula, ctx: VarContext) -> PwlFunction:
    """The function of an event formula over the coordinates of `ctx`."""
    for name in free_vars(formula):
        if name not in ctx.index:
            raise ValueError(f"unknown variable {name!r} for context {list(ctx.names)}")
    n = ctx.arity
    cube = Polytope.cube(n)
    memo: dict[int, list[LinearCell]] = {}

    def rec(node: Formula) -> list[LinearCell]:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Var):
            cells = [LinearCell(cube, AffineForm.coordinate(ctx.position(node.name), n))]
        elif isinstance(node, Bot):
            cells = [LinearCell(cube, AffineForm.constant(0, n))]
        elif isinstance(node, Top):
            cells = [LinearCell(cube, AffineForm.constant(1, n))]
        elif isinstance(node, Neg):
            cells = [LinearCell(c.polytope, c.form.complement()) for c in rec(node.arg)]
        elif isinstance(node, OPlus):
            cells = _combine(rec(node.left), rec(node.right), "oplus", n)
        elif isinstance(node, OTimes):
            cells = _combine(rec(node.left), rec(node.right), "otimes", n)
        elif isinstance(node, And):
            cells = _combine(rec(node.left), rec(node.right), "and", n)
        elif isinstance(node, Or):
            cells = _combine(rec(node.left), rec(node.right), "or", n)
        elif isinstance(node, Imp):
            cells = _combine(rec(node.left), rec(node.right), "imp", n)
        elif isinstance(node, Iff):
            cells = _combine(rec(node.left), rec(node.right), "iff", n)
        elif isinstance(node, Multiple):
            cells = []
            for c in rec(node.arg):
                scaled = c.form.scaled(node.n)
                cells.extend(
                    _split(c.polytope, scaled.shifted(-1), scaled, AffineForm.constant(1, n))
                )
        elif isinstance(node, Power):
            cells = []
            for c in rec(node.arg):
                shifted = c.form.scaled(node.n).shifted(-(node.n - 1))
                cells.extend(
                    _split(c.polytope, shifted, AffineForm.constant(0, n), shifted)
                )
        elif isinstance(node, PAtom):
            raise TypeError("modal atom has no McNaughton function; translate it first")
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        memo[key] = cells
        return cells

    try:
        return PwlFunction(ctx, rec(formula))
    finally:
        del rec  # break the closure's self-reference so the memo is freed now


def evaluate(func: PwlFunction, point) -> Rat:
    """Evaluate by locating a cell containing the point."""
    p = tuple(Rat(v) for v in point)
    if len(p) != func.arity:
        raise ValueError(f"point arity {len(p)} != function arity {func.arity}")
    if any(x < 0 or x > 1 for x in p):
        raise ValueError("point outside the unit cube")
    if func.arity == 0:
        return Rat(func.cells[0].form.const)
    for cell in func.cells:
        if all(dot(a, p) <= b for a, b in cell.polytope.halfspaces):
            return cell.form.value(p)
    raise AssertionError(f"complex does not cover point {p}")  # pragma: no cover


def oneset(func: PwlFunction) -> list[Polytope]:
    """The polytopes {x in cell : form = 1}; pieces inside others dropped."""
    pieces: list[Polytope] = []
    for cell in func.cells:
        form = cell.form
        piece = cell.polytope.cut(form.coeffs, 1 - form.const)
        if piece is None:
            continue
        piece = piece.cut(tuple(-c for c in form.coeffs), form.const - 1)
        if piece is None:
            continue
        pieces.append(piece)
    pieces = list(dict.fromkeys(pieces))
    kept: list[Polytope] = []
    for i, piece in enumerate(pieces):
        absorbed = False
        for j, other in enumerate(pieces):
            if i == j:
                continue
            if piece.vertices == other.vertices:
                absorbed = i > j
            elif all(other.contains(v) for v in piece.vertices):
                absorbed = True
            if absorbed:
                break
        if not absorbed:
            kept.append(piece)
    return kept


def common_refinement(
    funcs: list[PwlFunction],
    order: list[int] | None = None,
    extra_cuts: list[tuple[tuple[int, ...], int]] | None = None,
) -> tuple[list[Polytope], list[list[AffineForm]]]:
    """Overlay complexes so every input function is affine on every cell.

    Returns parallel lists: cells, and per cell the forms of all functions in
    their original order.  `order` permutes the overlay sequence and
    `extra_cuts` inserts gratuitous hyperplane splits (a·x <= b and >=);
    both change the cell decomposition but never the refined geometry, which
    the triangulation-independence tests rely on.
    """
    if not funcs:
        raise ValueError("no functions to refine")
    ctx = funcs[0].context
    if any(f.context != ctx for f in funcs):
        raise ValueError("functions share no common variable context")
    n = ctx.arity
    sequence = list(range(len(funcs))) if order is None else list(order)
    if sorted(sequence) != list(range(len(funcs))):
        raise ValueError("order must permute the function indices")

    work: list[tuple[Polytope, dict[int, AffineForm]]] = [(Polytope.cube(n), {})]
    for idx in sequence:
        nxt = []
        for region, forms in work:
            for cell in funcs[idx].cells:
                piece = region.intersect(cell.polytope)
                if piece is None or (n > 0 and piece.affine_dim() < n):
                    continue
                nxt.append((piece, {**forms, idx: cell.form}))
        work = nxt

    if extra_cuts:
        for normal, offset in extra_cuts:
            nxt = []
            for region, forms in work:
                for side in (
                    region.cut(normal, offset),
                    region.cut(tuple(-c for c in normal), -offset),
                ):
                    if side is not None and (n == 0 or side.affine_dim() == n):
                        nxt.append((side, forms))
            work = nxt

    cells = [region for region, _ in work]
    forms = [[f[i] for i in range(len(funcs))] for _, f in work]
    return cells, forms


def refinement_vertices(cells: list[Polytope]) -> list[tuple]:
    """Distinct vertices across cells, in first-seen order."""
    seen: dict[tuple, None] = {}
    for cell in cells:
        for v in cell.vertices:
            seen.setdefault(v, None)
    return list(seen)


def is_tautology(func: PwlFunction) -> bool:
    """True when the function is constantly 1 (checked at all cell vertices)."""
    if func.arity == 0:
        return func.cells[0].form.const == 1
    return all(
        cell.form.value(v) == 1 for cell in func.cells for v in cell.polytope.vertices
    )


def function_range(func: PwlFunction) -> tuple[Rat, Rat]:
    """Exact (min, max) over the cube, from cell vertices."""
    values = [
        cell.form.value(v) for cell in func.cells for v in cell.polytope.vertices
    ]
    return min(values), max(values)
