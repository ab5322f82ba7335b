"""The two-layer probability logic over Łukasiewicz events.

A modal formula is an outer Łukasiewicz combination of atoms P(event).
Replacing every syntactically distinct atom by a fresh propositional
variable turns the outer layer into an ordinary event formula over the book
space [0,1]^k, and a coherence constraint (the coherent set of the events)
captures which book-space points are admissible.  Entailment Φ ⊢ Ψ then
reduces to: on every coherent book where the translation of Φ takes value 1,
the translation of Ψ takes value 1 as well.  That condition is decided
exactly by minimizing the affine pieces of Ψ's function over the coherent
region of each piece of Φ's oneset; a minimizer below 1 is a countermodel
book, re-verified before being returned.

The same machinery decides probabilistic substitutions (maps of atoms whose
images stay inside the original coherent set), unifiers of identity sets,
their generality compositions, and least deduction exponents; and it
synthesizes, for any rational polytope in the unit cube, an event formula
whose function is 1 exactly on that polytope.
"""

from __future__ import annotations

from typing import Sequence

from . import simplex
from .coherence import Book, EventList, coherent_set
from .exact import ONE, Rat, ZERO, dot, rat_str
from .formula import (
    And,
    BOT,
    Bot,
    Formula,
    Iff,
    Imp,
    Multiple,
    Neg,
    OPlus,
    OTimes,
    PAtom,
    Power,
    TOP,
    Top,
    Var,
    VarContext,
    canonical_serialize,
    evaluate_formula,
    modal_atoms,
    parse_event,
    parse_modal,
    rebuild,
    substitute_atoms,
)
from .polytope import Polytope, membership
from .pwl import common_refinement, mcnaughton, oneset, oneset_piece
from .record import Record


class TranslationContext:
    """Injective, insertion-ordered map from atoms P(event) to fresh variables.

    Atoms are keyed by the canonical text of their event, so syntactically
    distinct but logically equivalent events get distinct variables (the
    logic's substitution-of-equivalents makes that harmless).
    """

    def __init__(self):
        self.names: dict[str, str] = {}
        self.events: list[Formula] = []

    def var_for(self, event: Formula) -> str:
        key = canonical_serialize(event)
        name = self.names.get(key)
        if name is None:
            name = f"p{len(self.names)}"
            self.names[key] = name
            self.events.append(event)
        return name

    def book_context(self) -> VarContext:
        return VarContext(list(self.names.values()))


def translate(formula: Formula, ctx: TranslationContext) -> Formula:
    """Map a modal formula to the book-space event formula over fresh vars."""

    def leaf(node: Formula) -> Formula:
        if isinstance(node, PAtom):
            return Var(ctx.var_for(node.event))
        if isinstance(node, Var):
            raise TypeError("bare propositional variable in a modal formula")
        return node

    return rebuild(formula, leaf)


class ConsequenceResult(Record):
    __slots__ = __match_args__ = ("holds", "countermodel", "events")

    def __init__(self, holds: bool, countermodel: Book | None = None, events: EventList | None = None):
        self.holds = holds
        self.countermodel = countermodel
        self.events = events

    def to_json_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.countermodel is not None:
            labels = self.events.labels() if self.events is not None else []
            out["countermodel"] = {
                label: rat_str(price) for label, price in zip(labels, self.countermodel.prices)
            }
        return out


def _min_affine_over(
    verts: Sequence[tuple], halfspaces: Sequence, objective: Sequence
) -> tuple[bool, Rat | None, tuple | None]:
    """Exact min of an affine objective over conv(verts) ∩ halfspaces.

    The region is parametrized by convex weights; `objective` holds the
    objective's value at each vertex.  Returns (feasible, min, argmin point).
    """
    m = len(verts)
    rows = []
    rhs = []
    for a, b in halfspaces:
        rows.append([dot(a, v) for v in verts])
        rhs.append(Rat(b))
    n_slack = len(rows)
    A = []
    for i, row in enumerate(rows):
        A.append(list(row) + [ONE if j == i else ZERO for j in range(n_slack)])
    A.append([ONE] * m + [ZERO] * n_slack)
    rhs.append(ONE)
    c = list(objective) + [ZERO] * n_slack
    res = simplex.solve_standard(c, A, rhs)
    if res.status == simplex.INFEASIBLE:
        return False, None, None
    assert res.status == simplex.OPTIMAL
    weights = res.x[:m]
    dim = len(verts[0])
    point = tuple(
        sum((w * v[i] for w, v in zip(weights, verts)), start=ZERO) for i in range(dim)
    )
    return True, res.value, point


def decide_consequence(premise: Formula | str, conclusion: Formula | str) -> ConsequenceResult:
    """Decide Φ ⊢ Ψ; on failure the result carries a countermodel book.

    The countermodel is a coherent book on the union of the atoms of both
    formulas that satisfies the premise and refutes the conclusion; it is
    re-verified by independent pointwise evaluation before being returned.
    """
    phi = parse_modal(premise) if isinstance(premise, str) else premise
    psi = parse_modal(conclusion) if isinstance(conclusion, str) else conclusion

    tctx = TranslationContext()
    phi_t = translate(phi, tctx)
    psi_t = translate(psi, tctx)

    if not tctx.events:
        # Ground formulas: evaluate directly.
        holds = evaluate_formula(phi_t, {}) < 1 or evaluate_formula(psi_t, {}) == 1
        return ConsequenceResult(holds, None if holds else Book(()), None)

    events = EventList(tctx.events)
    pctx = tctx.book_context()
    cs = coherent_set(events)
    verts = cs.polytope.vertices

    f_phi = mcnaughton(phi_t, pctx)
    f_psi = mcnaughton(psi_t, pctx)

    for cell in f_phi.cells:
        piece = oneset_piece(cell)
        if piece is None:
            continue
        feasible, _, _ = _min_affine_over(verts, piece.halfspaces, [ZERO] * len(verts))
        if not feasible:
            continue
        for psi_cell in f_psi.cells:
            region_hs = piece.halfspaces + psi_cell.polytope.halfspaces
            objective = [psi_cell.form.value(v) for v in verts]
            feasible, value, point = _min_affine_over(verts, region_hs, objective)
            if not feasible or value >= 1:
                continue
            env = pctx.env(point)
            if evaluate_formula(phi_t, env) != 1 or evaluate_formula(psi_t, env) >= 1:
                raise AssertionError("countermodel failed re-verification")
            book = Book(point)
            return ConsequenceResult(False, book, events)
    return ConsequenceResult(True, None, events)


def prove(formula: Formula | str) -> ConsequenceResult:
    """Theoremhood, as consequence from the premise ⊤."""
    return decide_consequence(TOP, formula)


def deduction_exponent(premise: Formula | str, conclusion: Formula | str) -> int | None:
    """Least n with ⊢ Φ^n -> Ψ, or None when Φ does not entail Ψ.

    Entailment guarantees such an n exists (the logic has a local deduction
    theorem), so the search below terminates.
    """
    phi = parse_modal(premise) if isinstance(premise, str) else premise
    psi = parse_modal(conclusion) if isinstance(conclusion, str) else conclusion
    if not decide_consequence(phi, psi).holds:
        return None
    n = 1
    while True:
        powered = phi if n == 1 else Power(phi, n)
        if prove(Imp(powered, psi)).holds:
            return n
        n += 1
        if n >= 10_000:  # pragma: no cover
            raise RuntimeError("deduction exponent search runaway")


# ---------------------------------------------------------------------------
# Oneset synthesis: an event formula whose function is 1 exactly on P.


def _ramp(literal: Formula, w: int, level: int, memo: dict) -> Formula:
    """Term with value clamp(w·u - level) for a [0,1]-valued literal u.

    Built by halving: even/even wraps in a multiple, even/odd in a square,
    and odd w peels one unit via clamp(S+u-t) = clamp(S-t) ⊕ (clamp(S-t+1) ⊙ u).
    Term size stays linear in w.
    """
    if level >= w:
        return BOT
    if level < 0:
        return TOP
    key = (id(literal), w, level)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if w == 1:
        out = literal
    elif level == 0:
        out = Multiple(w, literal)
    elif level == w - 1:
        out = Power(literal, w)
    elif w % 2 == 0 and level % 2 == 0:
        out = Multiple(2, _ramp(literal, w // 2, level // 2, memo))
    elif w % 2 == 0:
        out = Power(_ramp(literal, w // 2, (level - 1) // 2, memo), 2)
    else:
        lower = _ramp(literal, w - 1, level, memo)
        carry = _ramp(literal, w - 1, level - 1, memo)
        prod = literal if isinstance(carry, Top) else OTimes(carry, literal)
        out = prod if isinstance(lower, Bot) else OPlus(lower, prod)
    memo[key] = out
    return out


def _fold_oplus(parts: list[Formula]) -> Formula:
    parts = [p for p in parts if not isinstance(p, Bot)]
    if not parts:
        return BOT
    if any(isinstance(p, Top) for p in parts):
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = OPlus(out, p)
    return out


def _halfspace_term(normal: Sequence[int], offset: int, ctx: VarContext) -> Formula:
    """Term whose value is clamp(1 + offset - normal·x); its oneset within
    the cube is exactly {x : normal·x <= offset}.

    Subtracted variables are rewritten through their negations, turning the
    argument into (sum of weighted literals) - m; the weighted sum is then
    accumulated literal by literal with the chain identity
    clamp(X + Y - t) = ⊕_{i+l=t-1} (clamp(X-i) ⊙ clamp(Y-l)) ⊕ clamp(X-t) ⊕ clamp(Y-t).
    """
    units: list[tuple[Formula, int]] = []
    shift = 0
    for i in range(ctx.arity - 1, -1, -1):  # largest index first
        coeff = int(normal[i])
        if coeff > 0:
            units.append((Neg(Var(ctx.names[i])), coeff))
            shift += coeff
        elif coeff < 0:
            units.append((Var(ctx.names[i]), -coeff))
    target = shift - int(offset) - 1
    total = sum(w for _, w in units)
    if target < 0:
        return TOP
    if target >= total:
        return BOT

    ramp_memo: dict = {}
    prefix = [0]
    for _, w in units:
        prefix.append(prefix[-1] + w)
    memo: dict[tuple[int, int], Formula] = {}

    def chain(j: int, t: int) -> Formula:
        """Term with value clamp(sum of the first j weighted literals - t)."""
        if t < 0:
            return TOP
        if t >= prefix[j]:
            return BOT
        key = (j, t)
        cached = memo.get(key)
        if cached is not None:
            return cached
        literal, w = units[j - 1]
        parts: list[Formula] = []
        for level in range(0, min(w - 1, t - 1) + 1):
            left = chain(j - 1, t - 1 - level)
            if isinstance(left, Bot):
                continue
            right = _ramp(literal, w, level, ramp_memo)
            parts.append(right if isinstance(left, Top) else OTimes(left, right))
        parts.append(chain(j - 1, t))
        if t <= w - 1:
            parts.append(_ramp(literal, w, t, ramp_memo))
        out = _fold_oplus(parts)
        memo[key] = out
        return out

    try:
        return chain(len(units), target)
    finally:
        del chain  # break the closure's self-reference so the memo is freed now


class OnesetSynthesisError(AssertionError):
    pass


def verify_oneset(formula: Formula, poly: Polytope, ctx: VarContext) -> bool:
    """Exact check that {x in cube : f(x) = 1} equals the polytope.

    Inclusion of the oneset in P is checked on piece vertices; the converse
    (f = 1 on all of P) is one LP per cell of f's complex.
    """
    func = mcnaughton(formula, ctx)
    for piece in oneset(func):
        for v in piece.vertices:
            if not poly.contains(v):
                return False
    verts = poly.vertices
    for cell in func.cells:
        objective = [cell.form.value(v) for v in verts]
        feasible, value, _ = _min_affine_over(verts, cell.polytope.halfspaces, objective)
        if feasible and value < 1:
            return False
    return True


def oneset_formula(poly: Polytope, ctx: VarContext | None = None) -> Formula:
    """An event formula whose function has oneset exactly `poly`.

    One conjunct per halfspace of the polytope, each the truncated affine
    term of that halfspace; the construction is deterministic (halfspaces in
    lexicographic order) and the result is verified exactly before return.
    """
    if ctx is None:
        ctx = VarContext([f"x{i+1}" for i in range(poly.dim)])
    if ctx.arity != poly.dim:
        raise ValueError(f"context arity {ctx.arity} != polytope dimension {poly.dim}")
    for v in poly.vertices:
        if any(x < 0 or x > 1 for x in v):
            raise ValueError("polytope must lie inside the unit cube")
    terms = []
    for a, b in sorted(poly.halfspaces):
        term = _halfspace_term(a, b, ctx)
        if isinstance(term, Top):
            continue
        if isinstance(term, Bot):
            raise OnesetSynthesisError("halfspace term degenerated to 0")
        terms.append(term)
    if not terms:
        result: Formula = TOP
    else:
        result = terms[0]
        for term in terms[1:]:
            result = And(result, term)
    if not verify_oneset(result, poly, ctx):
        raise OnesetSynthesisError("synthesized formula failed the oneset roundtrip")
    return result


# ---------------------------------------------------------------------------
# Probabilistic substitutions, unifiers, generality.


class ProbSubstitution:
    """Total map from atoms P(event) to modal formulas, insertion ordered."""

    def __init__(self, mapping: dict):
        self.images: dict[str, Formula] = {}
        self.domain_events: list[Formula] = []
        for key, value in mapping.items():
            event = parse_event(key) if isinstance(key, str) else key
            image = parse_modal(value) if isinstance(value, str) else value
            label = canonical_serialize(event)
            if label in self.images:
                raise ValueError(f"duplicate atom {label}")
            self.images[label] = image
            self.domain_events.append(event)

    def image_of(self, event: Formula) -> Formula:
        label = canonical_serialize(event)
        try:
            return self.images[label]
        except KeyError:
            raise ValueError(f"substitution undefined on atom P({label})") from None

    def apply(self, formula: Formula | str) -> Formula:
        f = parse_modal(formula) if isinstance(formula, str) else formula
        for event in modal_atoms(f):
            self.image_of(event)  # totality check with a clear error
        return substitute_atoms(f, self.images)

    def image_atoms(self) -> list[Formula]:
        """Events under P across all images, in first-occurrence order."""
        seen: dict[str, Formula] = {}
        for label in self.images:
            for event in modal_atoms(self.images[label]):
                seen.setdefault(canonical_serialize(event), event)
        return list(seen.values())

    def compose_after(self, inner: "ProbSubstitution") -> "ProbSubstitution":
        """The map P(e) -> self(inner(P(e))) on inner's domain."""
        mapping: dict = {}
        for event in inner.domain_events:
            mapping[event] = self.apply(inner.image_of(event))
        return ProbSubstitution(mapping)


def is_probabilistic_substitution(
    substitution: ProbSubstitution, events: EventList | Sequence
) -> tuple[bool, tuple | None]:
    """Decide invariance-preservation via the image-containment criterion.

    The map preserves provable equivalences iff the image of the coherent
    set of its target events, under the translated image terms, lies inside
    the coherent set of the original events.  A violating image point is
    returned as the witness.
    """
    ev = events if isinstance(events, EventList) else EventList(events)
    images = [substitution.image_of(e) for e in ev.events]
    source_cs = coherent_set(ev)

    tctx = TranslationContext()
    terms = [translate(img, tctx) for img in images]

    if not tctx.events:
        point = tuple(evaluate_formula(t, {}) for t in terms)
        cert = membership(point, source_cs.polytope)
        return (True, None) if cert.inside else (False, point)

    target = EventList(tctx.events)
    target_cs = coherent_set(target)
    pctx = tctx.book_context()
    funcs = [mcnaughton(t, pctx) for t in terms]
    cells, forms = common_refinement(funcs)

    checked: set[tuple] = set()
    for cell, cell_forms in zip(cells, forms):
        region = cell.intersect(target_cs.polytope)
        if region is None:
            continue
        for v in region.vertices:
            image_point = tuple(f.value(v) for f in cell_forms)
            if image_point in checked:
                continue
            checked.add(image_point)
            cert = membership(image_point, source_cs.polytope)
            if not cert.inside:
                return False, image_point
    return True, None


class UnificationProblem:
    """Finitely many identities over a declared set of atoms."""

    def __init__(self, identities: Sequence[tuple], atoms: Sequence | None = None):
        self.identities: list[tuple[Formula, Formula]] = []
        occurring: dict[str, Formula] = {}
        for lhs, rhs in identities:
            left = parse_modal(lhs) if isinstance(lhs, str) else lhs
            right = parse_modal(rhs) if isinstance(rhs, str) else rhs
            self.identities.append((left, right))
            for side in (left, right):
                for event in modal_atoms(side):
                    occurring.setdefault(canonical_serialize(event), event)
        if atoms is None:
            declared = list(occurring.values())
        else:
            declared = [parse_event(a) if isinstance(a, str) else a for a in atoms]
            labels = {canonical_serialize(e) for e in declared}
            missing = [k for k in occurring if k not in labels]
            if missing:
                raise ValueError(f"identities use undeclared atoms: {missing}")
        if not declared:
            raise ValueError("unification problem has no atoms")
        self.atoms = EventList(declared)


def verify_unifier(problem: UnificationProblem, substitution: ProbSubstitution) -> bool:
    """True iff the substitution is probabilistic and proves every identity."""
    for event in problem.atoms:
        substitution.image_of(event)
    ok, _witness = is_probabilistic_substitution(substitution, problem.atoms)
    if not ok:
        return False
    for lhs, rhs in problem.identities:
        result = prove(Iff(substitution.apply(lhs), substitution.apply(rhs)))
        if not result.holds:
            return False
    return True


def verify_generality(
    sigma: ProbSubstitution,
    tau: ProbSubstitution,
    delta: ProbSubstitution,
    problem: UnificationProblem,
) -> bool:
    """Check σ = δ∘τ on every atom of the problem, up to provable equivalence.

    Componentwise equivalence suffices: the outer connectives respect
    provable equivalence of their arguments.
    """
    for event in problem.atoms:
        sigma.image_of(event)
        tau.image_of(event)
    for event in tau.image_atoms():
        delta.image_of(event)  # domain mismatch surfaces here
    for event in problem.atoms:
        lhs = sigma.image_of(event)
        rhs = delta.apply(tau.image_of(event))
        if not prove(Iff(lhs, rhs)).holds:
            return False
    return True
