"""The two-layer probability logic over Łukasiewicz events.

A modal formula is an outer Łukasiewicz combination of atoms P(event).
Replacing every syntactically distinct atom by a fresh propositional
variable turns the outer layer into an ordinary event formula over the book
space [0,1]^k, and a coherence constraint (the coherent set C of the events)
captures which book-space points are admissible.  Entailment Φ ⊢ Ψ then
reduces to: on every coherent book where the translation of Φ takes value 1,
the translation of Ψ takes value 1 as well.  Both translations are affine
on every cell of one complex over C (`pwl.refine`), so reading them at the
cell vertices decides that condition exactly, with no linear program: a
vertex with φ = 1 > ψ is a countermodel book, chosen canonically and
re-verified before being returned.  The least deduction exponent is read
off the same vertices in closed form ("Vertex-only verdicts" in
docs/design-notes.md).

The same machinery decides probabilistic substitutions (maps of atoms whose
images stay inside the original coherent set), unifiers of identity sets,
their generality compositions, and least deduction exponents; and it
synthesizes, for any rational polytope in the unit cube, an event formula
whose function is 1 exactly on that polytope.
"""

from __future__ import annotations

from typing import Sequence

from .coherence import Book, EventList, coherent_set
from .exact import Rat, rat_str
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
from .polytope import Polytope
from .pwl import mcnaughton, oneset, refine, vertex_values
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
            raise ValueError("bare propositional variable in a modal formula")
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


def _vertex_table(formulas: Sequence[Formula]) -> tuple:
    """(terms, context, C, table): the translations of the modal formulas
    over one context, the coherent set C of their atoms, and `vertex_values`
    of one complex over C on which every translation is affine.  Without
    atoms C is the 0-dimensional cube, whose one vertex holds the values."""
    tctx = TranslationContext()
    terms = [translate(f, tctx) for f in formulas]
    region = coherent_set(EventList(tctx.events)).polytope if tctx.events else Polytope.cube(0)
    cells, forms = refine(terms, tctx.book_context(), region=region)
    return terms, tctx, region, vertex_values(cells, forms)


def _pair_vertices(premise: Formula | str, conclusion: Formula | str) -> tuple:
    """`_vertex_table` of a premise and a conclusion, each a formula or its text."""
    return _vertex_table([parse_modal(f) if isinstance(f, str) else f for f in (premise, conclusion)])


def _verified_book(tctx: TranslationContext, region: Polytope, P, d, holds) -> tuple:
    """The book P/d, once integer halfspace tests put it in the coherent set
    `region` and `holds` accepts the formulas' valuation there."""
    point = tuple(Rat(p, d) for p in P)
    if not region.contains(point) or not holds(tctx.book_context().env(point)):
        raise AssertionError("certificate book failed re-verification")
    return point


def decide_consequence(premise: Formula | str, conclusion: Formula | str) -> ConsequenceResult:
    """Decide Φ ⊢ Ψ; on failure the result carries a countermodel book.

    The consequence fails iff some vertex of the complex over the coherent
    set has φ = 1 > ψ.  The countermodel is such a vertex with the least ψ,
    and among those the lexicographically least book, its prices read in the
    order of the atoms' canonical texts: a point fixed by the two functions
    and the coherent set, whatever the cells.  It is re-verified by
    evaluating both formulas there and by integer halfspace tests against
    the coherent set.
    """
    (phi_t, psi_t), tctx, region, table = _pair_vertices(premise, conclusion)
    events = EventList(tctx.events) if tctx.events else None
    order = sorted(range(len(tctx.names)), key=list(tctx.names).__getitem__)
    best = None
    for (P, d), (phi_v, psi_v) in table.items():
        if phi_v == d and psi_v < d:
            key = (Rat(psi_v, d), tuple(Rat(P[i], d) for i in order))
            if best is None or key < best[0]:
                best = key, P, d
    if best is None:
        return ConsequenceResult(True, None, events)
    _, P, d = best
    point = _verified_book(
        tctx, region, P, d, lambda env: evaluate_formula(phi_t, env) == 1 > evaluate_formula(psi_t, env)
    )
    return ConsequenceResult(False, Book(point), events)


def prove(formula: Formula | str) -> ConsequenceResult:
    """Theoremhood, as consequence from the premise ⊤."""
    return decide_consequence(TOP, formula)


def _least_exponent(
    premise: Formula | str, conclusion: Formula | str
) -> tuple[int | None, tuple | None]:
    """(n, book): the least n with ⊢ Φ^n -> Ψ and, for n >= 2, a coherent
    book (atoms of Φ, then Ψ) where Φ^(n-1) -> Ψ is below 1; (None, None)
    when Φ does not entail Ψ.

    Φ^n -> Ψ is 1 exactly where 1-ψ <= n(1-φ), affine on every cell, so the
    vertices decide it: None if some vertex has φ = 1 > ψ, and otherwise n
    is the largest ⌈(1-ψ)/(1-φ)⌉ over the vertices with φ < 1, at least 1.
    """
    (phi_t, psi_t), tctx, region, table = _pair_vertices(premise, conclusion)
    n, witness = 1, None
    for (P, d), (phi_v, psi_v) in table.items():
        if phi_v == d:
            if psi_v < d:
                return None, None
            continue
        need = -((psi_v - d) // (d - phi_v))  # ⌈(1-ψ)/(1-φ)⌉
        if need > n:
            n, witness = need, (P, d)
    if witness is None:
        return n, None
    weaker = Imp(phi_t if n == 2 else Power(phi_t, n - 1), psi_t)
    return n, _verified_book(tctx, region, *witness, lambda env: evaluate_formula(weaker, env) < 1)


def deduction_exponent(premise: Formula | str, conclusion: Formula | str) -> int | None:
    """Least n with ⊢ Φ^n -> Ψ, or None when Φ does not entail Ψ.

    Entailment guarantees such an n exists (the logic has a local deduction
    theorem); it is read in closed form off one complex (`_least_exponent`).
    """
    return _least_exponent(premise, conclusion)[0]


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

    The oneset lies in P when the vertices of its pieces pass P's halfspace
    tests; f is 1 on all of P when it is 1 at every vertex of its complex
    over P.  Both tests are in integers.
    """
    if not all(poly.includes(piece) for piece in oneset(mcnaughton(formula, ctx))):
        return False
    cells, forms = refine([formula], ctx, region=poly)
    return all(value == d for (_, d), (value,) in vertex_values(cells, forms).items())


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
    for P, d in poly.pairs:
        if any(p < 0 or p > d for p in P):
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

    def image_atoms(self) -> tuple[Formula, ...]:
        """Events under P across all images, in first-occurrence order."""
        return modal_atoms(*self.images.values())


def is_probabilistic_substitution(
    substitution: ProbSubstitution, events: EventList | Sequence
) -> tuple[bool, tuple | None]:
    """Decide invariance-preservation via the image-containment criterion.

    The map preserves provable equivalences iff the image of the coherent
    set of its target events, under the translated image terms, lies inside
    the coherent set of the original events.  The image terms are affine
    on every cell of one complex over the target's coherent set, so the
    images of its vertices span the image; each is tested against the
    source set's halfspaces in integers, and the lexicographically least
    one outside is returned as the witness.
    """
    ev = events if isinstance(events, EventList) else EventList(events)
    source = coherent_set(ev).polytope
    table = _vertex_table([substitution.image_of(e) for e in ev.events])[3]
    images = [tuple(Rat(v, d) for v in values) for (_, d), values in table.items()]
    outside = [image for image in images if not source.contains(image)]
    return (False, min(outside)) if outside else (True, None)


class UnificationProblem:
    """Finitely many identities over a declared set of atoms."""

    def __init__(self, identities: Sequence[tuple], atoms: Sequence | None = None):
        self.identities: list[tuple[Formula, Formula]] = []
        for lhs, rhs in identities:
            left = parse_modal(lhs) if isinstance(lhs, str) else lhs
            right = parse_modal(rhs) if isinstance(rhs, str) else rhs
            self.identities.append((left, right))
        occurring = modal_atoms(*(side for pair in self.identities for side in pair))
        if atoms is None:
            declared = list(occurring)
        else:
            declared = [parse_event(a) if isinstance(a, str) else a for a in atoms]
            labels = {canonical_serialize(e) for e in declared}
            missing = [k for k in map(canonical_serialize, occurring) if k not in labels]
            if missing:
                raise ValueError(f"identities use undeclared atoms: {missing}")
        if not declared:
            raise ValueError("unification problem has no atoms")
        self.atoms = EventList(declared)


def verify_unifier(problem: UnificationProblem, substitution: ProbSubstitution) -> bool:
    """True iff the substitution is probabilistic and proves every identity."""
    if not is_probabilistic_substitution(substitution, problem.atoms)[0]:
        return False
    apply = substitution.apply
    return all(prove(Iff(apply(lhs), apply(rhs))).holds for lhs, rhs in problem.identities)


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
    return all(
        prove(Iff(sigma.image_of(e), delta.apply(tau.image_of(e)))).holds for e in problem.atoms
    )
