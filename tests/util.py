"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the library's polyhedral code paths:
formula values come from direct evaluation of the AST over exact rationals,
and hull membership checks go through their own certificate verification.
The reference builders at the end re-implement replaced kernels the plain
way, to be compared with the library's output exactly.
"""

from __future__ import annotations

import itertools
import random

from coh import formula as fm
from coh.exact import Rat, dot
from coh.formula import evaluate_formula, parse_event
from coh.polytope import Polytope
from coh.pwl import AffineForm, LinearCell, PwlFunction

EVENT_OPS = ["+", "*", "|", "&", "->", "<->"]


def eval_at(text_or_formula, point, names=("x", "y", "z")):
    """Pointwise oracle: direct evaluation of the AST, no complexes involved."""
    f = parse_event(text_or_formula) if isinstance(text_or_formula, str) else text_or_formula
    env = {n: Rat(v) for n, v in zip(names, point)}
    return evaluate_formula(f, env)


def farey(max_denominator: int):
    """All fractions p/q in [0,1] with q <= max_denominator, ascending."""
    vals = {Rat(p, q) for q in range(1, max_denominator + 1) for p in range(0, q + 1)}
    return sorted(vals)


def grid_points(dim: int, max_denominator: int):
    return itertools.product(farey(max_denominator), repeat=dim)


def random_event(rng: random.Random, variables, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.12:
            return rng.choice(["0", "1"])
        return rng.choice(variables)
    op = rng.choice(EVENT_OPS + ["~", "^", "."])
    if op == "~":
        return "~(" + random_event(rng, variables, depth - 1) + ")"
    if op == "^":
        return "(" + random_event(rng, variables, depth - 1) + ")^" + str(rng.randint(2, 3))
    if op == ".":
        return str(rng.randint(2, 3)) + ".(" + random_event(rng, variables, depth - 1) + ")"
    left = random_event(rng, variables, depth - 1)
    right = random_event(rng, variables, depth - 1)
    return f"({left} {op} {right})"


def random_modal(rng: random.Random, atoms, depth: int) -> str:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.08:
            return rng.choice(["0", "1"])
        return rng.choice(atoms)
    op = rng.choice(EVENT_OPS + ["~", "^"])
    if op == "~":
        return "~(" + random_modal(rng, atoms, depth - 1) + ")"
    if op == "^":
        return "(" + random_modal(rng, atoms, depth - 1) + ")^" + str(rng.randint(2, 3))
    left = random_modal(rng, atoms, depth - 1)
    right = random_modal(rng, atoms, depth - 1)
    return f"({left} {op} {right})"


def random_event_list(rng: random.Random, max_events=3, max_vars=3, max_depth=4):
    variables = ["x", "y", "z"][: rng.randint(1, max_vars)]
    count = rng.randint(1, max_events)
    return [random_event(rng, variables, rng.randint(1, max_depth)) for _ in range(count)]


def form_at(form, point):
    """The value const + coeffs·point of an affine form, exactly."""
    return form.const + dot(form.coeffs, point)


def values_at(func, point):
    """The set of values at the point of the forms of every cell of the
    complex that contains it: one value where the complex is right."""
    return {form_at(cell.form, point) for cell in func.cells if cell.polytope.contains(point)}


def vertex_table(func):
    """`vertex_values` of a complex's cells: (P, d) -> (d·f(P/d),)."""
    from coh.pwl import vertex_values

    return vertex_values([cell.polytope for cell in func.cells], [(cell.form,) for cell in func.cells])


def is_constantly_one(func):
    """Whether the function is 1 at every vertex of its complex, so
    everywhere."""
    return all(value == d for (_, d), (value,) in vertex_table(func).items())


def project(poly, coords):
    """The image of a polytope under the projection onto the coordinates
    `coords` (0-based): the hull of its projected vertices."""
    return Polytope.from_vertices([tuple(v[c] for c in coords) for v in poly.vertices])


def rref(rows):
    """Reduced row echelon form over the rationals: (matrix, pivot columns).
    The rational Gauss-Jordan elimination that the library's fraction-free
    one replaced."""
    m = [[Rat(x) for x in row] for row in rows]
    pivots = []
    if not m:
        return m, pivots
    nrows, ncols = len(m), len(m[0])
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def nullspace(rows):
    """Basis of the right null space {x : rows @ x = 0} as rational tuples."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Rat(0)] * ncols
        vec[f] = Rat(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def in_hull_bruteforce(point, vertices) -> bool:
    """Membership oracle via Carathéodory: some affinely independent vertex
    subset of size <= dim+1 carries the point with nonnegative weights.
    Exact elimination only; no LP involved."""
    point = tuple(Rat(x) for x in point)
    dim = len(point)
    verts = [tuple(Rat(x) for x in v) for v in vertices]
    if point in verts:
        return True
    for size in range(2, dim + 2):
        for subset in itertools.combinations(verts, size):
            augmented = [[v[i] for v in subset] + [point[i]] for i in range(dim)]
            augmented.append([Rat(1)] * size + [Rat(1)])
            reduced, pivots = rref(augmented)
            if size in pivots:  # inconsistent: pivot in the rhs column
                continue
            if len(pivots) < size:  # affinely dependent subset; skip
                continue
            weights = [reduced[r][size] for r in range(size)]
            if all(w >= 0 for w in weights):
                return True
    return False


# ---------------------------------------------------------------------------
# Reference simplex: the rational tableau the library's integer kernel
# replaced.  It takes the same Bland steps over Rat entries, so its status,
# point, value and Farkas vector must equal the kernel's exactly.


def _ref_pivot(tableau, basis, row, col):
    inv = Rat(1) / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    prow = tableau[row]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b for a, b in zip(line, prow)]
    basis[row] = col


def _ref_run_simplex(tableau, basis, ncols, eligible):
    while True:
        obj = tableau[-1]
        col = next((j for j in range(eligible) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_row = best_ratio = None
        for r in range(len(tableau) - 1):
            coeff = tableau[r][col]
            if coeff > 0:
                ratio = tableau[r][ncols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, r
        if best_row is None:
            return "unbounded"
        _ref_pivot(tableau, basis, best_row, col)


def reference_solve_standard(c, A, b):
    """(status, x, value, farkas) of min c·x s.t. A x = b, x >= 0."""
    zero, one = Rat(0), Rat(1)
    m, n = len(A), len(c)
    rows = [[Rat(v) for v in row] for row in A]
    rhs = [Rat(v) for v in b]
    flipped = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flipped[i] = True
    ncols = n + m
    tableau = [rows[i] + [one if j == i else zero for j in range(m)] + [rhs[i]] for i in range(m)]
    obj = [zero] * (ncols + 1)
    for i in range(m):
        for j in range(n):
            obj[j] -= tableau[i][j]
        obj[ncols] -= tableau[i][ncols]
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    assert _ref_run_simplex(tableau, basis, ncols, n) == "optimal"
    if tableau[-1][ncols] < 0:
        y = [one - tableau[-1][n + i] for i in range(m)]
        return "infeasible", None, None, tuple(-y[i] if flipped[i] else y[i] for i in range(m))
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _ref_pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if basis[r] < n]
    tableau2 = [tableau[r][:n] + [tableau[r][ncols]] for r in keep]
    basis2 = [basis[r] for r in keep]
    obj2 = [Rat(v) for v in c] + [zero]
    for r, line in enumerate(tableau2):
        factor = obj2[basis2[r]]
        if factor != 0:
            obj2 = [a - factor * v for a, v in zip(obj2, line)]
    tableau2.append(obj2)
    if _ref_run_simplex(tableau2, basis2, n, n) == "unbounded":
        return "unbounded", None, None, None
    x = [zero] * n
    for r, j in enumerate(basis2):
        x[j] = tableau2[r][n]
    return "optimal", tuple(x), -tableau2[-1][n], None


def _solve_square(rows, rhs):
    """The unique solution of a square rational system, or None."""
    n = len(rows)
    m = [[Rat(x) for x in row] + [Rat(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def cube_vertices_bruteforce(dim, halfspaces):
    """Vertices of the unit cube cut by the halfspaces a·x <= b, sorted.

    A vertex is a feasible point where `dim` of the constraints are tight
    with linearly independent normals: every dim-subset of constraints is
    solved and the feasible solutions are kept.
    """
    constraints = list(halfspaces)
    for i in range(dim):
        unit = tuple(int(j == i) for j in range(dim))
        constraints.append((unit, 1))
        constraints.append((tuple(-u for u in unit), 0))
    found = set()
    for subset in itertools.combinations(constraints, dim):
        point = _solve_square([a for a, _ in subset], [b for _, b in subset])
        if point is not None and all(dot(a, point) <= b for a, b in constraints):
            found.add(point)
    return sorted(found)


# ---------------------------------------------------------------------------
# Reference McNaughton builder: the per-connective overlay that the library's
# one-pass builder replaced.  Each connective intersects every cell of its
# left operand's complex with every cell of its right operand's complex and
# splits the full-dimensional overlaps along its switch hyperplane, so its
# cells, in their order, must equal the library's exactly.  It cuts with the
# library's Polytope: what it checks is how the complex is assembled.


def _ref_split(cell, switch, low, high):
    vals = [form_at(switch, v) for v in cell.vertices]
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


def _ref_combine(a_cells, b_cells, op, dim):
    one = AffineForm.constant(1, dim)
    zero = AffineForm.constant(0, dim)
    out = []
    for ca in a_cells:
        for cb in b_cells:
            region = ca.polytope.intersect(cb.polytope)
            if region is None or region.affine_dim() < dim:
                continue
            fa, fb = ca.form, cb.form
            if op == "oplus":  # min(1, a+b)
                out.extend(_ref_split(region, (fa + fb) - one, fa + fb, one))
            elif op == "otimes":  # max(0, a+b-1)
                out.extend(_ref_split(region, (fa + fb) - one, zero, (fa + fb) - one))
            elif op == "and":  # min(a, b)
                out.extend(_ref_split(region, fa - fb, fa, fb))
            elif op == "or":  # max(a, b)
                out.extend(_ref_split(region, fa - fb, fb, fa))
            elif op == "imp":  # min(1, 1-a+b)
                out.extend(_ref_split(region, fb - fa, fa.complement() + fb, one))
            else:  # iff: 1 - |a-b|
                out.extend(_ref_split(region, fa - fb, fb.complement() + fa, fa.complement() + fb))
    return out


def reference_mcnaughton(formula, ctx):
    """The McNaughton complex of an event formula, built by recursive overlay."""
    ops = {fm.OPlus: "oplus", fm.OTimes: "otimes", fm.And: "and", fm.Or: "or", fm.Imp: "imp", fm.Iff: "iff"}
    n = ctx.arity
    cube = Polytope.cube(n)
    memo = {}

    def rec(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, fm.Var):
            cells = [LinearCell(cube, AffineForm.coordinate(ctx.position(node.name), n))]
        elif isinstance(node, fm.Bot):
            cells = [LinearCell(cube, AffineForm.constant(0, n))]
        elif isinstance(node, fm.Top):
            cells = [LinearCell(cube, AffineForm.constant(1, n))]
        elif isinstance(node, fm.Neg):
            cells = [LinearCell(c.polytope, c.form.complement()) for c in rec(node.arg)]
        elif isinstance(node, fm.Multiple):
            cells = []
            for c in rec(node.arg):
                scaled = c.form.scaled(node.n)
                cells.extend(_ref_split(c.polytope, scaled.shifted(-1), scaled, AffineForm.constant(1, n)))
        elif isinstance(node, fm.Power):
            cells = []
            for c in rec(node.arg):
                shifted = c.form.scaled(node.n).shifted(-(node.n - 1))
                cells.extend(_ref_split(c.polytope, shifted, AffineForm.constant(0, n), shifted))
        else:
            cells = _ref_combine(rec(node.left), rec(node.right), ops[type(node)], n)
        memo[key] = cells
        return cells

    return PwlFunction(ctx, rec(formula))


def varied_complex(events, ctx, order, extra_cuts):
    """A complex on which every event is affine, built another way than
    `coherent_set`'s overlay: one `refine` pass over the events taken in
    `order`, then every cell split along each extra hyperplane
    (normal, offset) by `pwl._sides`.  The forms come back in the events'
    own order."""
    from coh.pwl import _sides, refine

    cells, forms = refine([events[i] for i in order], ctx)
    for normal, offset in extra_cuts:
        split = [
            (part, cell_forms)
            for cell, cell_forms in zip(cells, forms)
            for part in _sides(cell, normal, offset)
            if part is not None
        ]
        cells, forms = [cell for cell, _ in split], [cell_forms for _, cell_forms in split]
    position = {i: k for k, i in enumerate(order)}
    return cells, [tuple(cell_forms[position[i]] for i in range(len(events))) for cell_forms in forms]


def varied_coherent_set(events, order, extra_cuts):
    """The coherent set of an event list as the hull of the event values,
    evaluated at rational points, at the vertices of `varied_complex`."""
    from coh.coherence import EventList

    ev = EventList(events)
    cells, forms = varied_complex(list(ev.events), ev.context, order, extra_cuts)
    images = {
        tuple(form_at(form, v) for form in cell_forms)
        for cell, cell_forms in zip(cells, forms)
        for v in cell.vertices
    }
    return Polytope.from_vertices(images)


# ---------------------------------------------------------------------------
# Reference decision procedures: the LP-per-region loops that the library's
# vertex reads replaced.  A region is parametrised by convex weights over the
# vertices of a polytope and cut by a cell's halfspaces; one LP per pair of
# cells minimises an affine form over it.


def reference_min_affine_over(verts, halfspaces, objective):
    """(feasible, min, argmin point) of an affine objective, given by its
    values at `verts`, over conv(verts) ∩ halfspaces."""
    from coh import simplex

    zero, one = Rat(0), Rat(1)
    m = len(verts)
    rows = [[dot(a, v) for v in verts] for a, _ in halfspaces]
    rhs = [Rat(b) for _, b in halfspaces] + [one]
    A = [row + [one if j == i else zero for j in range(len(rows))] for i, row in enumerate(rows)]
    A.append([one] * m + [zero] * len(rows))
    res = simplex.solve_standard(list(objective) + [zero] * len(rows), A, rhs)
    if res.status == simplex.INFEASIBLE:
        return False, None, None
    weights = res.x[:m]
    point = tuple(
        sum((w * v[i] for w, v in zip(weights, verts)), start=zero) for i in range(len(verts[0]))
    )
    return True, res.value, point


def reference_decide_consequence(premise, conclusion):
    """(holds, countermodel point): minimise each piece of ψ over the
    coherent part of each piece of φ's oneset, one LP per pair of cells.
    The point's coordinates are the atoms of φ, then ψ, in first occurrence."""
    from coh.coherence import EventList, coherent_set
    from coh.fplogic import TranslationContext, translate
    from coh.pwl import mcnaughton, oneset_piece

    phi = fm.parse_modal(premise) if isinstance(premise, str) else premise
    psi = fm.parse_modal(conclusion) if isinstance(conclusion, str) else conclusion
    tctx = TranslationContext()
    phi_t, psi_t = translate(phi, tctx), translate(psi, tctx)
    if not tctx.events:
        holds = evaluate_formula(phi_t, {}) < 1 or evaluate_formula(psi_t, {}) == 1
        return holds, None if holds else ()
    pctx = tctx.book_context()
    verts = coherent_set(EventList(tctx.events)).polytope.vertices
    f_psi = mcnaughton(psi_t, pctx)
    for cell in mcnaughton(phi_t, pctx).cells:
        piece = oneset_piece(cell)
        if piece is None:
            continue
        for psi_cell in f_psi.cells:
            objective = [form_at(psi_cell.form, v) for v in verts]
            region = piece.halfspaces + psi_cell.polytope.halfspaces
            feasible, value, point = reference_min_affine_over(verts, region, objective)
            if feasible and value < 1:
                return False, point
    return True, None


def reference_deduction_exponent(premise, conclusion):
    """Least n found by deciding ⊢ Φ^n -> Ψ for n = 1, 2, ... in turn."""
    phi = fm.parse_modal(premise) if isinstance(premise, str) else premise
    psi = fm.parse_modal(conclusion) if isinstance(conclusion, str) else conclusion
    if not reference_decide_consequence(phi, psi)[0]:
        return None
    n = 1
    while not reference_decide_consequence(fm.TOP, fm.Imp(phi if n == 1 else fm.Power(phi, n), psi))[0]:
        n += 1
    return n


def reference_verify_oneset(formula, poly, ctx):
    """{f = 1} == poly: oneset vertices tested with Rat halfspace sums, and
    one LP per cell of f's complex for min f over the cell ∩ poly."""
    from coh.pwl import mcnaughton, oneset

    func = mcnaughton(formula, ctx)
    for piece in oneset(func):
        for v in piece.vertices:
            if not all(dot(a, v) <= b for a, b in poly.halfspaces):
                return False
    verts = poly.vertices
    for cell in func.cells:
        objective = [form_at(cell.form, v) for v in verts]
        feasible, value, _ = reference_min_affine_over(verts, cell.polytope.halfspaces, objective)
        if feasible and value < 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference coherence procedures: each decides its question the plain way,
# with the solves the library now shares done separately.


def reference_membership(point, poly):
    """MembershipCertificate from a feasibility solve first, then the n
    lexicographic weight slices, or a separator from the Farkas vector."""
    from coh import simplex
    from coh.exact import integerize
    from coh.polytope import MembershipCertificate

    p = tuple(Rat(x) for x in point)
    verts = poly.vertices
    n = len(verts)
    A = [[v[i] for v in verts] for i in range(len(p))] + [[Rat(1)] * n]
    b = list(p) + [Rat(1)]
    res = simplex.feasible_point(A, b)
    if res.status == simplex.INFEASIBLE:
        normal = integerize(res.farkas[: len(p)])
        threshold = max(dot(normal, v) for v in verts)
        return MembershipCertificate(
            inside=False, separator=(normal, threshold, dot(normal, p) - threshold)
        )
    weights = []
    for j in range(n):
        res = simplex.solve_standard([Rat(int(i == j)) for i in range(n)], A, b)
        weights.append(res.x[j])
        A = A + [[Rat(int(i == j)) for i in range(n)]]
        b = b + [res.x[j]]
    return MembershipCertificate(inside=True, weights=tuple(weights))


def reference_extension_interval(events, book, new_event):
    """(lo, hi): `check_book` decides coherence first (raising
    IncoherentBookError), then the extension LPs run over the coherent set
    of the extended events."""
    from coh import simplex
    from coh.coherence import Book, EventList, IncoherentBookError, check_book, coherent_set

    ev = events if isinstance(events, EventList) else EventList(events)
    bk = book if isinstance(book, Book) else Book(book)
    verdict = check_book(ev, bk)
    if not verdict.coherent:
        raise IncoherentBookError(verdict)
    psi = parse_event(new_event) if isinstance(new_event, str) else new_event
    verts = coherent_set(ev.extended_with(psi)).polytope.vertices
    k = len(ev)
    A = [[v[i] for v in verts] for i in range(k)] + [[Rat(1)] * len(verts)]
    b = list(bk.prices) + [Rat(1)]
    objective = [v[k] for v in verts]
    lo = simplex.solve_standard(objective, A, b).value
    hi = -simplex.solve_standard([-c for c in objective], A, b).value
    return lo, hi


# ---------------------------------------------------------------------------
# Reference facets: the polar-dual facet enumeration with the polar's
# bounding box found by 2·rank exact LPs, which the library's closed-form
# duality bound replaced.  The box contains the polar strictly either way,
# so the facets must be equal.


def reference_polar_bound(j, rows, sense):
    """max (sense 1) or min (sense -1) of y_j over {y free : rows·y <= 1}:
    y = y+ - y-, one slack per row, solved as a standard-form LP."""
    from coh import simplex

    zero, one = Rat(0), Rat(1)
    m, d = len(rows), len(rows[0])
    A = [
        [Rat(v) for v in row] + [-Rat(v) for v in row] + [one if k == i else zero for k in range(m)]
        for i, row in enumerate(rows)
    ]
    c = [zero] * (2 * d + m)
    c[j], c[d + j] = Rat(-sense), Rat(sense)
    res = simplex.solve_standard(c, A, [one] * m)
    assert res.status == simplex.OPTIMAL
    return -sense * res.value


def reference_facets(vertices, dim):
    """Sorted facet halfspaces of conv(vertices) in R^dim, equalities as
    opposite pairs, each (a, b) jointly gcd-reduced."""
    from coh.polytope import _norm_halfspace

    one = Rat(1)
    if dim == 0:
        return ()
    base = vertices[0]
    reduced, pivots = rref([[x - y for x, y in zip(v, base)] for v in vertices[1:]])
    rank = len(pivots)
    if rank == 0:
        return tuple(sorted(Polytope._box(dim, base, base).halfspaces))
    basis = [tuple(reduced[r]) for r in range(rank)]
    facets = []
    for w in nullspace(basis):
        a, b = _norm_halfspace(w, dot(w, base))
        facets += [(a, b), _norm_halfspace([-x for x in a], -b)]
    upoints = [tuple(dot(row, [x - y for x, y in zip(v, base)]) for row in basis) for v in vertices]
    if rank == 1:
        lo, hi = min(u[0] for u in upoints), max(u[0] for u in upoints)
        inner = [((one,), hi), ((-one,), -lo)]
    else:
        centroid = tuple(sum(u[i] for u in upoints) / len(upoints) for i in range(rank))
        rows = [[x - c for x, c in zip(u, centroid)] for u in upoints]
        box_lo = [reference_polar_bound(j, rows, -1) - 1 for j in range(rank)]
        box_hi = [reference_polar_bound(j, rows, 1) + 1 for j in range(rank)]
        polar = Polytope._box(rank, box_lo, box_hi)
        for row in rows:
            polar = polar.cut(row, one)
        inner = [(y, one + dot(y, centroid)) for y in polar.vertices]
    for a_u, b_u in inner:
        lifted = [dot([row[i] for row in basis], a_u) for i in range(dim)]
        facets.append(_norm_halfspace(lifted, b_u + dot(lifted, base)))
    return tuple(sorted(set(facets)))


# ---------------------------------------------------------------------------
# Reference parser: the recursive descent, one method per binding level, that
# the library's precedence-climbing parser replaced.  It reads the library's
# tokens and must give the same AST, or the same error at the same offset.


class _RefParser:
    def __init__(self, text, modal):
        self.tokens = list(fm._tokenize(text))
        self.pos = 0
        self.modal = modal
        self.in_event = not modal
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise fm.ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nest(self, offset):
        if self.nesting == fm.MAX_NESTING:
            raise fm.NestingError(f"formula nesting exceeds the cap of {fm.MAX_NESTING}", offset)
        self.nesting += 1

    def parse(self):
        node = self.iff()
        tok = self.peek()
        if tok[0] != "EOF":
            raise fm.ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def iff(self):
        node = self.imp()
        while self.peek()[0] == "<->":
            self.next()
            node = fm.Iff(node, self.imp())
        return node

    def imp(self):
        node = self.disj()
        tok = self.peek()
        if tok[0] == "->":
            self.next()
            self.nest(tok[2])
            node = fm.Imp(node, self.imp())
            self.nesting -= 1
        return node

    def disj(self):
        node = self.conj()
        while self.peek()[0] == "|":
            self.next()
            node = fm.Or(node, self.conj())
        return node

    def conj(self):
        node = self.sum()
        while self.peek()[0] == "&":
            self.next()
            node = fm.And(node, self.sum())
        return node

    def sum(self):
        node = self.prod()
        while self.peek()[0] == "+":
            self.next()
            node = fm.OPlus(node, self.prod())
        return node

    def prod(self):
        node = self.unary()
        while self.peek()[0] == "*":
            self.next()
            node = fm.OTimes(node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "~":
            self.next()
            self.nest(tok[2])
            node = fm.Neg(self.unary())
            self.nesting -= 1
            return node
        node = self.atom()
        while self.peek()[0] == "^":
            self.next()
            tok = self.expect("INT")
            n = int(tok[1])
            if n < 1:
                raise fm.ParseError("power exponent must be >= 1", tok[2])
            node = fm.Power(node, n)
        return node

    def atom(self):
        kind, value, offset = self.next()
        if kind == "IDENT":
            return fm.Var(value)
        if kind == "INT":
            if self.peek()[0] == ".":
                self.next()
                n = int(value)
                if n < 1:
                    raise fm.ParseError("multiple count must be >= 1", offset)
                self.nest(offset)
                node = fm.Multiple(n, self.atom())
                self.nesting -= 1
                return node
            if value == "0":
                return fm.BOT
            if value == "1":
                return fm.TOP
            raise fm.ParseError("bare integer constant must be 0 or 1", offset)
        if kind == "(":
            self.nest(offset)
            node = self.iff()
            self.expect(")")
            self.nesting -= 1
            return node
        if kind == "PMOD":
            if not self.modal:
                raise fm.ParseError("modality P(...) not allowed in an event formula", offset)
            if self.in_event:
                raise fm.ParseError("nested modality", offset)
            self.in_event = True
            event = self.iff()
            self.in_event = False
            self.expect(")")
            return fm.PAtom(event)
        raise fm.ParseError(f"unexpected {value!r}", offset)


def reference_parse(text, modal=False):
    """The formula of `text` (an event formula, or a modal one with `modal`)."""
    return _RefParser(text, modal).parse()


# ---------------------------------------------------------------------------
# Normalization to the primitive basis {⊕, ¬, ⊥, variables}: each derived
# connective written out by its definition, an independent check of the
# closed forms that `evaluate_formula` uses.


def _imp(a, b):
    return fm.OPlus(fm.Neg(a), b)


def _primitive(node, new):
    cls = node.__class__
    if cls is fm.Var or cls is fm.Bot or cls is fm.PAtom:
        return node
    if cls is fm.Top:
        return fm.Neg(fm.BOT)
    if cls is fm.Neg:
        return fm.Neg(new(node.arg))
    if cls is fm.OPlus:
        return fm.OPlus(new(node.left), new(node.right))
    if cls is fm.OTimes:
        return fm.Neg(fm.OPlus(fm.Neg(new(node.left)), fm.Neg(new(node.right))))
    if cls is fm.Imp:
        return _imp(new(node.left), new(node.right))
    if cls is fm.Or:
        a, b = new(node.left), new(node.right)
        return _imp(_imp(a, b), b)
    if cls is fm.And:
        a, b = new(node.left), new(node.right)
        return fm.Neg(_imp(_imp(fm.Neg(a), fm.Neg(b)), fm.Neg(b)))
    if cls is fm.Iff:
        a, b = new(node.left), new(node.right)
        left, right = _imp(a, b), _imp(b, a)
        return fm.Neg(_imp(_imp(fm.Neg(left), fm.Neg(right)), fm.Neg(right)))
    if cls is fm.Power:
        out = base = new(node.arg)
        for _ in range(node.n - 1):
            out = fm.Neg(fm.OPlus(fm.Neg(out), fm.Neg(base)))
        return out
    if cls is fm.Multiple:
        out = base = new(node.arg)
        for _ in range(node.n - 1):
            out = fm.OPlus(out, base)
        return out
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def normalize(formula):
    """Rewrite into the primitive basis.  Total and idempotent."""
    return fm.fold(formula, _primitive, modal_leaves=True)
