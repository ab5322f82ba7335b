"""Exact rational convex polytopes in dual V/H representation.

A polytope carries an irredundant vertex list and, lazily, a halfspace list.
Each vertex v is held once, in the homogeneous form of MV-algebra theory:
integers P and d = den(v) > 0 with v = P/d, so gcd(*P, d) = 1 and equal
points are equal pairs.  The pairs are sorted in the lexicographic order
of their rational values (`_sorted_pairs`); `vertices` rebuilds the
rational tuples from them for the readers that need rationals (JSON,
witnesses and the volume oracle).

The V-hull (`from_vertices`) keeps the extreme points of a cloud.  A point
that a direction certifies, as the unique maximiser of some linear
functional over the cloud, is kept without an LP (`_certified`); each
other point is dropped when one feasibility LP finds it in the hull of the
points kept so far.  That LP, the certified membership (`membership`, one
`simplex.lexmin`) and the extension LPs of `coherence` solve the integer
system `weight_lp` built from the pairs: the weight of P/d scaled by d, so
that column is (P, d), which leaves every simplex pivot as it is.

Halfspaces are pairs ``(a, b)`` of an integer normal and integer offset
meaning ``a·x <= b``; the pair is gcd-reduced jointly (a rational facet
such as x >= 1/2 forces the offset's denominator into the normal, so only
the joint content can be normalized to 1).
Equality constraints of lower-dimensional polytopes appear as opposite
inequality pairs.

Vertex enumeration is the incremental double-description step: cut a start
box by one halfspace at a time, generating candidate points on crossing
segments and keeping exactly those whose tight constraints have full rank.
The cut computes with integers only: the sign tests, crossing points and
tight tests are integer cross-multiplications on the pairs, and so are the
containment tests (`contains`, `includes`).
Facet enumeration reduces to vertex enumeration of the polar dual inside the
affine hull, cut from a box that bounds the polar in closed form by LP
duality (`_polar_box`), so it solves no LP.  It reads the pairs and computes
in integers too: the hull's basis is the fraction-free reduced form of the
vertex differences, and the polar's rows and box are scaled to integers.
Both directions are exact, and the facets are re-verified against every
vertex before they are returned; the scale intended here is dimension <= 6.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iter_product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from . import simplex
from .exact import (
    ONE,
    Rat,
    ZERO,
    common_denominator,
    det,
    dot,
    integerize,
    mat_rank,
    rat_str,
    reduced_echelon,
)
from .record import Record

Point = tuple
Pair = tuple[tuple[int, ...], int]
HalfSpace = tuple[tuple[int, ...], int]

# Facet enumeration runs the double-description method, whose output can
# explode combinatorially; polytopes beyond this ambient dimension are
# refused with a clear error.  The CLI's cap of 6 events stays within it.
MAX_FACET_DIM = 6


class DimensionError(ValueError):
    pass


class FacetDimensionError(DimensionError):
    """Facet enumeration requested beyond MAX_FACET_DIM."""


def _norm_halfspace(normal: Sequence, offset) -> HalfSpace:
    joint = integerize((*normal, offset))
    return joint[:-1], joint[-1]


def _pair(point: Sequence) -> Pair:
    """The reduced pair (P, d) of a rational point."""
    P, d = common_denominator(point)
    return tuple(P), d


def _reduced(P: Sequence[int], d: int) -> Pair:
    """The pair of the point P/d, for integers P and d > 0."""
    g = gcd(*P, d)
    return (tuple(p // g for p in P), d // g) if g > 1 else (tuple(P), d)


def _sorted_pairs(pairs) -> tuple[Pair, ...]:
    """Reduced pairs in the lexicographic order of their rational values.

    Over L, the lcm of the denominators, P/d has the numerators P·(L/d);
    all points then share one positive denominator, so comparing those
    integer tuples compares the rational ones.
    """
    L = lcm(*[d for _, d in pairs])
    return tuple(sorted(pairs, key=lambda pair: tuple(p * (L // pair[1]) for p in pair[0])))


def _inside(halfspaces: Sequence[HalfSpace], P: Sequence[int], d: int) -> bool:
    """Whether P/d (d > 0) satisfies every halfspace: a·P <= b·d."""
    return all(sum(map(mul, a, P)) <= b * d for a, b in halfspaces)


class Polytope:
    """Immutable convex rational polytope; possibly lower-dimensional.

    `pairs` holds the vertices, each as its reduced pair (P, d) with P/d
    the vertex and d > 0, distinct and in the order of their rational
    values (the module docstring).  The constructor takes them as they are.
    """

    __slots__ = ("dim", "pairs", "_halfspaces")

    def __init__(self, dim: int, pairs: tuple[Pair, ...], halfspaces=None):
        self.dim = dim
        self.pairs = pairs
        self._halfspaces: tuple[HalfSpace, ...] | None = halfspaces

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Iterable[Sequence]) -> "Polytope":
        """Convex hull: deduplicate, drop non-extreme points, sort.

        A point that `_certified` certifies is kept without an LP; each
        other point is dropped when an LP finds it in the hull of the points
        kept so far.  The extreme points are unique, so neither the order
        of the tests nor which points skip them changes the result.
        """
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("empty point list")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise DimensionError("ragged point dimensions")
        pairs = set(map(_pair, pts))
        L = lcm(*[d for _, d in pairs])
        scaled = sorted((tuple(p * (L // d) for p in P), (P, d)) for P, d in pairs)
        keep = [pair for _, pair in scaled]
        for pair, extreme in zip(keep, _certified([N for N, _ in scaled])):
            if not extreme:
                others = [q for q in keep if q != pair]
                if _in_hull(pair, others):
                    keep = others
        return cls(dim, tuple(keep))

    @classmethod
    def _box(cls, dim: int, lo: Sequence, hi: Sequence) -> "Polytope":
        if dim == 0:
            return cls(0, (((), 1),), ())
        # Both bounds over one denominator L; the product of the sorted
        # per-axis numerators is in lexicographic order.
        ints, L = common_denominator((*lo, *hi))
        axes = [sorted({ints[i], ints[dim + i]}) for i in range(dim)]
        corners = tuple(_reduced(P, L) for P in iter_product(*axes))
        hs = []
        for i in range(dim):
            unit = [0] * dim
            unit[i] = 1
            hs.append(_norm_halfspace(unit, hi[i]))
            hs.append(_norm_halfspace([-u for u in unit], -lo[i]))
        return cls(dim, corners, tuple(hs))

    @classmethod
    @cache  # built once per dimension
    def cube(cls, dim: int) -> "Polytope":
        return cls._box(dim, [0] * dim, [1] * dim)

    # -- representations ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as rational tuples, built from `pairs` on each call."""
        return tuple(tuple(Rat(p, d) for p in P) for P, d in self.pairs)

    @property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        if self._halfspaces is None:
            self._halfspaces = _facets(self.pairs, self.dim)
        return self._halfspaces

    def affine_dim(self) -> int:
        """Dimension of the affine hull: the rank of the differences
        P·d0 - P0·d, each (P/d - P0/d0) scaled by d·d0 > 0."""
        (P0, d0), *rest = self.pairs
        if not rest:
            return 0
        return mat_rank([[p * d0 - q * d for p, q in zip(P, P0)] for P, d in rest])

    def contains(self, point: Sequence) -> bool:
        """Whether a rational point lies in the polytope, by integer
        halfspace tests on its pair."""
        if len(point) != self.dim:
            raise DimensionError(f"point dim {len(point)} != polytope dim {self.dim}")
        return _inside(self.halfspaces, *_pair(point))

    def includes(self, other: "Polytope") -> bool:
        """Whether every vertex of `other`, so all of it, lies in here."""
        hs = self.halfspaces
        return all(_inside(hs, P, d) for P, d in other.pairs)

    # -- core geometry ------------------------------------------------------

    def cut(self, normal: Sequence, offset) -> "Polytope | None":
        """Intersect with the halfspace normal·x <= offset.

        Candidate vertices from crossing segments are confirmed by the rank
        of their tight constraints, so the result is exact (and may drop a
        dimension or come back None when the intersection is empty).  All
        tests run on the pairs: a·(P/d) <= b is a·P <= b·d for d > 0.
        """
        a, b = _norm_halfspace(normal, offset)
        if not any(a):
            return self if b >= 0 else None
        pairs = self.pairs
        signs = [sum(map(mul, a, P)) - b * d for P, d in pairs]
        if all(s <= 0 for s in signs):
            if 0 in signs and (a, b) not in self.halfspaces:
                return Polytope(self.dim, pairs, self.halfspaces + ((a, b),))
            return self
        found = [pair for pair, s in zip(pairs, signs) if s <= 0]
        if not found:
            return None
        hs = self.halfspaces
        if (a, b) not in hs:
            hs = hs + ((a, b),)
        candidates: set[Pair] = set()
        for (P, dp), sp in zip(pairs, signs):
            if sp >= 0:
                continue
            for (Q, dq), sq in zip(pairs, signs):
                if sq <= 0:
                    continue
                # The point of segment PQ on the hyperplane; dz > 0.
                candidates.add(_reduced([sq * x - sp * y for x, y in zip(P, Q)], sq * dp - sp * dq))
        # A crossing point lies strictly inside a segment between vertices,
        # so it is never one of the kept vertices.
        for Z, dz in candidates:
            tight = [n for n, c in hs if sum(map(mul, n, Z)) == c * dz]
            if len(tight) >= self.dim and mat_rank(tight) == self.dim:
                found.append((Z, dz))
        order = _sorted_pairs(found)
        # Constraints slack at every vertex are slack on the whole polytope;
        # dropping them keeps cut chains from accumulating dead halfspaces
        # (each vertex keeps its own tight set, so rank tests stay valid).
        kept = tuple(
            (n, c) for n, c in hs if any(sum(map(mul, n, P)) == c * d for P, d in order)
        )
        return Polytope(self.dim, order, kept)

    def intersect(self, other: "Polytope") -> "Polytope | None":
        if other.dim != self.dim:
            raise DimensionError("dimension mismatch")
        poly: Polytope | None = self
        for a, b in other.halfspaces:
            poly = poly.cut(a, b)
            if poly is None:
                return None
        return poly

    def volume(self):
        """Exact volume; 0 for lower-dimensional polytopes."""
        if self.dim == 0:
            return ONE
        if self.affine_dim() < self.dim:
            return ZERO
        total = ZERO
        factorial = 1
        for k in range(2, self.dim + 1):
            factorial *= k
        for simplex_pts in _triangulate(self):
            base = simplex_pts[0]
            rows = [[x - y for x, y in zip(p, base)] for p in simplex_pts[1:]]
            total += abs(det(rows))
        return total / factorial

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.pairs))

    def __repr__(self) -> str:
        pts = ", ".join("(" + ", ".join(rat_str(x) for x in v) + ")" for v in self.vertices)
        return f"Polytope[{pts}]"


# ---------------------------------------------------------------------------
# Hull-side primitives.


def _certified(points: list[tuple[int, ...]]) -> list[bool]:
    """Which of the distinct integer points, sorted, a direction certifies
    as vertices of their hull: the first and the last point, every corner
    of their bounding box (each coordinate its column's least or greatest)
    and every unique maximiser of its own direction n·q - Σq from the
    centroid.  See "Hull vertices without LPs" in docs/design-notes.md."""
    n = len(points)
    columns = list(zip(*points))
    lo, hi = [min(c) for c in columns], [max(c) for c in columns]
    total = [sum(c) for c in columns]
    out = []
    for i, q in enumerate(points):
        if i == 0 or i == n - 1 or all(x == a or x == b for x, a, b in zip(q, lo, hi)):
            out.append(True)
            continue
        c = [n * x - t for x, t in zip(q, total)]
        top = sum(map(mul, c, q))
        out.append(all(sum(map(mul, c, p)) < top for p in points if p is not q))
    return out


def weight_lp(pairs: Sequence[Pair], target: Pair) -> tuple[list[list[int]], list[int]]:
    """Integer equality system for convex weights w over the points P_j/d_j
    (their first len(Q) coordinates) that reproduce the point Q/e.

    The unknowns are x_j = e·w_j/d_j: the columns are (P_j, d_j) and the
    right-hand side is (Q, e).  Scaling a column or the right-hand side by
    a positive factor leaves every pivot of the simplex as it is, so the
    basis, the lexicographically least point and the Farkas vector are
    those of the rational system in w.
    """
    Q, e = target
    A = [[P[i] for P, _ in pairs] for i in range(len(Q))]
    A.append([d for _, d in pairs])
    return A, [*Q, e]


def _in_hull(point: Pair, pairs: Sequence[Pair]) -> bool:
    return simplex.feasible_point(*weight_lp(pairs, point)).status == simplex.OPTIMAL


class MembershipCertificate(Record):
    """Either convex weights (inside) or a strict separator (outside).

    The separator is (normal, threshold, margin): normal·v <= threshold for
    every vertex while normal·p = threshold + margin with margin > 0.  The
    normal is an integer vector of content 1.
    """

    __slots__ = __match_args__ = ("inside", "weights", "separator")

    def __init__(self, inside: bool, weights: tuple | None = None, separator: tuple | None = None):
        self.inside = inside
        self.weights = weights
        self.separator = separator


def membership(point: Sequence, poly: Polytope) -> MembershipCertificate:
    """Exact membership with a verified certificate either way.

    One lexicographic solve of the integer system `weight_lp` decides it
    (`simplex.lexmin`): inside, the certificate is the lexicographically
    least convex weight vector over the sorted vertices, which is unique;
    outside, its phase 1 gives the Farkas vector that a plain feasibility
    solve would.
    """
    p = tuple(point)
    if len(p) != poly.dim:
        raise DimensionError(f"point dim {len(p)} != polytope dim {poly.dim}")
    pairs = poly.pairs
    Q, e = _pair(p)
    res = simplex.lexmin(*weight_lp(pairs, (Q, e)))
    if res.status == simplex.OPTIMAL:
        # x_j = e·w_j/d_j; the check reads the weights alone.
        weights = tuple(x * d / e for x, (_, d) in zip(res.x, pairs))
        scaled = [w / d for w, (_, d) in zip(weights, pairs)]
        recon = tuple(dot(scaled, [P[i] for P, _ in pairs]) for i in range(poly.dim))
        if recon != p or sum(weights) != 1 or any(w < 0 for w in weights):
            raise AssertionError("membership weights failed re-verification")
        return MembershipCertificate(inside=True, weights=weights)
    # Farkas dual: y over (dim coordinate rows + the convexity row) gives a
    # functional g(x) = y_geo·x with g(v) + y_0 <= 0 on vertices and > 0 at p.
    normal = integerize(res.farkas[: poly.dim])
    if all(x == 0 for x in normal):  # pragma: no cover - cannot separate with 0
        raise AssertionError("degenerate separator")
    threshold = max(Rat(sum(map(mul, normal, P)), d) for P, d in pairs)
    margin = dot(normal, p) - threshold
    if margin <= 0:
        raise AssertionError("separator failed re-verification")
    return MembershipCertificate(inside=False, separator=(normal, threshold, margin))


# ---------------------------------------------------------------------------
# Facet enumeration (V -> H) via the polar dual inside the affine hull.


def _facets(pairs: tuple[Pair, ...], dim: int) -> tuple[HalfSpace, ...]:
    """The facets of the hull of the points P/d, in integers: see "Facets
    without LPs" in docs/design-notes.md.  A point x has the hull
    coordinates U = L·B(x - x0): x0 = P0/d0 is the first point, B the
    integer reduced basis of the hull's directions, L the lcm of every d·d0."""
    if dim > MAX_FACET_DIM:
        raise FacetDimensionError(
            f"facet enumeration capped at dimension {MAX_FACET_DIM} (got {dim})"
        )
    if dim == 0:
        return ()
    P0, d0 = pairs[0]
    # (P/d - x0)·d·d0 for every point, the first one included.
    diffs = [[p * d0 - q * d for p, q in zip(P, P0)] for P, d in pairs]
    basis, pivots = reduced_echelon(diffs[1:])
    rank = len(pivots)
    facets: list[HalfSpace] = []

    # Equalities: the null space of the basis, w with w·x = w·x0.  For a
    # single point (rank 0) these are all the facets, the point's box.
    D = basis[0][pivots[0]] if basis else 1
    for f in range(dim):
        if f in pivots:
            continue
        w = [0] * dim
        w[f] = D
        for row, p in zip(basis, pivots):
            w[p] = -row[f]
        a, b = _norm_halfspace([d0 * x for x in w], sum(map(mul, w, P0)))
        facets += [(a, b), _norm_halfspace([-x for x in a], -b)]

    L = lcm(*[d * d0 for _, d in pairs])
    upoints = [
        [sum(map(mul, row, diff)) * (L // (d * d0)) for row in basis]
        for diff, (_, d) in zip(diffs, pairs)
    ]
    inner: list = []
    if rank == 1:
        values = [U[0] for U in upoints]
        inner = [((1,), max(values)), ((-1,), -min(values))]
    elif rank > 1:
        # The polar dual about the centroid c = ΣU/m: W_i·y <= 1 with
        # W_i = U_i/L - c, here scaled by m·L.
        m = len(upoints)
        total = [sum(col) for col in zip(*upoints)]
        rows = [[m * u - t for u, t in zip(U, total)] for U in upoints]
        polar = Polytope._box(rank, *_polar_box(rows, m * L))
        for row in rows:
            polar = polar.cut(row, m * L)
        # A polar vertex y = Y/e gives the facet y·U/L <= 1 + y·c.
        inner = [([m * y for y in Y], m * L * e + sum(map(mul, Y, total))) for Y, e in polar.pairs]

    # Lift a'·U <= b' to x: L·(Bᵀa')·(x - x0) <= b', times d0.
    for a_u, b_u in inner:
        n = [sum(map(mul, col, a_u)) for col in zip(*basis)]
        facets.append(_norm_halfspace([L * d0 * x for x in n], b_u * d0 + L * sum(map(mul, n, P0))))

    facets = sorted(set(facets))
    if not all(_inside(facets, P, d) for P, d in pairs):
        raise AssertionError("facets failed re-verification")
    return tuple(facets)


def _polar_box(rows: list[list[int]], offset: int) -> tuple[list[int], list[int]]:
    """An integer box containing {y : row·y <= offset for every row}
    strictly, by LP duality.

    The rows W sum to zero and span the rank-dimensional space.  If
    Wᵀλ = e_j with λ >= 0, every point of the polar has
    y_j = λ·(W y) <= offset·Σλ.  The fraction-free reduction of [Wᵀ | I]
    gives D·α with Wᵀα = e_j (the j-th column of the transform on the pivot
    columns, 0 elsewhere); α + t·1 solves it too, as the rows sum to zero,
    and t = max(0, -min α) makes it nonnegative.  The same with -e_j bounds
    y_j from below.  Each bound is rounded outward and moved out by 1, so
    every box facet is slack on the polar.
    """
    m, rank = len(rows), len(rows[0])
    reduced, pivots = reduced_echelon(
        [[row[j] for row in rows] + [int(k == j) for k in range(rank)] for j in range(rank)]
    )
    D = reduced[0][pivots[0]]
    box_lo, box_hi = [], []
    for j in range(rank):
        alpha = [row[m + j] * D for row in reduced]  # D²·α
        total = sum(alpha)
        hi = offset * (total + m * max(0, -min(alpha)))
        lo = offset * (total - m * max(0, max(alpha)))
        box_hi.append(-(-hi // (D * D)) + 1)
        box_lo.append(lo // (D * D) - 1)
    return box_lo, box_hi


# ---------------------------------------------------------------------------
# Exact triangulation for volumes.


def _triangulate(poly: Polytope) -> list[list[Point]]:
    """Simplices, as rational vertex lists, that triangulate the polytope
    within its affine hull: the polytope itself when it is a simplex, else
    the cones from its first vertex over the facets that miss it."""
    verts = poly.vertices
    rank = poly.affine_dim()
    if len(verts) == rank + 1:
        return [list(verts)]
    apex = verts[0]
    simplices: list[list[Point]] = []
    for a, b in poly.halfspaces:
        if dot(a, apex) == b:
            continue
        face = Polytope(poly.dim, tuple(p for p, v in zip(poly.pairs, verts) if dot(a, v) == b))
        if face.affine_dim() != rank - 1:
            continue
        for sub in _triangulate(face):
            simplices.append(sub + [apex])
    return simplices
