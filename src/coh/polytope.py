"""Exact rational convex polytopes in dual V/H representation.

A polytope carries an irredundant, lexicographically sorted vertex list and,
lazily, a halfspace list.  Halfspaces are pairs ``(a, b)`` of an integer
normal and integer offset meaning ``a·x <= b``; the pair is gcd-reduced
jointly (a rational facet such as x >= 1/2 forces the offset's denominator
into the normal, so only the joint content can be normalized to 1).
Equality constraints of lower-dimensional polytopes appear as opposite
inequality pairs.

Vertex enumeration is the incremental double-description step: cut a start
box by one halfspace at a time, generating candidate points on crossing
segments and keeping exactly those whose tight constraints have full rank.
The cut computes with integers only: each vertex is also held as an
integer numerator tuple over a positive common denominator, reduced by gcd
(`homogeneous`), and the sign tests, crossing points and tight tests are
integer cross-multiplications; Rat tuples are built only for the result's
vertices.  Containment tests on such points (`contains_homogeneous`) are
integer too.
Facet enumeration reduces to vertex enumeration of the polar dual inside the
affine hull, cut from a box that bounds the polar in closed form by LP
duality (`_polar_box`), so it solves no LP.  Both directions are exact, and
the facets are re-verified against every vertex before they are returned;
the scale intended here is dimension <= 6.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iter_product
from math import gcd
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
    nullspace,
    rat_str,
    rref,
)
from .record import Record

Point = tuple
HalfSpace = tuple[tuple[int, ...], int]

# Facet enumeration runs the double-description method, whose output can
# explode combinatorially; polytopes beyond this ambient dimension are
# refused with a clear error.  Raise it at your own risk.
MAX_FACET_DIM = 6


class DimensionError(ValueError):
    pass


class FacetDimensionError(DimensionError):
    """Facet enumeration requested beyond MAX_FACET_DIM."""


def _as_point(values: Sequence) -> Point:
    return tuple(Rat(v) for v in values)


def _norm_halfspace(normal: Sequence, offset) -> HalfSpace:
    joint = integerize(list(normal) + [offset])
    return joint[:-1], joint[-1]


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of the points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return mat_rank([[x - y for x, y in zip(p, base)] for p in points[1:]])


class Polytope:
    """Immutable convex rational polytope; possibly lower-dimensional."""

    __slots__ = ("dim", "_vertices", "_halfspaces", "_homog")

    def __init__(self, dim: int, vertices: tuple[Point, ...], halfspaces=None):
        self.dim = dim
        self._vertices = vertices
        self._halfspaces: tuple[HalfSpace, ...] | None = halfspaces
        # `homogeneous()`, computed on first use and handed on by `cut` to
        # the polytope it returns.
        self._homog: tuple[tuple[tuple[int, ...], int], ...] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vertices(cls, points: Iterable[Sequence]) -> "Polytope":
        """Convex hull: deduplicate, drop non-extreme points, sort."""
        pts = [_as_point(p) for p in points]
        if not pts:
            raise ValueError("empty point list")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise DimensionError("ragged point dimensions")
        pts = sorted(set(pts))
        keep = list(pts)
        for p in list(keep):
            if len(keep) == 1:
                break
            others = [q for q in keep if q != p]
            if _in_hull(p, others):
                keep = others
        return cls(dim, tuple(sorted(keep)))

    @classmethod
    def _box(cls, dim: int, lo: Sequence, hi: Sequence) -> "Polytope":
        if dim == 0:
            return cls(0, ((),), ())
        corners = tuple(sorted(set(iter_product(*[(Rat(a), Rat(b)) for a, b in zip(lo, hi)]))))
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
        return cls._box(dim, [ZERO] * dim, [ONE] * dim)

    # -- representations ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    @property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        if self._halfspaces is None:
            self._halfspaces = _facets(self._vertices, self.dim)
        return self._halfspaces

    def homogeneous(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The vertices as (integer numerators, positive denominator) pairs,
        reduced by gcd, in vertex order."""
        if self._homog is None:
            self._homog = tuple(
                (tuple(P), d) for P, d in map(common_denominator, self._vertices)
            )
        return self._homog

    def affine_dim(self) -> int:
        return affine_rank(self._vertices)

    def contains(self, point: Sequence) -> bool:
        p = _as_point(point)
        if len(p) != self.dim:
            raise DimensionError(f"point dim {len(p)} != polytope dim {self.dim}")
        return all(dot(a, p) <= b for a, b in self.halfspaces)

    def contains_homogeneous(self, P: Sequence[int], d: int) -> bool:
        """Whether P/d lies in the polytope, for integers P and d > 0: the
        halfspace tests a·P <= b·d, in integers."""
        return all(sum(map(mul, a, P)) <= b * d for a, b in self.halfspaces)

    def includes(self, other: "Polytope") -> bool:
        """Whether every vertex of `other`, so all of it, lies in here."""
        return all(self.contains_homogeneous(P, d) for P, d in other.homogeneous())

    # -- core geometry ------------------------------------------------------

    def cut(self, normal: Sequence, offset) -> "Polytope | None":
        """Intersect with the halfspace normal·x <= offset.

        Candidate vertices from crossing segments are confirmed by the rank
        of their tight constraints, so the result is exact (and may drop a
        dimension or come back None when the intersection is empty).  All
        tests run on the integer-homogeneous vertices: a·(P/d) <= b is
        a·P <= b·d for d > 0.
        """
        a, b = _norm_halfspace(normal, offset)
        if not any(a):
            return self if b >= 0 else None
        homog = self.homogeneous()
        signs = [sum(map(mul, a, P)) - b * d for P, d in homog]
        if all(s <= 0 for s in signs):
            if 0 in signs and (a, b) not in self.halfspaces:
                poly = Polytope(self.dim, self._vertices, self.halfspaces + ((a, b),))
                poly._homog = homog
                return poly
            return self
        # Result vertices, integer form -> Rat tuple: the kept ones first.
        found = {h: v for h, v, s in zip(homog, self._vertices, signs) if s <= 0}
        if not found:
            return None
        hs = self.halfspaces
        if (a, b) not in hs:
            hs = hs + ((a, b),)
        candidates: set[tuple[tuple[int, ...], int]] = set()
        for (P, dp), sp in zip(homog, signs):
            if sp >= 0:
                continue
            for (Q, dq), sq in zip(homog, signs):
                if sq <= 0:
                    continue
                # The point of segment PQ on the hyperplane; dz > 0.
                Z = [sq * x - sp * y for x, y in zip(P, Q)]
                dz = sq * dp - sp * dq
                g = gcd(*Z, dz)
                if g > 1:
                    Z = [z // g for z in Z]
                    dz //= g
                candidates.add((tuple(Z), dz))
        for Z, dz in candidates:
            tight = [n for n, c in hs if sum(map(mul, n, Z)) == c * dz]
            if len(tight) >= self.dim and mat_rank(tight) == self.dim:
                found[Z, dz] = tuple(Rat(z, dz) for z in Z)
        order = sorted(found, key=found.__getitem__)
        # Constraints slack at every vertex are slack on the whole polytope;
        # dropping them keeps cut chains from accumulating dead halfspaces
        # (each vertex keeps its own tight set, so rank tests stay valid).
        kept = tuple(
            (n, c) for n, c in hs if any(sum(map(mul, n, P)) == c * d for P, d in order)
        )
        poly = Polytope(self.dim, tuple(found[h] for h in order), kept)
        poly._homog = tuple(order)
        return poly

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
        if affine_rank(self._vertices) < self.dim:
            return ZERO
        total = ZERO
        factorial = 1
        for k in range(2, self.dim + 1):
            factorial *= k
        for simplex_pts in _triangulate(list(self._vertices), self.dim):
            base = simplex_pts[0]
            rows = [[x - y for x, y in zip(p, base)] for p in simplex_pts[1:]]
            total += abs(det(rows))
        return total / factorial

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self._vertices == other._vertices
        )

    def __hash__(self) -> int:
        return hash((self.dim, self._vertices))

    def __repr__(self) -> str:
        pts = ", ".join("(" + ", ".join(rat_str(x) for x in v) + ")" for v in self._vertices)
        return f"Polytope[{pts}]"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[rat_str(x) for x in v] for v in self._vertices],
            "halfspaces": [
                {"normal": [int(x) for x in a], "offset": int(b)} for a, b in self.halfspaces
            ],
        }


# ---------------------------------------------------------------------------
# Hull-side primitives.


def weights_system(points: Sequence[Point], target: Sequence):
    """Equality system: convex weights over `points` reproducing `target`."""
    dim = len(target)
    A = [[p[i] for p in points] for i in range(dim)]
    A.append([ONE] * len(points))
    b = list(target) + [ONE]
    return A, b


def _in_hull(point: Point, points: Sequence[Point]) -> bool:
    A, b = weights_system(points, point)
    return simplex.feasible_point(A, b).status == simplex.OPTIMAL


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """Irredundant V-representation of the convex hull."""
    return Polytope.from_vertices(points)


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

    def to_json_dict(self) -> dict:
        if self.inside:
            return {"inside": True, "weights": [rat_str(w) for w in self.weights]}
        normal, threshold, margin = self.separator
        return {
            "inside": False,
            "separator": {
                "normal": [int(x) for x in normal],
                "threshold": rat_str(threshold),
                "margin": rat_str(margin),
            },
        }


def _lexmin_weights(points: Sequence[Point], target: Point) -> tuple:
    """(weights, None) with the lexicographically smallest convex weight
    vector reproducing target, or (None, farkas) when there is none.

    Deterministic tie-break over the canonical (sorted) vertex order: the
    feasible set is sliced one coordinate at a time.  Phase 1 of a simplex
    solve never reads the objective, so the first slice decides
    feasibility and, for an outside target, yields the Farkas vector that a
    plain feasibility solve would.
    """
    A, b = weights_system(points, target)
    n = len(points)
    fixed: list = []
    for j in range(n):
        cost = [ZERO] * n
        cost[j] = ONE
        res = simplex.solve_standard(cost, A, b)
        if res.status != simplex.OPTIMAL:
            # Later slices fix values that earlier optima attained.
            assert j == 0 and res.status == simplex.INFEASIBLE
            return None, res.farkas
        wj = res.x[j]
        fixed.append(wj)
        row = [ZERO] * n
        row[j] = ONE
        A.append(row)
        b.append(wj)
    return tuple(fixed), None


def membership(point: Sequence, poly: Polytope) -> MembershipCertificate:
    """Exact membership with a verified certificate either way.

    One chain of LPs decides it: the lexicographic weight slices, the first
    of which doubles as the feasibility test.
    """
    p = _as_point(point)
    if len(p) != poly.dim:
        raise DimensionError(f"point dim {len(p)} != polytope dim {poly.dim}")
    verts = poly.vertices
    weights, y = _lexmin_weights(verts, p)
    if weights is not None:
        recon = tuple(dot(weights, [v[i] for v in verts]) for i in range(poly.dim))
        if recon != p or sum(weights) != 1 or any(w < 0 for w in weights):
            raise AssertionError("membership weights failed re-verification")
        return MembershipCertificate(inside=True, weights=weights)
    # Farkas dual: y over (dim coordinate rows + the convexity row) gives a
    # functional g(x) = y_geo·x with g(v) + y_0 <= 0 on vertices and > 0 at p.
    g = y[: poly.dim]
    normal = integerize(g)
    if all(x == 0 for x in normal):  # pragma: no cover - cannot separate with 0
        raise AssertionError("degenerate separator")
    threshold = max(dot(normal, v) for v in verts)
    margin = dot(normal, p) - threshold
    if margin <= 0:
        raise AssertionError("separator failed re-verification")
    return MembershipCertificate(inside=False, separator=(normal, threshold, margin))


# ---------------------------------------------------------------------------
# Facet enumeration (V -> H) via the polar dual inside the affine hull.


def _facets(vertices: tuple[Point, ...], dim: int) -> tuple[HalfSpace, ...]:
    if dim > MAX_FACET_DIM:
        raise FacetDimensionError(
            f"facet enumeration capped at dimension {MAX_FACET_DIM} (got {dim})"
        )
    if dim == 0:
        return ()
    if len(vertices) == 1:
        v = vertices[0]
        return tuple(sorted(Polytope._box(dim, v, v).halfspaces))
    facets: list[HalfSpace] = []

    base = vertices[0]
    diffs = [[x - y for x, y in zip(v, base)] for v in vertices[1:]]
    reduced, pivots = rref(diffs)
    rank = len(pivots)
    basis = [tuple(reduced[r]) for r in range(rank)]

    # Equalities: every vector orthogonal to the hull's direction space.
    for w in nullspace(basis):
        a, b = _norm_halfspace(w, dot(w, base))
        facets.append((a, b))
        facets.append(_norm_halfspace([-x for x in a], -b))

    # Coordinates within the hull: u(v) = B (v - base).
    def hull_coords(v: Point) -> Point:
        d = [x - y for x, y in zip(v, base)]
        return tuple(dot(row, d) for row in basis)

    upoints = [hull_coords(v) for v in vertices]

    if rank == 1:
        lo = min(u[0] for u in upoints)
        hi = max(u[0] for u in upoints)
        inner = [((ONE,), hi), ((-ONE,), -lo)]
    else:
        centroid = tuple(sum(u[i] for u in upoints) / len(upoints) for i in range(rank))
        polar_rows = [[x - c for x, c in zip(u, centroid)] for u in upoints]
        box_lo, box_hi = _polar_box(polar_rows, rank)
        # The polar dual, vertex-enumerated by cutting its bounding box.
        polar = Polytope._box(rank, box_lo, box_hi)
        for row in polar_rows:
            polar = polar.cut(row, ONE)
        inner = []
        for y in polar.vertices:
            inner.append((y, ONE + dot(y, centroid)))

    # Lift a facet a'·u <= b' through u = B(x - base).
    for a_u, b_u in inner:
        lifted = [dot([row[i] for row in basis], a_u) for i in range(dim)]
        offset = b_u + dot(lifted, base)
        facets.append(_norm_halfspace(lifted, offset))

    facets = sorted(set(facets))
    if not all(dot(a, v) <= b for a, b in facets for v in vertices):
        raise AssertionError("facets failed re-verification")
    return tuple(facets)


def _polar_box(rows: list[list], rank: int) -> tuple[list, list]:
    """A box containing {y : row·y <= 1 for every row} strictly, by LP duality.

    The rows W sum to zero and span the rank-dimensional space.  If
    Wᵀλ = e_j with λ >= 0, every point of the polar has y_j = λ·(W y) <= Σλ.
    One rref of [Wᵀ | I] gives α with Wᵀα = e_j (the j-th column of the
    transform on the pivot columns, 0 elsewhere); α + t·1 solves it too, as
    the rows sum to zero, and t = max(0, -min α) makes it nonnegative.  The
    same with -e_j bounds y_j from below.  The margin of 1 keeps every box
    facet slack on the polar.
    """
    m = len(rows)
    reduced, _ = rref(
        [[row[j] for row in rows] + [ONE if k == j else ZERO for k in range(rank)] for j in range(rank)]
    )
    box_lo, box_hi = [], []
    for j in range(rank):
        alpha = [reduced[k][m + j] for k in range(rank)]
        total = sum(alpha)
        box_hi.append(total + m * max(ZERO, -min(alpha)) + 1)
        box_lo.append(total - m * max(ZERO, max(alpha)) - 1)
    return box_lo, box_hi


# ---------------------------------------------------------------------------
# Exact triangulation for volumes.


def _triangulate(vertices: list[Point], ambient: int) -> list[list[Point]]:
    rank = affine_rank(vertices)
    if len(vertices) == rank + 1:
        return [vertices]
    poly = Polytope(ambient, tuple(sorted(vertices)))
    simplices: list[list[Point]] = []
    apex = poly.vertices[0]
    for a, b in poly.halfspaces:
        if dot(a, apex) == b:
            continue
        face_verts = [v for v in poly.vertices if dot(a, v) == b]
        if affine_rank(face_verts) != rank - 1:
            continue
        for sub in _triangulate(face_verts, ambient):
            simplices.append(sub + [apex])
    return simplices
