"""Polytope kernel: hulls, membership certificates, projected hulls, volume."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from coh import simplex
from coh.exact import ONE, Rat, ZERO, common_denominator, dot, mat_rank, vec_content
from coh.polytope import (
    DimensionError,
    Polytope,
    _facets,
    _pair,
    _polar_box,
    membership,
)
from coh.simplex import solve_standard

from util import (
    cube_vertices_bruteforce,
    in_hull_bruteforce,
    project,
    reference_facets,
    reference_membership,
    reference_polar_bound,
)


def rp(*vals):
    return tuple(Rat(v) for v in vals)


class TestConvexHull:
    def test_redundant_point_dropped(self):
        # (3/4, 1) lies on the edge (1/2,1)-(1,1); the brute-force oracle
        # agrees it is redundant.
        pts = [rp(0, 0), rp(1, 1), rp("1/2", 1), rp("3/4", 1)]
        hull = Polytope.from_vertices(pts)
        assert hull.vertices == (rp(0, 0), rp("1/2", 1), rp(1, 1))
        assert in_hull_bruteforce(rp("3/4", 1), hull.vertices)

    def test_single_point(self):
        hull = Polytope.from_vertices([rp("1/3", "2/3")])
        assert hull.vertices == (rp("1/3", "2/3"),)

    def test_boolean_square(self):
        hull = Polytope.from_vertices([rp(0, 0), rp(0, 1), rp(1, 0), rp(1, 1)])
        assert hull == Polytope.cube(2)

    def test_errors(self):
        with pytest.raises(ValueError):
            Polytope.from_vertices([])
        with pytest.raises(DimensionError):
            Polytope.from_vertices([rp(0, 0), rp(1,)])

    def test_hull_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            pts = [
                rp(Rat(rng.randint(0, 6), 6), Rat(rng.randint(0, 6), 6), Rat(rng.randint(0, 6), 6))
                for _ in range(rng.randint(1, 8))
            ]
            hull = Polytope.from_vertices(pts)
            assert Polytope.from_vertices(hull.vertices) == hull

    def test_random_clouds_match_bruteforce(self, monkeypatch):
        # Clouds in dimensions 1-4 with coordinates in [-2, 3], repeated
        # points, and collinear or lower-dimensional sets.  No kept vertex
        # lies in the hull of the other inputs, and every dropped point lies
        # in the hull of the kept ones.  Some points must still need an LP,
        # with either outcome, so both paths are exercised.
        outcomes = []
        feasible = simplex.feasible_point

        def recorded(A, b):
            res = feasible(A, b)
            outcomes.append(res.status)
            return res

        monkeypatch.setattr(simplex, "feasible_point", recorded)
        rng = random.Random(18)

        def coord():
            return Rat(rng.randint(-6, 9), rng.choice([1, 2, 3]))

        for dim in range(1, 5):
            for trial in range(30):
                size = rng.randint(1, 9 - dim)
                if trial % 3 == 0:
                    pts = [tuple(coord() for _ in range(dim)) for _ in range(size)]
                elif trial % 3 == 1:
                    base, step = [coord() for _ in range(dim)], [coord() for _ in range(dim)]
                    pts = [tuple(x + t * s for x, s in zip(base, step)) for t in map(Rat, range(-2, 3))]
                    pts = rng.sample(pts, rng.randint(1, 5))
                else:
                    # On the hyperplane x_last = a·x_rest + c.
                    a, c = [coord() for _ in range(dim - 1)], coord()
                    rest = [[coord() for _ in range(dim - 1)] for _ in range(size)]
                    pts = [(*r, dot(a, r) + c) for r in rest]
                pts += rng.choices(pts, k=rng.randint(0, 2))
                hull = Polytope.from_vertices(pts)
                distinct = set(pts)
                kept = set(hull.vertices)
                assert hull.vertices == tuple(sorted(kept)) and kept <= distinct
                for v in kept:
                    assert not in_hull_bruteforce(v, [p for p in distinct if p != v]), (pts, v)
                for p in distinct - kept:
                    assert in_hull_bruteforce(p, hull.vertices), (pts, p)
        assert {simplex.OPTIMAL, simplex.INFEASIBLE} <= set(outcomes)

    def test_cube_vertices_solve_no_lp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the hull solved an LP")

        monkeypatch.setattr(simplex, "feasible_point", refuse)
        cube = Polytope.cube(3)
        assert Polytope.from_vertices(cube.vertices) == cube


class TestMembership:
    def test_center_of_square_weights(self):
        # Lexicographically smallest weight vector over the sorted Boolean
        # vertices (0,0),(0,1),(1,0),(1,1): minimizing w1 forces w4 = w1 = 0,
        # leaving (0, 1/2, 1/2, 0).
        cert = membership(rp("1/2", "1/2"), Polytope.cube(2))
        assert cert.inside
        assert cert.weights == (ZERO, Rat(1, 2), Rat(1, 2), ZERO)

    def test_outside_triangle_separator(self):
        tri = Polytope.from_vertices([rp(0, 0), rp(1, 1), rp("1/2", 1)])
        cert = membership(rp(1, 0), tri)
        assert not cert.inside
        normal, threshold, margin = cert.separator
        assert (normal, threshold, margin) == ((1, -1), ZERO, ONE)

    def test_outside_interval(self):
        seg = Polytope.from_vertices([rp("1/2"), rp(1)])
        cert = membership(rp("1/4"), seg)
        assert not cert.inside
        normal, threshold, margin = cert.separator
        assert normal == (-1,)
        assert threshold == Rat(-1, 2)
        assert margin == Rat(1, 4)

    def test_certificates_sound_randomized(self):
        rng = random.Random(13)
        for _ in range(40):
            dim = rng.randint(1, 3)
            pts = [
                tuple(Rat(rng.randint(0, 4), 4) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            hull = Polytope.from_vertices(pts)
            query = tuple(Rat(rng.randint(0, 8), 8) for _ in range(dim))
            cert = membership(query, hull)
            if cert.inside:
                # Weights reconstruct the point exactly.
                for i in range(dim):
                    assert dot(cert.weights, [v[i] for v in hull.vertices]) == query[i]
                assert sum(cert.weights) == 1
                assert all(w >= 0 for w in cert.weights)
                assert in_hull_bruteforce(query, hull.vertices)
            else:
                normal, threshold, margin = cert.separator
                assert margin > 0
                assert vec_content(normal) == 1
                assert max(dot(normal, v) for v in hull.vertices) == threshold
                assert dot(normal, query) == threshold + margin
                assert not in_hull_bruteforce(query, hull.vertices)

    def test_dimension_mismatch(self):
        segment = Polytope.from_vertices([rp(0), rp(1)])
        with pytest.raises(DimensionError):
            membership(rp(0, 0), segment)
        with pytest.raises(DimensionError):
            segment.contains(rp(0, 0))

    def test_one_lp_chain(self, monkeypatch):
        # One lexicographic solve per membership, inside or outside, and no
        # separate feasibility or slice LP.
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(simplex, "lexmin", counted("lexmin", simplex.lexmin))
        monkeypatch.setattr(simplex, "solve_standard", counted("solve_standard", solve_standard))
        assert membership(rp("1/2", "1/2"), Polytope.cube(2)).inside
        assert calls == ["lexmin"]
        calls.clear()
        assert not membership(rp(2, 0), Polytope.cube(2)).inside
        assert calls == ["lexmin"]

    def test_matches_reference(self):
        # One LP chain against a feasibility solve followed by the slices:
        # the same weights inside, the same Farkas separator outside.
        rng = random.Random(14)
        outside = 0
        for _ in range(240):
            dim = rng.randint(1, 3)
            pts = [
                tuple(Rat(rng.randint(0, 4), 4) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            hull = Polytope.from_vertices(pts)
            query = tuple(Rat(rng.randint(0, 8), 8) for _ in range(dim))
            cert = membership(query, hull)
            assert cert == reference_membership(query, hull)
            outside += not cert.inside
        assert 50 <= outside <= 190


class TestProjection:
    def test_tetrahedron_face(self):
        poly = Polytope.from_vertices([rp(0, 0, 0), rp(1, 0, 0), rp(1, 1, 1), rp(1, "1/2", 0)])
        assert project(poly, [0, 2]) == Polytope.from_vertices([rp(0, 0), rp(1, 0), rp(1, 1)])

    def test_identity_projection(self):
        poly = Polytope.from_vertices([rp(0, 0), rp(1, 0), rp("1/2", "1/2")])
        assert project(poly, [0, 1]) == poly

    def test_projection_contains_projected_vertices(self):
        rng = random.Random(3)
        for _ in range(15):
            pts = [
                tuple(Rat(rng.randint(0, 3), 3) for _ in range(3))
                for _ in range(rng.randint(2, 7))
            ]
            hull = Polytope.from_vertices(pts)
            proj = project(hull, [0, 2])
            for v in hull.vertices:
                assert proj.contains((v[0], v[2]))

    def test_project_compose(self):
        rng = random.Random(4)
        for _ in range(10):
            pts = [
                tuple(Rat(rng.randint(0, 4), 4) for _ in range(3))
                for _ in range(rng.randint(2, 6))
            ]
            hull = Polytope.from_vertices(pts)
            assert project(project(hull, [0, 1]), [1]) == project(hull, [1])


class TestHalfspaces:
    def test_hv_agreement(self):
        rng = random.Random(11)
        for _ in range(25):
            dim = rng.randint(1, 3)
            pts = [
                tuple(Rat(rng.randint(0, 4), 4) for _ in range(dim))
                for _ in range(rng.randint(1, 7))
            ]
            hull = Polytope.from_vertices(pts)
            for a, b in hull.halfspaces:
                vals = [dot(a, v) for v in hull.vertices]
                assert all(v <= b for v in vals)
                tight = [v for v, val in zip(hull.vertices, vals) if val == b]
                assert tight, "halfspace not tight anywhere"

    def test_lower_dimensional_equalities(self):
        # A segment inside the square gets its carrier line as equalities.
        seg = Polytope.from_vertices([rp(0, "1/2"), rp(1, "1/2")])
        assert seg.contains(rp("1/3", "1/2"))
        assert not seg.contains(rp("1/3", "1/4"))

    def test_vertex_enum_matches_hull(self):
        square = Polytope.cube(2)
        cut = square.cut((1, 1), 1)
        assert cut.vertices == (rp(0, 0), rp(0, 1), rp(1, 0))

    def test_cut_to_lower_dim(self):
        square = Polytope.cube(2)
        diag = square.cut((1, 1), 1).cut((-1, -1), -1)
        assert diag.vertices == (rp(0, 1), rp(1, 0))

    def test_cut_empty(self):
        assert Polytope.cube(2).cut((1, 0), -1) is None


class TestVertexEnumeration:
    def test_random_cut_sequences_match_grid_oracle(self):
        # Cut the square/cube by random halfspaces; the computed vertex set
        # must equal the brute-force vertex set, satisfy every halfspace,
        # and every grid point satisfying all halfspaces must lie in the hull
        # of the computed vertices.  Some cuts put vertices at thirds and
        # sevenths, and some pairs of opposite cuts drop a dimension.
        rng = random.Random(29)
        denominators = set()
        dropped = 0
        for _ in range(40):
            dim = rng.randint(1, 3)
            poly = Polytope.cube(dim)
            halfspaces = []
            for _ in range(rng.randint(1, 4)):
                normal = [rng.randint(-2, 2) for _ in range(dim)]
                kind = rng.choice(["plain", "plain", "fine", "equality"])
                if kind == "fine":
                    normal[rng.randrange(dim)] = rng.choice([3, 7, -3, -7])
                normal = tuple(normal)
                if all(a == 0 for a in normal):
                    continue
                offset = rng.randint(-1, 2)
                cuts = [(normal, offset)]
                if kind == "equality":
                    cuts.append((tuple(-a for a in normal), -offset))
                for a, b in cuts:
                    halfspaces.append((a, b))
                    poly = poly.cut(a, b) if poly is not None else None
                if poly is None:
                    break
            grid = list(itertools.product([Rat(i, 3) for i in range(4)], repeat=dim))
            satisfied = [
                p
                for p in grid
                if all(dot(a, p) <= b for a, b in halfspaces)
            ]
            expected = cube_vertices_bruteforce(dim, halfspaces)
            if poly is None:
                assert not satisfied and not expected
                continue
            assert list(poly.vertices) == expected, halfspaces
            denominators.update(x.denominator for v in poly.vertices for x in v)
            dropped += poly.affine_dim() < dim
            for v in poly.vertices:
                assert all(dot(a, v) <= b for a, b in halfspaces)
                assert all(0 <= x <= 1 for x in v)
            for p in satisfied:
                assert in_hull_bruteforce(p, poly.vertices), (halfspaces, p)
        assert {3, 7} <= denominators and dropped >= 5, (denominators, dropped)


def _affine_rank(points):
    """Dimension of the affine hull of rational points."""
    return mat_rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])


def _random_point_set(rng):
    """(points, dim): a sorted point list in dims 1-4, spanning an affine
    subspace of random dimension, with coordinates of denominator <= 8; some
    lists repeat a point, and some hold a single point."""
    dim = rng.randint(1, 4)
    span = 0 if rng.random() < 0.1 else rng.randint(1, dim)
    base = [Rat(rng.randint(0, 8), rng.randint(1, 8)) for _ in range(dim)]
    directions = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(span)]
    points = []
    for _ in range(1 if span == 0 else rng.randint(2, 8)):
        weights = [Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(span)]
        points.append(
            tuple(b + sum(w * d[i] for w, d in zip(weights, directions)) for i, b in enumerate(base))
        )
    if len(set(points)) > 1 and rng.random() < 0.25:
        points.append(rng.choice(points))
    return sorted(points), dim


def _pairs(points):
    return tuple(map(_pair, points))


class TestFacets:
    def test_matches_lp_box_reference(self):
        # The closed-form integer polar box against the rational LP-bounded
        # one: both contain the polar strictly, so the facets are the same
        # sorted tuple.
        rng = random.Random(41)
        lower, single, repeated = 0, 0, 0
        for _ in range(420):
            points, dim = _random_point_set(rng)
            assert _facets(_pairs(points), dim) == reference_facets(points, dim), (points, dim)
            lower += _affine_rank(points) < dim
            single += len(points) == 1
            repeated += len(set(points)) < len(points)
        assert lower >= 100 and single >= 20 and repeated >= 20, (lower, single, repeated)

    def test_any_order_of_the_pairs(self):
        # The first pair is the base point and the elimination order picks
        # the basis; neither may show in the facets.
        rng = random.Random(41)
        shuffle = random.Random(42)
        for _ in range(420):
            points, dim = _random_point_set(rng)
            pairs = list(_pairs(points))
            expected = _facets(tuple(pairs), dim)
            assert _facets(tuple(reversed(pairs)), dim) == expected, (points, dim)
            shuffle.shuffle(pairs)
            assert _facets(tuple(pairs), dim) == expected, (points, dim)

    def test_int_pairs_build_no_fraction(self, monkeypatch):
        rng = random.Random(41)
        inputs = [(_pairs(points), dim) for points, dim in (_random_point_set(rng) for _ in range(420))]
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        facets = [_facets(pairs, dim) for pairs, dim in inputs]
        assert built == []
        assert all(type(x) is int for hs in facets for a, b in hs for x in (*a, b))

    def test_polar_box_contains_polar_strictly(self):
        # Each side of the closed-form box lies beyond the polar's exact
        # extent along its axis, found by LP.  The rows go in as integers
        # over one denominator, with that denominator as the offset.
        rng = random.Random(43)
        checked = 0
        while checked < 100:
            points, dim = _random_point_set(rng)
            if dim < 2 or _affine_rank(points) < dim:
                continue
            centroid = [sum(v[i] for v in points) / len(points) for i in range(dim)]
            rows = [[x - c for x, c in zip(v, centroid)] for v in points]
            ints, scale = common_denominator([x for row in rows for x in row])
            box_lo, box_hi = _polar_box([ints[i : i + dim] for i in range(0, len(ints), dim)], scale)
            for j in range(dim):
                assert box_lo[j] < reference_polar_bound(j, rows, -1), (points, j)
                assert box_hi[j] > reference_polar_bound(j, rows, 1), (points, j)
            checked += 1

    def test_solves_no_lp(self, monkeypatch):
        tetrahedron = (rp(0, 0, 0), rp(0, 0, 1), rp(0, 1, 0), rp(1, 0, 0))
        triangle_in_3d = (rp(0, 0, "1/2"), rp("1/3", 1, "1/2"), rp(1, 0, "1/2"))
        cube = Polytope.cube(3).vertices
        expected = [reference_facets(points, 3) for points in (tetrahedron, triangle_in_3d, cube)]

        def refuse(*args):
            raise AssertionError("facet enumeration solved an LP")

        monkeypatch.setattr(simplex, "solve_standard", refuse)
        assert [_facets(_pairs(points), 3) for points in (tetrahedron, triangle_in_3d, cube)] == expected
        assert [len(facets) for facets in expected] == [4, 5, 6]

    def test_repeated_point_is_one_point(self):
        # Rank 0, not a vertex count of 1, marks a one-point polytope: the
        # same point listed twice must not lose its equalities.
        p = _pair(rp("1/2", "1/3"))
        box = (((-2, 0), -1), ((0, -3), -1), ((0, 3), 1), ((2, 0), 1))
        assert _facets((p,), 2) == _facets((p, p), 2) == _facets((p, p, p), 2) == box
        assert not Polytope(2, (((3, 2), 6),) * 2).contains((ZERO, ZERO))

    def test_reverification_is_not_an_assert(self, monkeypatch):
        # A wrong equality must be caught by a check that `python -O` keeps:
        # given (1, 0) as the reduced basis of the segment (0,0)-(1,1), the
        # null space yields y = 0, which (1, 1) violates.
        import coh.polytope as pt

        monkeypatch.setattr(pt, "reduced_echelon", lambda rows: ([[1, 0]], [0]))
        with pytest.raises(AssertionError, match="facets failed re-verification"):
            _facets((((0, 0), 1), ((1, 1), 1)), 2)


def _random_polytopes(rng):
    """Polytopes in dims 0-4 from the three constructors: cut chains of
    the cube (some cuts with normals of 3 or 7, some pairs of opposite cuts
    dropping a dimension), hulls of rational point lists with repeats and
    non-extreme points, and boxes with rational, sometimes equal, bounds."""
    out = []
    for dim in range(5):
        for _ in range(12):
            poly = Polytope.cube(dim)
            for _ in range(rng.randint(1, 4)):
                normal = [rng.choice([-7, -3, -2, -1, 0, 1, 2, 3, 7]) for _ in range(dim)]
                offset = Rat(rng.randint(-2, 6), rng.randint(1, 4))
                cut = poly.cut(normal, offset)
                if cut is not None and rng.random() < 0.2:
                    cut = cut.cut([-a for a in normal], -offset)
                if cut is None:
                    break
                poly = cut
            out.append(poly)
        for _ in range(6):
            points = [
                tuple(Rat(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            out.append(Polytope.from_vertices(points + points[:1]))
        for _ in range(6):
            lo = [Rat(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(dim)]
            hi = [x if rng.random() < 0.3 else x + Rat(rng.randint(1, 4), rng.randint(1, 5)) for x in lo]
            out.append(Polytope._box(dim, lo, hi))
    return out


class TestPairs:
    def test_representation_invariant(self):
        # One vertex field: reduced pairs, distinct, sorted as their values;
        # `vertices` is their rational image and equality is vertex equality.
        polys = _random_polytopes(random.Random(61))
        for poly in polys:
            assert poly.pairs and all(len(P) == poly.dim for P, _ in poly.pairs)
            assert all(d > 0 and math.gcd(*P, d) == 1 for P, d in poly.pairs), poly.pairs
            values = [tuple(Rat(p, d) for p in P) for P, d in poly.pairs]
            assert all(a < b for a, b in zip(values, values[1:])), poly.pairs
            assert poly.vertices == tuple(values)
        for a, b in itertools.combinations(polys, 2):
            same = a.dim == b.dim and a.vertices == b.vertices
            assert (a == b) is same
            if same:
                assert hash(a) == hash(b)
        rebuilt = [Polytope.from_vertices(poly.vertices) for poly in polys]
        assert rebuilt == polys
        assert [hash(p) for p in rebuilt] == [hash(p) for p in polys]
        assert {poly.affine_dim() for poly in polys} == {0, 1, 2, 3, 4}
        assert len({d for poly in polys for _, d in poly.pairs}) >= 10


class TestFacetDimensionCap:
    def test_beyond_cap_refused(self):
        import coh.polytope as pt

        booleans = sorted(tuple((i >> j) & 1 for j in range(7)) for i in range(2**7))
        poly = Polytope(7, tuple((b, 1) for b in booleans))
        with pytest.raises(pt.FacetDimensionError, match="capped"):
            poly.halfspaces


class TestVolume:
    def test_cube(self):
        assert Polytope.cube(3).volume() == 1

    def test_simplex(self):
        tri = Polytope.from_vertices([rp(0, 0), rp(1, 0), rp(0, 1)])
        assert tri.volume() == Rat(1, 2)

    def test_lower_dim_is_zero(self):
        seg = Polytope.from_vertices([rp(0, 0), rp(1, 1)])
        assert seg.volume() == 0

    def test_cut_splits_volume(self):
        square = Polytope.cube(2)
        left = square.cut((2, 0), 1)
        right = square.cut((-2, 0), -1)
        assert left.volume() + right.volume() == 1
