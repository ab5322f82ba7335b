"""Polytope kernel: hulls, membership certificates, projections, volume."""

import itertools
import random

import pytest

from coh.exact import ONE, Rat, ZERO, dot, vec_content
from coh.polytope import DimensionError, Polytope, convex_hull, membership
from coh.pwl import AffineForm

from util import cube_vertices_bruteforce, in_hull_bruteforce


def rp(*vals):
    return tuple(Rat(v) for v in vals)


class TestConvexHull:
    def test_redundant_point_dropped(self):
        # (3/4, 1) lies on the edge (1/2,1)-(1,1); the brute-force oracle
        # agrees it is redundant.
        pts = [rp(0, 0), rp(1, 1), rp("1/2", 1), rp("3/4", 1)]
        hull = convex_hull(pts)
        assert hull.vertices == (rp(0, 0), rp("1/2", 1), rp(1, 1))
        assert in_hull_bruteforce(rp("3/4", 1), hull.vertices)

    def test_single_point(self):
        hull = convex_hull([rp("1/3", "2/3")])
        assert hull.vertices == (rp("1/3", "2/3"),)

    def test_boolean_square(self):
        hull = convex_hull([rp(0, 0), rp(0, 1), rp(1, 0), rp(1, 1)])
        assert hull == Polytope.cube(2)

    def test_errors(self):
        with pytest.raises(ValueError):
            convex_hull([])
        with pytest.raises(DimensionError):
            convex_hull([rp(0, 0), rp(1,)])

    def test_hull_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            pts = [
                rp(Rat(rng.randint(0, 6), 6), Rat(rng.randint(0, 6), 6), Rat(rng.randint(0, 6), 6))
                for _ in range(rng.randint(1, 8))
            ]
            hull = convex_hull(pts)
            assert convex_hull(hull.vertices) == hull


class TestMembership:
    def test_center_of_square_weights(self):
        # Lexicographically smallest weight vector over the sorted Boolean
        # vertices (0,0),(0,1),(1,0),(1,1): minimizing w1 forces w4 = w1 = 0,
        # leaving (0, 1/2, 1/2, 0).
        cert = membership(rp("1/2", "1/2"), Polytope.cube(2))
        assert cert.inside
        assert cert.weights == (ZERO, Rat(1, 2), Rat(1, 2), ZERO)

    def test_outside_triangle_separator(self):
        tri = convex_hull([rp(0, 0), rp(1, 1), rp("1/2", 1)])
        cert = membership(rp(1, 0), tri)
        assert not cert.inside
        normal, threshold, margin = cert.separator
        assert (normal, threshold, margin) == ((1, -1), ZERO, ONE)

    def test_outside_interval(self):
        seg = convex_hull([rp("1/2"), rp(1)])
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
            hull = convex_hull(pts)
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
        with pytest.raises(DimensionError):
            membership(rp(0, 0), convex_hull([rp(0), rp(1)]))


class TestProjection:
    def test_tetrahedron_face(self):
        poly = convex_hull([rp(0, 0, 0), rp(1, 0, 0), rp(1, 1, 1), rp(1, "1/2", 0)])
        assert poly.project([0, 2]) == convex_hull([rp(0, 0), rp(1, 0), rp(1, 1)])

    def test_identity_projection(self):
        poly = convex_hull([rp(0, 0), rp(1, 0), rp("1/2", "1/2")])
        assert poly.project([0, 1]) == poly

    def test_projection_contains_projected_vertices(self):
        rng = random.Random(3)
        for _ in range(15):
            pts = [
                tuple(Rat(rng.randint(0, 3), 3) for _ in range(3))
                for _ in range(rng.randint(2, 7))
            ]
            hull = convex_hull(pts)
            proj = hull.project([0, 2])
            for v in hull.vertices:
                assert proj.contains((v[0], v[2]))

    def test_project_compose(self):
        rng = random.Random(4)
        for _ in range(10):
            pts = [
                tuple(Rat(rng.randint(0, 4), 4) for _ in range(3))
                for _ in range(rng.randint(2, 6))
            ]
            hull = convex_hull(pts)
            assert hull.project([0, 1]).project([1]) == hull.project([1])

    def test_bad_indices(self):
        square = Polytope.cube(2)
        with pytest.raises(DimensionError):
            square.project([])
        with pytest.raises(DimensionError):
            square.project([2])


class TestAffineImage:
    def test_identity(self):
        poly = convex_hull([rp(0, 0), rp(1, 0), rp(0, 1)])
        forms = [AffineForm.coordinate(0, 2), AffineForm.coordinate(1, 2)]
        assert poly.affine_image(forms) == poly

    def test_doubling_leaves_cube(self):
        seg = convex_hull([rp(0), rp(1)])
        doubled = seg.affine_image([AffineForm(0, (2,))])
        assert doubled.vertices == (rp(0), rp(2))

    def test_coordinate_swap(self):
        tri = convex_hull([rp(0, 0), rp(1, 1), rp("1/2", 1)])
        swapped = tri.affine_image([AffineForm.coordinate(1, 2), AffineForm.coordinate(0, 2)])
        assert swapped == convex_hull([rp(0, 0), rp(1, 1), rp(1, "1/2")])


class TestHalfspaces:
    def test_hv_agreement(self):
        rng = random.Random(11)
        for _ in range(25):
            dim = rng.randint(1, 3)
            pts = [
                tuple(Rat(rng.randint(0, 4), 4) for _ in range(dim))
                for _ in range(rng.randint(1, 7))
            ]
            hull = convex_hull(pts)
            for a, b in hull.halfspaces:
                vals = [dot(a, v) for v in hull.vertices]
                assert all(v <= b for v in vals)
                tight = [v for v, val in zip(hull.vertices, vals) if val == b]
                assert tight, "halfspace not tight anywhere"

    def test_lower_dimensional_equalities(self):
        # A segment inside the square gets its carrier line as equalities.
        seg = convex_hull([rp(0, "1/2"), rp(1, "1/2")])
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


class TestFacetDimensionCap:
    def test_beyond_cap_refused(self, monkeypatch):
        import coh.polytope as pt

        monkeypatch.setattr(pt, "MAX_FACET_DIM", 6)
        booleans = [tuple(Rat((i >> j) & 1) for j in range(7)) for i in range(2**7)]
        poly = Polytope(7, tuple(sorted(booleans)))
        with pytest.raises(pt.FacetDimensionError, match="capped"):
            poly.halfspaces


class TestVolume:
    def test_cube(self):
        assert Polytope.cube(3).volume() == 1

    def test_simplex(self):
        tri = convex_hull([rp(0, 0), rp(1, 0), rp(0, 1)])
        assert tri.volume() == Rat(1, 2)

    def test_lower_dim_is_zero(self):
        seg = convex_hull([rp(0, 0), rp(1, 1)])
        assert seg.volume() == 0

    def test_cut_splits_volume(self):
        square = Polytope.cube(2)
        left = square.cut((2, 0), 1)
        right = square.cut((-2, 0), -1)
        assert left.volume() + right.volume() == 1
