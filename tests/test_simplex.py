"""Exact simplex: optima, infeasibility certificates, degeneracy."""

import random

from coh.exact import ONE, Rat, ZERO, dot
from coh.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    feasible_point,
    lexmin,
    maximize,
    solve_standard,
)

from util import reference_solve_standard


class TestBasics:
    def test_simple_min(self):
        # min x1 + x2  s.t. x1 + 2 x2 = 4, x >= 0  ->  x = (0, 2)
        res = solve_standard([1, 1], [[1, 2]], [4])
        assert res.status == OPTIMAL
        assert res.value == 2
        assert res.x == (ZERO, Rat(2))

    def test_simple_max(self):
        # max 3 x1 + x2 s.t. x1 + x2 = 1  ->  x = (1, 0)
        res = maximize([3, 1], [[1, 1]], [1])
        assert res.status == OPTIMAL
        assert res.value == 3

    def test_negative_rhs_handled(self):
        # -x1 = -2 forces x1 = 2.
        res = solve_standard([1], [[-1]], [-2])
        assert res.status == OPTIMAL
        assert res.x == (Rat(2),)

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0: both can grow without bound.
        res = solve_standard([-1, 0], [[1, -1]], [0])
        assert res.status == UNBOUNDED

    def test_degenerate_exact(self):
        # Multiple bases with the same value; Bland's rule must terminate.
        res = solve_standard([1, 1, 1], [[1, 1, 0], [1, 0, 1]], [1, 1])
        assert res.status == OPTIMAL
        assert res.value == 1

    def test_exact_fractions(self):
        res = solve_standard([Rat(1, 3), Rat(1, 7)], [[1, 1]], [Rat(22, 7)])
        assert res.status == OPTIMAL
        assert res.value == Rat(22, 49)


class TestFarkas:
    def verify_certificate(self, A, b, farkas):
        ncols = len(A[0])
        for j in range(ncols):
            assert dot(farkas, [row[j] for row in A]) <= 0
        assert dot(farkas, b) > 0

    def test_infeasible_sum(self):
        # x1 + x2 = 2 and x1 + x2 = 1 cannot both hold.
        A = [[1, 1], [1, 1]]
        b = [2, 1]
        res = feasible_point(A, b)
        assert res.status == INFEASIBLE
        self.verify_certificate(A, b, res.farkas)

    def test_infeasible_negative_target(self):
        # x1 = -1 has no nonnegative solution.
        A = [[1]]
        b = [-1]
        res = feasible_point(A, b)
        assert res.status == INFEASIBLE
        self.verify_certificate(A, b, res.farkas)

    def test_point_outside_hull(self):
        # Convex weights over {0, 1/2} cannot average to 3/4.
        A = [[0, Rat(1, 2)], [1, 1]]
        b = [Rat(3, 4), 1]
        res = feasible_point(A, b)
        assert res.status == INFEASIBLE
        self.verify_certificate(A, b, res.farkas)


def _random_entry(rng):
    if rng.random() < 0.3:
        return ZERO
    return Rat(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7]))


def _random_lp(rng):
    """A small LP; some rows repeat others (redundant or contradictory).

    Half of them are feasible by construction: b = A x0 for some x0 >= 0
    with zero entries, which makes the start degenerate.
    """
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    A = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [abs(_random_entry(rng)) for _ in range(n)]
        b = [dot(row, x0) for row in A]
    else:
        b = [_random_entry(rng) for _ in range(m)]
    kind = rng.choice(["plain", "redundant", "contradictory"])
    if kind != "plain":
        i, j = rng.randrange(m), rng.randrange(m)
        k = Rat(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        A.append([x + k * y for x, y in zip(A[i], A[j])])
        shift = 0 if kind == "redundant" else rng.choice([-1, 1])
        b.append(b[i] + k * b[j] + shift)
    c = [_random_entry(rng) for _ in range(n)]
    return c, A, b, kind


class TestReferenceEquivalence:
    def test_random_lps_match_rational_tableau(self):
        # The integer tableau takes the rational tableau's Bland steps, so
        # status, point, value and Farkas vector must all be equal.
        rng = random.Random(53)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        negative_rhs = redundant_feasible = 0
        for _ in range(400):
            c, A, b, kind = _random_lp(rng)
            res = solve_standard(c, A, b)
            assert (res.status, res.x, res.value, res.farkas) == reference_solve_standard(c, A, b)
            seen[res.status] += 1
            negative_rhs += any(v < 0 for v in b)
            redundant_feasible += kind == "redundant" and res.status != INFEASIBLE
            if res.status == INFEASIBLE:
                assert all(dot(res.farkas, [row[j] for row in A]) <= 0 for j in range(len(c)))
                assert dot(res.farkas, b) > 0
        assert min(seen.values()) >= 40, seen
        assert negative_rhs >= 100 and redundant_feasible >= 40


def reference_lexmin(A, b):
    """x_1 minimized, fixed by an appended row e_1 = x_1*, then x_2, and so on."""
    n = len(A[0])
    A, b = list(A), list(b)
    x = []
    for j in range(n):
        unit = [Rat(int(i == j)) for i in range(n)]
        status, point, _, _ = reference_solve_standard(unit, A, b)
        assert status == OPTIMAL
        x.append(point[j])
        A.append(unit)
        b.append(point[j])
    return tuple(x)


class TestLexmin:
    def test_random_systems_match_slice_chain(self):
        # Feasible: the least point of the one-tableau solve is the one the
        # chain of fixed slices reaches.  Infeasible: the same phase 1 gives
        # the same Farkas vector.
        rng = random.Random(71)
        feasible = infeasible = moved = 0
        for _ in range(400):
            _, A, b, _ = _random_lp(rng)
            res = lexmin(A, b)
            plain = solve_standard([ONE] + [ZERO] * (len(A[0]) - 1), A, b)
            if plain.status == INFEASIBLE:
                assert res.status == INFEASIBLE
                assert res.farkas == plain.farkas
                infeasible += 1
                continue
            assert res.status == OPTIMAL
            assert res.x == reference_lexmin(A, b)
            feasible += 1
            moved += res.x != plain.x  # a later cost moved the point
        assert feasible >= 100 and infeasible >= 100 and moved >= 15, (feasible, infeasible, moved)

    def test_later_costs_stay_on_the_earlier_optima(self):
        # Weights over the points 0, 1 and 1/2 averaging 1/2.  Once x_1 = 0,
        # all weight sits on 1/2, although x_3 alone could reach 0 (half on 0,
        # half on 1).
        res = lexmin([[0, 1, Rat(1, 2)], [1, 1, 1]], [Rat(1, 2), ONE])
        assert res.status == OPTIMAL
        assert res.x == (ZERO, ZERO, ONE)
