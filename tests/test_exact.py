"""Exact helpers: fraction-free elimination and integer scaling."""

import math
import random
from fractions import Fraction

from coh.exact import _echelon, det, integerize, mat_rank, reduced_echelon

from util import rref


def _reference_det(rows):
    """Determinant by elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, result = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return result


def _random_matrix(rng, rational):
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)

    def entry():
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        return rng.randint(-3, 3) if rng.random() < 0.7 else 0

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:  # a dependent row
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
    if nrows > 1 and rng.random() < 0.2:  # a repeated row
        rows[-1] = list(rows[0])
    return rows


class TestFractionFree:
    def test_rank_and_det_match_rational_elimination(self):
        rng = random.Random(7)
        deficient = square = 0
        for trial in range(3000):
            rows = _random_matrix(rng, rational=trial % 2 == 0)
            reduced, pivots = rref(rows)
            rank = len(pivots)
            assert mat_rank(rows) == rank, rows
            # The reduced form is D·rref, in ints, with D at every pivot.
            integer, integer_pivots = reduced_echelon(rows)
            D = integer[0][pivots[0]] if pivots else 1
            assert integer_pivots == pivots, rows
            assert integer == [[D * x for x in reduced[r]] for r in range(rank)], rows
            assert all(type(x) is int for row in integer for x in row), rows
            if not rows:
                continue
            deficient += rank < min(len(rows), len(rows[0]))
            if len(rows) == len(rows[0]):
                assert det(rows) == _reference_det(rows), rows
                square += 1
        assert deficient >= 300 and square >= 300, (deficient, square)

    def test_int_input_builds_no_fraction(self, monkeypatch):
        rng = random.Random(8)
        matrices = [_random_matrix(rng, rational=False) for _ in range(200)]
        vectors = [[rng.randint(-9, 9) * 6 for _ in range(4)] for _ in range(50)] + [[0, 0]]
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        ranks = [_echelon(rows)[0] for rows in matrices]
        scaled = [integerize(v) for v in vectors]
        assert built == []
        monkeypatch.undo()
        assert ranks == [len(rref(rows)[1]) if rows else 0 for rows in matrices]
        assert scaled[-1] == (0, 0)
        for v, w in zip(vectors[:-1], scaled):
            g = math.gcd(*v)
            assert all(type(x) is int for x in w)
            assert list(w) == [x // g for x in v]
