"""Exact two-phase simplex over rationals with Bland's anti-cycling rule.

Standard form: minimize c·x subject to A x = b, x >= 0.  The tableau is
fraction-free: row i is an integer list T[i] with a positive integer
denominator S[i], and the true row is T[i]/S[i].  A pivot cross-multiplies
integers and divides each changed row by the gcd of its entries and its
denominator, so the pivot loop computes with ``int`` only and every entry
stays exact.  The true tableau after each pivot is the one a rational
tableau would hold, so Bland's rule takes the same steps and optima,
optimal bases and infeasibility certificates are exact.  Problems here are
desk scale (tens of rows and columns), which a dense tableau handles
comfortably.

For an infeasible system the phase-1 dual vector y is returned; it satisfies
y·A_j <= 0 for every column j and y·b > 0, i.e. it is a Farkas certificate
that no nonnegative solution exists.  Callers turn it into separating
hyperplanes and Dutch-book stakes.

The callers are hull and membership tests (`polytope`) and the coherence
and extension LPs (`coherence`).  Facet enumeration solves none: it bounds
its polar dual in closed form.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .exact import Rat, ZERO, common_denominator
from .record import Record

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult(Record):
    __slots__ = __match_args__ = ("status", "x", "value", "farkas")

    def __init__(
        self, status: str, x: tuple | None = None, value: object = None, farkas: tuple | None = None
    ):
        self.status = status
        self.x = x
        self.value = value
        self.farkas = farkas


def _content(values: list[int], g: int) -> int:
    """gcd of g and the values, stopping as soon as it reaches 1.

    A loop rather than gcd(*values, g): most rows reach 1 within a few
    entries, and no argument tuple as long as the row is built.
    """
    for v in values:
        if g == 1:
            break
        g = gcd(g, v)
    return g


def _eliminate(row: list[int], den: int, prow: list[int], p: int, col: int) -> tuple[list[int], int]:
    """row/den minus its column-`col` multiple of the pivot row prow/p (p > 0)."""
    f = row[col]
    new = [a * p - f * b for a, b in zip(row, prow)]
    den *= p
    g = _content(new, den)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


def _pivot(T: list[list[int]], S: list[int], basis: list[int], r: int, c: int) -> None:
    prow = T[r]
    p = prow[c]
    if p < 0:  # only when driving out an artificial; the row is an equation
        prow = [-v for v in prow]
        p = -p
    for i, row in enumerate(T):
        if i != r and row[c] != 0:
            T[i], S[i] = _eliminate(row, S[i], prow, p, c)
    g = _content(prow, p)
    T[r] = [v // g for v in prow] if g > 1 else prow
    S[r] = p // g
    basis[r] = c


def _run_simplex(T: list[list[int]], S: list[int], basis: list[int], eligible: int) -> str:
    """Minimize the objective row in place; Bland's rule throughout.

    Columns below `eligible` may enter; the last column is the right-hand
    side.  Row denominators are positive, so every sign test and ratio
    comparison reads the integer numerators.
    """
    rhs = len(T[0]) - 1
    while True:
        obj = T[-1]
        col = next((j for j in range(eligible) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row = None
        for r in range(len(T) - 1):
            coeff = T[r][col]
            if coeff > 0:
                if best_row is None:
                    best_row = r
                    continue
                # T[r][rhs]/coeff against the best ratio, cross-multiplied.
                lhs = T[r][rhs] * T[best_row][col]
                rhs_best = T[best_row][rhs] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[r] < basis[best_row]):
                    best_row = r
        if best_row is None:
            return UNBOUNDED
        _pivot(T, S, basis, best_row, col)


def solve_standard(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Minimize c·x s.t. A x = b, x >= 0 (all entries rational or int)."""
    m = len(A)
    n = len(c)
    ncols = n + m
    # Phase 1: artificial variable per row, minimize their sum.  Row i is
    # [A_i | e_i | b_i], negated first when b_i < 0.
    T: list[list[int]] = []
    S: list[int] = []
    flipped = [False] * m
    for i in range(m):
        ints, den = common_denominator([*A[i], b[i]])
        if ints[-1] < 0:
            ints = [-v for v in ints]
            flipped[i] = True
        T.append(ints[:n] + [den if j == i else 0 for j in range(m)] + [ints[n]])
        S.append(den)
    # Objective: minus the sum of the rows over the original columns and the
    # right-hand side; artificial columns keep reduced cost 0 in this row and
    # may not re-enter.
    obj_den = 1
    for den in S:
        obj_den = obj_den // gcd(obj_den, den) * den
    obj = [0] * (ncols + 1)
    for row, den in zip(T, S):
        scale = obj_den // den
        for j in range(n):
            obj[j] -= row[j] * scale
        obj[ncols] -= row[ncols] * scale
    g = _content(obj, obj_den)
    T.append([v // g for v in obj])
    S.append(obj_den // g)
    basis = [n + i for i in range(m)]
    status = _run_simplex(T, S, basis, n)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    if T[-1][ncols] < 0:
        # Infeasible.  The artificial column of row i is e_i, so its stored
        # reduced cost is 1 - y_i; the dual y then satisfies y·(row j of the
        # scaled system) <= 0 for every original column and y·rhs > 0.
        obj, den = T[-1], S[-1]
        y = [Rat(den - obj[n + i], den) for i in range(m)]
        farkas = tuple(-y[i] if flipped[i] else y[i] for i in range(m))
        return LPResult(INFEASIBLE, farkas=farkas)

    # Drive any basic artificial (at level 0) out of the basis.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                _pivot(T, S, basis, r, col)
    keep = [r for r in range(m) if basis[r] < n]

    # Phase 2 on the original objective.
    T2: list[list[int]] = []
    S2: list[int] = []
    for r in keep:
        row = T[r][:n] + [T[r][ncols]]
        g = _content(row, S[r])
        T2.append([v // g for v in row] if g > 1 else row)
        S2.append(S[r] // g)
    basis2 = [basis[r] for r in keep]
    obj, obj_den = common_denominator([*c, 0])
    for r, line in enumerate(T2):
        col = basis2[r]
        if obj[col] != 0:
            obj, obj_den = _eliminate(obj, obj_den, line, line[col], col)
    T2.append(obj)
    S2.append(obj_den)
    status = _run_simplex(T2, S2, basis2, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [ZERO] * n
    for r, j in enumerate(basis2):
        x[j] = Rat(T2[r][n], S2[r])
    value = Rat(-T2[-1][n], S2[-1])
    return LPResult(OPTIMAL, x=tuple(x), value=value)


def feasible_point(A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Find any x >= 0 with A x = b, or a Farkas certificate."""
    n = len(A[0]) if A else 0
    return solve_standard([ZERO] * n, A, b)


def maximize(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    res = solve_standard([-v for v in c], A, b)
    if res.status == OPTIMAL:
        res.value = -res.value
    return res

