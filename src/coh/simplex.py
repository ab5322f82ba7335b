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

One routine, `_solve`, runs phase 1 once and then minimizes a sequence of
costs on the same tableau, each over the optima of the ones before it.
`solve_standard` minimizes one cost; `lexmin` minimizes x_1, x_2, ... in
turn, which gives the lexicographically least feasible point.  Every
system solved comes from `polytope.weight_lp` and is integer: in
`polytope`, the hull test (`feasible_point`) of each point that no
direction certifies as a vertex and certified membership (`lexmin`); in
`coherence`, the two extension solves (`solve_standard` and `maximize`).
Certified hull vertices and facet enumeration solve none: facets bound
their polar dual in closed form.
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


def _run_simplex(T: list[list[int]], S: list[int], basis: list[int], eligible: list[int]) -> str:
    """Minimize the objective row in place; Bland's rule throughout.

    Only the `eligible` columns (ascending) may enter; the last column is
    the right-hand side.  Row denominators are positive, so every sign test
    and ratio comparison reads the integer numerators.
    """
    rhs = len(T[0]) - 1
    while True:
        obj = T[-1]
        col = next((j for j in eligible if obj[j] < 0), None)
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


def _objective(obj: list[int], den: int, T: list[list[int]], basis: list[int]) -> tuple[list[int], int]:
    """The cost row obj/den (right-hand side entry 0) reduced by the basis.

    Each constraint row is eliminated by its basic column; a row whose basic
    column lies beyond the cost (an artificial left on a redundant row after
    the artificial columns are cut off) is skipped.
    """
    for row, col in zip(T, basis):  # stops before an objective row
        if col < len(obj) - 1 and obj[col] != 0:
            obj, den = _eliminate(obj, den, row, row[col], col)
    return obj, den


def _solve(costs: Sequence[Sequence], A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Minimize each cost in turn over the optima of the ones before it.

    After an optimum, the nonbasic columns of positive reduced cost are
    barred from entering: on the whole feasible set the objective is its
    optimum plus those reduced costs times their variables, so the optimal
    face is where they are 0.  The result holds the last cost's point and
    value.
    """
    m = len(A)
    n = len(costs[0])
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
    basis = [n + i for i in range(m)]
    # Artificial columns may not enter, so their reduced costs keep the dual.
    obj, den = _objective([0] * n + [1] * m + [0], 1, T, basis)
    T.append(obj)
    S.append(den)
    eligible = list(range(n))
    status = _run_simplex(T, S, basis, eligible)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    if T[-1][ncols] < 0:
        # Infeasible.  The artificial column of row i is e_i, so its stored
        # reduced cost is 1 - y_i; the dual y then satisfies y·(row j of the
        # scaled system) <= 0 for every original column and y·rhs > 0.
        obj, den = T[-1], S[-1]
        y = [Rat(den - obj[n + i], den) for i in range(m)]
        farkas = tuple(-y[i] if flipped[i] else y[i] for i in range(m))
        return LPResult(INFEASIBLE, farkas=farkas)

    # Drive any basic artificial (at level 0) out of the basis, then cut the
    # artificial columns off every row.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                _pivot(T, S, basis, r, col)
    for row in T:
        del row[n:ncols]

    # Phase 2 on each cost in turn; the objective row stays last.
    for k, cost in enumerate(costs):
        if k:
            eligible = [j for j in eligible if T[-1][j] == 0]
        T[-1], S[-1] = _objective(*common_denominator([*cost, 0]), T, basis)
        if _run_simplex(T, S, basis, eligible) == UNBOUNDED:
            return LPResult(UNBOUNDED)
    x = [ZERO] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Rat(T[r][n], S[r])
    return LPResult(OPTIMAL, x=tuple(x), value=Rat(-T[-1][n], S[-1]))


def solve_standard(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Minimize c·x s.t. A x = b, x >= 0 (all entries rational or int)."""
    return _solve([c], A, b)


def lexmin(A: Sequence[Sequence], b: Sequence) -> LPResult:
    """The lexicographically least x >= 0 with A x = b, or a Farkas certificate."""
    n = len(A[0])
    return _solve([[int(i == j) for i in range(n)] for j in range(n)], A, b)


def feasible_point(A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Find any x >= 0 with A x = b, or a Farkas certificate."""
    n = len(A[0]) if A else 0
    return solve_standard([ZERO] * n, A, b)


def maximize(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    res = solve_standard([-v for v in c], A, b)
    if res.status == OPTIMAL:
        res.value = -res.value
    return res

