"""Exact rational arithmetic and small integer-linear-algebra helpers.

Everything downstream (polytopes, piecewise-linear functions, the simplex
solver) computes over arbitrary-precision rationals.  gmpy2's ``mpq`` is used
when available (it is an order of magnitude faster); ``fractions.Fraction``
is a drop-in fallback.

Integer input stays integer: `common_denominator`, `integerize` and the
forward elimination behind `mat_rank` and `det` read a value's numerator
and denominator and compute with ``int`` only, so they build no rational
for a vector or matrix of ints.  The elimination is fraction-free
(Bareiss): each row is first scaled to integers, which changes no rank.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable, Sequence

try:
    from gmpy2 import mpq as Rat  # type: ignore[import-untyped]

    GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat  # type: ignore[assignment]

    GMPY2 = False

ZERO = Rat(0)
ONE = Rat(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Rat:
    """Parse "p/q" or "p" (integers only).  Decimal notation is rejected.

    Raises ValueError on anything else, including a value that is not a
    string (a JSON number such as 0.5); exactness of prices and coordinates
    depends on never silently converting through floats.
    """
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational (write it as a string p/q): {text!r}")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational (use p/q or an integer): {text!r}")
    return Rat(text)


def rat_str(value) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(Rat(value))


def dot(u: Sequence, v: Sequence):
    """Exact inner product; accepts mixed int/rational sequences."""
    total = ZERO
    for a, b in zip(u, v):
        total += a * b
    return total


def vec_content(values: Iterable[int]) -> int:
    """gcd of the absolute values (0 for the all-zero vector)."""
    g = 0
    for v in values:
        g = gcd(g, abs(int(v)))
    return g


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integers T and the least positive d with T[i]/d == values[i].

    The values are ints or rationals.  gcd(*T, d) is then 1, so equal
    vectors give equal pairs.  Numerators and denominators go through
    int(), which makes the result plain ints on either backend.
    """
    d = 1
    for q in values:
        den = int(q.denominator)
        d = d // gcd(d, den) * den
    return [int(q.numerator) * (d // int(q.denominator)) for q in values], d


def integerize(values: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to a content-1 int vector.

    The zero vector maps to itself.
    """
    ints, _ = common_denominator(values)
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


# ---------------------------------------------------------------------------
# Dense exact linear algebra (small systems only).


def _echelon(rows: Sequence[Sequence]) -> tuple[int, int, int]:
    """Fraction-free forward elimination (Bareiss, 1968) of the rows, each
    first scaled to integers by its least common denominator: (rank, minor,
    scale).  `scale` is the product of those denominators.  `minor` is the
    last pivot with the sign of the row permutation, the determinant of the
    scaled rows when they are square and of full rank.

    After k pivots every entry below them is a (k+1)-minor of the scaled
    rows (Sylvester's identity), so each division by the previous pivot is
    exact, and an entry is zero exactly where rational elimination has a
    zero: the pivots, and so the rank, are those over the rationals.
    """
    m, scale = [], 1
    for row in rows:
        ints, den = common_denominator(row)
        m.append(ints)
        scale *= den
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        head = top[col]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[col]
            m[r] = [(head * x - f * y) // prev for x, y in zip(row, top)]
        prev = head
        rank += 1
    return rank, sign * prev, scale


def mat_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of rationals/ints, by fraction-free elimination."""
    return _echelon(rows)[0]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[Rat(x) for x in row] for row in rows]
    pivots: list[int] = []
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


def nullspace(rows: Sequence[Sequence]) -> list[tuple]:
    """Basis of the right null space {x : rows @ x = 0} as rational tuples."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def det(rows: Sequence[Sequence]):
    """Exact determinant of a square rational matrix."""
    rank, minor, scale = _echelon(rows)
    return Rat(minor, scale) if rank == len(rows) else ZERO
