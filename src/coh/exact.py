"""Exact rational arithmetic and small integer-linear-algebra helpers.

Everything downstream (polytopes, piecewise-linear functions, the simplex
solver) computes over arbitrary-precision rationals.  gmpy2's ``mpq`` is used
when available (it is an order of magnitude faster); ``fractions.Fraction``
is a drop-in fallback.

Integer input stays integer: `common_denominator`, `integerize` and the
elimination behind `mat_rank`, `det` and `reduced_echelon` read a value's
numerator and denominator and compute with ``int`` only, so they build no
rational for a vector or matrix of ints.  There is one elimination loop,
fraction-free (Bareiss): each row is first scaled to integers, which
changes no rank, and `reduced_echelon` runs it as Gauss-Jordan to give the
reduced row echelon form times one integer.
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
    int(), which makes the result plain ints on either backend; a vector
    of ints is returned as it is, over d = 1.
    """
    for q in values:
        if type(q) is not int:
            break
    else:
        return list(values), 1
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


def _echelon(rows: Sequence[Sequence], reduce: bool = False) -> tuple[int, int, int, list[list[int]]]:
    """Fraction-free elimination (Bareiss, 1968) of the rows, each first
    scaled to integers by its least common denominator: (rank, minor,
    scale, matrix).  `scale` is the product of those denominators.  `minor`
    is the last pivot with the sign of the row permutation, the determinant
    of the scaled rows when they are square and of full rank.

    After k pivots every entry below them is a (k+1)-minor of the scaled
    rows (Sylvester's identity), so each division by the previous pivot is
    exact, and an entry is zero exactly where rational elimination has a
    zero: the pivots, and so the rank, are those over the rationals.  With
    `reduce` the rows above each pivot are eliminated by the same step
    (Gauss-Jordan); the first `rank` rows of the matrix are then the rows of
    the reduced row echelon form times the last pivot, which every one of
    them holds at its own pivot column.
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
        below = range(rank + 1, nrows)
        for r in [*range(rank), *below] if reduce else below:
            row = m[r]
            f = row[col]
            m[r] = [(head * x - f * y) // prev for x, y in zip(row, top)]
        prev = head
        rank += 1
    return rank, sign * prev, scale, m


def mat_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of rationals/ints, by fraction-free elimination."""
    return _echelon(rows)[0]


def reduced_echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form of `rows`, all
    multiplied by one nonzero integer D so that they are integers, and
    their pivot columns.  Each row holds D at its pivot column."""
    rank, _, _, m = _echelon(rows, reduce=True)
    return m[:rank], [next(c for c, x in enumerate(row) if x) for row in m[:rank]]


def det(rows: Sequence[Sequence]):
    """Exact determinant of a square rational matrix."""
    rank, minor, scale, _ = _echelon(rows)
    return Rat(minor, scale) if rank == len(rows) else ZERO
