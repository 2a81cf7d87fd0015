"""Exact linear algebra over the rationals.

Rank computations use fraction-free (Bareiss) elimination on integer
matrices; rational input rows are cleared of denominators first, which
does not change the row space.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integerize_row(row):
    """Scale a nonzero row of ints/Fractions to coprime integers (times the
    lcm of its denominators, divided by the gcd of the result)."""
    denom = lcm(*(x.denominator for x in row if type(x) is not int))
    ints = [int(x * denom) for x in row]
    content = gcd(*ints)
    return [x // content for x in ints] if content > 1 else ints


def exact_rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows of ints/Fractions.

    Each step takes the first row with a nonzero leading entry as pivot,
    eliminates the leading column from the other rows and drops it.  Rows
    that become zero stay zero and are dropped too.
    """
    mat = [_integerize_row(r) for r in rows if any(r)]
    rank = 0
    prev = 1
    while mat:
        i = next((i for i, r in enumerate(mat) if r[0]), None)
        if i is None:
            mat = [r[1:] for r in mat]
            continue
        pivot = mat.pop(i)
        pv = pivot[0]
        tail = pivot[1:]
        # Bareiss step: division by the previous pivot is exact.
        mat = [row for row in
               ([(pv * a - r[0] * b) // prev for a, b in zip(r[1:], tail)]
                for r in mat)
               if any(row)]
        prev = pv
        rank += 1
    return rank


def nullity(rows, ncols: int) -> int:
    return ncols - exact_rank(rows)


def invert_rational(mat):
    """Inverse of a square matrix over the rationals (Gauss-Jordan).

    Raises ValueError on a singular matrix.
    """
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
