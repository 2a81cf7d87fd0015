"""Exact linear algebra over the rationals.

Rank computations use sparse fraction-free elimination on integer rows;
rational input rows are cleared of denominators first, which does not
change the row space.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _sparse_row(row) -> dict:
    """Nonzero entries of a row of ints/Fractions, given as a list or as a
    {column: value} dict, as {column: int}, scaled by the lcm of the
    denominators and divided by the gcd of the result."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    sparse = {j: x for j, x in items if x}
    if not sparse:
        return sparse
    denom = lcm(*(x.denominator for x in sparse.values() if type(x) is not int))
    sparse = {j: int(x * denom) for j, x in sparse.items()}
    content = gcd(*sparse.values())
    if content > 1:
        sparse = {j: x // content for j, x in sparse.items()}
    return sparse


def exact_rank(rows) -> int:
    """Rank of a matrix given as an iterable of rows of ints/Fractions,
    each a list or a {column: value} dict of its nonzero entries.

    Sparse fraction-free elimination: rows are held as {column: int}
    dicts.  Each step takes a shortest remaining row as pivot, choosing
    its column with the fewest other nonzeros, and clears that column
    from every other row by the integer update  a*row - b*pivot  (a, b the
    pivot and row entries over their gcd), then divides the updated row
    by its content.  Rows that become zero are dropped; every pivot adds
    one to the rank.
    """
    live = {}
    for row in rows:
        sparse = _sparse_row(row)
        if sparse:
            live[len(live)] = sparse
    where = {}  # column -> ids of live rows with a nonzero there
    for i, row in live.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    rank = 0
    while heap:
        size, p = heappop(heap)
        pivot = live.get(p)
        if pivot is None or len(pivot) != size:
            continue  # stale entry: the row was dropped or has changed
        del live[p]
        for j in pivot:
            where[j].discard(p)
        col = min(pivot, key=lambda j: len(where[j]))
        pv = pivot[col]
        for i in where.pop(col):
            row = live[i]
            rc = row[col]
            g = gcd(pv, rc)
            a, b = pv // g, rc // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, v in pivot.items():
                x = row.get(j, 0) - b * v
                if x:
                    if j not in row:
                        where[j].add(i)
                    row[j] = x
                elif j in row:
                    del row[j]
                    if j != col:
                        where[j].discard(i)
            if not row:
                del live[i]
                continue
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
            heappush(heap, (len(row), i))
        rank += 1
    return rank


def nullity(rows, ncols: int) -> int:
    return ncols - exact_rank(rows)

