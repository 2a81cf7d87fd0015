"""Exact linear algebra on integer matrices.

Rows are {column: int} dicts of their entries; ranks come from sparse
fraction-free elimination, so a rank is the rank over the rationals.
Nothing here ever touches floating point.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def exact_rank(rows) -> int:
    """Rank of a matrix given as an iterable of {column: int} rows; zero
    entries may be present and are dropped.

    Sparse fraction-free elimination: each row is divided by its content,
    then each step takes a shortest remaining row as pivot, choosing
    its column with the fewest other nonzeros, and clears that column
    from every other row by the integer update  a*row - b*pivot  (a, b the
    pivot and row entries over their gcd), then divides the updated row
    by its content.  Rows that become zero are dropped; every pivot adds
    one to the rank.
    """
    live = {}
    for row in rows:
        content = gcd(*row.values())
        if content:
            live[len(live)] = {j: x // content for j, x in row.items() if x}
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

