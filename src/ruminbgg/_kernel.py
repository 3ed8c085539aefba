"""Sparse exact rank over the integers: the library's one rank kernel.

Gaussian elimination on dict rows with Markowitz-style pivoting; every
updated row is divided by its content gcd so entries stay small.  Input
rows must have integer entries (callers clear denominators first); rank
over Q equals rank over Z of the cleared matrix.

The pivot column is the live column with the fewest rows, ties to the
smallest index: the Markowitz order (len, column).  It is read off a heap
of (count, column) entries instead of a scan over all columns.  Entries
are lazy: a pivot step changes the counts only of the pivot row's columns
(the row leaves them, and the updates touch no other column), so it pushes
a fresh entry for each of those and leaves the old ones in place.  A
popped entry whose count differs from the column's current count is stale
and is skipped; a column whose count reaches 0 is dropped.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def rank_sparse(rows):
    """Rank of the sparse matrix given as an iterable of {col: int} rows."""
    rowmap = {}
    for i, r in enumerate(rows):
        live = {j: v for j, v in r.items() if v}
        if live:
            rowmap[i] = live
    cols = {}
    for i, r in rowmap.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = [(len(rs), j) for j, rs in cols.items()]
    heapify(heap)

    rank = 0
    while rowmap:
        # cheapest column, then the shortest row with the smallest pivot
        n, j = heappop(heap)
        while n != len(cols.get(j, ())):
            n, j = heappop(heap)
        i = min(cols[j], key=lambda r: (len(rowmap[r]), abs(rowmap[r][j]), r))
        piv = rowmap.pop(i)
        for jj in piv:
            cols[jj].discard(i)
        p = piv[j]
        rank += 1

        for r in list(cols[j]):
            row = rowmap[r]
            f = row[j]
            g = gcd(p, f)
            a = p // g
            b = f // g
            # row <- a*row - b*piv, which zeroes column j
            if a != 1:
                for jj in row:
                    row[jj] = a * row[jj]
            for jj, v in piv.items():
                nv = row.get(jj, 0) - b * v
                if nv:
                    if jj not in row:
                        cols[jj].add(r)
                    row[jj] = nv
                elif jj in row:
                    del row[jj]
                    cols[jj].discard(r)
            if row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for jj in row:
                        row[jj] //= g
            else:
                del rowmap[r]
        for jj in piv:
            n = len(cols[jj])
            if n:
                heappush(heap, (n, jj))
            else:
                del cols[jj]
    return rank
