"""Sparse exact rank over the integers: the library's one rank kernel.

Gaussian elimination on dict rows with Markowitz-style pivoting; every
updated row is divided by its content gcd so entries stay small.  Input
rows must have integer entries (callers clear denominators first); rank
over Q equals rank over Z of the cleared matrix.

The matrix is eliminated one connected component at a time: two rows lie
in one component when a chain of columns, each nonzero in both rows it
links, joins them.  The components are found from the input rows alone,
through a column -> row ids index, before any elimination structure
exists.  Each component then gets its own row copies, column sets and
heap, is eliminated, and drops them before the next one starts; the rank
is the sum over the components.  A pivot step touches only its own
component's rows and column counts, so inside a component the pivots, the
arithmetic and the fill are those of eliminating the whole matrix at once,
but only one component's fill is live at a time.  The d0 blocks of the
graded algebras split into many equal components (octonionic's self-dual
block (7, 11) into 8 of 245 rows), so the live fill is that of the
largest one, not of the whole block.  The budget, if given, is checked
before each component, so a large block overshoots it by at most the time
of one component.

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


def rank_sparse(rows, budget=None):
    """Rank of the sparse matrix given as a list of {col: int} rows.

    The rows are read and never changed.  budget, if given, is checked
    before each connected component is eliminated."""
    rank = 0
    for component in _components(rows):
        if budget is not None:
            budget.check()
        rank += _rank_component(rows, component)
    return rank


def _components(rows):
    """Row ids of each connected component of the rows' bipartite row-column
    graph on the nonzero entries; a row with no nonzero entry is in none."""
    rows_of = {}
    for i, r in enumerate(rows):
        for j, v in r.items():
            if v:
                rows_of.setdefault(j, []).append(i)
    seen = bytearray(len(rows))
    components = []
    while rows_of:
        component = rows_of.popitem()[1]
        for i in component:
            seen[i] = 1
        # the list grows while it is walked: a breadth-first search that
        # pops each column it reaches, so the index is gone by the end
        for i in component:
            for j, v in rows[i].items():
                if v:
                    for r in rows_of.pop(j, ()):
                        if not seen[r]:
                            seen[r] = 1
                            component.append(r)
        components.append(component)
    return components


def _rank_component(rows, component):
    """Rank of the rows with the given ids, one connected component."""
    rowmap = {i: {j: v for j, v in rows[i].items() if v} for i in component}
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
