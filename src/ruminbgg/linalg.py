"""Exact sparse linear algebra over the rationals.

Matrices are column-major and store only nonzero entries, which matches
how operators get applied to sparse vectors.  A stored column is an
immutable triple (den, rows, nums): rows and nums are equal-length tuples
of ints, the rows are distinct, and entry rows[t] is nums[t] / den.  Every
column is written in normal form (den > 0, gcd(den, nums) = 1, no zero
numerator).  The rows keep the order in which a column was accumulated,
not sorted order, so `==` compares two columns as row -> numerator maps
when their tuples differ; the writer sorts, and witnesses take minima.
Stored columns are never changed, so matrices share them, and a column
can share the rows or nums tuple of another (a fiber block's numerators
across its polynomial copies, a product column that is one stored column
unchanged).

Products, sums, traces, ranks and eliminations run on Python ints, and so
do `apply_column`, `sum_columns` and `solve_column`, which take and return
stored columns.  `combine(nrows, ncols, terms, budget, keys)` is the one
kernel for sums of products: it forms sum c * (A @ B) over (c, A, B) terms
(B = None for a plain summand A) column by column, as in Gustavson's
sparse product, gathering every term's contribution to a column and
normalizing it once; given keys, it forms only those columns, so a sum
too large to hold can be formed and consumed a slice at a time.  `@`,
`+` and `-` are single calls of it, so a sum of products never builds
and normalizes the products on their own.
`kron(npoly, terms, budget)` is the same gather for sums of Kronecker
products on the positions I * npoly + e (coframe or fiber index I,
polynomial e), the package's layout, written as the shared `positions` ints.
`trace_of_product` reads trace(A @ B) off the two factors.  Every
column sum, in the two kernels, `apply_column`, `sum_columns` and `stack`,
goes through one accumulate-and-normalize loop, which accumulates in a
dict and freezes it once into the two tuples.  `column_from_ratios`
builds a stored column from (p, q) pairs.  `fractions.Fraction` remains
only at the boundary: the constructor and `set_column` take
{row: Fraction} columns, and `column`, `entry`, `trace`, `apply` and
`solve` give Fractions back.

Ranks go to the integer elimination kernel with each column's numerators
as a {row: int} row.  Kernels (as stored columns) and linear solves use a
fraction-free column eliminator on working dicts: a working column and the
combination of input columns that produced it share one denominator, and a
pivot column is stored scaled so that its entry at the pivot row equals its
denominator.  The pivot is the smallest row index, so every basis it
produces is canonical for a fixed column order and equals the one
Fraction elimination with that rule gives.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from ._kernel import rank_sparse
from .scalars import ZERO


def accumulate(dst, key, c):
    """dst[key] += c on a sparse vector; a key whose sum is zero is removed."""
    s = dst.get(key, ZERO) + c
    if s:
        dst[key] = s
    elif key in dst:
        del dst[key]


def axpy(dst, src, a):
    """dst += a * src on sparse vectors; a key whose sum is zero is removed.

    The same loop as `accumulate`, kept inline because it is the innermost
    loop of every sparse-vector sum outside the matrix code.
    """
    for k, v in src.items():
        s = dst.get(k, ZERO) + a * v
        if s:
            dst[k] = s
        elif k in dst:
            del dst[k]


def _from_fractions(col):
    """The stored column of a {row: Fraction or int} dict; None if it is zero.

    Over the lcm of the reduced denominators the numerators are already
    coprime to the denominator, so no gcd pass is needed.
    """
    live = {i: v for i, v in col.items() if v}
    if not live:
        return None
    den = lcm(*{v.denominator for v in live.values()})
    if den == 1:
        return 1, tuple(live), tuple([v.numerator for v in live.values()])
    return den, tuple(live), tuple([v.numerator * (den // v.denominator) for v in live.values()])


def column_from_ratios(ratios):
    """The stored column of {row: (p, q)}, each p/q in lowest terms with q > 0.

    Like `_from_fractions`, for callers that never made the Fractions;
    None if the column is zero.
    """
    live = {i: pq for i, pq in ratios.items() if pq[0]}
    if not live:
        return None
    den = lcm(*{q for _, q in live.values()})
    return den, tuple(live), tuple([p * (den // q) for p, q in live.values()])


def _to_fractions(den, rows, nums):
    return {i: Fraction(v, den) for i, v in zip(rows, nums)}


def _normal(den, acc):
    """acc / den as a stored column in normal form, or None if it is zero.

    den > 0; acc is a {row: int} dict and may hold zeros.  The rows keep
    acc's order.
    """
    nums = acc.values()
    if 0 in nums:
        if not any(nums):
            return None
        acc = {i: v for i, v in acc.items() if v}
        nums = acc.values()
    elif not acc:
        return None
    g = gcd(den, *nums)
    if g == 1:
        return den, tuple(acc), tuple(nums)
    return den // g, tuple(acc), tuple([v // g for v in nums])


def _combine_column(terms):
    """The stored column of sum (p / q) * nums at rows over the (p, q, rows,
    nums) terms, p != 0, q > 0, each rows and nums a stored column's tuples;
    None if it is zero.  One lcm, one accumulation, one normalization.

    This is the one accumulate-and-normalize loop of the matrix code.
    """
    if not terms:
        return None
    p, q, rows, nums = terms[0]
    if len(terms) == 1:
        # nums is prime to its own column's denominator, which divides q, but
        # q may share a factor with p times their content
        g = gcd(q, p * gcd(*nums)) if q > 1 else 1
        if g == 1:
            return q, rows, nums if p == 1 else tuple([p * v for v in nums])
        return q // g, rows, tuple([p * v // g for v in nums])
    L = lcm(*{t[1] for t in terms})
    c = p * (L // q)
    acc = dict(zip(rows, nums if c == 1 else [c * v for v in nums]))
    get = acc.get
    rest = iter(terms)
    next(rest)
    for p, q, rows, nums in rest:
        c = p * (L // q)
        if len(rows) == 1:
            i = rows[0]
            acc[i] = get(i, 0) + c * nums[0]
        else:
            for i, v in zip(rows, nums):
                acc[i] = get(i, 0) + c * v
    return _normal(L, acc)


def sum_columns(columns):
    """The stored column of a sum of stored columns, or None if it is zero."""
    return _combine_column([(1, *col) for col in columns])


def combine(nrows, ncols, terms, budget=None, keys=None):
    """The nrows x ncols matrix sum c * (A @ B) over the (c, A, B) terms.

    c is an int; B = None makes A itself a plain summand.  Gustavson's
    column-by-column product over all terms at once: each output column
    gathers every (coefficient, denominator, source column) of every term
    and is accumulated and normalized once.  A column that is one plain
    summand with c = 1 is the stored column itself, shared.  Terms with an
    empty operand or c = 0 contribute nothing, so a product with an empty
    side costs no column walk.  keys, if given, are the only column keys
    formed, so a caller can form the sum a slice of columns at a time;
    the other columns are left out of the result.  budget, if given, is
    checked every 64 result columns walked.
    """
    plain, products = [], []
    for c, a, b in terms:
        if b is None:
            if (a.nrows, a.ncols) != (nrows, ncols):
                raise ValueError(f"shape mismatch: {a.shape()} in a {nrows}x{ncols} sum")
            if c and a.cols:
                plain.append((c, a.cols))
        else:
            if a.ncols != b.nrows or (a.nrows, b.ncols) != (nrows, ncols):
                raise ValueError(
                    f"shape mismatch: {a.shape()} @ {b.shape()} in a {nrows}x{ncols} sum"
                )
            if c and a.cols and b.cols:
                products.append((c, a.cols, b.cols))
    out = SparseMatrix(nrows, ncols)
    sources = [cols for _, cols in plain] + [bcols for _, _, bcols in products]
    if not sources:
        return out
    if keys is None:
        keys = sources[0] if len(sources) == 1 else set().union(*sources)
    out_cols = out.cols
    for n, j in enumerate(keys):
        if budget is not None and n % 64 == 0:
            budget.check()
        gathered = []
        shared = None
        for c, cols in plain:
            hit = cols.get(j)
            if hit is not None:
                gathered.append((c, *hit))
                shared = hit if c == 1 else None
        for c, acols, bcols in products:
            hit = bcols.get(j)
            if hit is not None:
                den, rows, nums = hit
                if len(rows) == 1:
                    a = acols.get(rows[0])
                    if a is not None:
                        gathered.append((c * nums[0], den * a[0], a[1], a[2]))
                    continue
                for k, v in zip(rows, nums):
                    a = acols.get(k)
                    if a is not None:
                        gathered.append((c * v, den * a[0], a[1], a[2]))
        if len(gathered) == 1 and shared is not None:
            out_cols[j] = shared
        elif gathered:
            col = _combine_column(gathered)
            if col:
                out_cols[j] = col
    return out


_POSITIONS = []


def positions(n):
    """The process's one list whose item i is the int i, grown to n items; do not change it."""
    _POSITIONS.extend(range(len(_POSITIONS), n))
    return _POSITIONS


def kron(npoly, terms, budget=None):
    """The matrix of sum A (x) B over the (B, A) terms, on Kronecker positions.

    B is a coframe or fiber matrix and A an npoly x npoly matrix on the
    polynomials, or None for the identity; position I * npoly + e holds
    coframe or fiber element I with polynomial e, so entry
    (I * npoly + f, J * npoly + e) is the sum of B[I, J] A[f, e].  Row ints
    and column keys are the `positions` list's objects.  Each column gathers
    every term's contribution and goes through `_combine_column` once, which
    keeps the nums tuple of a column that is one identity-factor copy of a B
    column.  budget, if given, is checked every 64 result columns.
    """
    shape = terms[0][0].shape()
    hits = {}  # J -> [(den, rows, nums of B's column J, A's columns or None)]
    for b, a in terms:
        if b.shape() != shape or a is not None and a.shape() != (npoly, npoly):
            raise ValueError(f"shape mismatch: {a and a.shape()} (x) {b.shape()}, B {shape}")
        if a is not None:
            # a getter of each column's rows, so that a shifted copy is one C
            # call; a single row is kept as its position
            a = [
                (e, den, itemgetter(*arows) if len(arows) > 1 else arows[0], nums)
                for e, (den, arows, nums) in a.cols.items()
            ]
        for j, col in b.cols.items():
            hits.setdefault(j, []).append((*col, a))
    out = SparseMatrix(npoly * shape[0], npoly * shape[1])
    ints = positions(max(out.nrows, out.ncols))
    n = 0
    for j in sorted(hits):
        gathered = [[] for _ in range(npoly)]  # the terms of column j * npoly + e
        for den, brows, bnums, a in hits[j]:
            blocks = [ints[i * npoly : (i + 1) * npoly] for i in brows]
            if a is None:
                for terms_e, copy in zip(gathered, zip(*blocks)):
                    terms_e.append((1, den, copy, bnums))
                continue
            for block, v in zip(blocks, bnums):
                for e, aden, get, anums in a:
                    shifted = (block[get],) if type(get) is int else get(block)
                    gathered[e].append((v, den * aden, shifted, anums))
        for e, terms_e in enumerate(gathered):
            if budget is not None and n % 64 == 0:
                budget.check()
            n += 1
            if terms_e:
                col = _combine_column(terms_e)
                if col:
                    out.cols[ints[j * npoly + e]] = col
    return out


def trace_of_product(a, b):
    """trace(a @ b) as a Fraction, without forming the product.

    Walks b's columns: entry (i, j) of b meets entry (j, i) of a, read off
    a's column i.  The terms are summed as ints per denominator, over their
    lcm once.
    """
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise ValueError(f"shape mismatch: trace of {a.shape()} @ {b.shape()}")
    acols = a.cols
    sums = {}
    for j, (den, rows, nums) in b.cols.items():
        for i, v in zip(rows, nums):
            hit = acols.get(i)
            if hit is not None and j in hit[1]:
                key = den * hit[0]
                sums[key] = sums.get(key, 0) + v * hit[2][hit[1].index(j)]
    L = lcm(*sums)
    return Fraction(sum(v * (L // den) for den, v in sums.items()), L)


def _same_column(x, y):
    """Whether stored columns x and y hold the same entries, in any row order."""
    return x == y or (
        x[0] == y[0] and len(x[1]) == len(y[1]) and dict(zip(x[1], x[2])) == dict(zip(y[1], y[2]))
    )


class SparseMatrix:
    """Shape (nrows, ncols); cols[j] = (den, rows, nums) holds column j,
    entry rows[t] being nums[t] / den."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols=None):
        """cols, if given, maps a column index to a {row: Fraction} dict."""
        self.nrows = nrows
        self.ncols = ncols
        self.cols = {}
        if cols:
            for j, col in cols.items():
                c = _from_fractions(col)
                if c:
                    self.cols[j] = c

    @classmethod
    def identity(cls, n):
        out = cls(n, n)
        out.cols = {j: (1, (j,), (1,)) for j in range(n)}
        return out

    def entry(self, i, j):
        hit = self.cols.get(j)
        if hit is None or i not in hit[1]:
            return ZERO
        return Fraction(hit[2][hit[1].index(i)], hit[0])

    def set_column(self, j, col):
        """Replace column j by the {row: Fraction} dict col."""
        c = _from_fractions(col)
        if c:
            self.cols[j] = c
        elif j in self.cols:
            del self.cols[j]

    def column(self, j):
        """Column j as a fresh {row: Fraction} dict."""
        hit = self.cols.get(j)
        return _to_fractions(*hit) if hit else {}

    def nnz(self):
        return sum(len(rows) for _, rows, _ in self.cols.values())

    def is_zero(self):
        return not self.cols

    def trace(self):
        diag = [
            (nums[rows.index(j)], den)
            for j, (den, rows, nums) in self.cols.items()
            if j in rows
        ]
        L = lcm(*(den for _, den in diag))
        return Fraction(sum(v * (L // den) for v, den in diag), L)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        a, b = self.cols, other.cols
        # equal tuples settle it at C speed; otherwise the rows may differ in order
        if a == b:
            return True
        return a.keys() == b.keys() and all(_same_column(x, b[j]) for j, x in a.items())

    def apply_column(self, den, rows, nums):
        """The stored column of self @ (nums at rows / den), or None if it is zero."""
        cols = self.cols
        terms = []
        for k, v in zip(rows, nums):
            hit = cols.get(k)
            if hit is not None:
                terms.append((v, den * hit[0], hit[1], hit[2]))
        return _combine_column(terms)

    def apply(self, vec):
        """Matrix-vector product; vec and result are {index: Fraction}."""
        x = _from_fractions(vec)
        y = x and self.apply_column(*x)
        return _to_fractions(*y) if y else {}

    def compose(self, other):
        """self @ other (apply other first)."""
        return combine(self.nrows, other.ncols, [(1, self, other)])

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return combine(self.nrows, self.ncols, [(1, self, None), (1, other, None)])

    def __sub__(self, other):
        # equal normal forms compare as tuples or maps, far faster than they cancel
        if self == other:
            return SparseMatrix(self.nrows, self.ncols)
        return combine(self.nrows, self.ncols, [(1, self, None), (-1, other, None)])

    def transpose(self):
        out = SparseMatrix(self.ncols, self.nrows)
        entries = {}
        for j, (den, rows, nums) in self.cols.items():
            for i, v in zip(rows, nums):
                entries.setdefault(i, []).append((j, v, den))
        for i, col in entries.items():
            L = lcm(*{den for _, _, den in col})
            out.cols[i] = _normal(L, {j: v * (L // den) for j, v, den in col})
        return out

    def stack(self, other):
        """Vertical stack [self; other]; column spaces intersect via kernels."""
        if self.ncols != other.ncols:
            raise ValueError("stack needs equal column counts")
        out = SparseMatrix(self.nrows + other.nrows, self.ncols)
        shift = self.nrows
        for j in set(self.cols) | set(other.cols):
            terms = []
            if j in self.cols:
                terms.append((1, *self.cols[j]))
            if j in other.cols:
                den, rows, nums = other.cols[j]
                terms.append((1, den, tuple([i + shift for i in rows]), nums))
            out.cols[j] = _combine_column(terms)
        return out

    def shape(self):
        return (self.nrows, self.ncols)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def rank_of_columns(columns):
    """Exact rank of {row: Fraction} columns, fed to the kernel as rows
    (rank is symmetric) after clearing each column's denominators."""
    rows = [dict(zip(c[1], c[2])) for c in map(_from_fractions, columns) if c]
    if not rows:
        return 0
    return rank_sparse(rows)


class ColumnEliminator:
    """Column-reduce a matrix once, then answer solves and kernels.

    Every working column is kept together with the combination of input
    columns that produced it, over one shared denominator, so a reduction
    of a target vector to zero yields a solution of A x = b directly.
    budget, if given, is checked every 64 columns of the reduction.
    """

    def __init__(self, matrix, budget=None):
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        # row -> (den, column, combo) with column[row] == den
        self.pivots = {}
        # (den, combo) per kernel vector
        self.null_combos = [(1, {j: 1}) for j in range(matrix.ncols) if j not in matrix.cols]
        for n, j in enumerate(sorted(matrix.cols)):
            if budget is not None and n % 64 == 0:
                budget.check()
            den, rows, nums = matrix.cols[j]
            den, col, combo = self._reduce(den, dict(zip(rows, nums)), {j: den})
            if not col:
                self.null_combos.append((den, combo))
                continue
            # dividing by the pivot value col[r] / den makes col[r] the denominator
            r = min(col)
            if col[r] < 0:
                col = {i: -v for i, v in col.items()}
                combo = {k: -v for k, v in combo.items()}
            g = gcd(*col.values(), *combo.values())
            if g > 1:
                col = {i: v // g for i, v in col.items()}
                combo = {k: v // g for k, v in combo.items()}
            self.pivots[r] = (col[r], col, combo)

    def _reduce(self, den, col, combo):
        """Subtract pivot columns from col until its lowest row has no pivot.

        col / den and combo / den are the working column and its combination
        of input columns; combo receives the same combination of the pivots'
        combinations, so col_in - A combo_in == col_out - A combo_out, each
        over its own denominator.  Returns (den, col, combo).
        """
        pivots = self.pivots
        while col:
            r = min(col)
            hit = pivots.get(r)
            if hit is None:
                break
            pden, pcol, pcombo = hit
            # col/den - (f/den) pcol/pden == (a col - b pcol) / (a den)
            g = gcd(pden, col[r])
            a, b = pden // g, col[r] // g
            if a != 1:
                den *= a
                col = {i: a * v for i, v in col.items()}
                combo = {k: a * v for k, v in combo.items()}
            # b and the pivot entries are nonzero, so a zero sum is a key of col
            for i, v in pcol.items():
                s = col.get(i, 0) - b * v
                if s:
                    col[i] = s
                else:
                    del col[i]
            for k, v in pcombo.items():
                s = combo.get(k, 0) - b * v
                if s:
                    combo[k] = s
                else:
                    del combo[k]
            if a != 1:
                g = gcd(den, *col.values(), *combo.values())
                if g > 1:
                    den //= g
                    col = {i: v // g for i, v in col.items()}
                    combo = {k: v // g for k, v in combo.items()}
        return den, col, combo

    @property
    def rank(self):
        return len(self.pivots)

    def solve_column(self, den, rows, nums):
        """One x with A x = (nums at rows) / den != 0 as a stored column, or
        None if inconsistent.  rows and nums may be any equal-length iterables."""
        # reducing -b to zero leaves combo / den = x, with -b + A x = 0
        den, col, x = self._reduce(den, {i: -v for i, v in zip(rows, nums)}, {})
        return None if col else _normal(den, x)

    def solve(self, b):
        """One x with A x = b, or None if inconsistent."""
        rhs = _from_fractions(b)
        if rhs is None:
            return {}
        x = self.solve_column(*rhs)
        return None if x is None else _to_fractions(*x)

    def nullspace(self):
        """Deterministic basis of {x : A x = 0}, one column per null_combos entry."""
        out = SparseMatrix(self.ncols, len(self.null_combos))
        out.cols = {i: _normal(den, combo) for i, (den, combo) in enumerate(self.null_combos)}
        return out
