"""Exact sparse linear algebra over the rationals.

Matrices are column-major and store only nonzero entries, which matches
how operators get applied to sparse vectors.  A stored column is a pair
(den, {row: int}): its entries are the integer numerators over one common
denominator den.  Every column is written in normal form (den > 0,
gcd(den, numerators) = 1, no zero numerator), so equal matrices store
equal columns and `==` compares the stored dicts.  Stored columns are
never changed in place, so matrices may share them.

Products, sums, scaling, traces, ranks and eliminations run on Python
ints, and so do `apply_column`, `sum_columns` and `solve_column`, which
take and return stored columns.  `combine(nrows, ncols, terms, budget)`
is the one kernel for sums of products: it forms sum c * (A @ B) over
(c, A, B) terms (B = None for a plain summand A) column by column, as in
Gustavson's sparse product, gathering every term's contribution to a
column and normalizing it once.  `@`, `+` and `-` are single calls of it,
so a sum of products never builds and normalizes the products on their
own.  Every column sum, in the kernel, `apply_column`, `sum_columns`,
`transpose` and `stack`, goes through one accumulate-and-normalize loop.
`column_from_ratios` builds a stored column from (p, q) pairs.
`fractions.Fraction` remains only at the boundary: the constructor and
`set_column` take {row: Fraction} columns, and `column`, `entry`,
`trace`, `apply`, `solve` and `nullspace` give Fractions back.

Ranks go to the integer elimination kernel with the stored numerators as
rows.  Kernels and linear solves use a fraction-free column eliminator: a
working column and the combination of input columns that produced it
share one denominator, and a pivot column is stored scaled so that its
entry at the pivot row equals its denominator.  The pivot is the smallest
row index, so every basis it produces is canonical for a fixed column
order and equals the one Fraction elimination with that rule gives.
"""

from fractions import Fraction
from math import gcd, lcm

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
        return 1, {i: v.numerator for i, v in live.items()}
    return den, {i: v.numerator * (den // v.denominator) for i, v in live.items()}


def column_from_ratios(ratios):
    """The stored column of {row: (p, q)}, each p/q in lowest terms with q > 0.

    Like `_from_fractions`, for callers that never made the Fractions;
    None if the column is zero.
    """
    live = {i: pq for i, pq in ratios.items() if pq[0]}
    if not live:
        return None
    den = lcm(*{q for _, q in live.values()})
    if den == 1:
        return 1, {i: p for i, (p, _) in live.items()}
    return den, {i: p * (den // q) for i, (p, q) in live.items()}


def _to_fractions(den, num):
    return {i: Fraction(v, den) for i, v in num.items()}


def _normal(den, acc):
    """acc / den as a stored column in normal form, or None if it is zero.

    den > 0; acc holds integer numerators and may hold zeros.
    """
    g = gcd(den, *acc.values())
    if g == 1:
        num = {i: v for i, v in acc.items() if v}
    else:
        den //= g
        num = {i: v // g for i, v in acc.items() if v}
    return (den, num) if num else None


def _combine_column(terms):
    """The stored column of sum (p / q) * num over the (p, q, num) terms, q > 0,
    or None if it is zero: one lcm, one accumulation, one normalization.

    This is the one accumulate-and-normalize loop of the matrix code.
    """
    L = lcm(*{q for _, q, _ in terms})
    acc = {}
    get = acc.get
    for p, q, num in terms:
        c = p * (L // q)
        for i, v in num.items():
            acc[i] = get(i, 0) + c * v
    return _normal(L, acc)


def sum_columns(columns):
    """The stored column of a sum of stored columns, or None if it is zero."""
    return _combine_column([(1, den, num) for den, num in columns])


def combine(nrows, ncols, terms, budget=None):
    """The nrows x ncols matrix sum c * (A @ B) over the (c, A, B) terms.

    c is an int; B = None makes A itself a plain summand.  Gustavson's
    column-by-column product over all terms at once: each output column
    gathers every (coefficient, denominator, source column) of every term
    and is accumulated and normalized once.  A column that is one plain
    summand with c = 1 is the stored column itself, shared.  Terms with an
    empty operand or c = 0 contribute nothing, so a product with an empty
    side costs no column walk.  budget, if given, is checked every 64
    result columns.
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
                den, num = hit
                for k, v in num.items():
                    a = acols.get(k)
                    if a is not None:
                        gathered.append((c * v, den * a[0], a[1]))
        if len(gathered) == 1 and shared is not None:
            out_cols[j] = shared
        elif gathered:
            col = _combine_column(gathered)
            if col:
                out_cols[j] = col
    return out


class SparseMatrix:
    """Shape (nrows, ncols); cols[j] = (den, num) holds column j as num / den."""

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
        out.cols = {j: (1, {j: 1}) for j in range(n)}
        return out

    def entry(self, i, j):
        hit = self.cols.get(j)
        if hit is None or i not in hit[1]:
            return ZERO
        return Fraction(hit[1][i], hit[0])

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
        return sum(len(num) for _, num in self.cols.values())

    def is_zero(self):
        return not self.cols

    def trace(self):
        diag = [(num[j], den) for j, (den, num) in self.cols.items() if j in num]
        L = lcm(*(den for _, den in diag))
        return Fraction(sum(v * (L // den) for v, den in diag), L)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.cols == other.cols

    def apply_column(self, den, num):
        """The stored column of self @ (num / den), or None if it is zero."""
        cols = self.cols
        terms = []
        for k, v in num.items():
            hit = cols.get(k)
            if hit is not None:
                terms.append((v, den * hit[0], hit[1]))
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
        # equal normal forms compare as dicts, far faster than they cancel
        if self == other:
            return SparseMatrix(self.nrows, self.ncols)
        return combine(self.nrows, self.ncols, [(1, self, None), (-1, other, None)])

    def scaled(self, a):
        """a * self for an int or Fraction a."""
        out = SparseMatrix(self.nrows, self.ncols)
        if a:
            p, q = a.numerator, a.denominator
            for j, (den, num) in self.cols.items():
                out.cols[j] = _normal(den * q, {i: p * v for i, v in num.items()})
        return out

    def transpose(self):
        out = SparseMatrix(self.ncols, self.nrows)
        rows = {}
        for j, (den, num) in self.cols.items():
            for i, v in num.items():
                rows.setdefault(i, []).append((1, den, {j: v}))
        for i, terms in rows.items():
            out.cols[i] = _combine_column(terms)
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
                den, num = other.cols[j]
                terms.append((1, den, {i + shift: v for i, v in num.items()}))
            out.cols[j] = _combine_column(terms)
        return out

    def shape(self):
        return (self.nrows, self.ncols)

    def rank(self):
        if not self.cols:
            return 0
        return rank_sparse([num for _, num in self.cols.values()])

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def rank_of_columns(columns):
    """Exact rank of {row: Fraction} columns, fed to the kernel as rows
    (rank is symmetric) after clearing each column's denominators."""
    rows = [c[1] for c in map(_from_fractions, columns) if c]
    if not rows:
        return 0
    return rank_sparse(rows)


class ColumnEliminator:
    """Column-reduce a matrix once, then answer solves and kernels.

    Every working column is kept together with the combination of input
    columns that produced it, over one shared denominator, so a reduction
    of a target vector to zero yields a solution of A x = b directly.
    """

    def __init__(self, matrix):
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        # row -> (den, column, combo) with column[row] == den
        self.pivots = {}
        # (den, combo) per kernel vector
        self.null_combos = [(1, {j: 1}) for j in range(matrix.ncols) if j not in matrix.cols]
        for j in sorted(matrix.cols):
            den, num = matrix.cols[j]
            den, col, combo = self._reduce(den, dict(num), {j: den})
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

    def solve_column(self, den, num):
        """One x with A x = num / den != 0 as a stored column, or None if inconsistent."""
        # reducing -b to zero leaves combo / den = x, with -b + A x = 0
        den, col, x = self._reduce(den, {i: -v for i, v in num.items()}, {})
        return None if col else _normal(den, x)

    def solve(self, b):
        """One x with A x = b, or None if inconsistent."""
        rhs = _from_fractions(b)
        if rhs is None:
            return {}
        x = self.solve_column(*rhs)
        return None if x is None else _to_fractions(*x)

    def nullspace(self):
        """Deterministic basis of {x : A x = 0} as a list of sparse vectors."""
        return [_to_fractions(den, combo) for den, combo in self.null_combos]
