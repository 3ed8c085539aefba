"""Exact sparse linear algebra over the rationals.

Matrices are column-major dicts of dicts (only nonzero entries stored),
which matches how operators get applied to sparse vectors.  Ranks go
through the integer elimination kernel after clearing denominators;
kernels and linear solves use a deterministic column eliminator whose
pivot choice is the smallest row index, so all bases it produces are
canonical for a fixed column order.
"""

from fractions import Fraction
from math import lcm

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
    loop of every matrix-vector product.
    """
    for k, v in src.items():
        s = dst.get(k, ZERO) + a * v
        if s:
            dst[k] = s
        elif k in dst:
            del dst[k]


def _clean(col):
    return {i: v for i, v in col.items() if v}


class SparseMatrix:
    """Shape (nrows, ncols); cols[j][i] is the entry in row i, column j."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = {}
        if cols:
            for j, col in cols.items():
                c = _clean(col)
                if c:
                    self.cols[j] = c

    @classmethod
    def identity(cls, n):
        return cls(n, n, {j: {j: Fraction(1)} for j in range(n)})

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(nrows, ncols)

    def entry(self, i, j):
        return self.cols.get(j, {}).get(i, ZERO)

    def set_column(self, j, col):
        c = _clean(col)
        if c:
            self.cols[j] = c
        elif j in self.cols:
            del self.cols[j]

    def column(self, j):
        return dict(self.cols.get(j, {}))

    def nnz(self):
        return sum(len(c) for c in self.cols.values())

    def is_zero(self):
        return not self.cols

    def trace(self):
        return sum((col.get(j, ZERO) for j, col in self.cols.items()), ZERO)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.cols == other.cols

    def apply(self, vec):
        """Matrix-vector product; vec and result are {index: Fraction}."""
        out = {}
        for j, x in vec.items():
            col = self.cols.get(j)
            if col and x:
                axpy(out, col, x)
        return out

    def compose(self, other):
        """self @ other (apply other first)."""
        if other.nrows != self.ncols:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        out = SparseMatrix(self.nrows, other.ncols)
        for j, col in other.cols.items():
            out.set_column(j, self.apply(col))
        return out

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        if self.shape() != other.shape():
            raise ValueError("shape mismatch in add")
        out = SparseMatrix(self.nrows, self.ncols)
        for j in set(self.cols) | set(other.cols):
            col = dict(self.cols.get(j, {}))
            for i, v in other.cols.get(j, {}).items():
                accumulate(col, i, v)
            out.set_column(j, col)
        return out

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def scaled(self, a):
        out = SparseMatrix(self.nrows, self.ncols)
        if a:
            for j, col in self.cols.items():
                out.cols[j] = {i: a * v for i, v in col.items()}
        return out

    def transpose(self):
        out = SparseMatrix(self.ncols, self.nrows)
        for j, col in self.cols.items():
            for i, v in col.items():
                out.cols.setdefault(i, {})[j] = v
        return out

    def stack(self, other):
        """Vertical stack [self; other]; column spaces intersect via kernels."""
        if self.ncols != other.ncols:
            raise ValueError("stack needs equal column counts")
        out = SparseMatrix(self.nrows + other.nrows, self.ncols)
        for j, col in self.cols.items():
            out.cols[j] = dict(col)
        for j, col in other.cols.items():
            dest = out.cols.setdefault(j, {})
            for i, v in col.items():
                dest[i + self.nrows] = v
        return out

    def shape(self):
        return (self.nrows, self.ncols)

    def rank(self):
        return rank_of_columns(self.cols.values())

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def rank_of_columns(columns):
    """Exact rank; feeds columns to the kernel as rows (rank is symmetric)."""
    rows = []
    for col in columns:
        col = _clean(col)
        if not col:
            continue
        mult = lcm(*(v.denominator for v in col.values()))
        rows.append({i: int(v * mult) for i, v in col.items()})
    if not rows:
        return 0
    return rank_sparse(rows, 0)


class ColumnEliminator:
    """Column-reduce a matrix once, then answer solves and kernels.

    Every working column is kept together with the combination of input
    columns that produced it, so a reduction of a target vector to zero
    yields a solution of A x = b directly.
    """

    def __init__(self, matrix):
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        self.pivots = {}  # row -> (column dict, combo dict), entry at row == 1
        self.null_combos = [
            {j: Fraction(1)} for j in range(matrix.ncols) if j not in matrix.cols
        ]
        for j in sorted(matrix.cols):
            col = dict(matrix.cols[j])
            combo = {j: Fraction(1)}
            col, combo = self._reduce(col, combo)
            if col:
                r = min(col)
                inv = 1 / col[r]
                self.pivots[r] = (
                    {i: v * inv for i, v in col.items()},
                    {k: v * inv for k, v in combo.items()},
                )
            else:
                self.null_combos.append(combo)

    def _reduce(self, col, combo):
        """Subtract pivot columns from col until its lowest row has no pivot.

        combo receives the same combination of the pivots' input-column
        combinations, so col_in - A combo_in == col_out - A combo_out.
        """
        while col:
            r = min(col)
            hit = self.pivots.get(r)
            if hit is None:
                break
            a = -col[r]
            axpy(col, hit[0], a)
            axpy(combo, hit[1], a)
        return col, combo

    @property
    def rank(self):
        return len(self.pivots)

    def solve(self, b):
        """One x with A x = b, or None if inconsistent."""
        # reducing -b to zero leaves combo = x, with -b + A x = 0
        col, x = self._reduce({i: -v for i, v in b.items() if v}, {})
        return None if col else x

    def nullspace(self):
        """Deterministic basis of {x : A x = 0} as a list of sparse vectors."""
        return [dict(c) for c in self.null_combos]
