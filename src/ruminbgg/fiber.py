"""Exterior algebra of the dual Lie algebra with degree and weight gradings.

Monomials are strictly increasing tuples of dual-basis indices; the weight
of a monomial is the sum of the layers of its factors, and the coboundary
d0 connects only equal weights, so every rank computation is blocked by
(degree, weight).  d0 blocks are built from integer structure constants
over one common denominator.  The boundary delta is the metric adjoint of
d0 taken block by block: with the standard orthonormal inner product it is
the plain transpose of the d0 block, and a general layer-orthogonal inner
product goes through exact Gram matrices of the two blocks.

Ranks use Poincaré duality.  With n = dim and Q the homogeneous
dimension, xi^I ^ xi^{I^c} = +-vol pairs block (k, w) with block
(n-k, Q-w).  The bracket respects the grading (checked once over the
structure constants), so d0 keeps the weight and kills every (n-1)-form:
its weights are below Q.  The odd derivation rule then gives
d0 a ^ b = -(-1)^k a ^ d0 b for a of degree k, and the d0 block (k, w) is
the signed transpose of the d0 block (n-1-k, Q-w) under the
complement-monomial bijection; the inner product plays no part.  Each such
pair has one rank, computed once on its lower-degree side.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .algebra import homogeneous_dimension
from .errors import StructureError
from .linalg import ColumnEliminator, SparseMatrix, _normal, accumulate, axpy, combine
from .scalars import ZERO


def sort_with_sign(indices):
    """Sorted tuple and permutation sign; None for a repeated index."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
            elif seq[j] == seq[j + 1]:
                return None, 0
    return tuple(seq), sign


def monomial_weight(algebra, mono):
    return sum(algebra.layer_of(i) for i in mono)


class FiberForm:
    """Exact element of the exterior algebra of the dual Lie algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(mono)] = Fraction(c)

    @classmethod
    def monomial(cls, algebra, indices, coeff=1):
        mono, sign = sort_with_sign(indices)
        if mono is None:
            return cls(algebra)
        return cls(algebra, {mono: Fraction(coeff) * sign})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            accumulate(out, mono, c)
        return FiberForm(self.algebra, out)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def scaled(self, a):
        a = Fraction(a)
        return FiberForm(self.algebra, {m: a * c for m, c in self.terms.items()})

    def wedge(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, sign = sort_with_sign(m1 + m2)
                if mono is None:
                    continue
                accumulate(out, mono, sign * c1 * c2)
        return FiberForm(self.algebra, out)

    def __repr__(self):
        return f"FiberForm({self.terms})"


class FilteredOperator:
    """Sparse exact map between monomial bases with filtration bookkeeping.

    mapping[src][dst] is the coefficient of dst in the image of src; every
    entry must shift degree by exactly `degree_shift` and weight by at
    least `min_weight_shift`.
    """

    def __init__(self, algebra, mapping, degree_shift, min_weight_shift):
        self.algebra = algebra
        self.mapping = mapping
        self.degree_shift = degree_shift
        self.min_weight_shift = min_weight_shift

    def apply(self, form):
        out = {}
        for mono, c in form.terms.items():
            axpy(out, self.mapping.get(mono, {}), c)
        return FiberForm(form.algebra, out)

    def check_filtration(self):
        """Exact per-entry check of the declared shifts; raises on failure."""
        alg = self.algebra
        for src, image in self.mapping.items():
            for dst in image:
                if len(dst) - len(src) != self.degree_shift:
                    raise StructureError(
                        f"degree shift violated on {src} -> {dst}"
                    )
                if monomial_weight(alg, dst) - monomial_weight(alg, src) < self.min_weight_shift:
                    raise StructureError(
                        f"weight shift violated on {src} -> {dst}"
                    )
        return True


class BggTable:
    """Bigraded ranks of ker delta / im delta, one row per nonempty block."""

    def __init__(self, algebra, rows):
        self.algebra = algebra
        self.rows = [(k, w, r) for (k, w, r) in rows]

    def by_degree(self):
        out = {}
        for k, w, r in self.rows:
            out.setdefault(k, []).append((w, r))
        return out

    def degree_total(self, k):
        return sum(r for kk, _, r in self.rows if kk == k)

    def to_json(self):
        return [
            {"degree": k, "weight": w, "rank": r} for k, w, r in self.rows
        ]


class FiberContext:
    """Per-algebra cache of monomial bases, blocks, d0/delta and Hodge data."""

    def __init__(self, algebra, budget=None):
        self.algebra = algebra
        self.budget = budget
        self._mons = {}
        self._blocks = {}
        self._block_index = {}
        self._d0 = None
        self._delta = None
        self._pairs_by_target = None
        self._homogeneous_dim = homogeneous_dimension(algebra)
        self._rank_cache = {}
        self._harmonic = {}
        self._imdelta_solver = {}
        self._kerdelta_solver = {}
        self._harmonic_coordinates = {}
        self._gram_inv = None

    # -- bases ------------------------------------------------------------

    def mons(self, k):
        if k < 0 or k > self.algebra.dim:
            return []
        if k not in self._mons:
            ms = list(itertools.combinations(range(self.algebra.dim), k))
            if self.budget is not None:
                self.budget.count_monomials(len(ms))
            self._mons[k] = ms
        return self._mons[k]

    def blocks(self, k):
        """Weight decomposition of degree k: {w: [monomials]} in lex order."""
        if k not in self._blocks:
            by_w = {}
            for m in self.mons(k):
                by_w.setdefault(monomial_weight(self.algebra, m), []).append(m)
            self._blocks[k] = dict(sorted(by_w.items()))
        return self._blocks[k]

    def block(self, k, w):
        return self.blocks(k).get(w, [])

    def block_index(self, k, w):
        """{monomial: position in block(k, w)}, built once; callers must not change it."""
        key = (k, w)
        index = self._block_index.get(key)
        if index is None:
            index = {m: i for i, m in enumerate(self.block(k, w))}
            self._block_index[key] = index
        return index

    # -- structure maps ----------------------------------------------------

    def _target_pairs(self):
        """(den, {index k: [(a, b, n, -n)]}, off) with a < b and c^k_{ab} = n / den.

        den is the lcm of the structure constants' denominators, so every
        n is an int; den is 1 for every built-in model.  off is None when
        every constant has layer(a) + layer(b) = layer(k), and otherwise the
        StructureError message of the first that does not: d0 takes xi^k
        out of its weight block there.  `d0_block` raises it, so every
        block fails on such an algebra, whichever side of a dual pair
        `rank_d0_block` builds; the per-monomial d0 stays defined for the
        calculus checks.
        """
        if self._pairs_by_target is None:
            alg = self.algebra
            bracket = alg.bracket
            den = lcm(*(c.denominator for terms in bracket.values() for c in terms.values()))
            table = {}
            off = None
            for (a, b), terms in bracket.items():
                if a < b:
                    for k, c in terms.items():
                        if off is None and alg.layer_of(a) + alg.layer_of(b) != alg.layer_of(k):
                            off = f"d0 left weight block at {(k,)} -> {(a, b)}"
                        n = c.numerator * (den // c.denominator)
                        table.setdefault(k, []).append((a, b, n, -n))
            for k in table:
                table[k].sort()
            self._pairs_by_target = den, table, off
        return self._pairs_by_target

    def _d0_numerators(self, mono):
        """Coboundary of one monomial as {monomial: int} over the den of
        `_target_pairs`, with no zero entry.

        d0 xi^k = -sum_{a<b} c^k_{ab} xi^a xi^b extended as an odd
        derivation; the minus sign makes d0^2 = 0 equivalent to Jacobi.
        Replacing the factor at position pos by xi^a xi^b gives the sign
        (-1)^pos; `rest` (the monomial without that factor) is sorted and
        a < b, so a and b insert at ia = #{r in rest: r < a} and
        ib = #{r in rest: r < b}, which sorts xi^a xi^b rest with the sign
        (-1)^(ia + ib).  The term is -c^k_{ab} (-1)^(pos + ia + ib), and
        it vanishes when a or b already occurs in rest.
        """
        pairs = self._target_pairs()[1]
        out = {}
        for pos, idx in enumerate(mono):
            hits = pairs.get(idx)
            if not hits:
                continue
            rest = mono[:pos] + mono[pos + 1 :]
            n = len(rest)
            for a, b, c, neg_c in hits:
                ia = bisect_left(rest, a)
                if ia < n and rest[ia] == a:
                    continue
                ib = bisect_left(rest, b, ia)
                if ib < n and rest[ib] == b:
                    continue
                merged = rest[:ia] + (a,) + rest[ia:ib] + (b,) + rest[ib:]
                # c != 0, so a zero sum is a key of out
                s = out.get(merged, 0) + (c if (pos + ia + ib) & 1 else neg_c)
                if s:
                    out[merged] = s
                else:
                    del out[merged]
        return out

    def d0_of_monomial(self, mono):
        """Coboundary of one monomial as {monomial: Fraction}."""
        den = self._target_pairs()[0]
        return {m: Fraction(v, den) for m, v in self._d0_numerators(mono).items()}

    def d0_map(self):
        """Full {monomial: {monomial: coeff}} table over the exterior algebra."""
        if self._d0 is None:
            table = {}
            for k in range(self.algebra.dim + 1):
                for m in self.mons(k):
                    img = self.d0_of_monomial(m)
                    if img:
                        table[m] = img
            self._d0 = table
        return self._d0

    def delta_map(self):
        """Full {monomial: {monomial: coeff}} table of delta, read off delta_block."""
        if self._delta is None:
            table = {}
            for k in range(1, self.algebra.dim + 1):
                for w, src in self.blocks(k).items():
                    dst = self.block(k - 1, w)
                    for j, (den, num) in self.delta_block(k, w).cols.items():
                        table[src[j]] = {dst[i]: Fraction(v, den) for i, v in sorted(num.items())}
            self._delta = table
        return self._delta

    def _gram_inverse(self):
        """Inner product on the dual basis: inverse of the algebra's matrix."""
        if self._gram_inv is None:
            n = self.algebra.dim
            ident = SparseMatrix.identity(n)
            cols = {
                j: {i: self.algebra.inner_product[i][j] for i in range(n)}
                for j in range(n)
            }
            elim = ColumnEliminator(SparseMatrix(n, n, cols))
            inv = []
            for j in range(n):
                x = elim.solve(ident.column(j))
                if x is None:
                    raise StructureError("inner product is singular")
                inv.append([x.get(i, ZERO) for i in range(n)])
            # column j of inverse solved above gives row-major transpose;
            # the matrix is symmetric so orientation does not matter
            self._gram_inv = inv
        return self._gram_inv

    def _gram_block(self, k, w):
        """Gram matrix of the (k, w) monomial block, entries det(G*[I,J])."""
        gstar = self._gram_inverse()
        monos = self.block(k, w)
        cols = {}
        for j, mj in enumerate(monos):
            col = {}
            for i, mi in enumerate(monos):
                val = _det([[gstar[a][b] for b in mj] for a in mi])
                if val:
                    col[i] = val
            cols[j] = col
        return SparseMatrix(len(monos), len(monos), cols)

    def delta_of_monomial(self, mono):
        """delta of one monomial as {monomial: coefficient}, cached; callers must not change it."""
        return self.delta_map().get(mono, {})

    # -- positional blocks and ranks ----------------------------------------

    def d0_block(self, k, w):
        """Matrix of d0 from block (k, w) to block (k+1, w), built from the
        integer numerators, one normal-form pass per column.  Raises
        StructureError if the bracket does not respect the grading."""
        den, _, off = self._target_pairs()
        if off is not None:
            raise StructureError(off)
        src = self.block(k, w)
        index = self.block_index(k + 1, w)
        out = SparseMatrix(len(index), len(src))
        for j, m in enumerate(src):
            # the bracket respects the grading, so d0 keeps the weight
            col = {index[mono]: v for mono, v in self._d0_numerators(m).items()}
            if col:
                out.cols[j] = _normal(den, col)
        return out

    def delta_block(self, k, w):
        """Matrix of delta from block (k, w) to block (k-1, w): the adjoint of
        d0_block(k-1, w), the plain transpose for the standard inner product
        and Gram_{k-1}^{-1} d0^T Gram_k otherwise, solved per column.  This
        is the one construction of delta; it is rebuilt on each call."""
        dt = self.d0_block(k - 1, w).transpose()
        if self.algebra.inner_product_is_standard():
            return dt
        gram_lo = ColumnEliminator(self._gram_block(k - 1, w))
        out = SparseMatrix(dt.nrows, dt.ncols)
        for j, col in (dt @ self._gram_block(k, w)).cols.items():
            x = gram_lo.solve_column(*col)
            if x is None:
                raise StructureError("Gram solve failed; inner product degenerate")
            out.cols[j] = x
        return out

    def rank_d0_block(self, k, w):
        """Rank of d0_block(k, w), cached once per Poincaré-dual pair.

        Under the wedge pairing of block (k, w) with block (n-k, Q-w), Q the
        homogeneous dimension, the block is the signed transpose of
        d0_block(n-1-k, Q-w) (see the module docstring).  That needs d0 to
        keep the weight, which `d0_block` checks.  Both blocks share the key
        min((k, w), (n-1-k, Q-w)): the lower-degree side is the one built
        and ranked, and the smaller weight for the self-dual middle degree.
        """
        key = min((k, w), (self.algebra.dim - 1 - k, self._homogeneous_dim - w))
        rank = self._rank_cache.get(key)
        if rank is None:
            if self.budget is not None:
                self.budget.check()
            rank = self._rank_cache[key] = self.d0_block(*key).rank()
        return rank

    def rank_d0_degree(self, k):
        return sum(self.rank_d0_block(k, w) for w in self.blocks(k))

    # -- Hodge data per block ------------------------------------------------

    def harmonic_basis(self, k, w):
        """Canonical basis of ker d0 ∩ ker delta in block (k, w)."""
        key = (k, w)
        if key not in self._harmonic:
            monos = self.block(k, w)
            stacked = self.d0_block(k, w).stack(self.delta_block(k, w))
            basis = ColumnEliminator(stacked).nullspace()
            self._harmonic[key] = [
                {monos[i]: v for i, v in vec.items()} for vec in basis
            ]
        return self._harmonic[key]

    def laplacian_block(self, k, w):
        d_lo = self.d0_block(k - 1, w)
        delta_k = self.delta_block(k, w)
        d_k = self.d0_block(k, w)
        delta_hi = self.delta_block(k + 1, w)
        n = d_k.ncols
        return combine(n, n, [(1, d_lo, delta_k), (1, delta_hi, d_k)])

    def imdelta_solver(self, k, w):
        """Eliminator of L0 @ delta-block; solves L0 u = v inside im delta."""
        key = (k, w)
        if key not in self._imdelta_solver:
            lap = self.laplacian_block(k, w)
            dblock = self.delta_block(k + 1, w)
            self._imdelta_solver[key] = (ColumnEliminator(lap @ dblock), dblock)
        return self._imdelta_solver[key]

    def l0_inverse_column(self, k, w, den, num):
        """The stored column u in im delta with L0 u = num / den != 0 in block
        (k, w), or None if num / den is not in L0(im delta)."""
        elim, dblock = self.imdelta_solver(k, w)
        x = elim.solve_column(den, num)
        # x != 0 solves (L0 delta0) x = num / den != 0, so delta0 x != 0
        return None if x is None else dblock.apply_column(*x)

    def harmonic_block(self, k, w):
        """Matrix whose column j is harmonic_basis(k, w)[j], positional in the block."""
        index = self.block_index(k, w)
        harm = self.harmonic_basis(k, w)
        cols = {j: {index[m]: v for m, v in vec.items()} for j, vec in enumerate(harm)}
        return SparseMatrix(len(index), len(harm), cols)

    def kerdelta_solver(self, k, w):
        """Eliminator of [harmonic basis | delta-block]: a solve on ker delta0
        gives the harmonic coordinates first, as `harmonic_coordinate_block`
        does in one product."""
        key = (k, w)
        if key not in self._kerdelta_solver:
            harm = self.harmonic_block(k, w)
            dblock = self.delta_block(k + 1, w)
            matrix = SparseMatrix(harm.nrows, harm.ncols + dblock.ncols)
            matrix.cols = {**harm.cols, **{harm.ncols + j: c for j, c in dblock.cols.items()}}
            self._kerdelta_solver[key] = (ColumnEliminator(matrix), harm.ncols)
        return self._kerdelta_solver[key]

    def harmonic_coordinate_block(self, k, w):
        """The nharm x n matrix X = (H^T G H)^{-1} H^T G of block (k, w), cached;
        H = harmonic_block(k, w) and G is the block's Gram matrix (1 for the
        standard inner product).

        On ker delta0 = H + im delta0, X v is the harmonic coordinate vector
        of v, as the ker-delta solve gives it: X H = 1, and H^T G delta0 = 0
        since delta0 is the G-adjoint of d0 and d0 H = 0.  Off ker delta0, X v
        means nothing, so callers check delta0 v = 0 first.
        """
        key = (k, w)
        if key not in self._harmonic_coordinates:
            harm = self.harmonic_block(k, w)
            ht = harm.transpose()
            if not self.algebra.inner_product_is_standard():
                ht = ht @ self._gram_block(k, w)
            # H^T G H is the Gram matrix of the harmonic basis, so invertible
            elim = ColumnEliminator(ht @ harm)
            out = SparseMatrix(harm.ncols, harm.nrows)
            out.cols = {j: elim.solve_column(*col) for j, col in ht.cols.items()}
            self._harmonic_coordinates[key] = out
        return self._harmonic_coordinates[key]


def _det(rows):
    """Dense exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def d0(algebra, context=None):
    """Chevalley-Eilenberg coboundary as a FilteredOperator (degree +1)."""
    ctx = context or FiberContext(algebra)
    return FilteredOperator(algebra, ctx.d0_map(), degree_shift=1, min_weight_shift=0)


def delta(algebra, context=None):
    """Metric adjoint of d0 as a FilteredOperator (degree -1)."""
    ctx = context or FiberContext(algebra)
    return FilteredOperator(algebra, ctx.delta_map(), degree_shift=-1, min_weight_shift=0)


def cohomology_ranks(algebra, budget=None, context=None):
    """Betti numbers b_k = dim - rank(d0|k) - rank(d0|k-1), exact."""
    ctx = context or FiberContext(algebra, budget)
    dim = algebra.dim
    ranks = [ctx.rank_d0_degree(k) for k in range(dim + 1)]
    betti = []
    for k in range(dim + 1):
        b = len(ctx.mons(k)) - ranks[k] - (ranks[k - 1] if k > 0 else 0)
        betti.append(b)
    return betti


def bgg_fiber(algebra, budget=None, context=None):
    """Bigraded ranks of ker delta / im delta per (degree, weight) block."""
    ctx = context or FiberContext(algebra, budget)
    rows = []
    for k in range(algebra.dim + 1):
        for w, monos in ctx.blocks(k).items():
            r = len(monos) - ctx.rank_d0_block(k, w)
            if k > 0 and ctx.block(k - 1, w):
                r -= ctx.rank_d0_block(k - 1, w)
            if r:
                rows.append((k, w, r))
    return BggTable(algebra, rows)


def fiber_inner(context, alpha, beta):
    """Inner product of fiber forms under the algebra's inner product."""
    alg = context.algebra
    if alg.inner_product_is_standard():
        total = Fraction(0)
        for mono, c in alpha.terms.items():
            total += c * beta.terms.get(mono, ZERO)
        return total
    total = Fraction(0)
    by_block = {}
    for mono, c in alpha.terms.items():
        key = (len(mono), monomial_weight(alg, mono))
        by_block.setdefault(key, {})[mono] = c
    for (k, w), aterms in by_block.items():
        index = context.block_index(k, w)
        gram = context._gram_block(k, w)
        avec = {index[m]: c for m, c in aterms.items()}
        gv = gram.apply(avec)
        for mono, c in beta.terms.items():
            if len(mono) == k and monomial_weight(alg, mono) == w:
                total += c * gv.get(index[mono], ZERO)
    return total
