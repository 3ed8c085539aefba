"""Exterior algebra of the dual Lie algebra with degree and weight gradings.

Monomials are strictly increasing tuples of dual-basis indices; the weight
of a monomial is the sum of the layers of its factors, and the coboundary
d0 connects only equal weights, so every rank computation is blocked by
(degree, weight).  d0 blocks are built from integer structure constants
over one common denominator.  d0 and its metric adjoint delta are held
once per degree, and each (degree, weight) block is a slice of them; delta
is d0^T for the standard orthonormal inner product.  A layer-orthogonal
inner product G gives the Gram matrix of degree k as the exterior power
Lambda^k G* of the dual inner product G* = G^{-1}, and its inverse as
Lambda^k G, since Lambda^k is multiplicative.  Both keep the weight and
are built once per degree from the wedge matrices, with no determinant.

Ranks use Poincaré duality.  With n = dim and Q the homogeneous
dimension, xi^I ^ xi^{I^c} = +-vol pairs block (k, w) with block
(n-k, Q-w).  The bracket respects the grading (checked once over the
structure constants), so d0 keeps the weight and kills every (n-1)-form:
its weights are below Q.  The odd derivation rule then gives
d0 a ^ b = -(-1)^k a ^ d0 b for a of degree k, and the d0 block (k, w) is
the signed transpose of the d0 block (n-1-k, Q-w) under the
complement-monomial bijection; the inner product plays no part.  Each such
pair has one rank, computed once on its lower-degree side.  The kernel
ranks a block one connected component at a time, checking the budget
before each, so a large block such as octonionic's self-dual (7, 11),
which splits into 8 components, holds the fill of only one of them.

The context also holds the coframe side of the flat-model calculus as
whole-degree matrices over `mons` positions, each built once: the wedge
epsilon_a with xi^a, the interior product i_a = epsilon_a^T, d0 on a whole
degree (defined also where the bracket does not respect the grading), and
C_a = -sum_{b, c} c^c_{ab} epsilon_b i_c, minus the coadjoint action of a
layer-1 frame vector.  The wedges are held once i_a or C_a asks for them;
d and the Gram matrices read them once per degree through `wedges_once`,
so a context that serves only those holds none.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import lcm

from . import _kernel
from .algebra import homogeneous_dimension
from .errors import StructureError
from .linalg import ColumnEliminator, SparseMatrix, _normal, accumulate, axpy, combine, sum_columns
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
    return sum(map(algebra.basis_layers.__getitem__, mono))


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
        if not isinstance(other, FiberForm):
            return NotImplemented
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
    """Per-algebra cache of monomial bases, blocks, d0/delta, Hodge data and
    the whole-degree coframe matrices."""

    def __init__(self, algebra, budget=None):
        self.algebra = algebra
        self.budget = budget
        self._mons = {}
        self._mons_index = {}
        self._blocks = {}
        self._block_positions = {}
        self._block_index = {}
        self._d0 = None
        self._delta = None
        self._pairs_by_target = None
        # the lcm of the structure constants' denominators, so that den times
        # each of them is an int; 1 for every built-in model
        self.den = lcm(*(c.denominator for cs in algebra.bracket.values() for c in cs.values()))
        self._wedges = {}
        self._interiors = {}
        self._d0_matrix = {}
        self._delta_matrix = {}
        self._coadjoint = {}
        self._homogeneous_dim = homogeneous_dimension(algebra)
        self._rank_cache = {}
        self._harmonic = {}
        self._imdelta_solver = {}
        self._kerdelta_solver = {}
        self._harmonic_coordinates = {}
        self._gram_inv = None
        self._powers = {}

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

    def mons_index(self, k):
        """{monomial: position in mons(k)}, built once; callers must not change it."""
        if k not in self._mons_index:
            self._mons_index[k] = {m: i for i, m in enumerate(self.mons(k))}
        return self._mons_index[k]

    def blocks(self, k):
        """Weight decomposition of degree k: {w: [monomials]} in lex order."""
        if k not in self._blocks:
            by_w = {}
            layer = self.algebra.basis_layers.__getitem__
            for m in self.mons(k):
                by_w.setdefault(sum(map(layer, m)), []).append(m)
            self._blocks[k] = dict(sorted(by_w.items()))
        return self._blocks[k]

    def block_positions(self, k):
        """(positions, where) of degree k, built once apart from `blocks(k)`, which
        the rank paths read alone; callers must not change them.  positions[w][i]
        is the `mons(k)` position f of block(k, w)[i], and where[f] = (w, i)."""
        if k not in self._block_positions:
            positions, where = {}, []
            layer = self.algebra.basis_layers.__getitem__
            for f, m in enumerate(self.mons(k)):
                w = sum(map(layer, m))
                where.append((w, len(positions.setdefault(w, []))))
                positions[w].append(f)
            self._block_positions[k] = (dict(sorted(positions.items())), where)
        return self._block_positions[k]

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
        """({index k: [(a, b, n, -n)]}, off) with a < b and c^k_{ab} = n / `den`.

        off is None when every constant has layer(a) + layer(b) = layer(k),
        and otherwise the StructureError message of the first that does not:
        d0 takes xi^k out of its weight block there.  `_d0_columns` raises
        it, as do `d0_block` and `delta_matrix`, so every block fails on such
        an algebra, whichever side of a dual pair `rank_d0_block` builds; the
        per-monomial d0 and `d0_matrix` stay defined for the calculus checks.
        """
        if self._pairs_by_target is None:
            alg = self.algebra
            den = self.den
            table = {}
            off = None
            for (a, b), terms in alg.bracket.items():
                if a < b:
                    for k, c in terms.items():
                        if off is None and alg.layer_of(a) + alg.layer_of(b) != alg.layer_of(k):
                            off = f"d0 left weight block at {(k,)} -> {(a, b)}"
                        n = c.numerator * (den // c.denominator)
                        table.setdefault(k, []).append((a, b, n, -n))
            for k in table:
                table[k].sort()
            self._pairs_by_target = table, off
        return self._pairs_by_target

    def _d0_numerators(self, mono):
        """Coboundary of one monomial as {monomial: int} over `den`, with no
        zero entry.

        d0 xi^k = -sum_{a<b} c^k_{ab} xi^a xi^b extended as an odd
        derivation; the minus sign makes d0^2 = 0 equivalent to Jacobi.
        Replacing the factor at position pos by xi^a xi^b gives the sign
        (-1)^pos; `rest` (the monomial without that factor) is sorted and
        a < b, so a and b insert at ia = #{r in rest: r < a} and
        ib = #{r in rest: r < b}, which sorts xi^a xi^b rest with the sign
        (-1)^(ia + ib).  The term is -c^k_{ab} (-1)^(pos + ia + ib), and
        it vanishes when a or b already occurs in rest.
        """
        pairs = self._target_pairs()[0]
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
        den = self.den
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
        """Full {monomial: {monomial: coeff}} table of delta, read off delta_matrix."""
        if self._delta is None:
            table = {}
            for k in range(1, self.algebra.dim + 1):
                src, dst = self.mons(k), self.mons(k - 1)
                for j, (den, rows, nums) in self.delta_matrix(k).cols.items():
                    table[src[j]] = {dst[i]: Fraction(v, den) for i, v in sorted(zip(rows, nums))}
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

    def exterior_power(self, k, dual):
        """Lambda^k A over `mons(k)` positions, entry (I, J) = det A[I, J],
        built once; callers must not change it.  A is the dual inner product
        G* (`_gram_inverse`) if dual, so that Lambda^k G* is the Gram matrix
        of degree k, and the algebra's G otherwise: Lambda^k is multiplicative,
        so Lambda^k G is the inverse of that Gram matrix.

        Column (b, *J) is A xi^b ^ (Lambda^{k-1} A) xi^J, so Lambda^k A =
        sum_{a, b} A[a][b] epsilon_a F_b, F_b holding column J of
        Lambda^{k-1} A at each (b, *J): one `combine` over the ints
        L A[a][b], L the lcm of A's denominators, divided by L once.
        """
        key = (k, dual)
        if key in self._powers:
            return self._powers[key]
        if k <= 0:
            # Lambda^0 A = 1, and no form has a negative degree
            out = SparseMatrix.identity(len(self.mons(k)))
        else:
            a_mat = self._gram_inverse() if dual else self.algebra.inner_product
            lower, index = self.exterior_power(k - 1, dual), self.mons_index(k - 1)
            n = len(self.mons(k))
            shifted = [SparseMatrix(len(index), n) for _ in range(self.algebra.dim)]
            for i, mono in enumerate(self.mons(k)):
                shifted[mono[0]].cols[i] = lower.cols[index[mono[1:]]]
            L = lcm(*(v.denominator for row in a_mat for v in row))
            wedges = self.wedges_once(k - 1)
            out = combine(n, n, [
                (v.numerator * (L // v.denominator), wedges[a], shifted[b])
                for a, row in enumerate(a_mat) for b, v in enumerate(row) if v
            ], self.budget)
            if L > 1:
                out.cols = {j: sum_columns([(d * L, *col)]) for j, (d, *col) in out.cols.items()}
        self._powers[key] = out
        return out

    def _block_slice(self, matrix, k, w, row_degree):
        """Block w of a weight-keeping matrix from degree k to row_degree over
        `mons` positions: block column j is column positions[w][j], row f is where[f][1]."""
        cols = self.block_positions(k)[0].get(w, ())
        rows, where = self.block_positions(row_degree)
        out = SparseMatrix(len(rows.get(w, ())), len(cols))
        for j, f in enumerate(cols):
            hit = matrix.cols.get(f)
            if hit:
                out.cols[j] = (hit[0], tuple([where[i][1] for i in hit[1]]), hit[2])
        return out

    def delta_of_monomial(self, mono):
        """delta of one monomial as {monomial: coefficient}, cached; callers must not change it."""
        return self.delta_map().get(mono, {})

    # -- whole-degree coframe matrices, over `mons` positions ----------------

    def wedge_matrices(self, k):
        """[epsilon_a for each frame index a], epsilon_a the wedge with xi^a
        from degree k to k + 1, built once; callers must not change them."""
        if k not in self._wedges:
            self._wedges[k] = self._build_wedges(k)
        return self._wedges[k]

    def wedges_once(self, k):
        """`wedge_matrices(k)` if they are held; otherwise a copy for this
        call only, so that a caller that reads them once per degree (d, the
        Gram matrices) leaves none held.  Callers must not change them."""
        return self._wedges.get(k) or self._build_wedges(k)

    def _build_wedges(self, k):
        """`wedge_matrices(k)` built afresh: xi^a moves past the p factors of
        I below a, so the entry is (-1)^p."""
        index = self.mons_index(k + 1)
        mons = self.mons(k)
        out = [SparseMatrix(len(index), len(mons)) for _ in range(self.algebra.dim)]
        for j, mono in enumerate(mons):
            p = 0
            for a in range(self.algebra.dim):
                if p < len(mono) and mono[p] == a:
                    p += 1
                else:
                    i = index[mono[:p] + (a,) + mono[p:]]
                    out[a].cols[j] = (1, (i,), (-1 if p & 1 else 1,))
        return out

    def interior_matrices(self, k):
        """[i_a for each frame index a], the contraction with the dual frame
        vector from degree k to k - 1, built once as the transposes of
        `wedge_matrices(k - 1)`; callers must not change them."""
        if k not in self._interiors:
            self._interiors[k] = [m.transpose() for m in self.wedge_matrices(k - 1)]
        return self._interiors[k]

    def d0_matrix(self, k):
        """d0 from degree k to k + 1 over the `_d0_numerators`, in normal form,
        built once; callers must not change it.  Unlike `d0_block` it is
        defined when the bracket does not respect the grading."""
        if k not in self._d0_matrix:
            index = self.mons_index(k + 1)
            mons = self.mons(k)
            out = SparseMatrix(len(index), len(mons))
            for j, mono in enumerate(mons):
                col = _normal(self.den, {index[m]: v for m, v in self._d0_numerators(mono).items()})
                if col:
                    out.cols[j] = col
            self._d0_matrix[k] = out
        return self._d0_matrix[k]

    def delta_matrix(self, k):
        """delta0 from degree k to k - 1, built once; callers must not change
        it.  The one construction of delta0, the adjoint of d0_matrix(k - 1):
        d0^T, or Lambda^{k-1} G d0^T Lambda^k G* for a non-standard inner
        product, each product checking the budget every 64 columns.  Raises
        StructureError if the bracket leaves the grading."""
        if k not in self._delta_matrix:
            self._check_grading()
            out = self.d0_matrix(k - 1).transpose()
            if not self.algebra.inner_product_is_standard():
                n, m = out.shape()
                out = combine(n, m, [(1, out, self.exterior_power(k, True))], self.budget)
                out = combine(n, m, [(1, self.exterior_power(k - 1, False), out)], self.budget)
            self._delta_matrix[k] = out
        return self._delta_matrix[k]

    def coadjoint_matrix(self, a, k):
        """C_a on degree k, built once; callers must not change it.

        C_a is minus the coadjoint action of layer-1 frame index a, the
        degree-0 derivation xi^c -> -sum_b c^c_{ab} xi^b, so
        C_a = -sum_{b, c} c^c_{ab} epsilon_b i_c, one `combine` over the
        int constants den * c^c_{ab} and then divided by den.  It is zero
        for a frame index outside layer 1.
        """
        key = (a, k)
        if key not in self._coadjoint:
            n = len(self.mons(k))
            den = self.den
            terms = []
            if self.algebra.layer_of(a) == 1:
                wedges, interiors = self.wedge_matrices(k - 1), self.interior_matrices(k)
                for (aa, b), bracket in self.algebra.bracket.items():
                    if aa == a:
                        for c, coeff in bracket.items():
                            n_abc = coeff.numerator * (den // coeff.denominator)
                            terms.append((-n_abc, wedges[b], interiors[c]))
            out = combine(n, n, terms)
            if den > 1:
                out.cols = {j: sum_columns([(d * den, *col)]) for j, (d, *col) in out.cols.items()}
            self._coadjoint[key] = out
        return self._coadjoint[key]

    # -- positional blocks and ranks ----------------------------------------

    def _check_grading(self):
        off = self._target_pairs()[1]
        if off is not None:
            raise StructureError(off)

    def _d0_columns(self, k, w):
        """Column j of d0 from block (k, w) to block (k+1, w) as a {row: int}
        dict of numerators over `den`, empty for a closed monomial.  Raises
        StructureError if the bracket does not respect the grading."""
        self._check_grading()
        index = self.block_index(k + 1, w)
        # the bracket respects the grading, so d0 keeps the weight
        return [
            {index[mono]: v for mono, v in self._d0_numerators(m).items()}
            for m in self.block(k, w)
        ]

    def d0_block(self, k, w):
        """Matrix of d0 from block (k, w) to block (k+1, w), a slice of
        d0_matrix(k).  Raises StructureError if the bracket leaves the grading."""
        self._check_grading()
        return self._block_slice(self.d0_matrix(k), k, w, k + 1)

    def delta_block(self, k, w):
        """Matrix of delta from block (k, w) to block (k-1, w), a slice of
        delta_matrix(k): the adjoint of d0_block(k-1, w)."""
        return self._block_slice(self.delta_matrix(k), k, w, k - 1)

    def rank_d0_block(self, k, w):
        """Rank of d0_block(k, w), cached once per Poincaré-dual pair.

        Under the wedge pairing of block (k, w) with block (n-k, Q-w), Q the
        homogeneous dimension, the block is the signed transpose of
        d0_block(n-1-k, Q-w) (see the module docstring).  That needs d0 to
        keep the weight, which `_d0_columns` checks.  Both blocks share the
        key min((k, w), (n-1-k, Q-w)): the lower-degree side is the one built
        and ranked, and the smaller weight for the self-dual middle degree.
        The kernel ranks the numerator dicts as they are built (rank is
        symmetric, and the common denominator does not change it), so no
        normal-form matrix is made.
        """
        key = min((k, w), (self.algebra.dim - 1 - k, self._homogeneous_dim - w))
        rank = self._rank_cache.get(key)
        if rank is None:
            if self.budget is not None:
                self.budget.check()
            columns = [col for col in self._d0_columns(*key) if col]
            rank = self._rank_cache[key] = (
                _kernel.rank_sparse(columns, self.budget) if columns else 0
            )
        return rank

    def rank_d0_degree(self, k):
        return sum(self.rank_d0_block(k, w) for w in self.blocks(k))

    # -- Hodge data per block ------------------------------------------------

    def harmonic_basis(self, k, w):
        """Canonical basis of ker d0 ∩ ker delta in block (k, w), a column per vector, cached."""
        key = (k, w)
        if key not in self._harmonic:
            stacked = self.d0_block(k, w).stack(self.delta_block(k, w))
            self._harmonic[key] = ColumnEliminator(stacked, self.budget).nullspace()
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
            dblock = self.delta_block(k + 1, w)
            # L0 delta0 = d0 delta0 delta0 + delta0 d0 delta0, whose first term is 0
            matrix = dblock @ (self.d0_block(k, w) @ dblock)
            self._imdelta_solver[key] = (ColumnEliminator(matrix, self.budget), dblock)
        return self._imdelta_solver[key]

    def l0_inverse_column(self, k, w, den, rows, nums):
        """The stored column u in im delta with L0 u = v != 0 in block (k, w),
        v = (nums at rows) / den, or None if v is not in L0(im delta)."""
        elim, dblock = self.imdelta_solver(k, w)
        x = elim.solve_column(den, rows, nums)
        # x != 0 solves (L0 delta0) x = v != 0, so delta0 x != 0
        return None if x is None else dblock.apply_column(*x)

    def kerdelta_solver(self, k, w):
        """Eliminator of [harmonic basis | delta-block]: a solve on ker delta0
        gives the harmonic coordinates first, as `harmonic_coordinate_block`
        does in one product."""
        key = (k, w)
        if key not in self._kerdelta_solver:
            harm = self.harmonic_basis(k, w)
            dblock = self.delta_block(k + 1, w)
            matrix = SparseMatrix(harm.nrows, harm.ncols + dblock.ncols)
            matrix.cols = {**harm.cols, **{harm.ncols + j: c for j, c in dblock.cols.items()}}
            self._kerdelta_solver[key] = (ColumnEliminator(matrix), harm.ncols)
        return self._kerdelta_solver[key]

    def harmonic_coordinate_block(self, k, w):
        """The nharm x n matrix X = (H^T G H)^{-1} H^T G of block (k, w), cached;
        H = harmonic_basis(k, w) and G is the block's Gram matrix, its slice of
        the cached exterior power Lambda^k G* (1 for the standard inner
        product).

        On ker delta0 = H + im delta0, X v is the harmonic coordinate vector
        of v, as the ker-delta solve gives it: X H = 1, and H^T G delta0 = 0
        since delta0 is the G-adjoint of d0 and d0 H = 0.  Off ker delta0, X v
        means nothing, so callers check delta0 v = 0 first.  The budget is
        checked every 64 columns of the elimination and of the solves.
        """
        key = (k, w)
        if key not in self._harmonic_coordinates:
            harm = self.harmonic_basis(k, w)
            ht = harm.transpose()
            if not self.algebra.inner_product_is_standard():
                ht = ht @ self._block_slice(self.exterior_power(k, dual=True), k, w, k)
            # H^T G H is the Gram matrix of the harmonic basis, so invertible
            elim = ColumnEliminator(ht @ harm, self.budget)
            out = SparseMatrix(harm.ncols, harm.nrows)
            for n, (j, col) in enumerate(ht.cols.items()):
                if self.budget is not None and n % 64 == 0:
                    self.budget.check()
                out.cols[j] = elim.solve_column(*col)
            self._harmonic_coordinates[key] = out
        return self._harmonic_coordinates[key]


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
    for mono, c in alpha.terms.items():
        k = len(mono)
        index = context.mons_index(k)
        gram = context.exterior_power(k, dual=True).column(index[mono])
        for other, v in beta.terms.items():
            if len(other) == k:
                total += c * v * gram.get(index[other], ZERO)
    return total
