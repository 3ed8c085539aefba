"""Homotopy retraction onto the bigraded complex ker delta / im delta.

Everything happens on the exactly invariant space of polynomial forms
with coefficient degree <= P.  The degree-zero operator d delta + delta d
splits as L0 + N with L0 the fiberwise part (invertible on im delta) and
N strictly weight-raising, so its inverse on im delta is the terminating
Neumann series sum (-L0^{-1} N)^j L0^{-1}, summed by exact residual
correction.  From the inverse:

    q  = (d delta + delta d)^{-1} delta
    pi = d q + q d
    iota^{-1} = (1 - q d) lift,  lift = the harmonic representatives
    D  = project_harmonic . d . iota^{-1}
    E  = ker q cap ker qd = ker pi, spanned by the iota^{-1} columns

Each operator is a product of matrices over stored integer columns,
immutable (den, rows, nums) tuples (see `linalg`).  Every product or sum
of products (the Laplacian, the inverse's residuals, pi, iota^{-1}, D and
the identity suite's residuals) is formed by `linalg.combine`, whole or
a slice of columns per call, which checks the package budget every 64
columns.
V^k = Poly_P (x) Lambda^k is addressed by Kronecker arithmetic alone:
fiber position f with polynomial e is f * npoly + e, and in the model
harmonic form h with e is h * npoly + e, a key read off poly_basis(P) and
the fiber-sized mons(k) or `harmonic_forms(k)`, rows the shared
`linalg.positions` ints.  Every matrix of that form is one `linalg.kron`:
d comes from the group calculus (`GroupContext.d_matrix`), delta = 1 (x)
delta0 from the fiber's `delta_matrix`, and the lift 1 (x) H and the
harmonic projection 1 (x) X (H the fiber's harmonic basis, X its
coordinate matrix) each assemble the fiber's (k, w) blocks into one
degree-level matrix, every copy of a column sharing its numerator tuple.
Only L0^{-1} on im delta, L0 = 1 (x) (d0 delta0 + delta0 d0), goes column
by column: it splits a column by (weight, polynomial) block and solves
each piece with the weight's cached eliminator, so neither L0 nor N is
formed.  No Fraction is created from the cached pieces of d and the
fiber's blocks and solvers to q, iota^{-1}, D.  The package's stored
operators and harmonic bases are written from and decoded into integer
columns without Fractions as well.  Fractions remain where forms meet
the matrices and in building those cached pieces.

A package, built or loaded, holds d, delta, q and D per degree, but
neither pi, iota^{-1} nor the Laplacian: each is a sum of products of the
held matrices, and is formed where it is read.  The Laplacian is formed
once per inverse; verify forms none.  Each held operator shares equal
rows and nums tuples among its columns (`_share_tuples`); at P = 0 delta
is the fiber's delta0 itself.  Its fiber holds no wedge matrices: d and
the Gram matrices read a copy per degree (`FiberContext.wedges_once`).
`pi_mat` and `iota_inv_mat` form a whole pi(k) or iota^{-1}(k) per call,
for a load's comparison and for callers outside the package.  The
package forms neither whole, but 64 columns at a time through `combine`
with keys, in ascending order: `write_json` writes each pi slice and
drops it, and D and verify's two iota^{-1} rows read each iota^{-1} slice
and keep only D's columns or the rows' verdicts.

The package format is what `write_json` streams: the indent=2, key-sorted
JSON of the algebra, P, the harmonic bases and the q, pi, D entries.
`read_json` reads that layout back a piece of at most `_Chunks.SIZE`
characters at a time, and `from_json` decodes any parsed package.  Both
check the stored harmonic bases against the canonical ones and each
block's shape, decode every operator block through one entry decoder
(`_decode_entries`), which checks each entry's type and range and freezes
each column into its stored form as soon as the next column starts,
install the blocks in the file's order (`_sections`), parse each ratio
string once per load and finish the same way: each stored pi(k) is
compared once with dq + qd, when q is in, and dropped.  So `read_json`
holds no block's text, parsed entries or ratio dicts whole: a load holds
little more than the package.

The construction asserts every operator identity exactly and names a
witness basis element on failure.  The identity suite (`verify`) fails
every pi row where a stored pi differed from dq + qd when it was read,
then evaluates the other pi identities as residual sums of products of
the sparse d and q, and ker pi through the trace of dq + qd, read off d
and q (`linalg.trace_of_product`), and the iota^{-1} columns, never
composing with pi.  It forms q d once per degree, for q d q - q and for
the residual q lap - delta = (q d) delta + (q delta) d - delta, and q d
iota^{-1} = (q - q d q) d lift only where q d q != q.  It holds q d q - q,
zero on a sound package, and of each slice of the iota^{-1} columns only
verdicts, so it holds no product equal to a held matrix.
"""

import io
import json
from itertools import chain
from math import comb

from .algebra import algebra_from_json, algebra_to_json
from .errors import IdentityError, StructureError, check_identity
from .fiber import FiberContext
from .groupcalc import GroupContext, PolyForm, format_term
from .linalg import (
    SparseMatrix, column_from_ratios, combine, kron, positions, sum_columns, trace_of_product,
)
from .scalars import ratio_from_str, ratio_to_str

def default_poly_degree(algebra):
    """Spanning-set budget: 3 for dim <= 7, 1 beyond (octonionic scale)."""
    return 3 if algebra.dim <= 7 else 1


class RuminPackage:
    """Exact q, pi, D on polynomial forms of coefficient degree <= P."""

    def __init__(self, algebra, max_poly_degree=None, budget=None):
        self.algebra = algebra
        self.P = (
            default_poly_degree(algebra) if max_poly_degree is None else int(max_poly_degree)
        )
        if self.P < 0:
            raise StructureError("max polynomial degree must be >= 0")
        self.budget = budget
        self.fiber = FiberContext(algebra, budget)
        self.group = GroupContext(algebra, self.fiber)
        # len(group.poly_basis(P)): the monomials of degree <= P in dim variables
        self.npoly = comb(algebra.dim + self.P, self.P)
        self._polys = None
        self.neumann_terms = 0  # max Neumann length seen while inverting
        self._dim_v = {}
        self._d = {}
        self._delta = {}
        self._q = {}
        # {k: witness} where a loaded package's stored pi(k) was not d q + q d
        self._pi_witness = {}
        self._harmonic_forms = {}
        self._D = {}
        self._arrows = None
        self._built = False

    # -- bases ---------------------------------------------------------------

    def dim_v(self, k):
        """dim V^k, 0 outside 0 <= k <= dim, counted against the monomial budget once."""
        if k not in self._dim_v:
            self._dim_v[k] = self.npoly * len(self.fiber.mons(k))
            if self.budget is not None:
                self.budget.count_monomials(self._dim_v[k])
        return self._dim_v[k]

    def _poly_table(self):
        """(poly_basis(P), {exps: e}), built on first use: a tampered P is never listed."""
        if self._polys is None:
            polys = self.group.poly_basis(self.P)
            self._polys = polys, {exps: e for e, exps in enumerate(polys)}
        return self._polys

    def key(self, k, j):
        """The (exps, mono) at V^k position j = f * npoly + e."""
        return self._poly_table()[0][j % self.npoly], self.fiber.mons(k)[j // self.npoly]

    def keys(self, k):
        """`spanning_basis(k, P)`, built per call: the package reads `key`."""
        return self.group.spanning_basis(k, self.P)

    def _to_positional(self, form):
        """Split a PolyForm into {degree: positional dict}; checks the budget."""
        by_k = {}
        poly_index = self._poly_table()[1]
        for (exps, mono), c in form.terms.items():
            k = len(mono)
            self.dim_v(k)
            e = poly_index.get(exps)
            f = self.fiber.mons_index(k).get(mono)
            if e is None or f is None:
                raise StructureError(
                    f"form term {format_term(self.algebra, exps, mono)} exceeds "
                    f"polynomial degree budget P={self.P}"
                )
            by_k.setdefault(k, {})[f * self.npoly + e] = c
        return by_k

    def _to_form(self, k, vec):
        return PolyForm(self.algebra, {self.key(k, i): c for i, c in vec.items()})

    # -- operator matrices ----------------------------------------------------

    def d_mat(self, k):
        if k not in self._d:
            if k < 0 or k > self.algebra.dim:
                return SparseMatrix(0, 0)
            # the package's bases count against the monomial budget
            self.dim_v(k)
            self.dim_v(k + 1)
            self._d[k] = _share_tuples(self.group.d_matrix(k, self.P, self.budget))
        return self._d[k]

    def delta_mat(self, k):
        if k not in self._delta:
            if k < 0 or k > self.algebra.dim:
                return SparseMatrix(0, 0)
            delta0 = self.fiber.delta_matrix(k)
            if self.npoly == 1:
                # V^k is the fiber's degree k at P = 0, so delta is the
                # fiber's delta0 itself, which _share_tuples must not change
                self._delta[k] = delta0
            else:
                self._delta[k] = _share_tuples(kron(self.npoly, [(delta0, None)], self.budget))
        return self._delta[k]

    def lap_mat(self, k):
        """d delta + delta d on degree k.

        Not cached: a build reads it once per inverse, for q(k + 1); verify
        checks q lap = delta without it, through q d.
        """
        terms = []
        if k > 0:
            terms.append((1, self.d_mat(k - 1), self.delta_mat(k)))
        if k < self.algebra.dim:
            terms.append((1, self.delta_mat(k + 1), self.d_mat(k)))
        n = self.dim_v(k)
        return combine(n, n, terms, self.budget)

    def l0_mat(self, k):
        """Fiberwise graded part of lap_mat: acts on the coframe only.

        Not cached: the package solves L0 block by block and never reads it.
        """
        blocks = self.fiber.block_positions(k)[0]
        return self._kron(k, self.fiber.laplacian_block, blocks, blocks)

    def _kron(self, k, block_fn, src, dst):
        """1 (x) F on Kronecker positions (`linalg.kron`).  F is the
        degree-level fiber matrix given per weight w by its block
        block_fn(k, w): block column j is column src[w][j] of F,
        with block row i at row dst[w][i].  Each block is built once, and
        every copy of its column shares its nums tuple."""
        fiber = SparseMatrix(sum(map(len, dst.values())), sum(map(len, src.values())))
        for w, cols in src.items():
            # a block with columns has rows, so dst[w] is read only then
            for j, (den, block_rows, nums) in block_fn(k, w).cols.items():
                fiber.cols[cols[j]] = (den, tuple([dst[w][i] for i in block_rows]), nums)
        return kron(self.npoly, [(fiber, None)], self.budget)

    # -- the filtered inverse ---------------------------------------------------

    def _product(self, a, b):
        """a @ b, checking the package budget every 64 columns."""
        return combine(a.nrows, b.ncols, [(1, a, b)], self.budget)

    def _l0_inverse(self, k, matrix):
        """L0^{-1} on im delta per column of a V^k matrix: the columns u in
        im delta with L0 u = the column.

        A column is split by block, V^k position f * npoly + e lying in block
        (where[f] weight, e), and each piece solved with the weight's im-delta
        eliminator.  Columns go in ascending order and blocks by weight, then
        polynomial, so a piece outside im delta is reported at the first such
        block of the first such column.  The budget is checked every 64 columns.
        """
        npoly = self.npoly
        blocks, where = self.fiber.block_positions(k)
        ints = positions(matrix.nrows)
        out = SparseMatrix(matrix.nrows, matrix.ncols)
        for n, (j, (den, rows, nums)) in enumerate(sorted(matrix.cols.items())):
            if self.budget is not None and n % 64 == 0:
                self.budget.check()
            pieces = {}
            for pos, v in zip(rows, nums):
                f, e = divmod(pos, npoly)
                w, i = where[f]
                pieces.setdefault((w, e), {})[i] = v
            solved = []
            for w, e in sorted(pieces):
                piece = pieces[(w, e)]
                u = self.fiber.l0_inverse_column(k, w, den, piece.keys(), piece.values())
                # L0 is invertible on im delta0, so only a piece off it has no solve
                if u is None:
                    raise StructureError(
                        f"vector outside im delta at the block (degree {k}, weight {w})"
                    )
                block = blocks[w]
                solved.append((u[0], tuple([ints[block[i] * npoly + e] for i in u[1]]), u[2]))
            col = sum_columns(solved)
            if col:
                out.cols[j] = col
        return out

    def inverse_apply(self, k, matrix):
        """(d delta + delta d)^{-1} on im delta at degree k, per column of a V^k matrix.

        Exact residual correction with L0^{-1} as the step: from rhs = B, add
        term = L0^{-1} rhs to the total and set rhs to rhs - lap term, until
        rhs = 0.  L0 term = rhs exactly, so the new rhs is -N term, and the
        terms are those of the Neumann series sum (-L0^{-1} N)^j L0^{-1} B.
        """
        total = SparseMatrix(matrix.nrows, matrix.ncols)
        if matrix.is_zero():
            return total
        lap = self.lap_mat(k)
        # N strictly raises total weight, so this terminates
        limit = 2 * (sum(self.algebra.layers) + self.P) + 4
        rhs, terms_used = matrix, 0
        while not rhs.is_zero():
            if self.budget is not None:
                self.budget.check()
            if terms_used == limit:
                raise IdentityError(
                    "neumann_termination",
                    witness=f"degree {k}",
                    detail="filtered Neumann series failed to terminate",
                )
            term = self._l0_inverse(k, rhs)
            total = combine(total.nrows, total.ncols, [(1, total, None), (1, term, None)])
            terms_used += 1
            rhs = combine(rhs.nrows, rhs.ncols, [(1, rhs, None), (-1, lap, term)], self.budget)
        if terms_used > self.neumann_terms:
            self.neumann_terms = terms_used
        # rhs = 0 already gives lap total = B; this guards the sums themselves
        residual = [(1, lap, total), (-1, matrix, None)]
        if combine(matrix.nrows, matrix.ncols, residual, self.budget).cols:
            raise IdentityError(
                "inverse_on_im_delta",
                witness=f"degree {k}",
                detail="(d delta + delta d) . inverse != identity on im delta",
            )
        return total

    # -- q, pi ------------------------------------------------------------------

    def q_mat(self, k):
        if k not in self._q:
            if 0 < k <= self.algebra.dim:
                self._q[k] = _share_tuples(self.inverse_apply(k - 1, self.delta_mat(k)))
            else:
                self._q[k] = SparseMatrix(self.dim_v(k - 1), self.dim_v(k))
        return self._q[k]

    def _pi_terms(self, k):
        """The `combine` terms of pi(k) = d q + q d."""
        dim = self.algebra.dim
        terms = []
        if 0 < k <= dim:
            terms.append((1, self.d_mat(k - 1), self.q_mat(k)))
        if 0 <= k < dim:
            terms.append((1, self.q_mat(k + 1), self.d_mat(k)))
        return terms

    def pi_mat(self, k, minus=None):
        """pi(k) = d q + q d, less the matrix minus if one is given; formed
        per call and not cached, so no package holds a pi."""
        terms = self._pi_terms(k)
        if minus is not None:
            terms.append((-1, minus, None))
        n = self.dim_v(k)
        return combine(n, n, terms, self.budget)

    # -- the bigraded model and D -------------------------------------------------

    def harmonic_forms(self, k):
        """The (weight, i) of each harmonic form h of degree k, counted by
        weight, built once: column i of harmonic_basis(k, weight)."""
        if k not in self._harmonic_forms:
            hs = self._harmonic_positions(k)
            self._harmonic_forms[k] = [(w, i) for w in hs for i in range(len(hs[w]))]
        return self._harmonic_forms[k]

    def model_key(self, k, j):
        """The (exps, weight, i) at model position j = h * npoly + e: harmonic
        form h with poly_basis(P)[e]."""
        return (self._poly_table()[0][j % self.npoly], *self.harmonic_forms(k)[j // self.npoly])

    def model_keys(self, k):
        """[model_key(k, j) for each model position j], built per call."""
        return [self.model_key(k, j) for j in range(self.model_dim(k))]

    def model_dim(self, k):
        return self.npoly * len(self.harmonic_forms(k))

    def _harmonic_positions(self, k):
        """{w: the positions h of block (k, w)'s harmonic forms among all of degree k}."""
        out, h = {}, 0
        for w in self.fiber.blocks(k):
            out[w] = range(h, h + self.fiber.harmonic_basis(k, w).ncols)
            h = out[w].stop
        return out

    def lift(self, k):
        """The model^k -> V^k matrix of harmonic representatives: model key
        (exps, w, i) maps to column i of harmonic_basis(k, w) at exps."""
        return self._kron(
            k, self.fiber.harmonic_basis, self._harmonic_positions(k),
            self.fiber.block_positions(k)[0],
        )

    def _coordinates(self, k):
        """1 (x) X: V^k -> model^k, X the fiber blocks' harmonic coordinate
        matrices, built per call."""
        return self._kron(
            k, self.fiber.harmonic_coordinate_block, self.fiber.block_positions(k)[0],
            self._harmonic_positions(k),
        )

    def project(self, k, matrix, coords=None):
        """Fiberwise classes of pointwise-ker-delta V^k columns in the model basis.

        Each column must lie in ker delta; otherwise projection_domain names
        the smallest such column's lowest weight where delta of it is nonzero.
        On ker delta 1 (x) X, X the fiber blocks' harmonic coordinate
        matrices, gives the model coordinates as one product.  coords, if
        given, is that `_coordinates(k)`, so that a caller projecting slice
        by slice builds it once; else it is built per call.  Both products
        check the budget every 64 columns.
        """
        off = self._product(self.delta_mat(k), matrix).cols
        if off:
            where = self.fiber.block_positions(k - 1)[1]
            w = min(where[i // self.npoly][0] for i in off[min(off)][1])
            raise IdentityError(
                "projection_domain",
                witness=f"degree {k}, weight {w}",
                detail="vector not a section of ker delta",
            )
        return self._product(self._coordinates(k) if coords is None else coords, matrix)

    def _iota_inv_slices(self, k):
        """(keys, iota^{-1}(k) on those model columns) for 64 model column
        keys at a time, in ascending order: lift - q(k + 1) (d(k) lift),
        each slice formed by `combine` with keys and not held by this
        generator once the next is asked for."""
        lift = self.lift(k)
        nrows, ncols = lift.shape()
        for start in range(0, ncols, 64):
            keys = range(start, min(start + 64, ncols))
            terms = [(1, lift, None)]
            if k < self.algebra.dim:
                d_lift = combine(
                    self.dim_v(k + 1), ncols, [(1, self.d_mat(k), lift)], self.budget, keys
                )
                terms.append((-1, self.q_mat(k + 1), d_lift))
            yield keys, combine(nrows, ncols, terms, self.budget, keys)

    def iota_inv_mat(self, k):
        """(1 - q d) lift: model^k -> V^k, formed per call from the slices
        of `_iota_inv_slices`, for callers outside the package: no package
        holds iota^{-1}, and neither `build` nor `verify` calls this."""
        out = SparseMatrix(self.dim_v(k), self.model_dim(k))
        for _, part in self._iota_inv_slices(k):
            out.cols.update(part.cols)
        return out

    def D_mat(self, k):
        """project(k + 1, d(k) iota^{-1}(k)), held once formed.  d, the
        projection's domain check and 1 (x) X go over one slice of
        `_iota_inv_slices` at a time, so neither iota^{-1}(k) nor d iota^{-1}(k)
        is held whole; only D's columns are kept."""
        if k not in self._D:
            coords = self._coordinates(k + 1)
            out = SparseMatrix(self.model_dim(k + 1), self.model_dim(k))
            for _, part in self._iota_inv_slices(k):
                d_iota = self._product(self.d_mat(k), part)
                out.cols.update(self.project(k + 1, d_iota, coords).cols)
            self._D[k] = _share_tuples(out)
        return self._D[k]

    def arrows(self):
        """Bigraded arrows of D with their weight jump (operator order).

        Computed once per package, so `rumin build` shares it between the
        report and the package file; callers must not change the list.
        """
        if self._arrows is not None:
            return self._arrows
        seen = {}
        for k in range(self.algebra.dim):
            forms, forms1 = self.harmonic_forms(k), self.harmonic_forms(k + 1)
            for j, (_, rows, _) in self.D_mat(k).cols.items():
                w = forms[j // self.npoly][0]
                for i in rows:
                    w2 = forms1[i // self.npoly][0]
                    seen.setdefault((k, w, w2), 0)
                    seen[(k, w, w2)] += 1
        self._arrows = [
            {"degree": k, "source_weight": w, "target_weight": w2, "order": w2 - w}
            for (k, w, w2) in sorted(seen)
        ]
        return self._arrows

    # -- E = ker delta  cap  ker delta d -------------------------------------------

    def E_basis(self, k):
        """Basis of E = ker q cap ker qd (= ker pi) on V^k: the iota^-1 columns,
        which span E when the ker_pi_equals_ker_q_ker_qd row holds."""
        return self.iota_inv_mat(k)

    # -- full construction and the identity suite ------------------------------------

    def build(self):
        if not self._built:
            for k in range(self.algebra.dim + 1):
                if self.budget is not None:
                    self.budget.check()
                self.q_mat(k)
            for k in range(self.algebra.dim):
                self.D_mat(k)
            self._built = True
        return self

    def _witness(self, k, column):
        return format_term(self.algebra, *self.key(k, column))

    def _check_zero(self, name, k, residual):
        """Fail name at the smallest nonzero column of residual, a V^k matrix."""
        if residual.cols:
            raise IdentityError(name, witness=self._witness(k, min(residual.cols)))

    def _check_sum(self, name, k, nrows, terms):
        """Fail name unless combine(nrows, dim V^k, terms) is zero."""
        self._check_zero(name, k, combine(nrows, self.dim_v(k), terms, self.budget))

    def verify(self):
        """Run the full identity suite and return its report rows.

        A failed identity becomes a row with its witness; callers decide
        whether to raise.  An exhausted budget is not a row: its
        BudgetExceededError propagates with the rows so far as its partial.
        Building the package also checks inverse postconditions, so a
        constructed package normally verifies clean.

        pi(k) is F(k) = d q + q d by definition and is never formed here.
        A loaded package's stored pi(k) was compared with F(k) when it was
        read: every pi row fails, with the first differing column as
        witness, unless each stored pi(k) equaled F(k).  Given that pin,
        the rows evaluate the other pi identities through products of the
        sparse q and d, and ker pi through the trace of F, read off d and
        q, and the iota^-1 columns, instead of composing with pi.  q(k)
        d(k - 1) is formed once per degree and dropped after its two uses:
        q d q - q, one combine, and the q_laplacian_is_delta residual (q d)
        delta + (q delta) d - delta, the same matrix as q lap - delta by
        distributivity, of which only the verdict is held; no Laplacian is
        formed.  The iota^-1(k) columns are formed once per degree, 64 at a
        time (`_iota_inv_slices`), for iota_inverse_right and ker_pi: each
        slice is projected and multiplied by q, and dropped.  Since iota^-1
        = (1 - q d) lift, q d iota^-1 = (q - q d q) d lift exactly, so
        ker_pi forms d iota^-1 and q (d iota^-1) of a slice only where
        q d q != q.  Every witness is the smallest failing column, as on
        the whole matrix.  Products and verdicts shared between rows are
        memoized for this call only: q q, d d, q d q - q, and the verdicts
        of q_lap, pi_idempotent, ker_pi and the iota^-1 pass.
        """
        rows = []
        dim = self.algebra.dim
        memo = {}

        def record(name, fn):
            check_identity(rows, name, fn, self.budget)

        def once(key, fn):
            # fn() at most once per call; an IdentityError it raised is raised again
            if key not in memo:
                try:
                    memo[key] = (fn(), None)
                except IdentityError as err:
                    memo[key] = (None, err)
            value, err = memo[key]
            if err is not None:
                raise err
            return value

        def model_witness(k, j):
            exps, w, i = self.model_key(k, j)
            return (
                f"model element (deg {k}, weight {w}, #{i}) "
                f"poly {format_term(self.algebra, exps, ())}"
            )

        product = self._product

        def qq(k):
            return once(("qq", k), lambda: product(self.q_mat(k - 1), self.q_mat(k)))

        def q_d(k):
            # (q d q - q, the smallest nonzero column of q(k) lap(k) - delta(k)
            # or None).  q d q - q is one combine, zero on a sound package, so
            # neither q d q nor a copy of q is held; holding only a verdict
            # keeps the residual off the peak
            def run():
                q = self.q_mat(k)
                qd = product(q, self.d_mat(k - 1))
                excess = combine(q.nrows, q.ncols, [(1, qd, q), (-1, q, None)], self.budget)
                terms = [(1, qd, self.delta_mat(k))]
                if k < dim:
                    terms.append((1, product(q, self.delta_mat(k + 1)), self.d_mat(k)))
                terms.append((-1, self.delta_mat(k), None))
                residual = combine(self.dim_v(k - 1), self.dim_v(k), terms, self.budget)
                return excess, min(residual.cols, default=None)

            return once(("q_d", k), run)

        def qdq_minus_q(k):
            return q_d(k)[0]

        def dd(k):
            return once(("dd", k), lambda: product(self.d_mat(k), self.d_mat(k - 1)))

        def pinned(k):
            # pi(k) is F(k) = d q + q d by definition; only a stored pi(k)
            # that differed from F(k) when it was read leaves a witness
            if k in self._pi_witness:
                raise IdentityError("pi_is_dq_plus_qd", witness=self._pi_witness[k])

        def pin_all():
            for k in range(dim + 1):
                pinned(k)

        def idempotent(k):
            # given pi = F, pi^2 - pi = d R + R d + d (qq) d + q (dd) q with
            # R = qdq - q, which needs products of the sparse q and d only
            def residual():
                pinned(k)
                terms = []
                if k > 0:
                    terms.append((1, self.d_mat(k - 1), qdq_minus_q(k)))
                if k < dim:
                    terms.append((1, qdq_minus_q(k + 1), self.d_mat(k)))
                if 0 < k < dim:
                    terms.append((1, self.d_mat(k - 1), product(qq(k + 1), self.d_mat(k))))
                    terms.append((1, self.q_mat(k + 1), product(dd(k), self.q_mat(k))))
                self._check_sum("pi_idempotent", k, self.dim_v(k), terms)

            once(("idempotent", k), residual)

        def iota_columns(k):
            # one pass over the iota^-1(k) slices, shared by the two iota
            # rows, of which only verdicts are held: raises iota_inverse_right's
            # error unless project of every column is the identity's column,
            # else gives the smallest column outside ker q cap ker qd, or None.
            # Slices go in ascending order, so the first failing one holds
            # the smallest failing column; a projection_domain error anywhere
            # comes before a wrong projection, as for the whole matrix
            def run():
                coords = self._coordinates(k)
                q = self.q_mat(k)
                # iota^-1 = (1 - q d) lift makes q d iota^-1 = (q - qdq) d lift
                # at k + 1 exactly, zero where q d q = q
                q_up = self.q_mat(k + 1) if k < dim and qdq_minus_q(k + 1).cols else None
                wrong = outside = None
                for keys, part in self._iota_inv_slices(k):
                    got = self.project(k, part, coords).cols
                    if wrong is None:
                        wrong = next((j for j in keys if got.get(j) != (1, (j,), (1,))), None)
                    if wrong is None and outside is None:
                        cols = set(product(q, part).cols)
                        if q_up is not None:
                            cols |= set(product(q_up, product(self.d_mat(k), part)).cols)
                        outside = min(cols, default=None)
                if wrong is not None:
                    raise IdentityError("iota_inverse_right", witness=model_witness(k, wrong))
                return outside

            return once(("iota", k), run)

        def ker_pi(k):
            # ker q cap ker qd lies in ker pi because pi = F.  The model_dim(k)
            # iota^-1 columns, independent by iota_inverse_right, lie in
            # ker q cap ker qd, and dim ker pi = n - trace(pi) because pi is
            # idempotent; equal dimensions close both inclusions.  trace(pi)
            # = trace(F) is trace(d q) at k plus trace(d q) at k + 1, since
            # trace(q d) = trace(d q), read off d and q without forming F.
            def run():
                pinned(k)
                idempotent(k)
                outside = iota_columns(k)
                if outside is not None:
                    raise IdentityError(
                        "ker_pi_equals_ker_q_ker_qd", witness=model_witness(k, outside)
                    )
                trace = sum(
                    trace_of_product(self.d_mat(j - 1), self.q_mat(j))
                    for j in (k, k + 1) if 0 < j <= dim
                )
                nullity_pi = self.dim_v(k) - trace
                if nullity_pi != self.model_dim(k):
                    raise IdentityError(
                        "ker_pi_equals_ker_q_ker_qd",
                        witness=f"degree {k}: dim ker pi = n - trace(pi) = {nullity_pi}, "
                        f"model dimension = {self.model_dim(k)}",
                    )

            once(("ker_pi", k), run)

        def check_q_squared():
            for k in range(1, dim + 1):
                self._check_zero("q_squared", k, qq(k))

        def check_qdq():
            for k in range(1, dim + 1):
                self._check_zero("q_d_q", k, qdq_minus_q(k))

        def check_pi_idempotent():
            pin_all()
            for k in range(dim + 1):
                idempotent(k)

        def check_pi_d():
            # given pi = F, pi d - d pi = q (dd) - (dd) q
            pin_all()
            for k in range(dim):
                terms = []
                if k + 1 < dim:
                    terms.append((1, self.q_mat(k + 2), dd(k + 1)))
                if k > 0:
                    terms.append((-1, dd(k), self.q_mat(k)))
                self._check_sum("pi_commutes_d", k, self.dim_v(k + 1), terms)

        def check_pi_q():
            # given pi = F, pi q = d (qq) + qdq
            pin_all()
            for k in range(1, dim + 1):
                terms = [(1, qdq_minus_q(k), None)]
                if k > 1:
                    terms.append((1, self.d_mat(k - 2), qq(k)))
                self._check_sum("pi_q", k, self.dim_v(k - 1), terms)

        def check_q_pi():
            # given pi = F, q pi = qdq + (qq) d
            pin_all()
            for k in range(1, dim + 1):
                terms = [(1, qdq_minus_q(k), None)]
                if k < dim:
                    terms.append((1, qq(k + 1), self.d_mat(k)))
                self._check_sum("q_pi", k, self.dim_v(k - 1), terms)

        def check_homotopy():
            # dq + qd is the identity on im pi: given pi = F, that is pi^2 = pi
            # on every column, so it shares pi_idempotent's residual
            check_pi_idempotent()

        def check_q_lap():
            # q (d delta + delta d) = delta on all forms, read off q_d's verdict
            for k in range(1, dim + 1):
                column = q_d(k)[1]
                if column is not None:
                    raise IdentityError("q_laplacian_is_delta", witness=self._witness(k, column))

        def check_ker_pi():
            pin_all()
            for k in range(dim + 1):
                ker_pi(k)

        def check_iota_right():
            # project . (1 - qd) . lift is the identity on the model
            for k in range(dim + 1):
                iota_columns(k)

        def check_iota_left():
            # (1 - qd) lift project is the identity on E = ker pi, which the
            # iota^-1 columns span (ker_pi_equals_ker_q_ker_qd).  On those
            # columns it is iota^-1 @ project(iota^-1), and ker_pi needs
            # project(iota^-1) = 1 (iota_inverse_right), so the product is
            # iota^-1 itself: the row holds exactly when its prerequisites do
            for k in range(dim + 1):
                ker_pi(k)

        def check_D_squared():
            for k in range(dim - 1):
                lhs = product(self.D_mat(k + 1), self.D_mat(k))
                if not lhs.is_zero():
                    _, w, i = self.model_key(k, min(lhs.cols))
                    raise IdentityError(
                        "D_squared",
                        witness=f"model element (deg {k}, weight {w}, #{i})",
                    )

        def check_fiber_restriction():
            # the fiber-level BGG operator proj d0 (1 - q0 d0) vanishes on the harmonic
            # forms, which lie in ker d0: D is zero on the constants, e = 0
            for k in range(dim):
                wrong = [j for j in self.D_mat(k).cols if j % self.npoly == 0]
                if wrong:
                    # model keys run by weight, then harmonic vector
                    _, w, i = self.model_key(k, min(wrong))
                    raise IdentityError(
                        "fiber_restriction",
                        witness=f"constant model element (deg {k}, weight {w}, #{i})",
                    )

        record("q_squared", check_q_squared)
        record("q_d_q", check_qdq)
        record("pi_idempotent", check_pi_idempotent)
        record("pi_commutes_d", check_pi_d)
        record("pi_q", check_pi_q)
        record("q_pi", check_q_pi)
        record("homotopy_on_im_pi", check_homotopy)
        record("q_laplacian_is_delta", check_q_lap)
        record("ker_pi_equals_ker_q_ker_qd", check_ker_pi)
        record("iota_inverse_right", check_iota_right)
        record("iota_inverse_left", check_iota_left)
        record("D_squared", check_D_squared)
        record("fiber_restriction", check_fiber_restriction)
        return rows

    # -- serialization -----------------------------------------------------------

    def write_json(self, fh):
        """Stream the package into fh as json.dumps(indent=2, sort_keys=True) + "\n".

        This is the package format.  Operator entries go straight from the
        stored integer columns to text, one write per column, so the text is
        never held whole; the text of each distinct numerator over a
        denominator is made once per write.  Each operator block's shape
        comes from the bases, and its columns are asked for only when the
        writer reaches its entries.  No pi(k) is formed whole: `combine`
        forms pi(k) = d q + q d for 64 column keys at a time, in ascending
        order, and each slice is dropped once written.  The budget is
        checked every 64 columns.
        """
        self.build()
        budget = self.budget
        ratio_text = {}

        forms = {"D": self.D_mat, "q": self.q_mat}

        def columns(name, k):
            """(j, column) of the operator name at degree k by ascending j.
            pi(k) = d q + q d is formed 64 column keys at a time, each slice
            dropped once it is written, so no pi(k) is ever held whole."""
            if name != "pi":
                cols = forms[name](k).cols
                for j in sorted(cols):
                    yield j, cols[j]
                return
            n = self.dim_v(k)
            terms = self._pi_terms(k)
            for start in range(0, n, 64):
                cols = combine(n, n, terms, budget, keys=range(start, start + 64)).cols
                for j in sorted(cols):
                    yield j, cols[j]

        def encode(name, k):
            def entries(write, depth):
                """The [i, j, "p/q"] entry list of the operator, one write per column."""
                outer = "\n" + "  " * depth
                pad = outer + "  "
                inner = pad + "  "
                sep = "["
                for n, (j, (den, rows, nums)) in enumerate(columns(name, k)):
                    if budget is not None and n % 64 == 0:
                        budget.check()
                    text = ratio_text.get(den)
                    if text is None:
                        text = ratio_text[den] = {}
                    mid = f",{inner}{j},{inner}\""
                    write(sep + ",".join([
                        f'{pad}[{inner}{i}{mid}'
                        f'{text.get(v) or text.setdefault(v, ratio_to_str(v, den))}"{pad}]'
                        for i, v in sorted(zip(rows, nums))
                    ]))
                    sep = ","
                write("[]" if sep == "[" else outer + "]")

            nrows, ncols = self._stored_shape(name, k)
            return {"rows": nrows, "cols": ncols, "entries": entries}

        harmonic = {}
        for k in range(self.algebra.dim + 1):
            for w, monos in self.fiber.blocks(k).items():
                # the block keeps the monomials' lexicographic order
                basis = self.fiber.harmonic_basis(k, w)
                if basis.ncols:
                    harmonic[f"{k},{w}"] = [
                        [[list(monos[i]), ratio_to_str(v, den)] for i, v in sorted(zip(rows, nums))]
                        for _, (den, rows, nums) in sorted(basis.cols.items())
                    ]
        package = {
            "algebra": algebra_to_json(self.algebra),
            "max_poly_degree": self.P,
            "neumann_terms": self.neumann_terms,
            "harmonic": harmonic,
            "operators": {
                name: {key: encode(name, int(key)) for key in keys}
                for name, keys in self._sections()
            },
            "arrows": self.arrows(),
        }
        _stream_json(fh.write, package, 0)
        fh.write("\n")

    def to_json(self):
        """The package as JSON data, parsed back from `write_json`."""
        text = io.StringIO()
        self.write_json(text)
        return json.loads(text.getvalue())

    @classmethod
    def from_json(cls, data, budget=None):
        """Load a parsed package (or its text); any malformed part raises
        StructureError, the first in the file's order.

        The operator blocks are decoded in the file's order (`_sections`),
        and the load finishes as `read_json`'s does (`_finish_load`).
        """
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise StructureError("package must be a JSON object")
        ratios = {}
        pkg = cls._from_head(data, budget, ratios)
        if "operators" not in data:
            raise StructureError("package is missing 'operators'")
        stored_pi = {}
        for name, keys in pkg._sections():
            for key in keys:
                k = int(key)
                shape = pkg._stored_shape(name, k)
                matrix = _decode_matrix(data["operators"], name, k, shape, ratios)
                pkg._install(name, k, matrix, stored_pi)
        pkg._finish_load(stored_pi)
        return pkg

    @classmethod
    def read_json(cls, fh, budget=None):
        """Load a package from the text file fh, one operator degree block at a
        time, if fh holds exactly the layout `write_json` writes; else None.

        The head, everything before the operators, is parsed once and checked
        as `from_json` checks it.  The operators section must then be the
        writer's skeleton: every degree block of D, pi and q in the file's
        order (`_sections`), each opened by a `      "k": {` line and closed
        by a `      }` line, and nothing after the final brace; each block is
        the writer's {"cols", "entries", "rows"} (`_read_block`).  A block's
        entries are parsed a piece of at most `_Chunks.SIZE` characters at a
        time, the budget checked before each, and decoded as they come by the
        entry decoder `from_json` uses, so no block's text, parsed entries or
        ratio dicts are ever held whole.  Only after the final layout check
        does the load finish as `from_json`'s does (`_finish_load`).  A
        deviation from the layout, or text that does not parse (a ValueError
        that is not a StructureError: invalid JSON or UTF-8), gives None, and
        the caller reads the file whole.  A fault in the layout's content
        raises the StructureError `from_json` raises for the same file, and
        a BudgetExceededError propagates.
        """
        text = _Chunks(fh)
        marker = ',\n  "operators": {\n'
        try:
            if not text.starts('{\n  "algebra": {\n'):
                return None
            head = text.until(marker)
            if head is None:
                return None
            # a JSON object whose first key is "algebra", if it parses
            data = json.loads(head[: -len(marker)] + "}")
            del head
            ratios = {}
            pkg = cls._from_head(data, budget, ratios)
            del data
            stored_pi = {}
            for name, keys in pkg._sections():
                if not text.skip(f'    "{name}": {{\n'):
                    return None
                for key in keys:
                    k = int(key)
                    if not text.skip(f'      "{key}": '):
                        return None
                    block = _read_block(
                        text, f"{name} at degree {k}", pkg._stored_shape(name, k), ratios, budget
                    )
                    if block is None or not text.skip("\n" if key == keys[-1] else ",\n"):
                        return None
                    matrix, fault = block
                    if fault is not None:
                        raise fault
                    pkg._install(name, k, matrix, stored_pi)
                if not text.skip("    }\n" if name == "q" else "    },\n"):
                    return None
            if not (text.skip("  }\n}\n") and text.at_end()):
                return None
        except StructureError:
            raise
        except ValueError:
            return None
        pkg._finish_load(stored_pi)
        return pkg

    @classmethod
    def _from_head(cls, data, budget, ratios):
        """The package of a JSON object's algebra and P, with its stored
        neumann_terms checked to be a count and its stored harmonic bases
        against the canonical ones: exactly the blocks with a harmonic form,
        each equal to its canonical basis.  No operator is installed."""
        for key in ("algebra", "harmonic", "max_poly_degree", "neumann_terms"):
            if key not in data:
                raise StructureError(f"package is missing {key!r}")
        P = data["max_poly_degree"]
        # bool is an int subclass, so isinstance(True, int) holds
        if type(P) is not int:
            raise StructureError(f"max_poly_degree must be an integer, got {P!r}")
        terms = data["neumann_terms"]
        if type(terms) is not int or terms < 0:
            raise StructureError(f"neumann_terms must be a non-negative integer, got {terms!r}")
        algebra = algebra_from_json(data["algebra"])
        pkg = cls(algebra, P, budget=budget)

        # stored harmonic bases must match the canonical recomputation;
        # instead of trusting them, install after an exact comparison
        harmonic = data["harmonic"]
        if not isinstance(harmonic, dict):
            raise StructureError("package harmonic section must be an object")
        fiber = pkg.fiber
        for key, vectors in harmonic.items():
            try:
                k, w = (int(x) for x in key.split(","))
                stored = _decode_harmonic(fiber.block_index(k, w), vectors, ratios)
            except (TypeError, ValueError) as exc:
                raise StructureError(f"malformed harmonic block {key!r}: {exc}") from exc
            if not 0 <= k <= algebra.dim or stored != fiber.harmonic_basis(k, w):
                raise StructureError(
                    f"stored harmonic basis at block ({k}, {w}) does not match "
                    "the canonical one"
                )
        # and the blocks stored are exactly those with a harmonic form
        canonical = {
            f"{k},{w}" for k in range(algebra.dim + 1) for w in fiber.blocks(k)
            if fiber.harmonic_basis(k, w).ncols
        }
        for key in sorted(canonical.symmetric_difference(harmonic)):
            if key in canonical:
                raise StructureError(f"package harmonic section lacks block {key!r}")
            raise StructureError(
                f"package harmonic section holds {key!r}, not a block with harmonic forms"
            )
        return pkg

    def _sections(self):
        """(name, degree keys) of each stored operator section in the file's
        order: D, pi, q, each by sorted string key ("10" before "2")."""
        dim = self.algebra.dim
        counts = {"D": dim, "pi": dim + 1, "q": dim + 1}
        return [(name, sorted(map(str, range(count)))) for name, count in counts.items()]

    def _install(self, name, k, matrix, stored_pi):
        """Install the decoded stored block name at degree k: q and D into the
        package, a pi(k) into stored_pi, for `_finish_load` to compare."""
        if name == "pi":
            stored_pi[k] = matrix
        else:
            {"D": self._D, "q": self._q}[name][k] = _share_tuples(matrix)

    def _finish_load(self, stored_pi):
        """Compare each stored pi(k) with d q + q d, now that q is in, and drop
        it; a difference keeps its first column's witness for verify."""
        for k in sorted(stored_pi):
            residual = self.pi_mat(k, minus=stored_pi.pop(k))
            if residual.cols:
                self._pi_witness[k] = self._witness(k, min(residual.cols))
        self._built = True

    def _stored_shape(self, name, k):
        """(rows, cols) of the stored operator name, "q", "pi" or "D", at degree k."""
        if name == "q":
            return self.dim_v(k - 1), self.dim_v(k)
        if name == "pi":
            return self.dim_v(k), self.dim_v(k)
        return self.model_dim(k + 1), self.model_dim(k)


def _share_tuples(matrix):
    """matrix, its columns made to share equal rows and nums tuples: one
    object per distinct tuple, through tables local to this call.  A held
    operator repeats tuples across its columns (a kron copy of a block
    column, a decoded column's fresh rows); one table for the whole
    package measured worse, its own entries costing more than it saves."""
    seen_rows, seen_nums = {}, {}
    cols = matrix.cols
    for j, (den, rows, nums) in cols.items():
        r = seen_rows.setdefault(rows, rows)
        v = seen_nums.setdefault(nums, nums)
        if r is not rows or v is not nums:
            cols[j] = (den, r, v)
    return matrix


def _decode_harmonic(index, vectors, ratios):
    """The matrix of stored harmonic vectors, positional by index, the block's {monomial:
    position}.  Anything but a monomial of the block as a list of ints (bool is an int
    subclass, and False == 0), a repeated monomial or a zero coefficient is a ValueError.
    ratios memoizes `ratio_from_str` by string across the calls of one load."""
    out = SparseMatrix(len(index), len(vectors))
    for n, vec in enumerate(vectors):
        column = {}
        for m, c in vec:
            listed = isinstance(m, list) and all(type(x) is int for x in m)
            i = index.get(tuple(m)) if listed else None
            if i is None or i in column:
                raise ValueError(f"monomial {m!r} is repeated or not one of the block")
            value = ratios.get(c) if type(c) is str else None
            if value is None:
                value = ratios[c] = ratio_from_str(c)
            if not value[0]:
                raise ValueError(f"zero coefficient at monomial {m!r}")
            column[i] = value
        if column:
            out.cols[n] = column_from_ratios(column)
    return out


def _decode_matrix(ops, name, k, shape, ratios=None):
    """Stored operator block ops[name][k] on the `positions` ints, checked against
    the expected shape.  ratios memoizes `ratio_from_str` across one load's calls."""
    what = f"{name} at degree {k}"
    try:
        blob = ops[name][str(k)]
    except (KeyError, TypeError):
        raise StructureError(f"package is missing {what}") from None
    try:
        declared = (blob["rows"], blob["cols"])
        entries = iter(blob["entries"])
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed stored {what}: {exc!r}") from exc
    fault = _shape_fault(what, declared, shape)
    if fault is None:
        matrix, fault = _decode_entries((entries,), what, shape, {} if ratios is None else ratios)
    if fault is not None:
        raise fault
    return matrix


def _shape_fault(what, declared, shape):
    """The StructureError of a stored block whose declared (rows, cols) is not
    shape, or None."""
    if any(type(n) is not int for n in declared) or declared != shape:
        return StructureError(
            f"stored {what} has shape {declared[0]!r}x{declared[1]!r}, "
            f"expected {shape[0]}x{shape[1]}"
        )
    return None


def _decode_entries(pieces, what, shape, ratios):
    """(matrix, None) of the stored block what from its [i, j, "p/q"] entries,
    or (None, the StructureError of its first faulty entry).

    pieces is an iterable of entry iterables, read in order: a parsed entry
    list whole, or a streamed block piece by piece.  Each entry is checked as
    it comes; each column is frozen into its stored (den, rows, nums) as soon
    as an entry of another column follows, and thawed if one of its own comes
    later, so the matrix is the same whatever the column order.  After a fault
    the remaining pieces are still drawn, so a streamed block is read to its
    end.  ratios memoizes `ratio_from_str` by string across one load.
    """
    nrows, ncols = shape
    cols = {}
    zeros = {}  # the zero entries' rows of each frozen column that had any
    ints = None
    j, col = None, None  # the column being gathered
    pieces = iter(pieces)
    try:
        # chain drops each piece before it asks for the next
        for entry in chain.from_iterable(pieces):
            try:
                i, jj, c = entry
                # only a str is looked up: any other entry keeps ratio_from_str's error
                value = ratios.get(c) if type(c) is str else None
                if value is None:
                    value = ratios[c] = ratio_from_str(c)
            except (TypeError, ValueError) as exc:
                raise StructureError(f"malformed entry {entry!r} in stored {what}: {exc}") from exc
            if not (type(i) is int and type(jj) is int and 0 <= i < nrows and 0 <= jj < ncols):
                raise StructureError(
                    f"entry ({i!r}, {jj!r}) lies outside the {nrows}x{ncols} stored {what}"
                )
            if jj != j:
                if col is not None:
                    _freeze(cols, zeros, ints[j], col)
                if ints is None:
                    # asked only once an entry lies inside the shape
                    ints = positions(max(shape))
                j = jj
                col = _thaw(cols.get(j), zeros.pop(j, ()))
            if i in col:
                raise StructureError(f"entry ({i}, {j}) appears twice in stored {what}")
            col[ints[i]] = value
        if col is not None:
            _freeze(cols, zeros, ints[j], col)
    except StructureError as fault:
        for _ in pieces:
            pass
        return None, fault
    out = SparseMatrix(nrows, ncols)
    out.cols = cols
    return out, None


def _freeze(cols, zeros, j, column):
    """Store the {row: (p, q)} column as cols[j], the shared int j, in its
    stored form, and the rows of its zero entries in zeros[j] if it has any."""
    frozen = column_from_ratios(column)
    if frozen is None or len(frozen[1]) < len(column):
        zeros[j] = [i for i, (p, _) in column.items() if not p]
    if frozen is not None:
        cols[j] = frozen


def _thaw(frozen, zero_rows):
    """The {row: (p, q)} column of a stored column or None, and its zero rows."""
    column = {} if frozen is None else {i: (v, frozen[0]) for i, v in zip(*frozen[1:])}
    for i in zero_rows:
        column[i] = (0, 1)
    return column


def _read_block(text, what, shape, ratios, budget):
    """(matrix, fault) of the stored block what, read from text just past its
    key in the writer's layout, through `_decode_entries`; None off that layout.

    The block is the object {"cols", "entries", "rows"}, in that order, as
    json.dumps(indent=2) lays it out at depth 3.  Its entries are parsed a
    piece at a time (`_entry_pieces`) and decoded as they come.  Every piece
    is parsed even after a fault, and "rows" comes last, so a wrong declared
    shape is found only then; it is the fault returned, as `_decode_matrix`
    checks the shape first.  An entry is decoded only if the declared cols is
    the shape's.
    """
    if not text.skip('{\n        "cols": '):
        return None
    head = text.until(',\n        "entries": ')
    if head is None:
        return None
    declared_cols = json.loads(head[: -len(',\n        "entries": ')])
    del head
    if text.skip("[]"):
        pieces = ()
    elif text.skip("["):
        pieces = _entry_pieces(text, budget)
    else:
        return None
    if type(declared_cols) is int and declared_cols == shape[1]:
        matrix, fault = _decode_entries(pieces, what, shape, ratios)
    else:
        matrix, fault = None, None
        for _ in pieces:
            pass
    if not text.skip(',\n        "rows": '):
        return None
    tail = text.until("\n      }")
    if tail is None:
        return None
    declared = (json.loads(tail[: -len("\n      }")]), declared_cols)
    return matrix, _shape_fault(what, declared, shape) or fault


def _entry_pieces(text, budget):
    """The entries of a stored block, read from text just past the "[" of its
    entry list in the writer's layout, as parsed lists of whole entries.

    Each list is parsed from one `_Chunks.piece`, at most `_Chunks.SIZE`
    characters unless a single entry is longer, and the budget is checked
    before each parse.  A piece cuts only at a comma before an entry's line,
    so a cut inside an entry leaves brackets open and fails to parse; a piece
    that is not a non-empty list fails too.  So the pieces that parse join to
    the list the whole text parses to, and anything else is a ValueError.
    """
    last = False
    while not last:
        got = text.piece(",\n          [", "\n        ]")
        if got is None:
            raise ValueError("unterminated entry list")
        piece, last = got
        del got
        if budget is not None:
            budget.check()
        entries = json.loads("[" + piece + "]")
        del piece
        if not entries:
            raise ValueError("empty piece of an entry list")
        yield entries
        del entries


class _Chunks:
    """The unread text of a file, read in fixed-size chunks and cut at literals.

    Only the newly read text is searched for a marker, and the pieces of a
    cut are joined once, so reading a file costs time linear in its size.
    """

    SIZE = 64 * 1024

    def __init__(self, fh):
        self.fh = fh
        self.rest = ""

    def starts(self, literal):
        """Whether the unread text starts with literal."""
        while len(self.rest) < len(literal):
            chunk = self.fh.read(self.SIZE)
            if not chunk:
                break
            self.rest += chunk
        return self.rest.startswith(literal)

    def skip(self, literal):
        """Consume literal if the unread text starts with it; whether it did."""
        if not self.starts(literal):
            return False
        self.rest = self.rest[len(literal):]
        return True

    def until(self, marker):
        """Consume and return the text up to and including the next marker;
        None if no marker follows."""
        parts = []
        buf = self.rest
        while (at := buf.find(marker)) < 0:
            chunk = self.fh.read(self.SIZE)
            if not chunk:
                return None
            # a marker may straddle the cut: keep its length less one
            cut = max(len(buf) - len(marker) + 1, 0)
            parts.append(buf[:cut])
            buf = buf[cut:] + chunk
        end = at + len(marker)
        parts.append(buf[:end])
        self.rest = buf[end:]
        return "".join(parts)

    def piece(self, sep, end):
        """Consume the unread text up to the next end marker, a piece at a time.

        (text, True), the end marker consumed, if that marker starts within
        SIZE characters; else (text, False) up to the last sep that starts
        within them past the first character, the sep's first character
        consumed.  If neither does, the reach doubles until one does.  None
        if neither follows.
        """
        buf, self.rest = self.rest, ""
        size = self.SIZE
        while True:
            reach = size + max(len(sep), len(end))
            while len(buf) < reach:
                chunk = self.fh.read(self.SIZE)
                if not chunk:
                    break
                buf += chunk
            at = buf.find(end, 0, size + len(end))
            if at >= 0:
                self.rest = buf[at + len(end):]
                return buf[:at], True
            cut = buf.rfind(sep, 1, size + len(sep))
            if cut >= 0:
                self.rest = buf[cut + 1:]
                return buf[:cut], False
            if len(buf) < reach:
                self.rest = buf
                return None
            size *= 2

    def at_end(self):
        """Whether no text is left."""
        return not self.rest and not self.fh.read(1)


def _stream_json(write, value, depth):
    """Write value as json.dumps(indent=2, sort_keys=True) lays it out at this depth.

    Objects are written key by key, in sorted string order ("10" before
    "2"); a callable is a streamed value and writes itself as
    value(write, depth); anything else goes through json.dumps, re-indented
    by replacing its newlines, which JSON escaping never emits raw.
    """
    if callable(value):
        value(write, depth)
    elif isinstance(value, dict) and value:
        pad = "\n" + "  " * depth
        sep = "{"
        for key in sorted(value):
            write(f"{sep}{pad}  {json.dumps(key)}: ")
            _stream_json(write, value[key], depth + 1)
            sep = ","
        write(pad + "}")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth))


# ---------------------------------------------------------------------------
# staged operation wrappers
# ---------------------------------------------------------------------------


class OperatorOnForms:
    """Degree-graded operator on PolyForms backed by package matrices."""

    def __init__(self, package, matrices_by_degree, degree_shift):
        self.package = package
        self._mats = matrices_by_degree
        self.degree_shift = degree_shift

    def apply(self, form):
        pkg = self.package
        out = PolyForm(form.algebra)
        for k, vec in pkg._to_positional(form).items():
            mat = self._mats(k)
            out = out + pkg._to_form(k + self.degree_shift, mat.apply(vec))
        return out


def invert_on_im_delta(algebra, max_poly_degree=None, budget=None):
    """The inverse of d delta + delta d on im delta, as a checked operator."""
    pkg = RuminPackage(algebra, max_poly_degree, budget)

    def apply(form):
        out = PolyForm(algebra)
        for k, vec in pkg._to_positional(form).items():
            column = SparseMatrix(pkg.dim_v(k), 1, {0: vec})
            out = out + pkg._to_form(k, pkg.inverse_apply(k, column).column(0))
        return out

    return pkg, apply


def build_q(algebra, max_poly_degree=None, budget=None):
    pkg = RuminPackage(algebra, max_poly_degree, budget)
    for k in range(algebra.dim + 1):
        pkg.q_mat(k)
    return pkg, OperatorOnForms(pkg, pkg.q_mat, -1)


def build_pi_and_E(algebra, max_poly_degree=None, budget=None):
    """pi plus a basis description of E (= ker pi) per degree, as PolyForms."""
    pkg, _ = build_q(algebra, max_poly_degree, budget)
    pi, basis = {}, {}
    for k in range(algebra.dim + 1):
        pi[k] = pkg.pi_mat(k)
        E = pkg.E_basis(k)
        basis[k] = [pkg._to_form(k, E.column(j)) for j in range(E.ncols)]
    return pkg, OperatorOnForms(pkg, pi.__getitem__, 0), basis


def build_iota_and_D(algebra, max_poly_degree=None, budget=None):
    pkg = RuminPackage(algebra, max_poly_degree, budget).build()
    return pkg, pkg.arrows()
