"""Homotopy retraction onto the bigraded complex ker delta / im delta.

Everything happens on the exactly invariant space of polynomial forms
with coefficient degree <= P.  The degree-zero operator d delta + delta d
splits as L0 + N with L0 the fiberwise part (invertible on im delta) and
N strictly weight-raising, so its inverse on im delta is the terminating
Neumann series sum (-L0^{-1} N)^j L0^{-1}.  From the inverse:

    q  = (d delta + delta d)^{-1} delta
    pi = d q + q d
    iota^{-1} = (1 - q d) lift,  lift = the harmonic representatives
    D  = project_harmonic . d . iota^{-1}

Each operator is a product of matrices over stored integer columns.
Every product or sum of products (the Laplacian, the Neumann steps and
the inverse's residual, pi, iota^{-1}, D and the identity suite's
residuals) is one call of `linalg.combine`, which checks the package
budget every 64 columns.  d comes from the group calculus's cached
pieces (`GroupContext.d_matrix`).
V^k = Poly_P (x) Lambda^k is laid out per degree by (polynomial, fiber
weight) block; delta = 1 (x) delta0, L0 = 1 (x) (d0 delta0 + delta0 d0) and
the harmonic projection 1 (x) X, X the fiber's harmonic coordinate matrix,
are the fiber's (k, w) block matrices copied through that layout.  Only
L0^{-1} on im delta goes column by column: it splits a column by block and
solves each piece with the block's cached eliminator.  So no Fraction is
created from the cached pieces of d and the fiber's blocks and solvers to
q, iota^{-1}, D.  The package's stored operator entries are written from
and decoded into integer columns without Fractions as well.  Fractions
remain where forms meet the matrices, in building those cached pieces, and
in the stored harmonic bases, which are compared with the canonical
Fraction ones on load.

The package format is what `write_json` streams: the indent=2, key-sorted
JSON of the algebra, P, the harmonic bases and the q, pi, D entries.

The construction asserts every operator identity exactly and names a
witness basis element on failure.  The identity suite (`verify`) pins a
stored pi by dq + qd - pi = 0, then evaluates the other pi identities as
residual sums of products of the sparse d and q, and ker pi through
trace(pi) and the iota^{-1} columns, never composing with the
materialized pi.
"""

import io
import json

from .algebra import algebra_from_json, algebra_to_json
from .errors import IdentityError, StructureError
from .fiber import FiberContext
from .groupcalc import GroupContext, PolyForm, format_term
from .linalg import ColumnEliminator, SparseMatrix, column_from_ratios, combine, sum_columns
from .scalars import fraction_from_str, fraction_to_str, ratio_from_str, ratio_to_str

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
        self.neumann_terms = 0  # max Neumann length seen while inverting
        self._keys = {}
        self._index = {}
        self._block_layout = {}
        self._d = {}
        self._delta = {}
        self._lap = {}
        self._n = {}
        self._q = {}
        self._pi = {}
        self._model_keys = {}
        self._D = {}
        self._iota_inv = {}
        self._E_basis = {}
        self._arrows = None
        self._built = False

    # -- bases ---------------------------------------------------------------

    def keys(self, k):
        """Spanning basis of V^k, empty outside 0 <= k <= dim."""
        if k not in self._keys:
            index = self.group.spanning_index(k, self.P)
            if self.budget is not None:
                self.budget.count_monomials(len(index))
            self._keys[k] = list(index)
            self._index[k] = index
        return self._keys[k]

    def dim_v(self, k):
        return len(self.keys(k))

    def _to_positional(self, form):
        """Split a PolyForm into {degree: positional dict}; checks the budget."""
        by_k = {}
        for (exps, mono), c in form.terms.items():
            k = len(mono)
            idx = self._index.get(k) if k in self._keys else None
            if idx is None:
                self.keys(k)
                idx = self._index[k]
            pos = idx.get((exps, mono))
            if pos is None:
                raise StructureError(
                    f"form term {format_term(self.algebra, exps, mono)} exceeds "
                    f"polynomial degree budget P={self.P}"
                )
            by_k.setdefault(k, {})[pos] = c
        return by_k

    def _to_form(self, k, vec):
        keys = self.keys(k)
        return PolyForm(self.algebra, {keys[i]: c for i, c in vec.items()})

    # -- operator matrices ----------------------------------------------------

    def d_mat(self, k):
        if k not in self._d:
            if k < 0 or k > self.algebra.dim:
                return SparseMatrix(0, 0)
            # the package's bases count against the monomial budget
            self.keys(k)
            self.keys(k + 1)
            self._d[k] = self.group.d_matrix(k, self.P, self.budget)
        return self._d[k]

    def delta_mat(self, k):
        if k not in self._delta:
            if k < 0 or k > self.algebra.dim:
                return SparseMatrix(0, 0)
            self._delta[k] = self._fiberwise(k, k - 1, self.fiber.delta_block)
        return self._delta[k]

    def lap_mat(self, k):
        """d delta + delta d on degree k."""
        if k not in self._lap:
            terms = []
            if k > 0:
                terms.append((1, self.d_mat(k - 1), self.delta_mat(k)))
            if k < self.algebra.dim:
                terms.append((1, self.delta_mat(k + 1), self.d_mat(k)))
            n = self.dim_v(k)
            self._lap[k] = combine(n, n, terms, self.budget)
        return self._lap[k]

    def l0_mat(self, k):
        """Fiberwise graded part of lap_mat: acts on the coframe only.

        Not cached: only n_mat reads it, once per degree.
        """
        return self._fiberwise(k, k, self.fiber.laplacian_block)

    def n_mat(self, k):
        """N = lap - L0, the strictly weight-raising part of lap_mat."""
        if k not in self._n:
            self._n[k] = self.lap_mat(k) - self.l0_mat(k)
        return self._n[k]

    # -- the filtered inverse ---------------------------------------------------

    def block_layout(self, k):
        """(where, blocks) for V^k, built once; callers must not change it.

        blocks[b] = (exps, w, rows), numbered by weight, then polynomial, has
        rows[i] = the V^k position of (exps, fiber.block(k, w)[i]), and
        where[rows[i]] = (b, i).
        """
        if k not in self._block_layout:
            self.keys(k)
            index = self._index[k]
            where = [None] * len(index)
            blocks = []
            for w, monos in self.fiber.blocks(k).items():
                for exps in self.group.poly_basis(self.P):
                    rows = [index[(exps, m)] for m in monos]
                    for i, pos in enumerate(rows):
                        where[pos] = (len(blocks), i)
                    blocks.append((exps, w, rows))
            self._block_layout[k] = (where, blocks)
        return self._block_layout[k]

    def _product(self, a, b):
        """a @ b, checking the package budget every 64 columns."""
        return combine(a.nrows, b.ncols, [(1, a, b)], self.budget)

    def _fiberwise(self, k, out_k, block_fn):
        """The V^k -> V^out_k matrix of 1 (x) F, F given per weight w by its
        block block_fn(k, w): (k, w) -> (out_k, w)."""
        targets = {(exps, w): rows for exps, w, rows in self.block_layout(out_k)[1]}
        return self._copy_blocks(k, block_fn, self.dim_v(out_k), targets)

    def _copy_blocks(self, k, block_fn, nrows, targets):
        """A matrix on V^k with nrows rows that maps each fiber block (exps, w)
        of V^k by block_fn(k, w), built once per weight, into the rows
        targets[(exps, w)].  The budget is checked every 64 columns."""
        fiber_cols = {w: block_fn(k, w).cols for w in self.fiber.blocks(k)}
        out = SparseMatrix(nrows, self.dim_v(k))
        n = 0
        for exps, w, rows in self.block_layout(k)[1]:
            # no target rows means the block has no columns
            out_rows = targets.get((exps, w))
            for j, (den, num) in fiber_cols[w].items():
                if self.budget is not None and n % 64 == 0:
                    self.budget.check()
                n += 1
                out.cols[rows[j]] = (den, {out_rows[i]: v for i, v in num.items()})
        return out

    def _blockwise(self, k, matrix, nrows, solve):
        """Map each column of a V^k matrix piece by fiber block.

        solve(block, den, piece) maps piece / den, positional in the block,
        to a stored column over nrows rows.  Columns go in ascending order and
        blocks by number, so a failing solve is the first failing block of
        the first failing column.  The budget is checked every 64 columns.
        """
        where, blocks = self.block_layout(k)
        out = SparseMatrix(nrows, matrix.ncols)
        for n, (j, (den, num)) in enumerate(sorted(matrix.cols.items())):
            if self.budget is not None and n % 64 == 0:
                self.budget.check()
            pieces = {}
            for pos, v in num.items():
                b, i = where[pos]
                pieces.setdefault(b, {})[i] = v
            col = sum_columns([solve(blocks[b], den, pieces[b]) for b in sorted(pieces)])
            if col:
                out.cols[j] = col
        return out

    def inverse_apply(self, k, matrix):
        """(d delta + delta d)^{-1} on im delta at degree k, per column of a V^k matrix.

        The series sums (-L0^{-1} N)^j L0^{-1} B; L0^{-1} on im delta goes
        block by block through the fiber's im-delta eliminators.
        """

        def l0_solve(block, den, num):
            exps, w, rows = block
            u = self.fiber.l0_inverse_column(k, w, den, num)
            if u is None:
                raise StructureError(
                    f"graded part d0 delta0 + delta0 d0 is singular on the "
                    f"im-delta block (degree {k}, weight {w})"
                )
            return u[0], {rows[i]: v for i, v in u[1].items()}

        total = SparseMatrix(matrix.nrows, matrix.ncols)
        if matrix.is_zero():
            return total
        n = self.n_mat(k)
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
            term = self._blockwise(k, rhs, rhs.nrows, l0_solve)
            sign = -1 if terms_used % 2 else 1
            total = combine(total.nrows, total.ncols, [(1, total, None), (sign, term, None)])
            terms_used += 1
            rhs = combine(n.nrows, term.ncols, [(1, n, term)], self.budget)
        if terms_used > self.neumann_terms:
            self.neumann_terms = terms_used
        residual = [(1, self.lap_mat(k), total), (-1, matrix, None)]
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
                self._q[k] = self.inverse_apply(k - 1, self.delta_mat(k))
            else:
                self._q[k] = SparseMatrix(self.dim_v(k - 1), self.dim_v(k))
        return self._q[k]

    def pi_mat(self, k):
        if k not in self._pi:
            self._pi[k] = self._dq_plus_qd(k)
        return self._pi[k]

    def _dq_plus_qd(self, k, minus=None):
        """d q + q d on degree k, from the q and d matrices, less the matrix
        minus if one is given."""
        dim = self.algebra.dim
        terms = []
        if 0 < k <= dim:
            terms.append((1, self.d_mat(k - 1), self.q_mat(k)))
        if 0 <= k < dim:
            terms.append((1, self.q_mat(k + 1), self.d_mat(k)))
        if minus is not None:
            terms.append((-1, minus, None))
        n = self.dim_v(k)
        return combine(n, n, terms, self.budget)

    # -- the bigraded model and D -------------------------------------------------

    def model_keys(self, k):
        """Basis (exps, weight, i) of Poly x harmonic block, deterministic."""
        if k not in self._model_keys:
            polys = self.group.poly_basis(self.P)
            keys = []
            for w in sorted(self.fiber.blocks(k)):
                basis = self.fiber.harmonic_basis(k, w)
                for i in range(len(basis)):
                    for exps in polys:
                        keys.append((exps, w, i))
            self._model_keys[k] = keys
        return self._model_keys[k]

    def model_dim(self, k):
        """len(model_keys(k)), counted without building the keys."""
        fib = self.fiber
        harmonic = sum(len(fib.harmonic_basis(k, w)) for w in fib.blocks(k))
        return harmonic * len(self.group.poly_basis(self.P))

    def lift(self, k):
        """The model^k -> V^k matrix of harmonic representatives."""
        self.keys(k)
        index = self._index[k]
        harmonic = self.fiber.harmonic_basis
        mkeys = self.model_keys(k)
        cols = {
            j: {index[(exps, m)]: v for m, v in harmonic(k, w)[i].items()}
            for j, (exps, w, i) in enumerate(mkeys)
        }
        return SparseMatrix(len(index), len(mkeys), cols)

    def project(self, k, matrix):
        """Fiberwise classes of pointwise-ker-delta V^k columns in the model basis.

        Each column must lie in ker delta; otherwise projection_domain names
        the smallest such column's lowest weight where delta of it is nonzero.
        On ker delta the fiber blocks' harmonic coordinate matrices, copied
        through the block layout and rebuilt per call, give the model
        coordinates as one product.  The budget is checked every 64 columns.
        """
        delta = self.delta_mat(k)
        mkeys = self.model_keys(k)
        targets = {}
        for pos, (exps, w, _) in enumerate(mkeys):
            targets.setdefault((exps, w), []).append(pos)
        coords = self._copy_blocks(k, self.fiber.harmonic_coordinate_block, len(mkeys), targets)
        out = SparseMatrix(coords.nrows, matrix.ncols)
        for n, (j, (den, num)) in enumerate(sorted(matrix.cols.items())):
            if self.budget is not None and n % 64 == 0:
                self.budget.check()
            off = delta.apply_column(den, num)
            if off:
                where, blocks = self.block_layout(k - 1)
                w = min(blocks[where[i][0]][1] for i in off[1])
                raise IdentityError(
                    "projection_domain",
                    witness=f"degree {k}, weight {w}",
                    detail="vector not a section of ker delta",
                )
            col = coords.apply_column(den, num)
            if col:
                out.cols[j] = col
        return out

    def iota_inv_mat(self, k):
        """(1 - q d) lift: model^k -> V^k."""
        lift = self.lift(k)
        if k < self.algebra.dim:
            d_lift = self._product(self.d_mat(k), lift)
            lift = combine(
                lift.nrows, lift.ncols, [(1, lift, None), (-1, self.q_mat(k + 1), d_lift)],
                self.budget,
            )
        return lift

    def iota_inv(self, k):
        """iota_inv_mat(k), built once per package; D_mat and verify share it."""
        if k not in self._iota_inv:
            self._iota_inv[k] = self.iota_inv_mat(k)
        return self._iota_inv[k]

    def D_mat(self, k):
        if k not in self._D:
            self._D[k] = self.project(k + 1, self._product(self.d_mat(k), self.iota_inv(k)))
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
            mk = self.model_keys(k)
            mk1 = self.model_keys(k + 1)
            for j, (_, col) in self.D_mat(k).cols.items():
                _, w, _ = mk[j]
                for i in col:
                    _, w2, _ = mk1[i]
                    seen.setdefault((k, w, w2), 0)
                    seen[(k, w, w2)] += 1
        self._arrows = [
            {"degree": k, "source_weight": w, "target_weight": w2, "order": w2 - w}
            for (k, w, w2) in sorted(seen)
        ]
        return self._arrows

    # -- E = ker delta  cap  ker delta d -------------------------------------------

    def E_basis(self, k):
        """Canonical basis of ker q cap ker qd on V^k (equals ker pi)."""
        if k not in self._E_basis:
            q = self.q_mat(k)
            qd = self._product(self.q_mat(k + 1), self.d_mat(k)) if k < self.algebra.dim else None
            stacked = q.stack(qd) if qd is not None else q
            self._E_basis[k] = ColumnEliminator(stacked).nullspace()
        return self._E_basis[k]

    # -- full construction and the identity suite ------------------------------------

    def build(self):
        if not self._built:
            for k in range(self.algebra.dim + 1):
                if self.budget is not None:
                    self.budget.check()
                self.q_mat(k)
                self.pi_mat(k)
            for k in range(self.algebra.dim):
                self.D_mat(k)
            self._built = True
        return self

    def _witness(self, k, column):
        exps, mono = self.keys(k)[column]
        return format_term(self.algebra, exps, mono)

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
        whether to raise.  An exhausted budget is not a row: the
        BudgetExceededError from the checkpoint before each row propagates.
        Building the package also checks inverse postconditions, so a
        constructed package normally verifies clean.

        pi is pinned by F(k) = d q + q d: every pi row fails, with the
        first differing column as witness, unless the stored pi(k) equals
        F(k) on every degree.  Given that, the rows evaluate the other pi
        identities through products of the sparse q and d, and ker pi
        through trace(pi) and the iota^-1 columns, instead of composing
        with pi.  Products and verdicts shared between rows are memoized
        for this call only.
        """
        rows = []
        dim = self.algebra.dim
        memo = {}

        def record(name, fn):
            if self.budget is not None:
                self.budget.check()
            try:
                fn()
            except IdentityError as err:
                rows.append(
                    {
                        "identity": name,
                        "status": "fail",
                        "counterexample": str(err.witness),
                    }
                )
                return
            rows.append({"identity": name, "status": "ok"})

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
            exps, w, i = self.model_keys(k)[j]
            return (
                f"model element (deg {k}, weight {w}, #{i}) "
                f"poly {format_term(self.algebra, exps, ())}"
            )

        product = self._product

        def qq(k):
            return once(("qq", k), lambda: product(self.q_mat(k - 1), self.q_mat(k)))

        def qdq(k):
            q = self.q_mat(k)
            return once(("qdq", k), lambda: product(product(q, self.d_mat(k - 1)), q))

        def dd(k):
            return once(("dd", k), lambda: product(self.d_mat(k), self.d_mat(k - 1)))

        def pinned(k):
            # the stored pi(k) equals F(k) = d q + q d
            def compare():
                residual = self._dq_plus_qd(k, minus=self.pi_mat(k))
                self._check_zero("pi_is_dq_plus_qd", k, residual)

            once(("pinned", k), compare)

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
                    terms.append((1, self.d_mat(k - 1), qdq(k) - self.q_mat(k)))
                if k < dim:
                    terms.append((1, qdq(k + 1) - self.q_mat(k + 1), self.d_mat(k)))
                if 0 < k < dim:
                    terms.append((1, self.d_mat(k - 1), product(qq(k + 1), self.d_mat(k))))
                    terms.append((1, self.q_mat(k + 1), product(dd(k), self.q_mat(k))))
                self._check_sum("pi_idempotent", k, self.dim_v(k), terms)

            once(("idempotent", k), residual)

        def projected(k):
            # project of the iota^-1(k) columns, shared by the rows that need it
            return once(("projected", k), lambda: self.project(k, self.iota_inv(k)))

        def iota_right(k):
            got = projected(k)
            wrong = got - SparseMatrix.identity(got.ncols)
            if wrong.cols:
                raise IdentityError("iota_inverse_right", witness=model_witness(k, min(wrong.cols)))

        def ker_pi(k):
            # ker q cap ker qd lies in ker pi because pi = F.  The model_dim(k)
            # iota^-1 columns, independent by iota_inverse_right, lie in
            # ker q cap ker qd, and dim ker pi = n - trace(pi) because pi is
            # idempotent; equal dimensions close both inclusions.
            def run():
                pinned(k)
                idempotent(k)
                iota_right(k)
                iota_inv = self.iota_inv(k)
                wrong = set(product(self.q_mat(k), iota_inv).cols)
                if k < dim:
                    d_iota = product(self.d_mat(k), iota_inv)
                    wrong |= set(product(self.q_mat(k + 1), d_iota).cols)
                if wrong:
                    raise IdentityError(
                        "ker_pi_equals_ker_q_ker_qd", witness=model_witness(k, min(wrong))
                    )
                nullity_pi = self.dim_v(k) - self.pi_mat(k).trace()
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
                self._check_zero("q_d_q", k, qdq(k) - self.q_mat(k))

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
                terms = [(1, qdq(k), None), (-1, self.q_mat(k), None)]
                if k > 1:
                    terms.append((1, self.d_mat(k - 2), qq(k)))
                self._check_sum("pi_q", k, self.dim_v(k - 1), terms)

        def check_q_pi():
            # given pi = F, q pi = qdq + (qq) d
            pin_all()
            for k in range(1, dim + 1):
                terms = [(1, qdq(k), None), (-1, self.q_mat(k), None)]
                if k < dim:
                    terms.append((1, qq(k + 1), self.d_mat(k)))
                self._check_sum("q_pi", k, self.dim_v(k - 1), terms)

        def check_homotopy():
            # dq + qd is the identity on im pi: given pi = F, that is pi^2 = pi
            # on every column, so it shares pi_idempotent's residual
            check_pi_idempotent()

        def check_q_lap():
            # q (d delta + delta d) = delta on all forms
            for k in range(1, dim + 1):
                terms = [(1, self.q_mat(k), self.lap_mat(k)), (-1, self.delta_mat(k), None)]
                self._check_sum("q_laplacian_is_delta", k, self.dim_v(k - 1), terms)

        def check_ker_pi():
            pin_all()
            for k in range(dim + 1):
                ker_pi(k)

        def check_iota_right():
            # project . (1 - qd) . lift is the identity on the model
            for k in range(dim + 1):
                iota_right(k)

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
                    col = min(lhs.cols)
                    exps, w, i = self.model_keys(k)[col]
                    raise IdentityError(
                        "D_squared",
                        witness=f"model element (deg {k}, weight {w}, #{i})",
                    )

        def check_fiber_restriction():
            # the fiber-level BGG operator proj d0 (1 - q0 d0) vanishes on the
            # harmonic forms, which lie in ker d0: D is zero on constants
            zero_exps = (0,) * self.algebra.dim
            for k in range(dim):
                mk = self.model_keys(k)
                wrong = [j for j in self.D_mat(k).cols if mk[j][0] == zero_exps]
                if wrong:
                    # model keys run by weight, then harmonic vector
                    _, w, i = mk[min(wrong)]
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
        never held whole.  The budget is checked every 64 columns.
        """
        self.build()
        budget = self.budget

        def encode(matrix):
            def entries(write, depth):
                """The [i, j, "p/q"] entry list, one write per column."""
                outer = "\n" + "  " * depth
                pad = outer + "  "
                inner = pad + "  "
                sep = "["
                for n, j in enumerate(sorted(matrix.cols)):
                    if budget is not None and n % 64 == 0:
                        budget.check()
                    den, num = matrix.cols[j]
                    mid = f",{inner}{j},{inner}\""
                    write(sep + ",".join([
                        f'{pad}[{inner}{i}{mid}{ratio_to_str(num[i], den)}"{pad}]'
                        for i in sorted(num)
                    ]))
                    sep = ","
                write("[]" if sep == "[" else outer + "]")

            return {"rows": matrix.nrows, "cols": matrix.ncols, "entries": entries}

        harmonic = {}
        for k in range(self.algebra.dim + 1):
            for w in sorted(self.fiber.blocks(k)):
                basis = self.fiber.harmonic_basis(k, w)
                if basis:
                    harmonic[f"{k},{w}"] = [
                        [[list(m), fraction_to_str(c)] for m, c in sorted(vec.items())]
                        for vec in basis
                    ]
        package = {
            "algebra": algebra_to_json(self.algebra),
            "max_poly_degree": self.P,
            "neumann_terms": self.neumann_terms,
            "harmonic": harmonic,
            "operators": {
                "q": {str(k): encode(self.q_mat(k)) for k in range(self.algebra.dim + 1)},
                "pi": {str(k): encode(self.pi_mat(k)) for k in range(self.algebra.dim + 1)},
                "D": {str(k): encode(self.D_mat(k)) for k in range(self.algebra.dim)},
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
        """Load a package; any malformed part raises StructureError."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise StructureError("package must be a JSON object")
        for key in ("algebra", "max_poly_degree", "operators"):
            if key not in data:
                raise StructureError(f"package is missing {key!r}")
        P = data["max_poly_degree"]
        # bool is an int subclass, so isinstance(True, int) holds
        if type(P) is not int:
            raise StructureError(f"max_poly_degree must be an integer, got {P!r}")
        algebra = algebra_from_json(data["algebra"])
        pkg = cls(algebra, P, budget=budget)
        dim = algebra.dim

        # stored harmonic bases must match the canonical recomputation;
        # instead of trusting them, install after an exact comparison
        harmonic = data.get("harmonic", {})
        if not isinstance(harmonic, dict):
            raise StructureError("package harmonic section must be an object")
        for key, vectors in harmonic.items():
            try:
                k, w = (int(x) for x in key.split(","))
                stored = [
                    {_stored_monomial(m): fraction_from_str(c) for m, c in vec} for vec in vectors
                ]
            except (TypeError, ValueError) as exc:
                raise StructureError(f"malformed harmonic block {key!r}: {exc}") from exc
            if not 0 <= k <= dim or stored != pkg.fiber.harmonic_basis(k, w):
                raise StructureError(
                    f"stored harmonic basis at block ({k}, {w}) does not match "
                    "the canonical one"
                )

        ops = data["operators"]
        for k in range(dim + 1):
            pkg._q[k] = _decode_matrix(ops, "q", k, (pkg.dim_v(k - 1), pkg.dim_v(k)))
            pkg._pi[k] = _decode_matrix(ops, "pi", k, (pkg.dim_v(k), pkg.dim_v(k)))
        for k in range(dim):
            shape = (pkg.model_dim(k + 1), pkg.model_dim(k))
            pkg._D[k] = _decode_matrix(ops, "D", k, shape)
        pkg._built = True
        return pkg


def _stored_monomial(m):
    """A stored harmonic monomial as a tuple; anything but a list of ints is
    a ValueError.  bool is an int subclass and False == 0, so a [false]
    monomial would otherwise compare equal to (0,)."""
    if not isinstance(m, list) or any(type(i) is not int for i in m):
        raise ValueError(f"monomial {m!r} is not a list of integers")
    return tuple(m)


def _decode_matrix(ops, name, k, shape):
    """Stored operator block ops[name][k], checked against the expected shape."""
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
    nrows, ncols = shape
    if any(type(n) is not int for n in declared) or declared != shape:
        raise StructureError(
            f"stored {what} has shape {declared[0]!r}x{declared[1]!r}, expected {nrows}x{ncols}"
        )
    cols = {}
    for entry in entries:
        try:
            i, j, c = entry
            value = ratio_from_str(c)
        except (TypeError, ValueError) as exc:
            raise StructureError(f"malformed entry {entry!r} in stored {what}: {exc}") from exc
        if not (type(i) is int and type(j) is int and 0 <= i < nrows and 0 <= j < ncols):
            raise StructureError(
                f"entry ({i!r}, {j!r}) lies outside the {nrows}x{ncols} stored {what}"
            )
        col = cols.setdefault(j, {})
        if i in col:
            raise StructureError(f"entry ({i}, {j}) appears twice in stored {what}")
        col[i] = value
    out = SparseMatrix(nrows, ncols)
    for j, ratios in cols.items():
        col = column_from_ratios(ratios)
        if col:
            out.cols[j] = col
    return out


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
    for k in range(algebra.dim + 1):
        pkg.pi_mat(k)
    basis = {
        k: [pkg._to_form(k, vec) for vec in pkg.E_basis(k)]
        for k in range(algebra.dim + 1)
    }
    return pkg, OperatorOnForms(pkg, pkg.pi_mat, 0), basis


def build_iota_and_D(algebra, max_poly_degree=None, budget=None):
    pkg = RuminPackage(algebra, max_poly_degree, budget).build()
    return pkg, pkg.arrows()
