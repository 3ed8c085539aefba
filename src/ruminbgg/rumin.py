"""Homotopy retraction onto the bigraded complex ker delta / im delta.

Everything happens on the exactly invariant space of polynomial forms
with coefficient degree <= P.  The degree-zero operator d delta + delta d
splits as L0 + N with L0 the fiberwise part (invertible on im delta) and
N strictly weight-raising, so its inverse on im delta is the terminating
Neumann series sum (-L0^{-1} N)^j L0^{-1}.  From the inverse:

    q  = (d delta + delta d)^{-1} delta
    pi = d q + q d
    iota^{-1} = (1 - q d) on harmonic-monomial lifts
    D  = project_harmonic . d . iota^{-1}

The construction asserts every operator identity exactly and names a
witness basis element on failure.
"""

import json
from fractions import Fraction

from .algebra import algebra_from_json, algebra_to_json
from .errors import IdentityError, StructureError
from .fiber import FiberContext, monomial_weight
from .groupcalc import GroupContext, PolyForm, format_term
from .linalg import ColumnEliminator, SparseMatrix, accumulate, axpy
from .scalars import fraction_from_str, fraction_to_str

def default_poly_degree(algebra):
    """Spanning-set budget: 3 for dim <= 7, 1 beyond (octonionic scale)."""
    return 3 if algebra.dim <= 7 else 1


def _vsub(a, b):
    out = dict(a)
    for k, v in b.items():
        accumulate(out, k, -v)
    return out


def _vneg(a):
    return {k: -v for k, v in a.items()}


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
        self._d = {}
        self._delta = {}
        self._lap = {}
        self._l0 = {}
        self._q = {}
        self._pi = {}
        self._model_keys = {}
        self._model_index = {}
        self._D = {}
        self._E_basis = {}
        self._built = False

    # -- bases ---------------------------------------------------------------

    def keys(self, k):
        if k < 0 or k > self.algebra.dim:
            return []
        if k not in self._keys:
            basis = self.group.spanning_basis(k, self.P)
            if self.budget is not None:
                self.budget.count_monomials(len(basis))
            self._keys[k] = basis
            self._index[k] = {key: i for i, key in enumerate(basis)}
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

    def _matrix_from_terms(self, k, out_degree, term_fn):
        src = self.keys(k)
        self.keys(out_degree)
        dst_index = self._index.get(out_degree, {})
        cols = {}
        for j, (exps, mono) in enumerate(src):
            col = {}
            for key, c in term_fn(exps, mono).items():
                col[dst_index[key]] = c
            if col:
                cols[j] = col
        return SparseMatrix(self.dim_v(out_degree), len(src), cols)

    def d_mat(self, k):
        if k not in self._d:
            if k < 0 or k > self.algebra.dim:
                return SparseMatrix(0, 0)
            self.keys(k + 1)
            self._d[k] = self._matrix_from_terms(k, k + 1, self.group.d_term)
        return self._d[k]

    def delta_mat(self, k):
        if k not in self._delta:
            if k < 0 or k > self.algebra.dim:
                return SparseMatrix(0, 0)
            self.keys(k - 1)
            self._delta[k] = self._matrix_from_terms(k, k - 1, self.group.delta_term)
        return self._delta[k]

    def lap_mat(self, k):
        """d delta + delta d on degree k."""
        if k not in self._lap:
            a = self.d_mat(k - 1) @ self.delta_mat(k) if k > 0 else None
            b = self.delta_mat(k + 1) @ self.d_mat(k) if k < self.algebra.dim else None
            if a is None:
                out = b
            elif b is None:
                out = a
            else:
                out = a + b
            self._lap[k] = out
        return self._lap[k]

    def l0_mat(self, k):
        """Fiberwise graded part of lap_mat: acts on the coframe only."""
        if k not in self._l0:
            fib = self.fiber

            def term(exps, mono):
                out = {}
                for m1, c1 in fib.delta_of_monomial(mono).items():
                    for m2, c2 in fib.d0_of_monomial(m1).items():
                        accumulate(out, (exps, m2), c1 * c2)
                for m1, c1 in fib.d0_of_monomial(mono).items():
                    for m2, c2 in fib.delta_of_monomial(m1).items():
                        accumulate(out, (exps, m2), c1 * c2)
                return out

            self._l0[k] = self._matrix_from_terms(k, k, term)
        return self._l0[k]

    # -- the filtered inverse ---------------------------------------------------

    def _fiber_blocks(self, k, vec):
        """Split a positional V^k vector into its fiber blocks.

        Returns (exps, w, monos, v_pos) per (polynomial, fiber weight) block,
        with v_pos positional in monos = fiber.block(k, w).
        """
        keys = self.keys(k)
        groups = {}
        for pos, c in vec.items():
            exps, mono = keys[pos]
            w = monomial_weight(self.algebra, mono)
            groups.setdefault((exps, w), {})[mono] = c
        blocks = []
        for (exps, w), fibvec in groups.items():
            monos = self.fiber.block(k, w)
            block_index = {m: i for i, m in enumerate(monos)}
            blocks.append((exps, w, monos, {block_index[m]: c for m, c in fibvec.items()}))
        return blocks

    def _l0_inverse(self, k, vec):
        """Solve L0 u = vec inside im delta, blockwise over (exps, weight)."""
        out = {}
        index = self._index[k]
        for exps, w, monos, v_pos in self._fiber_blocks(k, vec):
            elim, dblock = self.fiber.imdelta_solver(k, w)
            x = elim.solve(v_pos)
            if x is None:
                raise StructureError(
                    f"graded part d0 delta0 + delta0 d0 is singular on the "
                    f"im-delta block (degree {k}, weight {w})"
                )
            for i, c in dblock.apply(x).items():
                accumulate(out, index[(exps, monos[i])], c)
        return out

    def inverse_apply(self, k, vec):
        """(d delta + delta d)^{-1} on im delta at degree k, positional."""
        if not vec:
            return {}
        lap = self.lap_mat(k)
        l0 = self.l0_mat(k)
        term = self._l0_inverse(k, vec)
        total = dict(term)
        terms_used = 1
        # N = lap - L0 strictly raises total weight, so this terminates
        limit = 2 * (sum(self.algebra.layers) + self.P) + 4
        while term:
            n_term = _vsub(lap.apply(term), l0.apply(term))
            if not n_term:
                break
            term = self._l0_inverse(k, _vneg(n_term))
            for i, c in term.items():
                accumulate(total, i, c)
            terms_used += 1
            if terms_used > limit:
                raise IdentityError(
                    "neumann_termination",
                    witness=f"degree {k}",
                    detail="filtered Neumann series failed to terminate",
                )
        if terms_used > self.neumann_terms:
            self.neumann_terms = terms_used
        residual = _vsub(lap.apply(total), vec)
        if residual:
            raise IdentityError(
                "inverse_on_im_delta",
                witness=f"degree {k}",
                detail="(d delta + delta d) . inverse != identity on im delta",
            )
        return total

    # -- q, pi ------------------------------------------------------------------

    def q_mat(self, k):
        if k not in self._q:
            if k <= 0 or k > self.algebra.dim:
                self._q[k] = SparseMatrix(self.dim_v(k - 1), self.dim_v(k))
                return self._q[k]
            delta = self.delta_mat(k)
            cols = {}
            for j in range(self.dim_v(k)):
                if self.budget is not None and j % 64 == 0:
                    self.budget.check()
                b = delta.column(j)
                if not b:
                    continue
                cols[j] = self.inverse_apply(k - 1, b)
            self._q[k] = SparseMatrix(self.dim_v(k - 1), self.dim_v(k), cols)
        return self._q[k]

    def pi_mat(self, k):
        if k not in self._pi:
            dim = self.algebra.dim
            parts = []
            if 0 < k <= dim:
                parts.append(self.d_mat(k - 1) @ self.q_mat(k))
            if 0 <= k < dim:
                parts.append(self.q_mat(k + 1) @ self.d_mat(k))
            out = parts[0]
            for p in parts[1:]:
                out = out + p
            self._pi[k] = out
        return self._pi[k]

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
            self._model_index[k] = {key: i for i, key in enumerate(keys)}
        return self._model_keys[k]

    def model_dim(self, k):
        """len(model_keys(k)), counted without building the keys."""
        fib = self.fiber
        harmonic = sum(len(fib.harmonic_basis(k, w)) for w in fib.blocks(k))
        return harmonic * len(self.group.poly_basis(self.P))

    def lift(self, k, model_vec):
        """Model vector to positional V^k vector via harmonic representatives."""
        out = {}
        index = self._index[k]
        mkeys = self.model_keys(k)
        for pos, c in model_vec.items():
            exps, w, i = mkeys[pos]
            hvec = self.fiber.harmonic_basis(k, w)[i]
            for mono, v in hvec.items():
                accumulate(out, index[(exps, mono)], c * v)
        return out

    def project(self, k, vec):
        """Fiberwise class of a pointwise-ker-delta vector in the model basis."""
        self.model_keys(k)
        midx = self._model_index[k]
        out = {}
        for exps, w, _, v_pos in self._fiber_blocks(k, vec):
            elim, nharm = self.fiber.kerdelta_solver(k, w)
            x = elim.solve(v_pos)
            if x is None:
                raise IdentityError(
                    "projection_domain",
                    witness=f"degree {k}, weight {w}",
                    detail="vector not a section of ker delta",
                )
            for j, c in x.items():
                if j < nharm and c:
                    accumulate(out, midx[(exps, w, j)], c)
        return out

    def iota_inv_mat(self, k):
        """(1 - q d) applied to harmonic lifts: model^k -> V^k."""
        qd = self.q_mat(k + 1) @ self.d_mat(k) if k < self.algebra.dim else None
        cols = {}
        n = len(self.model_keys(k))
        for j in range(n):
            v = self.lift(k, {j: Fraction(1)})
            if qd is not None:
                v = _vsub(v, qd.apply(v))
            cols[j] = v
        return SparseMatrix(self.dim_v(k), n, cols)

    def D_mat(self, k):
        if k not in self._D:
            iota_inv = self.iota_inv_mat(k)
            d = self.d_mat(k)
            n_out = len(self.model_keys(k + 1))
            cols = {}
            for j in range(iota_inv.ncols):
                image = d.apply(iota_inv.column(j))
                cols[j] = self.project(k + 1, image)
            self._D[k] = SparseMatrix(n_out, iota_inv.ncols, cols)
        return self._D[k]

    def arrows(self):
        """Bigraded arrows of D with their weight jump (operator order)."""
        seen = {}
        for k in range(self.algebra.dim):
            mk = self.model_keys(k)
            mk1 = self.model_keys(k + 1)
            for j, col in self.D_mat(k).cols.items():
                _, w, _ = mk[j]
                for i in col:
                    _, w2, _ = mk1[i]
                    seen.setdefault((k, w, w2), 0)
                    seen[(k, w, w2)] += 1
        return [
            {"degree": k, "source_weight": w, "target_weight": w2, "order": w2 - w}
            for (k, w, w2) in sorted(seen)
        ]

    # -- E = ker delta  cap  ker delta d -------------------------------------------

    def E_basis(self, k):
        """Canonical basis of ker q cap ker qd on V^k (equals ker pi)."""
        if k not in self._E_basis:
            q = self.q_mat(k)
            qd = self.q_mat(k + 1) @ self.d_mat(k) if k < self.algebra.dim else None
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

    def _fiber_bgg_block(self, k, w):
        """Fiber-level BGG map H(k,w) -> H(k+1,w): proj d0 (1 - q0 d0)."""
        fib = self.fiber
        harm = fib.harmonic_basis(k, w)
        tgt = fib.harmonic_basis(k + 1, w)
        tgt_monos = fib.block(k + 1, w)
        tgt_index = {m: i for i, m in enumerate(tgt_monos)}
        cols = {}
        for j, h in enumerate(harm):
            dh = {}
            for mono, c in h.items():
                axpy(dh, fib.d0_of_monomial(mono), c)
            # q0 dh: solve L0 u = delta0 dh inside the (k+1, w) im-delta block
            b = {}
            for mono, c in dh.items():
                axpy(b, fib.delta_of_monomial(mono), c)
            # b lives in degree k, weight w
            if b:
                monos_k = fib.block(k, w)
                bidx = {m: i for i, m in enumerate(monos_k)}
                elim, dblock = fib.imdelta_solver(k, w)
                x = elim.solve({bidx[m]: c for m, c in b.items()})
                if x is None:
                    raise StructureError(
                        f"fiber inverse failed on block ({k}, {w})"
                    )
                u = dblock.apply(x)
                # subtract d0(u) from dh  (D0 = proj d0 (h - q0 d0 h))
                for i, c in u.items():
                    axpy(dh, fib.d0_of_monomial(monos_k[i]), -c)
            # project dh (in ker delta, weight w) onto harmonic coordinates
            elim, nharm = fib.kerdelta_solver(k + 1, w)
            x = elim.solve({tgt_index[m]: c for m, c in dh.items()})
            if x is None:
                raise IdentityError(
                    "fiber_projection",
                    witness=f"block ({k + 1}, {w})",
                    detail="fiber image left ker delta",
                )
            col = {i: c for i, c in x.items() if i < nharm and c}
            if col:
                cols[j] = col
        return SparseMatrix(len(tgt), len(harm), cols)

    def _witness(self, k, column):
        exps, mono = self.keys(k)[column]
        return format_term(self.algebra, exps, mono)

    def _check_equal(self, name, k, left, right):
        if left == right:
            return
        diff = left - right
        col = min(diff.cols)
        raise IdentityError(name, witness=self._witness(k, col))

    def verify(self):
        """Run the full identity suite; returns report rows, raises never.

        Any failed identity is reported with its witness; callers decide
        whether to raise.  Building the package also checks inverse
        postconditions, so a constructed package normally verifies clean.
        """
        rows = []
        dim = self.algebra.dim

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

        def check_q_squared():
            for k in range(1, dim + 1):
                self._check_equal(
                    "q_squared",
                    k,
                    self.q_mat(k - 1) @ self.q_mat(k),
                    SparseMatrix(self.dim_v(k - 2), self.dim_v(k)),
                )

        def check_qdq():
            for k in range(1, dim + 1):
                self._check_equal(
                    "q_d_q",
                    k,
                    self.q_mat(k) @ self.d_mat(k - 1) @ self.q_mat(k),
                    self.q_mat(k),
                )

        def check_pi_idempotent():
            for k in range(dim + 1):
                self._check_equal(
                    "pi_idempotent", k, self.pi_mat(k) @ self.pi_mat(k), self.pi_mat(k)
                )

        def check_pi_d():
            for k in range(dim):
                self._check_equal(
                    "pi_commutes_d",
                    k,
                    self.pi_mat(k + 1) @ self.d_mat(k),
                    self.d_mat(k) @ self.pi_mat(k),
                )

        def check_pi_q():
            for k in range(1, dim + 1):
                self._check_equal(
                    "pi_q", k, self.pi_mat(k - 1) @ self.q_mat(k), self.q_mat(k)
                )

        def check_q_pi():
            for k in range(1, dim + 1):
                self._check_equal(
                    "q_pi", k, self.q_mat(k) @ self.pi_mat(k), self.q_mat(k)
                )

        def check_homotopy():
            # dq + qd equals the identity on every column of im pi
            for k in range(dim + 1):
                pi = self.pi_mat(k)
                for j in sorted(pi.cols):
                    col = pi.column(j)
                    back = {}
                    if 0 < k:
                        back = self.d_mat(k - 1).apply(self.q_mat(k).apply(col))
                    if k < dim:
                        second = self.q_mat(k + 1).apply(self.d_mat(k).apply(col))
                        back = _vsub(back, _vneg(second))
                    if back != col:
                        raise IdentityError(
                            "homotopy_on_im_pi", witness=self._witness(k, j)
                        )

        def check_q_lap():
            # q (d delta + delta d) = delta on all forms
            for k in range(1, dim + 1):
                self._check_equal(
                    "q_laplacian_is_delta",
                    k,
                    self.q_mat(k) @ self.lap_mat(k),
                    self.delta_mat(k),
                )

        def check_ker_pi():
            for k in range(dim + 1):
                basis = self.E_basis(k)
                pi = self.pi_mat(k)
                for vec in basis:
                    img = pi.apply(vec)
                    if img:
                        raise IdentityError(
                            "ker_pi_equals_ker_q_ker_qd",
                            witness=self._witness(k, min(img)),
                        )
                nullity_pi = self.dim_v(k) - pi.rank()
                if nullity_pi != len(basis):
                    raise IdentityError(
                        "ker_pi_equals_ker_q_ker_qd",
                        witness=f"degree {k}: dim ker pi = {nullity_pi}, "
                        f"dim (ker q cap ker qd) = {len(basis)}",
                    )

        def check_iota_right():
            # project . (1 - qd) . lift is the identity on the model
            for k in range(dim + 1):
                iota_inv = self.iota_inv_mat(k)
                n = iota_inv.ncols
                for j in range(n):
                    got = self.project(k, iota_inv.column(j))
                    if got != {j: Fraction(1)}:
                        exps, w, i = self.model_keys(k)[j]
                        raise IdentityError(
                            "iota_inverse_right",
                            witness=f"model element (deg {k}, weight {w}, #{i}) "
                            f"poly {format_term(self.algebra, exps, ())}",
                        )

        def check_iota_left():
            # (1 - qd) lift project is the identity on E = ker pi
            for k in range(dim + 1):
                iota_inv = self.iota_inv_mat(k)
                for vec in self.E_basis(k):
                    back = iota_inv.apply(self.project(k, vec))
                    if back != vec:
                        raise IdentityError(
                            "iota_inverse_left",
                            witness=self._witness(k, min(set(vec) | set(back))),
                        )

        def check_D_squared():
            for k in range(dim - 1):
                lhs = self.D_mat(k + 1) @ self.D_mat(k)
                if not lhs.is_zero():
                    col = min(lhs.cols)
                    exps, w, i = self.model_keys(k)[col]
                    raise IdentityError(
                        "D_squared",
                        witness=f"model element (deg {k}, weight {w}, #{i})",
                    )

        def check_fiber_restriction():
            # constants go through the purely fiber-level BGG operator
            zero_exps = (0,) * self.algebra.dim
            for k in range(dim):
                mk = self.model_keys(k)
                mk1_index = self._model_index[k + 1]
                D = self.D_mat(k)
                for w in sorted(self.fiber.blocks(k)):
                    harm = self.fiber.harmonic_basis(k, w)
                    if not harm:
                        continue
                    tgt_harm = self.fiber.harmonic_basis(k + 1, w)
                    fiber_block = self._fiber_bgg_block(k, w)
                    for i in range(len(harm)):
                        src = self._model_index[k][(zero_exps, w, i)]
                        got = D.column(src)
                        want = {}
                        for t, c in fiber_block.column(i).items():
                            want[mk1_index[(zero_exps, w, t)]] = c
                        if got != want:
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

    def to_json(self):
        self.build()

        def encode(matrix):
            entries = []
            for j in sorted(matrix.cols):
                col = matrix.cols[j]
                for i in sorted(col):
                    entries.append([i, j, fraction_to_str(col[i])])
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
        return {
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
        if not isinstance(P, int):
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
                    {tuple(m): fraction_from_str(c) for m, c in vec} for vec in vectors
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
    if declared != shape:
        raise StructureError(
            f"stored {what} has shape {declared[0]}x{declared[1]}, expected {nrows}x{ncols}"
        )
    cols = {}
    for entry in entries:
        try:
            i, j, c = entry
            value = fraction_from_str(c)
        except (TypeError, ValueError) as exc:
            raise StructureError(f"malformed entry {entry!r} in stored {what}: {exc}") from exc
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < nrows and 0 <= j < ncols):
            raise StructureError(
                f"entry ({i!r}, {j!r}) lies outside the {nrows}x{ncols} stored {what}"
            )
        cols.setdefault(j, {})[i] = value
    return SparseMatrix(nrows, ncols, cols)


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
            out = out + pkg._to_form(k, pkg.inverse_apply(k, vec))
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
