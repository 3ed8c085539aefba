"""Flat-model calculus: polynomial differential forms on the 2-step group.

Coordinates are exponential of the first kind, with the closed-form group
law (x, z)(x', z') = (x + x', z + z' + [x, x']/2).  A form is a sum of
terms (polynomial monomial) x (coframe monomial); the coframe is dual to
the left-invariant frame, so contraction is purely combinatorial and

    d(f theta^I) = sum_a (X_a f) theta^a ^ theta^I + f d0(theta^I)

with the sum over the whole frame.  The layer-1 fields are

    X_a = d/dx_a - (1/2) sum_k (sum_b c^k_{ab} x_b) d/dz_k,

which satisfy [X_a, X_b] = sum_k c^k_{ab} Z_k exactly, and Z_k = d/dz_k.
Polynomial degree never increases under d, delta, i_X or L_X, so the
space of forms with coefficient degree <= P is exactly invariant.
`GroupContext.d_matrix` builds the matrix of d on that space from cached
pieces (X_a on the polynomials, the wedge signs and d0 on the coframe),
and both rumin and `parametrix_identity_check` use it.
`operator_matrix` turns any other single-term operator into a sparse
matrix over its spanning basis, and `parametrix_identity_check` checks
the calculus as exact matrix identities on that basis, with no
truncation error.
"""

import itertools
from fractions import Fraction
from math import lcm

from .errors import BudgetExceededError, IdentityError, UnsupportedStepError
from .fiber import FiberContext, monomial_weight, sort_with_sign
from .linalg import SparseMatrix, accumulate, axpy, combine

HALF = Fraction(1, 2)


class PolyForm:
    """Differential form with polynomial coefficients, exact rationals.

    terms maps (exponents, coframe monomial) to a coefficient; exponents
    is a tuple of length dim over all coordinates (layer-1 x's followed
    by layer-2 z's), the coframe monomial a strictly increasing tuple.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = Fraction(c)

    @classmethod
    def from_monomial(cls, algebra, exponents, monomial, coeff=1):
        mono, sign = sort_with_sign(monomial)
        if mono is None:
            return cls(algebra)
        return cls(algebra, {(tuple(exponents), mono): Fraction(coeff) * sign})

    @classmethod
    def constant(cls, algebra, coeff=1):
        return cls(algebra, {((0,) * algebra.dim, ()): Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return PolyForm(self.algebra, out)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def scaled(self, a):
        a = Fraction(a)
        return PolyForm(self.algebra, {k: a * c for k, c in self.terms.items()})

    def __repr__(self):
        return f"PolyForm({self.terms})"


def term_weight(algebra, exponents, monomial):
    """Total weight: coframe weight minus the weighted polynomial degree."""
    w = monomial_weight(algebra, monomial)
    for i, e in enumerate(exponents):
        if e:
            w -= e * algebra.layer_of(i)
    return w


def format_term(algebra, exponents, monomial):
    """Human-readable witness like 'x1^2*z1 . theta[1,2]'."""
    p = algebra.layers[0]
    parts = []
    for i, e in enumerate(exponents):
        if not e:
            continue
        var = f"x{i + 1}" if i < p else f"z{i - p + 1}"
        parts.append(var if e == 1 else f"{var}^{e}")
    poly = "*".join(parts) if parts else "1"
    return f"{poly} . theta{[i + 1 for i in monomial]}"


class LeftInvariantField:
    """Left-invariant frame field acting on polynomials as a derivation."""

    def __init__(self, algebra, index):
        self.algebra = algebra
        self.index = index
        self.layer = algebra.layer_of(index)

    def derive_exponents(self, exponents):
        """Image of a coordinate monomial as {exponents: coefficient}."""
        out = {}
        a = self.index
        if exponents[a] > 0:
            e = list(exponents)
            coeff = Fraction(e[a])
            e[a] -= 1
            out[tuple(e)] = coeff
        if self.layer == 1:
            # -(1/2) sum_k (sum_b c^k_{ab} x_b) d/dz_k
            for (aa, b), terms in self.algebra.bracket.items():
                if aa != a:
                    continue
                for k, c in terms.items():
                    if exponents[k] > 0:
                        e = list(exponents)
                        coeff = -HALF * c * e[k]
                        e[k] -= 1
                        e[b] += 1
                        accumulate(out, tuple(e), coeff)
        return out

    def apply_function(self, form):
        """Derivative of a 0-form (or coefficient-wise on any form)."""
        out = {}
        for (exps, mono), c in form.terms.items():
            for e2, dc in self.derive_exponents(exps).items():
                accumulate(out, (e2, mono), c * dc)
        return PolyForm(form.algebra, out)

    def __repr__(self):
        kind = "X" if self.layer == 1 else "Z"
        return f"{kind}_{self.index + 1}"


class GroupContext:
    """Operator engine for one algebra (step <= 2) on polynomial forms."""

    def __init__(self, algebra, fiber=None):
        if algebra.step > 2 and any(d > 0 for d in algebra.layers[2:]):
            raise UnsupportedStepError(
                "group calculus restricted to 2-step: "
                f"{algebra.name} has step {algebra.step}"
            )
        self.algebra = algebra
        self.fiber = fiber or FiberContext(algebra)
        self.fields = [LeftInvariantField(algebra, i) for i in range(algebra.dim)]
        self._spanning_index = {}
        self._field_matrices = {}
        self._coframe_pieces = {}

    # -- single-term operator actions (dicts keyed by (exps, mono)) --------

    def d_term(self, exps, mono):
        out = {}
        # coefficient part: sum over the frame of (X_a f) theta^a ^ theta^I
        for a in range(self.algebra.dim):
            if a in mono:
                continue
            derived = self.fields[a].derive_exponents(exps)
            if not derived:
                continue
            merged, sign = sort_with_sign((a,) + mono)
            for e2, dc in derived.items():
                accumulate(out, (e2, merged), sign * dc)
        # fiber part: f d0(theta^I)
        for m2, c in self.fiber.d0_of_monomial(mono).items():
            accumulate(out, (exps, m2), c)
        return out

    def delta_term(self, exps, mono):
        out = {}
        for m2, c in self.fiber.delta_of_monomial(mono).items():
            accumulate(out, (exps, m2), c)
        return out

    def contraction_term(self, field_index, exps, mono):
        if field_index not in mono:
            return {}
        pos = mono.index(field_index)
        return {(exps, mono[:pos] + mono[pos + 1 :]): Fraction((-1) ** pos)}

    def _linear(self, term_fn, form):
        out = {}
        for (exps, mono), c in form.terms.items():
            axpy(out, term_fn(exps, mono), c)
        return PolyForm(form.algebra, out)

    # -- public operators ---------------------------------------------------

    def d(self, form):
        return self._linear(self.d_term, form)

    def delta(self, form):
        return self._linear(self.delta_term, form)

    def contraction(self, field, form):
        idx = field.index if isinstance(field, LeftInvariantField) else field
        return self._linear(
            lambda e, m: self.contraction_term(idx, e, m), form
        )

    def lie_derivative(self, field, form):
        """Cartan form: L_X = d i_X + i_X d."""
        return self.d(self.contraction(field, form)) + self.contraction(
            field, self.d(form)
        )

    def lie_derivative_direct(self, field, form):
        """Geometric Lie derivative along a left-invariant field.

        Independent of the Cartan formula: acts on coefficients by the
        field and on the coframe by minus the coadjoint action,
        L_X theta^c = -sum_b c^c_{X b} theta^b (zero for layer-2 fields).
        """
        if not isinstance(field, LeftInvariantField):
            field = self.fields[field]
        out = dict(field.apply_function(form).terms)
        a = field.index
        if field.layer == 1:
            replacements = {}  # frame index c -> {b: -c^c_{ab}}
            for (aa, b), terms in self.algebra.bracket.items():
                if aa != a:
                    continue
                for k, coeff in terms.items():
                    replacements.setdefault(k, {})[b] = -coeff
            for (exps, mono), c in form.terms.items():
                for pos, idx in enumerate(mono):
                    repl = replacements.get(idx)
                    if not repl:
                        continue
                    rest = mono[:pos] + mono[pos + 1 :]
                    for b, rc in repl.items():
                        merged, sign = sort_with_sign((b,) + rest)
                        if merged is None:
                            continue
                        # reinsert at original position: sign bookkeeping via
                        # moving b to the front of rest then sorting
                        front_sign = (-1) ** pos
                        accumulate(out, (exps, merged), c * rc * sign * front_sign)
        return PolyForm(form.algebra, out)

    # -- spanning sets and matrices -------------------------------------------

    def poly_basis(self, max_degree):
        """Exponent tuples of total degree <= max_degree, graded lex order."""
        dim = self.algebra.dim
        out = []
        for total in range(max_degree + 1):
            for combo in itertools.combinations_with_replacement(range(dim), total):
                exps = [0] * dim
                for i in combo:
                    exps[i] += 1
                out.append(tuple(exps))
        return out

    def spanning_basis(self, k, max_degree):
        """Basis of degree-k forms with coefficient degree <= max_degree."""
        polys = self.poly_basis(max_degree)
        return [
            (exps, mono) for mono in self.fiber.mons(k) for exps in polys
        ]

    def spanning_index(self, k, max_degree):
        """{key: position} over `spanning_basis(k, max_degree)`, built once;
        callers must not change it."""
        key = (k, max_degree)
        if key not in self._spanning_index:
            basis = self.spanning_basis(k, max_degree)
            self._spanning_index[key] = {b: i for i, b in enumerate(basis)}
        return self._spanning_index[key]

    def field_matrices(self, max_degree):
        """X_a on the polynomials of degree <= max_degree, one matrix per frame
        field over `poly_basis` positions, built once; callers must not change them."""
        if max_degree not in self._field_matrices:
            polys = self.poly_basis(max_degree)
            index = {e: i for i, e in enumerate(polys)}
            self._field_matrices[max_degree] = [
                SparseMatrix(len(polys), len(polys), {
                    j: {index[e2]: c for e2, c in f.derive_exponents(e).items()}
                    for j, e in enumerate(polys)
                })
                for f in self.fields
            ]
        return self._field_matrices[max_degree]

    def coframe_pieces(self, k):
        """(wedges, d0) for coframe degree k, built once; callers must not change them.

        wedges[I] lists (a, J, sign) with theta^a ^ theta^I = sign theta^J for
        every frame index a not in I, a ascending; d0 is the matrix of d0 from
        degree k to k + 1.  I and J are positions in `fiber.mons`.
        """
        if k not in self._coframe_pieces:
            mons = self.fiber.mons(k)
            index = {m: i for i, m in enumerate(self.fiber.mons(k + 1))}
            wedges = []
            for mono in mons:
                row = []
                for a in range(self.algebra.dim):
                    if a not in mono:
                        merged, sign = sort_with_sign((a,) + mono)
                        row.append((a, index[merged], sign))
                wedges.append(row)
            d0 = SparseMatrix(len(index), len(mons), {
                j: {index[m2]: c for m2, c in self.fiber.d0_of_monomial(mono).items()}
                for j, mono in enumerate(mons)
            })
            self._coframe_pieces[k] = (wedges, d0)
        return self._coframe_pieces[k]

    def d_matrix(self, k, max_degree, budget=None):
        """Matrix of d from the `spanning_basis(k, max_degree)` positions to
        those of degree k + 1; no columns outside 0 <= k <= dim.

        Column (e, I) joins cached pieces: X_a(x^e) at theta^a ^ theta^I for
        each a not in I, and x^e d0(theta^I).  Their row sets are disjoint:
        X_a changes the exponents e, and distinct a give distinct coframe
        monomials theta^a ^ theta^I.  So nothing cancels, and the pieces, each
        a stored column in normal form, join over the lcm L of their
        denominators in normal form too: for each prime p of L, the piece
        whose denominator holds the most factors p keeps a numerator prime
        to p.  The budget is checked every 64 columns.
        """
        npoly = len(self.poly_basis(max_degree))
        fields = [m.cols for m in self.field_matrices(max_degree)]
        wedges, d0 = self.coframe_pieces(k)
        out = SparseMatrix(npoly * d0.nrows, npoly * d0.ncols)
        # the row numbers as the index's int objects, which the columns then
        # share instead of each holding its own
        rows = list(self.spanning_index(k + 1, max_degree).values())
        j = 0
        for mono, wedge in enumerate(wedges):
            d0_col = d0.cols.get(mono)
            for e in range(npoly):
                if budget is not None and j % 64 == 0:
                    budget.check()
                # (den, multiplier, numerators, offset, stride): the numerator
                # at i goes to row offset + stride * i
                pieces = []
                for a, merged, sign in wedge:
                    hit = fields[a].get(e)
                    if hit is not None:
                        pieces.append((hit[0], sign, hit[1], merged * npoly, 1))
                if d0_col is not None:
                    pieces.append((d0_col[0], 1, d0_col[1], e, npoly))
                if pieces:
                    L = lcm(*[p[0] for p in pieces])
                    col = {}
                    for den, c, num, offset, stride in pieces:
                        c *= L // den
                        for i, v in num.items():
                            col[rows[offset + stride * i]] = c * v
                    out.cols[j] = (L, col)
                j += 1
        return out


def operator_matrix(src_keys, dst_index, term_fn, budget=None):
    """Matrix of a term-wise operator on a basis of (exps, mono) keys.

    Column j holds term_fn(*src_keys[j]) in the coordinates dst_index
    (key -> row); the budget is checked every 64 columns.
    """
    cols = {}
    for j, (exps, mono) in enumerate(src_keys):
        if budget is not None and j % 64 == 0:
            budget.check()
        col = {}
        for key, c in term_fn(exps, mono).items():
            col[dst_index[key]] = c
        if col:
            cols[j] = col
    return SparseMatrix(len(dst_index), len(src_keys), cols)


# ---------------------------------------------------------------------------
# module-level convenience mirroring the operator contracts
# ---------------------------------------------------------------------------


def d(form, context=None):
    ctx = context or GroupContext(form.algebra)
    return ctx.d(form)


def contraction(field, form, context=None):
    ctx = context or GroupContext(form.algebra)
    return ctx.contraction(field, form)


def lie_derivative(field, form, context=None):
    ctx = context or GroupContext(form.algebra)
    return ctx.lie_derivative(field, form)


def parametrix_identity_check(algebra, max_poly_degree, budget=None):
    """Exact verification of the Cartan and parametrix identities.

    Every row but frame_brackets is an exact matrix identity on the
    spanning basis of coefficient degree <= P: d^2 = 0, the Cartan form
    d i_X + i_X d against the geometric Lie derivative for each frame
    field, L_X d = d L_X and the weight filtration of d, and dA + Ad =
    sum L_{X_i}^2 with A = sum i_{X_i} L_{X_i} over the layer-1 fields.
    A failed row's witness is the basis element of the smallest differing
    column at the lowest degree where the two sides differ.  Returns a
    list of report rows.
    """
    ctx = GroupContext(algebra)
    alg = algebra
    report = []
    layer1 = [f for f in ctx.fields if f.layer == 1]
    indexes = {k: ctx.spanning_index(k, max_poly_degree) for k in range(alg.dim + 1)}
    bases = {k: list(index) for k, index in indexes.items()}
    memo = {}  # the operator matrices of this call, each built once

    def once(key, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def matrix(k, out, term_fn):
        """term_fn as a matrix V^k -> V^out; empty outside 0 <= k <= dim."""
        return operator_matrix(bases.get(k, []), indexes.get(out, {}), term_fn, budget)

    def d_mat(k):
        return once(("d", k), lambda: ctx.d_matrix(k, max_poly_degree, budget))

    def i_mat(f, k):
        return once(
            ("i", f.index, k),
            lambda: matrix(k, k - 1, lambda e, m: ctx.contraction_term(f.index, e, m)),
        )

    def dim(k):
        return len(bases.get(k, []))

    def lie_mat(f, k):
        """The Cartan form d i_X + i_X d on V^k."""

        def build():
            terms = [(1, d_mat(k - 1), i_mat(f, k)), (1, i_mat(f, k + 1), d_mat(k))]
            return combine(dim(k), dim(k), terms, budget)

        return once(("L", f.index, k), build)

    def run(name, check_fn):
        try:
            if budget is not None:
                budget.check()
            witness = check_fn()
        except IdentityError as err:
            report.append(
                {"identity": name, "status": "fail", "counterexample": str(err.witness)}
            )
            return
        except BudgetExceededError as err:
            # budget exhaustion is not an identity failure; keep the partial report
            err.partial = list(report)
            raise
        if witness is None:
            report.append({"identity": name, "status": "ok"})
        else:
            report.append(
                {"identity": name, "status": "fail", "counterexample": witness}
            )

    def first_nonzero(diff):
        """Witness of the smallest nonzero column of diff(k), lowest k first."""
        for k in range(alg.dim + 1):
            cols = diff(k).cols
            if cols:
                return format_term(alg, *bases[k][min(cols)])
        return None

    def check_d_squared():
        return first_nonzero(lambda k: d_mat(k + 1) @ d_mat(k))

    def check_cartan(f):
        def direct(exps, mono):
            unit = PolyForm(alg, {(exps, mono): Fraction(1)})
            return ctx.lie_derivative_direct(f, unit).terms

        return lambda: first_nonzero(lambda k: lie_mat(f, k) - matrix(k, k, direct))

    def check_lie_d(f):
        def diff(k):
            terms = [(1, lie_mat(f, k + 1), d_mat(k)), (-1, d_mat(k), lie_mat(f, k))]
            return combine(dim(k + 1), dim(k), terms, budget)

        return lambda: first_nonzero(diff)

    def check_frame_brackets():
        polys = ctx.poly_basis(max_poly_degree)
        for a in range(alg.dim):
            for b in range(alg.dim):
                fa, fb = ctx.fields[a], ctx.fields[b]
                want = alg.bracket_of(a, b)
                for exps in polys:
                    f = PolyForm(alg, {(exps, ()): Fraction(1)})
                    lhs = fa.apply_function(fb.apply_function(f)) - fb.apply_function(
                        fa.apply_function(f)
                    )
                    rhs = PolyForm(alg)
                    for k, c in want.items():
                        rhs = rhs + ctx.fields[k].apply_function(f).scaled(c)
                    if lhs != rhs:
                        return f"[{fa},{fb}] on {format_term(alg, exps, ())}"
        return None

    def check_weight_filtration():
        for k in range(alg.dim + 1):
            for j, (_, col) in d_mat(k).cols.items():
                base = term_weight(alg, *bases[k][j])
                if any(term_weight(alg, *bases[k + 1][i]) < base for i in col):
                    return format_term(alg, *bases[k][j])
        return None

    def check_parametrix():
        def a_mat(k):  # A = sum i_X L_X, V^k -> V^(k-1)
            terms = [(1, i_mat(f, k), lie_mat(f, k)) for f in layer1]
            return combine(dim(k - 1), dim(k), terms, budget)

        A = {k: a_mat(k) for k in range(alg.dim + 2)}

        def diff(k):
            terms = [(1, d_mat(k - 1), A[k]), (1, A[k + 1], d_mat(k))]
            terms += [(-1, lie_mat(f, k), lie_mat(f, k)) for f in layer1]
            return combine(dim(k), dim(k), terms, budget)

        return first_nonzero(diff)

    run("d_squared", check_d_squared)
    for f in ctx.fields:
        run(f"cartan[{f!r}]", check_cartan(f))
    for f in layer1:
        run(f"lie_commutes_d[{f!r}]", check_lie_d(f))
    run("frame_brackets", check_frame_brackets)
    run("d_weight_filtration", check_weight_filtration)
    run("parametrix", check_parametrix)
    return report
