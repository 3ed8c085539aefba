"""Derived tables over the bigraded fiber: strip bounds, truncation ranks,
and the quasi-conformality decision procedure.

The strip bound of a component of weight w is (nu/2) / |nu/2 - w| with
nu the homogeneous dimension; it is 1 exactly at the end weights 0 and
nu, symmetric under w -> nu - w, and infinite at w = nu/2.  Bounds are
exact rationals with a distinguished infinity sentinel, never floats.
"""

from fractions import Fraction

from . import _kernel
from .algebra import homogeneous_dimension
from .errors import StructureError
from .fiber import bgg_fiber
from .linalg import ColumnEliminator, SparseMatrix
from .rumin import RuminPackage
from .scalars import as_fraction, fraction_to_str


class StripTable:
    """Rows (degree, weight, rank, bound, exceptional); bound None = infinity."""

    def __init__(self, algebra, nu, rows):
        self.algebra = algebra
        self.nu = nu
        self.rows = rows

    def to_json(self):
        out = {"algebra": self.algebra.name, "nu": self.nu, "rows": []}
        for k, w, r, bound, exceptional in self.rows:
            out["rows"].append(
                {
                    "degree": k,
                    "weight": w,
                    "rank": r,
                    "bound": "inf" if bound is None else fraction_to_str(bound),
                    "exceptional": exceptional,
                    "s1_inside_strip": not exceptional,
                }
            )
        return out

    def csv_rows(self):
        """Fixed columns (degree, weight, rank, bound_num, bound_den, exceptional).

        The infinite bound at w = nu/2 is the sentinel 1/0.
        """
        rows = [("degree", "weight", "rank", "bound_num", "bound_den", "exceptional")]
        for k, w, r, bound, exceptional in self.rows:
            num, den = (1, 0) if bound is None else (bound.numerator, bound.denominator)
            rows.append((k, w, r, num, den, int(exceptional)))
        return rows


def strip_bound(nu, w):
    """(nu/2) / |nu/2 - w|, or None at the singular middle weight."""
    half = Fraction(nu, 2)
    if w == half:
        return None
    gap = abs(half - w)
    return half / gap


def strip_table(algebra, budget=None):
    nu = homogeneous_dimension(algebra)
    table = bgg_fiber(algebra, budget=budget)
    rows = []
    for k, w, r in table.rows:
        rows.append((k, w, r, strip_bound(nu, w), w in (0, nu)))
    return StripTable(algebra, nu, rows)


# ---------------------------------------------------------------------------
# truncation bookkeeping
# ---------------------------------------------------------------------------


def truncation_ranks(algebra, budget=None, max_poly_degree=None):
    """Half-complex ranks: fiber ranks up to the middle degree, then the
    image rank of the symbol of the operator leaving the middle.

    Needs odd total dimension m; the degree-(m+1)/2 entry is the exact
    rank of the constant-coefficient output of the constructed bigraded
    differential, the finite shadow of cutting the complex in the
    middle.  The analytic index-one statement is only recorded, never
    checked.
    """
    m = algebra.dim
    if m % 2 == 0:
        raise StructureError(
            f"truncation needs odd total dimension, {algebra.name} has m = {m}"
        )
    mid = (m - 1) // 2
    table = bgg_fiber(algebra, budget=budget)
    by_degree = table.by_degree()

    # polynomial degree needed to see every possible weight jump out of mid
    src_weights = [w for w, _ in by_degree.get(mid, [])]
    tgt_weights = [w for w, _ in by_degree.get(mid + 1, [])]
    jumps = [w2 - w for w in src_weights for w2 in tgt_weights if w2 > w]
    needed = max(jumps, default=1)
    if max_poly_degree is not None:
        needed = max(needed, int(max_poly_degree))

    pkg = RuminPackage(algebra, needed, budget=budget)
    D = pkg.D_mat(mid)
    zero_exps = (0,) * algebra.dim
    # constant-coefficient output rows of D, split by target weight
    const_rows = {}
    for i, (exps, w2, _) in enumerate(pkg.model_keys(mid + 1)):
        if exps == zero_exps:
            const_rows.setdefault(w2, set()).add(i)

    def rank_on(rows):
        # column denominators do not change a rank, so the kernel ranks the
        # stored integer columns restricted to rows (as its rows: rank is
        # symmetric)
        return _kernel.rank_sparse(
            [{i: v for i, v in num.items() if i in rows} for _, num in D.cols.values()]
        )

    middle_blocks = [
        {"weight": w2, "rank": rank_on(rows)} for w2, rows in sorted(const_rows.items())
    ]
    middle_rank = rank_on(set().union(*const_rows.values()))

    ranks = [table.degree_total(k) for k in range(mid + 1)]
    full = [table.degree_total(k) for k in range(m + 1)]
    euler_full = sum((-1) ** k * r for k, r in enumerate(full))
    return {
        "algebra": algebra.name,
        "m": m,
        "middle_degree": mid + 1,
        "ranks": ranks + [middle_rank],
        "middle_blocks": middle_blocks,
        "full_ranks": full,
        "full_rank_alternating_sum": euler_full,
        "index_one_claim": "not verified: analytic statement outside exact scope",
    }


# ---------------------------------------------------------------------------
# quasi-conformality
# ---------------------------------------------------------------------------


def _as_matrix(algebra, matrix):
    dim = algebra.dim
    if len(matrix) != dim or any(len(row) != dim for row in matrix):
        raise StructureError(f"matrix must be {dim}x{dim} for {algebra.name}")
    return [[as_fraction(v) for v in row] for row in matrix]


def dilation_matrix(algebra, t):
    t = as_fraction(t)
    dim = algebra.dim
    return [
        [t ** algebra.layer_of(i) if i == j else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ]


def ad_matrix(algebra, y):
    """ad(Y) for Y = sum y_b e_b in layer 1, as a dim x dim matrix."""
    dim = algebra.dim
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for b, yb in enumerate(y):
        yb = as_fraction(yb)
        if not yb:
            continue
        for a in range(dim):
            for k, c in algebra.bracket_of(b, a).items():
                out[k][a] += yb * c
    return out


def quasiconformal_matrix(algebra, t, y):
    """(1 + ad(Y)) composed with the dilation of scale t."""
    theta = dilation_matrix(algebra, t)
    ad = ad_matrix(algebra, y)
    dim = algebra.dim
    out = [list(row) for row in theta]
    for i in range(dim):
        for j in range(dim):
            acc = Fraction(0)
            for l in range(dim):
                acc += ad[i][l] * theta[l][j]
            out[i][j] += acc
    return out


def quasiconformal_check(algebra, matrix):
    """Decide whether the matrix is (1 + ad(Y)) . theta_t, with witnesses.

    The candidate is given blockwise on a 2-step algebra: the layer-1
    block must be t times the identity with t > 0, the layer-2 block
    t^2 times the identity, the layer-2-to-layer-1 block zero, and the
    remaining block t times ad(Y) for some layer-1 vector Y.
    """
    if algebra.step > 2 and any(d > 0 for d in algebra.layers[2:]):
        raise StructureError("quasi-conformality decision implemented for 2-step")
    A = _as_matrix(algebra, matrix)
    p = algebra.layers[0]
    dim = algebra.dim

    def reject(obstruction):
        return {"accepted": False, "obstruction": obstruction}

    for i in range(p):
        for j in range(p, dim):
            if A[i][j] != 0:
                return reject("layer-2 to layer-1 block nonzero")
    t = A[0][0]
    for i in range(p):
        for j in range(p):
            want = t if i == j else Fraction(0)
            if A[i][j] != want:
                return reject("layer-1 block is not a positive multiple of the identity")
    if t <= 0:
        return reject("dilation scale is not positive")
    for i in range(p, dim):
        for j in range(p, dim):
            want = t * t if i == j else Fraction(0)
            if A[i][j] != want:
                return reject("layer-2 block does not scale by t^2")

    # solve A_21 = t * ad(Y)_21 for Y in layer 1
    q = dim - p
    cols = {}
    for b in range(p):
        col = {}
        for a in range(p):
            for k, c in algebra.bracket_of(b, a).items():
                col[(k - p) * p + a] = c
        if col:
            cols[b] = col
    system = SparseMatrix(p * q, p, cols)
    rhs = {}
    for k in range(p, dim):
        for a in range(p):
            v = A[k][a] / t
            if v:
                rhs[(k - p) * p + a] = v
    y = ColumnEliminator(system).solve(rhs)
    if y is None:
        return reject("layer-2/layer-1 block is not t times an adjoint map")
    witness = [y.get(b, Fraction(0)) for b in range(p)]
    return {"accepted": True, "t": t, "Y": witness}
