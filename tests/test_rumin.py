import io
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ruminbgg.algebra import algebra_from_json, algebra_to_json, builtin
from ruminbgg.budget import Budget
from ruminbgg.errors import BudgetExceededError, IdentityError, StructureError
from ruminbgg.fiber import FiberContext, monomial_weight
from ruminbgg.groupcalc import PolyForm, format_term, operator_matrix, term_weight
from ruminbgg.linalg import SparseMatrix, accumulate, axpy, rank_of_columns
from ruminbgg.rumin import (
    RuminPackage,
    _decode_matrix,
    build_iota_and_D,
    build_pi_and_E,
    build_q,
    invert_on_im_delta,
)
from ruminbgg.scalars import fraction_from_str, fraction_to_str, ratio_from_str, ratio_to_str

from conftest import SUITE_ROWS, assert_normal_form
from test_fiber import RATIONAL


def suite_ok(pkg):
    report = pkg.verify()
    failures = [r for r in report if r["status"] != "ok"]
    assert not failures, failures
    return report


# -- the filtered inverse ------------------------------------------------------


def test_inverse_abelian_single_term():
    alg = builtin("abelian", 3)
    pkg, inverse = invert_on_im_delta(alg, 2)
    # delta = 0 for abelian: im delta is trivial and the inverse is empty
    assert pkg.delta_mat(1).is_zero()
    assert inverse(PolyForm(alg)).is_zero()


def test_inverse_composes_back_heisenberg2(h2):
    pkg = RuminPackage(h2, 2)
    for k in range(1, h2.dim + 1):
        delta = pkg.delta_mat(k)
        u = pkg.inverse_apply(k - 1, delta)
        assert u.shape() == delta.shape()
        assert pkg.lap_mat(k - 1) @ u == delta


def test_neumann_termination_bound(h2):
    # weight range bounds the nilpotency order: at most nu = 4 terms
    pkg = RuminPackage(h2, 2)
    for k in range(pkg.algebra.dim + 1):
        pkg.q_mat(k)
    assert 1 <= pkg.neumann_terms <= 4


def test_neumann_needs_corrections_somewhere(q2):
    # quaternionic(2) genuinely uses the series (more than the graded term)
    pkg = RuminPackage(q2, 1)
    for k in range(q2.dim + 1):
        pkg.q_mat(k)
    assert pkg.neumann_terms >= 2


# -- the per-column oracle ---------------------------------------------------------
#
# The package builds q, iota^-1 and D as matrix products, with blockwise
# solves on integer columns.  The functions below are the earlier
# construction, one {position: Fraction} vector at a time through the
# public Fraction calls, kept as the reference for it.


def _oracle_blocks(pkg, k, vec):
    """(exps, w, monos, piece) per fiber block of a V^k vector, by weight."""
    keys = pkg.keys(k)
    groups = {}
    for pos, c in vec.items():
        exps, mono = keys[pos]
        groups.setdefault((monomial_weight(pkg.algebra, mono), exps), {})[mono] = c
    for (w, exps), fibvec in sorted(groups.items()):
        index = pkg.fiber.block_index(k, w)
        yield exps, w, pkg.fiber.block(k, w), {index[m]: c for m, c in fibvec.items()}


def _oracle_l0_inverse(pkg, k, vec):
    out = {}
    for exps, w, monos, piece in _oracle_blocks(pkg, k, vec):
        elim, dblock = pkg.fiber.imdelta_solver(k, w)
        for i, c in dblock.apply(elim.solve(piece)).items():
            accumulate(out, pkg._index[k][(exps, monos[i])], c)
    return out


def _oracle_inverse(pkg, k, vec):
    """(terms used, (d delta + delta d)^{-1} vec) by the Neumann series."""
    n = pkg.n_mat(k)
    term = _oracle_l0_inverse(pkg, k, vec)
    total = dict(term)
    used = 1
    while term:
        n_term = n.apply(term)
        if not n_term:
            break
        term = _oracle_l0_inverse(pkg, k, {i: -c for i, c in n_term.items()})
        axpy(total, term, 1)
        used += 1
    return used, total


def _oracle_project(pkg, k, vec):
    """The model vector of a ker-delta V^k vector, or the weight of the first
    block, by weight, that is not in ker delta."""
    model_index = {key: i for i, key in enumerate(pkg.model_keys(k))}
    out = {}
    for exps, w, _, piece in _oracle_blocks(pkg, k, vec):
        elim, nharm = pkg.fiber.kerdelta_solver(k, w)
        x = elim.solve(piece)
        if x is None:
            return w
        for j, c in x.items():
            if j < nharm:
                accumulate(out, model_index[(exps, w, j)], c)
    return out


def _oracle_q(pkg, k):
    """(q(k), Neumann terms) column by column; q(k) must be nonzero."""
    delta = pkg.delta_mat(k)
    runs = {j: _oracle_inverse(pkg, k - 1, delta.column(j)) for j in delta.cols}
    q = SparseMatrix(pkg.dim_v(k - 1), pkg.dim_v(k), {j: u for j, (_, u) in runs.items()})
    return q, max(used for used, _ in runs.values())


def _oracle_iota_columns(pkg, k):
    """(1 - q d) applied to each harmonic lift, with the package's q and d."""
    out = []
    for exps, w, i in pkg.model_keys(k):
        hvec = pkg.fiber.harmonic_basis(k, w)[i]
        v = {pkg._index[k][(exps, m)]: c for m, c in hvec.items()}
        if k < pkg.algebra.dim:
            axpy(v, pkg.q_mat(k + 1).apply(pkg.d_mat(k).apply(v)), -1)
        out.append(v)
    return out


CUSTOM_INNER_PRODUCT = {
    "name": "weighted-h3",
    "layers": [2, 1],
    "brackets": [
        {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
        {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-1"}]},
    ],
    "inner_product": [["2", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "3"]],
}


# heisenberg:3 with a non-standard inner product: unlike weighted-h3, some
# fiber blocks hold both harmonic forms and im delta0, where the harmonic
# coordinates depend on the Gram matrix
CUSTOM_INNER_PRODUCT_H5 = {
    "name": "weighted-h5",
    "layers": [4, 1],
    "brackets": [
        {"a": 1, "b": 2, "terms": [{"k": 5, "c": "1"}]},
        {"a": 2, "b": 1, "terms": [{"k": 5, "c": "-1"}]},
        {"a": 3, "b": 4, "terms": [{"k": 5, "c": "1"}]},
        {"a": 4, "b": 3, "terms": [{"k": 5, "c": "-1"}]},
    ],
    "inner_product": [
        ["2", "1/2", "0", "0", "0"],
        ["1/2", "1", "0", "1/3", "0"],
        ["0", "0", "1", "0", "0"],
        ["0", "1/3", "0", "2", "0"],
        ["0", "0", "0", "0", "3"],
    ],
}


def _algebra(name):
    if name == "weighted-h3":
        return algebra_from_json(CUSTOM_INNER_PRODUCT)
    if name == "weighted-h5":
        return algebra_from_json(CUSTOM_INNER_PRODUCT_H5)
    model, _, n = name.partition(":")
    return builtin(model, int(n))


ORACLE_CASES = [
    ("heisenberg:2", 1),
    ("heisenberg:2", 2),
    ("heisenberg:2", 3),
    ("heisenberg:3", 1),
    ("heisenberg:3", 2),
    ("quaternionic:2", 1),
    ("quaternionic:2", 2),
    ("abelian:3", 2),
    ("weighted-h3", 2),
    ("weighted-h5", 1),
]


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_matrix_path_matches_per_column_oracle(name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P).build()
    terms = 0
    for k in range(1, alg.dim + 1):
        if pkg.delta_mat(k).is_zero():
            assert pkg.q_mat(k).is_zero()
            continue
        q, used = _oracle_q(pkg, k)
        assert pkg.q_mat(k) == q, k
        terms = max(terms, used)
    assert pkg.neumann_terms == terms
    for k in range(alg.dim + 1):
        iota = _oracle_iota_columns(pkg, k)
        assert pkg.iota_inv(k) == SparseMatrix(pkg.dim_v(k), len(iota), dict(enumerate(iota)))
        if k < alg.dim:
            d = pkg.d_mat(k)
            cols = {j: _oracle_project(pkg, k + 1, d.apply(v)) for j, v in enumerate(iota)}
            assert pkg.D_mat(k) == SparseMatrix(len(pkg.model_keys(k + 1)), len(iota), cols)


# -- the per-key oracle of the fiberwise operators --------------------------------
#
# The package lifts L0, delta and the fiber BGG map from the fiber's (k, w)
# block matrices.  The functions below are the earlier construction, key by
# key and vector by vector through the monomial tables, kept as the
# reference for it.


def _oracle_l0(pkg, k):
    """delta0 d0 + d0 delta0 on the coframe of each V^k key."""
    fib = pkg.fiber

    def term(exps, mono):
        out = {}
        for m1, c1 in fib.delta_of_monomial(mono).items():
            for m2, c2 in fib.d0_of_monomial(m1).items():
                accumulate(out, (exps, m2), c1 * c2)
        for m1, c1 in fib.d0_of_monomial(mono).items():
            for m2, c2 in fib.delta_of_monomial(m1).items():
                accumulate(out, (exps, m2), c1 * c2)
        return out

    return operator_matrix(pkg.keys(k), pkg._index[k], term)


def _oracle_delta(pkg, k):
    pkg.keys(k - 1)
    return operator_matrix(pkg.keys(k), pkg._index.get(k - 1, {}), pkg.group.delta_term)


def _image_block(fib, monos, out_k, w, image):
    """The matrix of mono -> image(mono), {monomial: Fraction}, from the
    monos to block (out_k, w)."""
    index = fib.block_index(out_k, w)
    cols = {j: {index[m2]: c for m2, c in image(m).items()} for j, m in enumerate(monos)}
    return SparseMatrix(len(index), len(monos), cols)


# _oracle_delta reads delta_map, which is read off delta_block; this pins
# delta_block against d0 on its own
@pytest.mark.parametrize("name", sorted({name for name, _ in ORACLE_CASES}) + [RATIONAL["name"]])
def test_delta_block_is_the_adjoint_of_the_d0_block(name):
    alg = algebra_from_json(RATIONAL) if name == RATIONAL["name"] else _algebra(name)
    fib = FiberContext(alg)
    standard = alg.inner_product_is_standard()
    # the dict-level transpose of d0_map, delta for the standard inner product
    transpose = {}
    for src, image in fib.d0_map().items():
        for dst, c in image.items():
            transpose.setdefault(dst, {})[src] = c
    for k in range(alg.dim + 1):
        for w, monos in fib.blocks(k).items():
            d0 = fib.d0_block(k, w)
            assert d0 == _image_block(fib, monos, k + 1, w, fib.d0_of_monomial), (k, w)
            assert_normal_form(d0)
            delta = fib.delta_block(k, w)
            assert_normal_form(delta)
            if standard:
                want = _image_block(fib, monos, k - 1, w, lambda m: transpose.get(m, {}))
                assert delta == want, (k, w)
            else:
                # Gram_{k-1} delta = d0^T Gram_k: delta is the Gram adjoint of d0
                lhs = fib._gram_block(k - 1, w) @ delta
                assert lhs == fib.d0_block(k - 1, w).transpose() @ fib._gram_block(k, w), (k, w)


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_fiberwise_operators_match_per_key_oracle(name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    fib = pkg.fiber
    for k in range(alg.dim + 1):
        pairs = [(pkg.l0_mat(k), _oracle_l0(pkg, k)), (pkg.delta_mat(k), _oracle_delta(pkg, k))]
        for got, want in pairs:
            assert got == want, k
            assert_normal_form(got)
        for w, monos in fib.blocks(k).items():
            # the harmonic forms lie in ker d0, so the fiber-level BGG map
            # proj d0 (1 - q0 d0) is zero and D vanishes on constants
            assert (fib.d0_block(k, w) @ fib.harmonic_block(k, w)).is_zero(), (k, w)
            # ker delta0 = H + im delta0, which the projection's domain check needs
            elim, _ = fib.kerdelta_solver(k, w)
            assert elim.rank == len(monos) - fib.delta_block(k, w).rank(), (k, w)
            # so the harmonic coordinates on ker delta0 are fixed by X H = 1
            # and X delta0 = 0
            X = fib.harmonic_coordinate_block(k, w)
            assert X @ fib.harmonic_block(k, w) == SparseMatrix.identity(X.nrows), (k, w)
            assert (X @ fib.delta_block(k + 1, w)).is_zero(), (k, w)
            assert_normal_form(X)
    assert pkg.delta_mat(0).shape() == (0, pkg.dim_v(0))


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_d_matrix_matches_per_key_oracle(name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    for k in range(alg.dim + 1):
        got = pkg.d_mat(k)
        assert got == operator_matrix(pkg.keys(k), pkg._index[k + 1], pkg.group.d_term), k
        assert_normal_form(got)


@pytest.mark.parametrize("name,P", [("heisenberg:2", 2), ("quaternionic:2", 1), ("weighted-h3", 2)])
def test_project_names_the_oracle_weight_off_ker_delta(name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    checked = 0
    for k in range(1, alg.dim + 1):
        where, blocks = pkg.block_layout(k)
        delta = pkg.delta_mat(k)
        # one V^k column outside ker delta per weight, each in its own block,
        # so that no sum of them is in ker delta
        off = {}
        for j in sorted(delta.cols):
            off.setdefault(blocks[where[j][0]][1], j)
        if not off:
            continue
        highest = {off[max(off)]: Fraction(1)}
        every = {j: Fraction(1) for j in off.values()}
        iota = pkg.iota_inv(k)
        kept = {j: iota.column(j) for j in iota.cols}
        n = iota.ncols
        # the witness is the smallest failing column's lowest failing weight
        for extra, first in [((every,), every), ((highest, every), highest)]:
            cols = {**kept, **{n + t: vec for t, vec in enumerate(extra)}}
            want = _oracle_project(pkg, k, first)
            assert isinstance(want, int)
            with pytest.raises(IdentityError) as err:
                pkg.project(k, SparseMatrix(pkg.dim_v(k), n + len(extra), cols))
            assert err.value.identity == "projection_domain"
            assert err.value.witness == f"degree {k}, weight {want}"
        assert _oracle_project(pkg, k, every) == min(off)
        checked += 1
    assert checked


@pytest.mark.parametrize("name,P", [("quaternionic:2", 1), ("weighted-h3", 2)])
def test_q_iota_D_create_no_fraction(monkeypatch, name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    fib = pkg.fiber
    # the pieces of d and the Hodge data are Fraction-built caches; delta
    # and N are too under a non-standard inner product, whose Gram blocks
    # come from Fraction determinants
    gram = not alg.inner_product_is_standard()
    pkg.group.field_matrices(P)
    for k in range(alg.dim + 1):
        pkg.group.coframe_pieces(k), pkg.model_keys(k)
        if gram:
            pkg.delta_mat(k), pkg.n_mat(k)
        for w in fib.blocks(k):
            fib.imdelta_solver(k, w), fib.kerdelta_solver(k, w)
            fib.harmonic_coordinate_block(k, w)
    # N may have been built from d; d is built again below, from its cached pieces
    pkg._d.clear()
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for k in range(alg.dim + 1):
        pkg.d_mat(k)
    for k in range(alg.dim + 1):
        pkg.delta_mat(k), pkg.n_mat(k)
    for k in range(alg.dim + 1):
        pkg.q_mat(k)
    for k in range(alg.dim + 1):
        pkg.iota_inv(k)
    for k in range(alg.dim):
        pkg.D_mat(k)
    monkeypatch.undo()
    assert created == []
    assert pkg.neumann_terms >= 1 and any(not pkg.D_mat(k).is_zero() for k in range(alg.dim))


# -- q -------------------------------------------------------------------------


def test_q_kills_functions(h2):
    pkg, q = build_q(h2, 2)
    one = PolyForm.constant(h2)
    assert q.apply(one).is_zero()
    xz = PolyForm.from_monomial(h2, (1, 0, 1), ())
    assert q.apply(xz).is_zero()


def test_q_of_xi12_is_minus_xi3(h2):
    pkg, q = build_q(h2, 3)
    w = PolyForm.from_monomial(h2, (0, 0, 0), (0, 1))
    out = q.apply(w)
    assert out.terms == {((0, 0, 0), (2,)): Fraction(-1)}


def test_q_abelian_is_zero():
    # delta = 0 for the abelian model, so q vanishes identically
    alg = builtin("abelian", 3)
    pkg, q = build_q(alg, 2)
    th1 = PolyForm.from_monomial(alg, (0, 0, 0), (0,))
    assert q.apply(th1).is_zero()
    for k in range(alg.dim + 1):
        assert pkg.q_mat(k).is_zero()


def test_q_vanishes_on_ker_delta(h2):
    pkg, q = build_q(h2, 2)
    # theta^1 has delta = 0, so q theta^1 = 0
    th1 = PolyForm.from_monomial(h2, (0, 0, 0), (0,))
    assert q.apply(th1).is_zero()


def test_q_and_pi_respect_weight_filtration(h3):
    pkg = RuminPackage(h3, 2)
    for k in range(1, h3.dim + 1):
        qm = pkg.q_mat(k)
        src = pkg.keys(k)
        dst = pkg.keys(k - 1)
        for j in qm.cols:
            base = term_weight(h3, *src[j])
            for i in qm.column(j):
                assert term_weight(h3, *dst[i]) >= base
    for k in range(h3.dim + 1):
        pim = pkg.pi_mat(k)
        keys = pkg.keys(k)
        for j in pim.cols:
            base = term_weight(h3, *keys[j])
            for i in pim.column(j):
                assert term_weight(h3, *keys[i]) >= base


def test_degree_bookkeeping_shapes(h2):
    pkg = RuminPackage(h2, 1).build()
    for k in range(1, h2.dim + 1):
        assert pkg.q_mat(k).shape() == (pkg.dim_v(k - 1), pkg.dim_v(k))
    for k in range(h2.dim + 1):
        assert pkg.pi_mat(k).shape() == (pkg.dim_v(k), pkg.dim_v(k))
    for k in range(h2.dim):
        D = pkg.D_mat(k)
        assert D.shape() == (len(pkg.model_keys(k + 1)), len(pkg.model_keys(k)))


# -- the identity suite -----------------------------------------------------------


def test_identity_suite_heisenberg2(h2):
    suite_ok(RuminPackage(h2, 3).build())


def test_identity_suite_quaternionic(q2):
    suite_ok(RuminPackage(q2, 1).build())


@pytest.mark.parametrize("model,n,P", [("heisenberg", 2, 2), ("heisenberg", 3, 1), ("abelian", 3, 2)])
def test_direct_forms_of_the_pi_lemmas(model, n, P):
    # the suite checks pi through d, q, trace(pi) and the iota^-1 columns;
    # the direct forms below, with the materialized pi, are the oracle
    alg = builtin(model, n)
    pkg = RuminPackage(alg, P).build()
    suite_ok(pkg)
    for k in range(alg.dim + 1):
        pi = pkg.pi_mat(k)
        assert pi @ pi == pi
        if k < alg.dim:
            assert pkg.pi_mat(k + 1) @ pkg.d_mat(k) == pkg.d_mat(k) @ pi
        dim_v, model_dim = pkg.dim_v(k), pkg.model_dim(k)
        E = pkg.E_basis(k)
        assert dim_v - pi.rank() == dim_v - pi.trace() == model_dim == len(E)
        iota_inv = pkg.iota_inv(k)
        assert iota_inv.ncols == model_dim
        assert rank_of_columns(E + [iota_inv.column(j) for j in iota_inv.cols]) == model_dim


PI_ROWS = (
    "pi_idempotent",
    "pi_commutes_d",
    "pi_q",
    "q_pi",
    "homotopy_on_im_pi",
    "ker_pi_equals_ker_q_ker_qd",
)


def test_every_pi_row_fails_unless_pi_is_dq_plus_qd(h2):
    pkg = RuminPackage(h2, 2).build()
    pi = pkg.pi_mat(1)
    j = min(pi.cols)
    col = pi.column(j)
    col[min(col)] += 1
    pi.set_column(j, col)
    rows = {r["identity"]: r for r in pkg.verify()}
    for name in PI_ROWS:
        assert rows[name] == {
            "identity": name,
            "status": "fail",
            "counterexample": pkg._witness(1, j),
        }


def store_matching_pi(pkg):
    """Replace every stored pi(k) by d q + q d of the package's current q."""
    dim = pkg.algebra.dim
    for k in range(dim + 1):
        parts = []
        if k > 0:
            parts.append(pkg.d_mat(k - 1) @ pkg.q_mat(k))
        if k < dim:
            parts.append(pkg.q_mat(k + 1) @ pkg.d_mat(k))
        pkg._pi[k] = parts[0] if len(parts) == 1 else parts[0] + parts[1]


def _first_nonzero(pkg, mats):
    for k, mat in mats:
        if mat.cols:
            return {"status": "fail", "counterexample": pkg._witness(k, min(mat.cols))}
    return {"status": "ok"}


def _model_witness(pkg, k, j):
    exps, w, i = pkg.model_keys(k)[j]
    return f"model element (deg {k}, weight {w}, #{i}) poly {format_term(pkg.algebra, exps, ())}"


def _ker_pi_witness(pkg, k, iota, right):
    """The first failure of ker_pi_equals_ker_q_ker_qd at degree k, or None."""
    dim = pkg.algebra.dim
    pi = pkg.pi_mat(k)
    residual = pi @ pi - pi
    if residual.cols:
        return pkg._witness(k, min(residual.cols))
    if right is not None:
        return right
    for j, v in enumerate(iota):
        if pkg.q_mat(k).apply(v) or (k < dim and pkg.q_mat(k + 1).apply(pkg.d_mat(k).apply(v))):
            return _model_witness(pkg, k, j)
    nullity = pkg.dim_v(k) - pi.trace()
    if nullity != pkg.model_dim(k):
        return (
            f"degree {k}: dim ker pi = n - trace(pi) = {nullity}, "
            f"model dimension = {pkg.model_dim(k)}"
        )
    return None


def _oracle_iota_rows(pkg):
    """The rows iota_inverse_right, ker_pi_equals_ker_q_ker_qd and
    iota_inverse_left, column by column, for a package whose stored pi is
    d q + q d.  Each row reports its first failure by degree."""
    first = {"iota_inverse_right": None, "ker_pi_equals_ker_q_ker_qd": None,
             "iota_inverse_left": None}
    for k in range(pkg.algebra.dim + 1):
        iota = _oracle_iota_columns(pkg, k)
        projected = [_oracle_project(pkg, k, v) for v in iota]
        right = next(
            (f"degree {k}, weight {x}" for x in projected if not isinstance(x, dict)), None
        ) or next(
            (_model_witness(pkg, k, j) for j, x in enumerate(projected) if x != {j: 1}), None
        )
        left = ker = _ker_pi_witness(pkg, k, iota, right)
        if ker is None:
            lifts = SparseMatrix(pkg.dim_v(k), len(iota), dict(enumerate(iota)))
            for vec, x in zip(iota, projected):
                back = lifts.apply(x)
                if back != vec:
                    left = pkg._witness(k, min(set(vec) | set(back)))
                    break
        for name, witness in zip(first, (right, ker, left)):
            if first[name] is None:
                first[name] = witness
    return {
        name: {"status": "ok"} if w is None else {"status": "fail", "counterexample": w}
        for name, w in first.items()
    }


@pytest.mark.parametrize("model,n", [("heisenberg", 2), ("heisenberg", 3)])
def test_rows_agree_with_direct_forms_on_tampered_q(model, n):
    # one q entry changed and pi stored as the d q + q d it implies, so the
    # pin holds and each row must find the fault through its own identity
    alg = builtin(model, n)
    blob = json.loads(json.dumps(RuminPackage(alg, 1).build().to_json()))
    dim = alg.dim
    for seed in range(25):
        rng = random.Random(seed)
        pkg = RuminPackage.from_json(blob)
        block = pkg.q_mat(rng.randrange(1, dim + 1))
        i, j = rng.randrange(block.nrows), rng.randrange(block.ncols)
        col = block.column(j)
        col[i] = col.get(i, 0) + Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3]))
        block.set_column(j, col)
        store_matching_pi(pkg)
        rows = {r["identity"]: r for r in pkg.verify()}
        status = {name: r["status"] for name, r in rows.items()}
        pi = [pkg.pi_mat(k) for k in range(dim + 1)]
        d = [pkg.d_mat(k) for k in range(dim)]
        idempotent = _first_nonzero(pkg, ((k, p @ p - p) for k, p in enumerate(pi)))
        commutes = _first_nonzero(pkg, ((k, pi[k + 1] @ d[k] - d[k] @ pi[k]) for k in range(dim)))
        q = [pkg.q_mat(k) for k in range(dim + 1)]
        pi_q = _first_nonzero(pkg, ((k, pi[k - 1] @ q[k] - q[k]) for k in range(1, dim + 1)))
        q_pi = _first_nonzero(pkg, ((k, q[k] @ pi[k] - q[k]) for k in range(1, dim + 1)))
        for name, want in (
            ("pi_idempotent", idempotent),
            ("homotopy_on_im_pi", idempotent),
            ("pi_commutes_d", commutes),
            ("pi_q", pi_q),
            ("q_pi", q_pi),
            *_oracle_iota_rows(pkg).items(),
        ):
            assert rows[name] == {"identity": name, **want}, (seed, name)
        # ker pi and iota_inverse_left rest on the rows before them
        if "fail" in (status["pi_idempotent"], status["iota_inverse_right"]):
            assert status["ker_pi_equals_ker_q_ker_qd"] == "fail", seed
        if status["ker_pi_equals_ker_q_ker_qd"] == "fail":
            assert status["iota_inverse_left"] == "fail", seed
            continue
        for k in range(dim + 1):
            iota_inv = pkg.iota_inv(k)
            for v in map(iota_inv.column, iota_inv.cols):
                assert not pkg.q_mat(k).apply(v), seed
                if k < dim:
                    assert not pkg.q_mat(k + 1).apply(d[k].apply(v)), seed
            E = pkg.E_basis(k)
            assert pkg.dim_v(k) - pi[k].rank() == len(E) == pkg.model_dim(k), seed
            assert not any(pi[k].apply(v) for v in E), seed


def test_verify_reports_every_row_when_an_early_row_stops(h2):
    # a q fault stored with its matching pi stops the iota rows at degree 1;
    # fiber_restriction must still build the model bases it reads
    blob = json.dumps(RuminPackage(h2, 1).build().to_json())
    pkg = RuminPackage.from_json(json.loads(blob))
    q = pkg.q_mat(2)
    col = q.column(0)
    col[6] = col.get(6, 0) + 1
    q.set_column(0, col)
    store_matching_pi(pkg)
    report = pkg.verify()
    assert [r["identity"] for r in report] == SUITE_ROWS
    assert any(r["status"] == "fail" for r in report)


def test_ker_pi_row_counts_the_kernel_against_the_model(h2):
    # with q = pi = 0 every premise but the count holds: pi = dq + qd, pi is
    # idempotent and the iota^-1 columns (plain lifts) lie in ker q cap ker qd,
    # but n - trace(pi) exceeds the model dimension
    pkg = RuminPackage(h2, 1).build()
    for k in range(h2.dim + 1):
        pkg._q[k] = SparseMatrix(pkg.dim_v(k - 1), pkg.dim_v(k))
        pkg._pi[k] = SparseMatrix(pkg.dim_v(k), pkg.dim_v(k))
    pkg._iota_inv.clear()
    rows = {r["identity"]: r for r in pkg.verify()}
    assert rows["pi_idempotent"]["status"] == "ok"
    assert rows["iota_inverse_right"]["status"] == "ok"
    assert rows["ker_pi_equals_ker_q_ker_qd"] == {
        "identity": "ker_pi_equals_ker_q_ker_qd",
        "status": "fail",
        "counterexample": "degree 1: dim ker pi = n - trace(pi) = 12, model dimension = 8",
    }


def test_pi_restricted_to_image_is_identity(h2):
    pkg = RuminPackage(h2, 2)
    for k in range(h2.dim + 1):
        pi = pkg.pi_mat(k)
        assert pi @ pi == pi


def test_E_constant_dimensions_match_betti(h2):
    # dim(E cap constant forms, degree k) = (1, 2, 2, 1)
    pkg = RuminPackage(h2, 3)
    zero = (0,) * h2.dim
    for k, expected in enumerate((1, 2, 2, 1)):
        pkg.keys(k)
        idx = pkg._index[k]
        const = {idx[(zero, m)] for m in pkg.fiber.mons(k)}
        vecs = [v for v in pkg.E_basis(k) if set(v) <= const]
        assert len(vecs) == expected


def test_E_stable_under_d(h2):
    # d maps ker q cap ker qd into itself
    pkg = RuminPackage(h2, 2)
    for k in range(h2.dim):
        d = pkg.d_mat(k)
        q = pkg.q_mat(k + 1)
        qd_next = pkg.q_mat(k + 2) @ pkg.d_mat(k + 1) if k + 1 < h2.dim else None
        for vec in pkg.E_basis(k):
            dv = d.apply(vec)
            assert q.apply(dv) == {}
            if qd_next is not None:
                assert qd_next.apply(dv) == {}


def test_constants_lie_in_E(h2):
    # q and qd kill 0-forms, so constants belong to E
    pkg = RuminPackage(h2, 1)
    pi0 = pkg.pi_mat(0)
    one = pkg._to_positional(PolyForm.constant(h2))[0]
    assert pi0.apply(one) == {}


# -- D and the bigraded model ---------------------------------------------------------


def test_middle_arrow_second_order(h2):
    pkg, arrows = build_iota_and_D(h2, 3)
    by_source = {(a["degree"], a["source_weight"]): a for a in arrows}
    middle = by_source[(1, 1)]
    assert middle["target_weight"] == 3
    assert middle["order"] == 2


def test_abelian_D_is_de_rham():
    alg = builtin("abelian", 3)
    pkg = RuminPackage(alg, 2).build()
    # every arrow raises weight exactly like degree
    for a in pkg.arrows():
        assert a["order"] == 1
        assert a["target_weight"] == a["source_weight"] + 1
    # D acts as d under the identification of the model with all forms
    for k in range(alg.dim):
        mk = pkg.model_keys(k)
        # compare through the harmonic identification, lifted by hand
        lifted = {}
        for j, (exps, w, i) in enumerate(mk):
            hvec = pkg.fiber.harmonic_basis(k, w)[i]
            lifted[j] = {pkg._index[k][(exps, m)]: c for m, c in hvec.items()}
        lifted = SparseMatrix(pkg.dim_v(k), len(mk), lifted)
        assert pkg.project(k + 1, pkg.d_mat(k) @ lifted) == pkg.D_mat(k)


def test_quaternionic_arrows_positive_order(q2):
    pkg, arrows = build_iota_and_D(q2, 1)
    assert arrows
    assert all(a["order"] >= 1 for a in arrows)


def test_model_ranks_match_bgg(h3):
    from ruminbgg.fiber import bgg_fiber

    pkg = RuminPackage(h3, 1)
    table = {(k, w): r for k, w, r in bgg_fiber(h3).rows}
    npoly = len(pkg.group.poly_basis(1))
    counts = {}
    for k in range(h3.dim + 1):
        for exps, w, i in pkg.model_keys(k):
            counts[(k, w)] = counts.get((k, w), 0) + 1
    assert counts == {kw: r * npoly for kw, r in table.items()}


def test_pi_E_wrapper(h2):
    pkg, pi, basis = build_pi_and_E(h2, 2)
    form = PolyForm.from_monomial(h2, (0, 0, 0), (0, 1))
    out = pi.apply(form)
    # pi(theta^1^theta^2): d q + q d of it; q(th12) = -th3, d(-th3) = th1^th2
    assert out.terms[((0, 0, 0), (0, 1))] == Fraction(1)
    assert len(basis[0]) >= 1


# -- serialization ------------------------------------------------------------------


def _package_dict(pkg):
    """The package as a dict, built in full: the reference for `write_json`.

    json.dumps(this, indent=2, sort_keys=True) + "\n" is the format's byte
    definition from before the package was streamed.
    """
    pkg.build()

    def encode(matrix):
        entries = []
        for j in sorted(matrix.cols):
            den, num = matrix.cols[j]
            for i in sorted(num):
                entries.append([i, j, ratio_to_str(num[i], den)])
        return {"rows": matrix.nrows, "cols": matrix.ncols, "entries": entries}

    harmonic = {}
    for k in range(pkg.algebra.dim + 1):
        for w in sorted(pkg.fiber.blocks(k)):
            basis = pkg.fiber.harmonic_basis(k, w)
            if basis:
                harmonic[f"{k},{w}"] = [
                    [[list(m), fraction_to_str(c)] for m, c in sorted(vec.items())]
                    for vec in basis
                ]
    return {
        "algebra": algebra_to_json(pkg.algebra),
        "max_poly_degree": pkg.P,
        "neumann_terms": pkg.neumann_terms,
        "harmonic": harmonic,
        "operators": {
            "q": {str(k): encode(pkg.q_mat(k)) for k in range(pkg.algebra.dim + 1)},
            "pi": {str(k): encode(pkg.pi_mat(k)) for k in range(pkg.algebra.dim + 1)},
            "D": {str(k): encode(pkg.D_mat(k)) for k in range(pkg.algebra.dim)},
        },
        "arrows": pkg.arrows(),
    }


def _dict_text(pkg):
    return json.dumps(_package_dict(pkg), indent=2, sort_keys=True) + "\n"


# quaternionic:3 has dim 11, so its degree keys sort "10" before "2";
# weighted-h3's non-standard inner product gives fractional harmonic entries
PACKAGE_CASES = [
    ("heisenberg:2", 1),
    ("heisenberg:2", 2),
    ("heisenberg:2", 3),
    ("heisenberg:3", 1),
    ("abelian:3", 2),
    ("quaternionic:2", 1),
    ("quaternionic:3", 0),
    ("weighted-h3", 2),
    ("weighted-h5", 1),
]


@pytest.mark.parametrize("name,P", PACKAGE_CASES)
def test_written_package_matches_dict_encoder(name, P):
    pkg = RuminPackage(_algebra(name), P).build()
    text = io.StringIO()
    pkg.write_json(text)
    assert text.getvalue() == _dict_text(pkg)
    assert pkg.to_json() == _package_dict(pkg)


def test_package_is_written_column_by_column():
    pkg = RuminPackage(builtin("quaternionic", 2), 2).build()
    chunks = []
    pkg.write_json(SimpleNamespace(write=chunks.append))
    text = "".join(chunks)
    assert text == _dict_text(pkg)
    dim = pkg.algebra.dim
    matrices = [pkg.q_mat(k) for k in range(dim + 1)] + [pkg.pi_mat(k) for k in range(dim + 1)]
    matrices += [pkg.D_mat(k) for k in range(dim)]
    assert len(chunks) > sum(len(m.cols) for m in matrices)
    assert max(map(len, chunks)) <= 256 * 1024 < len(text) // 4


def _fraction_decode(blob, nrows, ncols):
    """Entries decoded through Fraction, as the stored-matrix decoder once did."""
    cols = {}
    for i, j, c in blob["entries"]:
        num, _, den = c.strip().partition("/")
        cols.setdefault(j, {})[i] = Fraction(int(num), int(den or 1))
    return SparseMatrix(nrows, ncols, cols)


def test_decoded_matrix_matches_fraction_decoder():
    cases = [
        [[0, 0, " 1/2 "], [1, 0, "1/-2"], [2, 0, "-3/6"], [0, 1, "4"]],
        [[0, 0, "0"], [1, 0, "0/7"], [2, 2, "2/4"]],
        [[2, 2, "-6/4"], [0, 2, "1/6"], [1, 2, "5/9"], [0, 1, "\t7/21\n"]],
        [],
    ]
    for entries in cases:
        blob = {"rows": 3, "cols": 3, "entries": entries}
        got = _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 3))
        assert got == _fraction_decode(blob, 3, 3)
        assert_normal_form(got)
    for bad in ["1/0", "abc", "1/2/3", "", 5, None, ["1"]]:
        blob = {"rows": 3, "cols": 3, "entries": [[0, 0, "1"], [1, 1, bad]]}
        with pytest.raises(StructureError, match="malformed entry"):
            _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 3))
        with pytest.raises(ValueError):
            fraction_from_str(bad)
    # a duplicated (i, j) is rejected, whatever the values, a zero one included
    for dup in (["1/3", "5"], ["2", "0"], ["0", "0"]):
        blob = {"rows": 3, "cols": 3, "entries": [[2, 1, "1"]] + [[1, 1, c] for c in dup]}
        with pytest.raises(StructureError, match=r"entry \(1, 1\) appears twice"):
            _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 3))
    # bool is an int subclass, but not a JSON integer
    for entry in ([False, 0, "1"], [0, True, "1"]):
        blob = {"rows": 3, "cols": 3, "entries": [entry]}
        with pytest.raises(StructureError, match="lies outside"):
            _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 3))
    blob = {"rows": 3, "cols": True, "entries": []}
    with pytest.raises(StructureError, match="has shape 3xTrue"):
        _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 1))
    assert ratio_from_str(" -4/-6 ") == (2, 3) and ratio_from_str("0/-5") == (0, 1)


def test_package_round_trip(h2):
    pkg = RuminPackage(h2, 2).build()
    blob = json.dumps(pkg.to_json())
    back = RuminPackage.from_json(json.loads(blob))
    for k in range(h2.dim + 1):
        assert back.q_mat(k) == pkg.q_mat(k)
        assert back.pi_mat(k) == pkg.pi_mat(k)
    for k in range(h2.dim):
        assert back.D_mat(k) == pkg.D_mat(k)
    suite_ok(back)


def test_budget_exceeded_is_distinct(h3):
    budget = Budget(seconds=3600, max_monomials=10)
    with pytest.raises(BudgetExceededError):
        RuminPackage(h3, 3, budget=budget).build()
