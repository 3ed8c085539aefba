import copy
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ruminbgg import fiber, linalg, rumin
from ruminbgg.algebra import algebra_from_json, algebra_to_json, builtin
from ruminbgg.budget import Budget
from ruminbgg.errors import BudgetExceededError, IdentityError, StructureError
from ruminbgg.fiber import FiberContext, monomial_weight
from ruminbgg.groupcalc import PolyForm, format_term, term_weight
from ruminbgg.linalg import (
    ColumnEliminator,
    SparseMatrix,
    _normal,
    accumulate,
    axpy,
    positions,
    rank_of_columns,
    trace_of_product,
)
from ruminbgg.rumin import (
    RuminPackage,
    _Chunks,
    _decode_matrix,
    build_iota_and_D,
    build_pi_and_E,
    build_q,
    invert_on_im_delta,
)
from ruminbgg.scalars import fraction_from_str, fraction_to_str, ratio_from_str, ratio_to_str

from conftest import SUITE_ROWS, assert_normal_form, kernel_rank, operator_matrix, spanning_index
from test_linalg import _CountingBudget
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


def _oracle_l0_inverse(pkg, k, vec, index):
    out = {}
    for exps, w, monos, piece in _oracle_blocks(pkg, k, vec):
        elim, dblock = pkg.fiber.imdelta_solver(k, w)
        for i, c in dblock.apply(elim.solve(piece)).items():
            accumulate(out, index[(exps, monos[i])], c)
    return out


def _oracle_inverse(pkg, k, vec):
    """(terms used, (d delta + delta d)^{-1} vec) by the Neumann series,
    term by term through N = lap - L0."""
    n = pkg.lap_mat(k) - pkg.l0_mat(k)
    index = spanning_index(pkg, k)
    term = _oracle_l0_inverse(pkg, k, vec, index)
    total = dict(term)
    used = 1
    while term:
        n_term = n.apply(term)
        if not n_term:
            break
        term = _oracle_l0_inverse(pkg, k, {i: -c for i, c in n_term.items()}, index)
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


def _harmonic_vector(fib, k, w, i):
    """Column i of harmonic_basis(k, w) as {monomial: Fraction}."""
    monos = fib.block(k, w)
    return {monos[r]: c for r, c in fib.harmonic_basis(k, w).column(i).items()}


def _oracle_iota_columns(pkg, k):
    """(1 - q d) applied to each harmonic lift, with the package's q and d."""
    out = []
    index = spanning_index(pkg, k)
    for exps, w, i in pkg.model_keys(k):
        hvec = _harmonic_vector(pkg.fiber, k, w, i)
        v = {index[(exps, m)]: c for m, c in hvec.items()}
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


def custom_quaternionic(n):
    """quaternionic:n as algebra JSON with a non-standard inner product: the
    identity but for G[0][0] = 2, G[0][1] = G[1][0] = 1/2 and the last
    diagonal entry 3, each within one layer."""
    data = algebra_to_json(builtin("quaternionic", n))
    dim = sum(data["layers"])
    g = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    g[0][0], g[0][1], g[1][0], g[dim - 1][dim - 1] = "2", "1/2", "1/2", "3"
    return {**data, "name": f"quaternionic-{n}-custom", "inner_product": g}


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
        assert pkg.iota_inv_mat(k) == SparseMatrix(pkg.dim_v(k), len(iota), dict(enumerate(iota)))
        if k < alg.dim:
            d = pkg.d_mat(k)
            cols = {j: _oracle_project(pkg, k + 1, d.apply(v)) for j, v in enumerate(iota)}
            assert pkg.D_mat(k) == SparseMatrix(len(pkg.model_keys(k + 1)), len(iota), cols)


def _cached_matrices(*owners):
    """Every SparseMatrix held in the attributes of owners, through dicts,
    lists and tuples."""
    found, todo = [], [vars(o) for o in owners]
    while todo:
        x = todo.pop()
        if isinstance(x, SparseMatrix):
            found.append(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
    return found


def _dq_plus_qd(pkg, k):
    """d q + q d on degree k, formed with @ and + from the package's d and q."""
    dim = pkg.algebra.dim
    parts = []
    if k > 0:
        parts.append(pkg.d_mat(k - 1) @ pkg.q_mat(k))
    if k < dim:
        parts.append(pkg.q_mat(k + 1) @ pkg.d_mat(k))
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


def _assert_holds_no_pi(pkg):
    """No matrix held by pkg, its fiber or its group calculus is a nonzero pi(k)."""
    pis = [pi for pi in (_dq_plus_qd(pkg, k) for k in range(pkg.algebra.dim + 1)) if pi.cols]
    held = _cached_matrices(pkg, pkg.fiber, pkg.group)
    assert not any(m == pi for m in held for pi in pis)


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_cached_and_decoded_operators_are_in_normal_form(name, P):
    pkg = RuminPackage(_algebra(name), P).build()
    # a built package holds no pi
    _assert_holds_no_pi(pkg)
    cached = _cached_matrices(pkg, pkg.fiber, pkg.group)
    # d, delta, q, iota^-1 per degree and D, at least
    assert len(cached) > 5 * pkg.algebra.dim
    for m in cached:
        assert_normal_form(m)
    decoded = RuminPackage.from_json(pkg.to_json())
    for cache in ("_q", "_D"):
        stored = getattr(decoded, cache)
        assert stored.keys() == getattr(pkg, cache).keys()
        for k, m in stored.items():
            assert_normal_form(m)
            assert m == getattr(pkg, cache)[k], (cache, k)
    # nor does a loaded one: its pi(k) is formed from the decoded q
    _assert_holds_no_pi(decoded)
    for k in range(pkg.algebra.dim + 1):
        m = decoded.pi_mat(k)
        assert_normal_form(m)
        assert m == pkg.pi_mat(k), ("pi", k)


def test_build_and_verify_never_form_l0(monkeypatch, h2):
    def no_l0(pkg, k):
        raise AssertionError(f"V^{k}-wide L0 formed")

    monkeypatch.setattr(RuminPackage, "l0_mat", no_l0)
    pkg = RuminPackage(h2, 2).build()
    suite_ok(pkg)
    # the inverse recomputed, with the Laplacian formed again, gives q again
    for k in range(1, h2.dim + 1):
        assert pkg.inverse_apply(k - 1, pkg.delta_mat(k)) == pkg.q_mat(k)


@pytest.mark.parametrize("name,P", [("heisenberg:2", 2), ("quaternionic:2", 1)])
def test_systematic_l0_fault_is_caught(monkeypatch, name, P):
    # every L0 step solves for 2v: the residual's lowest weight part only
    # changes sign, so the loop never ends, or the total is wrong
    solve = FiberContext.l0_inverse_column

    def doubled(fib, k, w, den, rows, nums):
        return solve(fib, k, w, den, list(rows), [2 * v for v in nums])

    monkeypatch.setattr(FiberContext, "l0_inverse_column", doubled)
    pkg = RuminPackage(_algebra(name), P)
    with pytest.raises(IdentityError) as err:
        pkg.build()
    assert err.value.identity in ("neumann_termination", "inverse_on_im_delta")


def test_form_outside_im_delta_names_its_block(h2):
    # theta^1 is harmonic (d0 and delta0 kill it), so it lies off im delta,
    # where L0 is invertible
    pkg, inverse = invert_on_im_delta(h2, 1)
    theta1 = PolyForm.from_monomial(h2, (0,) * h2.dim, (0,))
    with pytest.raises(StructureError, match=r"outside im delta.*\(degree 1, weight 1\)"):
        inverse(theta1)
    # a form in im delta inverts
    image = pkg._to_form(1, pkg.delta_mat(2).column(min(pkg.delta_mat(2).cols)))
    assert not inverse(image).is_zero()


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

    return operator_matrix(pkg.keys(k), spanning_index(pkg, k), term)


def _oracle_delta(pkg, k):
    return operator_matrix(pkg.keys(k), spanning_index(pkg, k - 1), pkg.group.delta_term)


def _image_block(fib, monos, out_k, w, image):
    """The matrix of mono -> image(mono), {monomial: Fraction}, from the
    monos to block (out_k, w)."""
    index = fib.block_index(out_k, w)
    cols = {j: {index[m2]: c for m2, c in image(m).items()} for j, m in enumerate(monos)}
    return SparseMatrix(len(index), len(monos), cols)


# _oracle_delta reads delta_map, which is read off delta_matrix; this pins
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
                lhs = _gram_block(fib, k - 1, w) @ delta
                assert lhs == fib.d0_block(k - 1, w).transpose() @ _gram_block(fib, k, w), (k, w)


GRAM_ALGEBRAS = ["weighted-h3", "weighted-h5", "quaternionic-2-custom", "quaternionic-3-custom"]


def _gram_algebra(name):
    if name.endswith("-custom"):
        return algebra_from_json(custom_quaternionic(int(name.split("-")[1])))
    return _algebra(name)


def _gram_block(fib, k, w, dual=True):
    """Block (k, w) of exterior_power(k, dual), its stored columns read
    monomial by monomial: the Gram matrix of the block if dual, and its
    inverse otherwise.  A row outside the block is a KeyError, so the power
    must keep the weight."""
    power, index, monos = fib.exterior_power(k, dual), fib.mons_index(k), fib.block(k, w)
    place = {index[m]: i for i, m in enumerate(monos)}
    out = SparseMatrix(len(monos), len(monos))
    for j, m in enumerate(monos):
        den, rows, nums = power.cols[index[m]]
        out.cols[j] = (den, tuple([place[f] for f in rows]), nums)
    return out


def _oracle_d0_block(fib, k, w):
    """d0 from block (k, w) to block (k+1, w) built from the block's own
    numerators, one normal-form pass per column."""
    columns = fib._d0_columns(k, w)
    out = SparseMatrix(len(fib.block(k + 1, w)), len(columns))
    for j, col in enumerate(columns):
        if col:
            out.cols[j] = _normal(fib.den, col)
    return out


def _oracle_delta_block(fib, k, w):
    """delta from block (k, w) to block (k-1, w) as the adjoint of the oracle
    d0 block: its transpose, between two Gram blocks for a non-standard
    inner product."""
    dt = _oracle_d0_block(fib, k - 1, w).transpose()
    if fib.algebra.inner_product_is_standard():
        return dt
    return _gram_block(fib, k - 1, w, dual=False) @ (dt @ _gram_block(fib, k, w))


@pytest.mark.parametrize("name", sorted({name for name, _ in ORACLE_CASES} | set(GRAM_ALGEBRAS)))
def test_blocks_are_slices_of_the_degree_matrices(name):
    alg = _gram_algebra(name)
    fib = FiberContext(alg)
    for k in range(alg.dim + 1):
        for w in fib.blocks(k):
            assert fib.d0_block(k, w) == _oracle_d0_block(fib, k, w), (k, w)
            assert fib.delta_block(k, w) == _oracle_delta_block(fib, k, w), (k, w)


@pytest.mark.parametrize("name", ["heisenberg:3", "quaternionic-3-custom"])
def test_blocks_are_sliced_without_rebuilding(name, monkeypatch):
    # once d0_matrix(k - 1), d0_matrix(k) and delta_matrix(k) are held, the
    # blocks of degree k recompute no numerator and form no product
    alg = _gram_algebra(name)
    fib = FiberContext(alg)
    for k in range(alg.dim + 1):
        fib.d0_matrix(k - 1), fib.d0_matrix(k), fib.delta_matrix(k)
    calls = {"_d0_numerators": 0, "combine": 0}

    def counting(label, fn):
        def wrapped(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        FiberContext, "_d0_numerators", counting("_d0_numerators", FiberContext._d0_numerators)
    )
    for module in (linalg, fiber):
        monkeypatch.setattr(module, "combine", counting("combine", module.combine))
    for k in range(alg.dim + 1):
        for w in fib.blocks(k):
            fib.d0_block(k, w), fib.delta_block(k, w)
    assert calls == {"_d0_numerators": 0, "combine": 0}
    # the counters see a fresh context build its matrices
    FiberContext(alg).delta_block(2, 2)
    assert calls["_d0_numerators"] > 0
    assert (calls["combine"] > 0) == (not alg.inner_product_is_standard())


def _det(rows):
    """Dense exact determinant by Fraction Gaussian elimination."""
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


@pytest.mark.parametrize("name", GRAM_ALGEBRAS)
def test_gram_blocks_are_minor_determinants(name):
    # entry (I, J) of the Gram matrix of block (k, w) is det G*[I, J], G* the
    # inner product on the dual basis
    alg = _gram_algebra(name)
    fib = FiberContext(alg)
    gstar = fib._gram_inverse()
    for k in range(alg.dim + 1):
        for w, monos in fib.blocks(k).items():
            gram = _gram_block(fib, k, w)
            assert_normal_form(gram)
            for j, mj in enumerate(monos):
                minors = [_det([[gstar[a][b] for b in mj] for a in mi]) for mi in monos]
                assert gram.column(j) == {i: v for i, v in enumerate(minors) if v}, (k, w, j)


@pytest.mark.parametrize("name", GRAM_ALGEBRAS + ["heisenberg:2"])
def test_exterior_powers_of_g_and_g_star_are_inverse(name):
    # Lambda^k is multiplicative, so Lambda^k G Lambda^k G* = Lambda^k 1 = 1
    alg = _gram_algebra(name)
    fib = FiberContext(alg)
    for k in range(alg.dim + 1):
        one = SparseMatrix.identity(len(fib.mons(k)))
        assert fib.exterior_power(k, dual=False) @ fib.exterior_power(k, dual=True) == one, k
        if alg.inner_product_is_standard():
            assert fib.exterior_power(k, dual=True) == one, k


def test_gram_build_checks_the_budget():
    # one combine per degree and power, checked every 64 columns: degrees 5
    # and 6 of quaternionic-3-custom have 462 monomials each, so 8 checks
    budget = _CountingBudget()
    alg = _gram_algebra("quaternionic-3-custom")
    fib = FiberContext(alg, budget)
    assert [len(fib.mons(k)) for k in range(alg.dim + 1)][5:7] == [462, 462]
    for dual in (True, False):
        fib.exterior_power(4, dual)
        before = budget.checks
        fib.exterior_power(5, dual)
        assert budget.checks - before == 8, dual
    # delta_block(6, w) reads Lambda^5 G and Lambda^6 G*, of which only the
    # last is new.  delta_matrix(6)'s two products add 8 checks for the 462
    # columns of Lambda^6 G* and 6 for the 374 nonzero columns of d0^T Lambda^6 G*
    before = budget.checks
    fib.delta_block(6, 6)
    assert budget.checks - before == 8 + 8 + 6


@pytest.mark.parametrize("name,P", [("heisenberg:3", 0), ("weighted-h3", 0), ("heisenberg:3", 1)])
def test_delta_is_the_fibers_delta0_at_P_zero(name, P):
    # at P = 0 V^k is the fiber's degree k, so the package holds the fiber's
    # delta0 itself, not a copy; from P = 1 on it holds the kron copy
    pkg = RuminPackage(_algebra(name), P)
    for k in range(pkg.algebra.dim + 1):
        delta0 = pkg.fiber.delta_matrix(k)
        assert (pkg.delta_mat(k) is delta0) == (P == 0), k
        assert pkg.delta_mat(k) == _oracle_delta(pkg, k), k


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
            harm = fib.harmonic_basis(k, w)
            assert (fib.d0_block(k, w) @ harm).is_zero(), (k, w)
            # ker delta0 = H + im delta0, which the projection's domain check needs
            elim, _ = fib.kerdelta_solver(k, w)
            assert elim.rank == len(monos) - kernel_rank(fib.delta_block(k, w)), (k, w)
            # so the harmonic coordinates on ker delta0 are fixed by X H = 1
            # and X delta0 = 0
            X = fib.harmonic_coordinate_block(k, w)
            assert X @ harm == SparseMatrix.identity(X.nrows), (k, w)
            assert (X @ fib.delta_block(k + 1, w)).is_zero(), (k, w)
            assert_normal_form(X)
    assert pkg.delta_mat(0).shape() == (0, pkg.dim_v(0))


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_d_matrix_matches_per_key_oracle(name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    for k in range(alg.dim + 1):
        got = pkg.d_mat(k)
        want = operator_matrix(pkg.keys(k), spanning_index(pkg, k + 1), pkg.group.d_term)
        assert got == want, k
        assert_normal_form(got)


@pytest.mark.parametrize("P", [0, 1, 2])
@pytest.mark.parametrize("name", sorted({name for name, _ in ORACLE_CASES}))
def test_v_and_model_are_addressed_by_kronecker_positions(name, P):
    # the package copies fiber blocks, splits columns and reads keys by this
    # arithmetic alone, so the bases must be laid out exactly so
    pkg = RuminPackage(_algebra(name), P)
    fib, npoly = pkg.fiber, pkg.npoly
    polys = pkg.group.poly_basis(P)
    assert npoly == len(polys)
    for k in range(pkg.algebra.dim + 1):
        mons = fib.mons(k)
        keys = pkg.keys(k)
        assert len(keys) == len(mons) * npoly
        for f, mono in enumerate(mons):
            for e, exps in enumerate(polys):
                assert keys[f * npoly + e] == (exps, mono), (k, f, e)
        assert [pkg.key(k, j) for j in range(pkg.dim_v(k))] == keys, k
        # the harmonic forms of degree k in weight order
        harmonic = [
            (w, i) for w in sorted(fib.blocks(k)) for i in range(fib.harmonic_basis(k, w).ncols)
        ]
        model = pkg.model_keys(k)
        assert len(model) == len(harmonic) * npoly == pkg.model_dim(k)
        for h, (w, i) in enumerate(harmonic):
            for e, exps in enumerate(polys):
                assert model[h * npoly + e] == (exps, w, i), (k, h, e)
        assert [pkg.model_key(k, j) for j in range(pkg.model_dim(k))] == model, k
        # each basis vector, and one vector over the whole of V^k, as a form
        # and back through the fiber's and the polynomials' own indices
        vectors = [{j: Fraction(j + 1, 3)} for j in range(len(keys))]
        vectors.append({j: Fraction(2 * j + 1, 7) for j in range(len(keys))})
        for vec in vectors:
            assert pkg._to_positional(pkg._to_form(k, vec)) == {k: vec}, k
        positions, where = fib.block_positions(k)
        assert list(positions) == list(fib.blocks(k))
        assert len(where) == len(mons)
        for w, monos in fib.blocks(k).items():
            assert [mons[f] for f in positions[w]] == monos, (k, w)
            index = fib.block_index(k, w)
            for i, f in enumerate(positions[w]):
                assert where[f] == (w, i) and index[mons[f]] == i, (k, w, i)
    # a term of polynomial degree P + 1 lies in no V^k
    form = PolyForm.from_monomial(pkg.algebra, (P + 1,) + (0,) * (pkg.algebra.dim - 1), (0,))
    power = "x1" if P == 0 else f"x1^{P + 1}"
    with pytest.raises(StructureError) as err:
        pkg._to_positional(form)
    assert str(err.value) == f"form term {power} . theta[1] exceeds polynomial degree budget P={P}"


def test_copies_share_the_index_ints_and_block_tuples(q2):
    # the row numbers and column keys of the copies, of the products and of
    # the decoded blocks are the shared `positions` int objects, and the
    # polynomial copies of a block column hold one nums tuple, which keeps
    # the frontier's peak memory down
    pkg = RuminPackage(q2, 1).build()
    fib, npoly = pkg.fiber, pkg.npoly
    shared = positions(max(pkg.dim_v(k) for k in range(q2.dim + 1)))
    text = io.StringIO()
    pkg.write_json(text)
    loaded = {"from_json": RuminPackage.from_json(text.getvalue())}
    loaded["read_json"] = _read(text.getvalue())

    def big_ints(name, k, matrix):
        # ints up to 256 are shared by the interpreter anyway, so count the
        # ones above, which only the positions list can have given
        big = 0
        for j, (_, rows, _) in matrix.cols.items():
            assert shared[j] is j, (name, k, j)
            assert all(shared[r] is r for r in rows), (name, k, j)
            big += (j > 256) + sum(r > 256 for r in rows)
        return big

    big = {}
    for k in range(q2.dim + 1):
        delta, lift = pkg.delta_mat(k), pkg.lift(k)
        for j, col in delta.cols.items():
            assert col[2] is delta.cols[j - j % npoly][2], (k, j)
        for j, col in lift.cols.items():
            _, w, i = pkg.model_keys(k)[j]
            assert col[2] is fib.harmonic_basis(k, w).cols[i][2], (k, j)
        matrices = {"d": pkg.d_mat(k), "delta": delta, "lift": lift, "q": pkg.q_mat(k)}
        for reader, package in loaded.items():
            matrices[f"{reader} q"] = package.q_mat(k)
        if k < q2.dim:
            matrices["D"] = pkg.D_mat(k)
            for reader, package in loaded.items():
                matrices[f"{reader} D"] = package.D_mat(k)
        for name, matrix in matrices.items():
            big[name] = big.get(name, 0) + big_ints(name, k, matrix)
    # V^3 and V^4 are 280 wide; the model is at most 112, so D's ints are small
    assert max(pkg.model_dim(k) for k in range(q2.dim + 1)) <= 256
    assert all(n > 0 for name, n in big.items() if not name.endswith("D")), big


def _unshared_tuples(matrix):
    """How many of matrix's rows tuples, then nums tuples, are equal to an
    earlier column's but another object."""
    extra = []
    for part in (1, 2):
        tuples = [col[part] for col in matrix.cols.values()]
        extra.append(len({id(t) for t in tuples}) - len(set(tuples)))
    return extra


SHARED_TUPLE_CASES = [
    (name, P) for name in ("heisenberg:2", "heisenberg:3", "quaternionic:2") for P in (1, 2)
]


@pytest.mark.parametrize("name,P", SHARED_TUPLE_CASES)
def test_stored_operators_share_equal_tuples(name, P):
    # each stored d, delta, q and D, built or loaded through either reader,
    # holds one object per distinct rows tuple and per distinct nums tuple,
    # and equals the operator formed with @ and + here, as does iota^-1,
    # which no package holds
    pkg = RuminPackage(_algebra(name), P).build()
    text = io.StringIO()
    pkg.write_json(text)
    packages = {
        "built": pkg,
        "from_json": RuminPackage.from_json(text.getvalue()),
        "read_json": _read(text.getvalue()),
    }
    fresh = RuminPackage(_algebra(name), P)
    dim = pkg.algebra.dim
    repeated = 0
    for reader, package in packages.items():
        fib = package.fiber
        for k in range(dim + 1):
            d, delta, q = package.d_mat(k), package.delta_mat(k), package.q_mat(k)
            iota = package.iota_inv_mat(k)
            held = {"d": d, "delta": delta, "q": q}
            if k < dim:
                held["D"] = package.D_mat(k)
            for op, matrix in held.items():
                assert _unshared_tuples(matrix) == [0, 0], (reader, op, k)
                repeated += len(matrix.cols) - len({col[2] for col in matrix.cols.values()})
            # d and delta as the group calculus and the fiber give them
            assert d == fresh.group.d_matrix(k, P), (reader, k)
            assert delta == fresh.delta_mat(k), (reader, k)
            if k > 0:
                assert package.lap_mat(k - 1) @ q == delta, (reader, k)
                assert q == fresh.q_mat(k), (reader, k)
            lift = package.lift(k)
            if k < dim:
                want = lift - package.q_mat(k + 1) @ (d @ lift)
                assert iota == want, (reader, k)
                coords = package._kron(
                    k + 1, fib.harmonic_coordinate_block, fib.block_positions(k + 1)[0],
                    package._harmonic_positions(k + 1),
                )
                assert held["D"] == coords @ (d @ iota), (reader, k)
            else:
                assert iota == lift, reader
    # equal tuples do repeat across columns, so the sharing is not vacuous
    assert repeated > 0


@pytest.mark.parametrize("name,P", [("quaternionic:2", 1), ("quaternionic:3", 0),
                                    ("quaternionic-2-custom", 1)])
def test_packages_hold_no_wedge_matrices(name, P):
    # d and the Gram matrices read the fiber's wedge matrices once per degree
    # and hold them only if the fiber already does, so neither a built
    # package nor a loaded and verified one holds any, and the bytes written
    # are those of a package whose fiber held them
    alg = _gram_algebra(name) if name.endswith("-custom") else _algebra(name)
    pkg = RuminPackage(alg, P).build()
    assert pkg.fiber._wedges == {}
    text = io.StringIO()
    pkg.write_json(text)
    loaded = _read(text.getvalue())
    suite_ok(loaded)
    assert loaded.fiber._wedges == {}
    held = RuminPackage(alg, P)
    for k in range(alg.dim):
        held.fiber.wedge_matrices(k)
    again = io.StringIO()
    held.write_json(again)
    assert again.getvalue() == text.getvalue()
    assert sorted(held.fiber._wedges) == list(range(alg.dim))


@pytest.mark.parametrize("name,P", [("heisenberg:2", 2), ("quaternionic:2", 1), ("weighted-h3", 2)])
def test_project_names_the_oracle_weight_off_ker_delta(name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    checked = 0
    for k in range(1, alg.dim + 1):
        where = pkg.fiber.block_positions(k)[1]
        delta = pkg.delta_mat(k)
        # one V^k column outside ker delta per weight, each in its own block,
        # so that no sum of them is in ker delta
        off = {}
        for j in sorted(delta.cols):
            off.setdefault(where[j // pkg.npoly][0], j)
        if not off:
            continue
        highest = {off[max(off)]: Fraction(1)}
        every = {j: Fraction(1) for j in off.values()}
        iota = pkg.iota_inv_mat(k)
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


@pytest.mark.parametrize("name,P", [("quaternionic:2", 1), ("weighted-h3", 2), ("weighted-h5", 1)])
def test_q_iota_D_create_no_fraction(monkeypatch, name, P):
    alg = _algebra(name)
    pkg = RuminPackage(alg, P)
    fib = pkg.fiber
    # the field matrices X_a, a factor of d, are Fraction-built caches; so is
    # the dual inner product G* under a non-standard inner product, whose
    # Gram blocks are slices of the exterior powers of G* and G.  The fiber's
    # coframe matrices, the other factors of d, those powers, and its
    # harmonic bases, solvers and coordinate blocks are built in the window
    # below.
    gram = not alg.inner_product_is_standard()
    pkg.group.field_matrices(P)
    if gram:
        fib._gram_inverse()
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for k in range(alg.dim + 1):
        pkg.d_mat(k)
    for k in range(alg.dim + 1):
        pkg.delta_mat(k), pkg.lap_mat(k)
        for w in fib.blocks(k):
            fib.harmonic_basis(k, w)
    for k in range(alg.dim + 1):
        pkg.q_mat(k)
    for k in range(alg.dim + 1):
        pkg.lift(k), pkg.iota_inv_mat(k)
    for k in range(alg.dim):
        pkg.D_mat(k)
    monkeypatch.undo()
    assert created == []
    assert pkg.neumann_terms >= 1 and any(not pkg.D_mat(k).is_zero() for k in range(alg.dim))
    assert fib._harmonic and fib._imdelta_solver and fib._harmonic_coordinates
    assert bool(fib._powers) == gram


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


def _ker_q_ker_qd(pkg, k):
    """The canonical basis of ker q cap ker qd on V^k, by elimination of the
    stacked [q; qd]: the oracle for E_basis, which reads the iota^-1 columns."""
    q = pkg.q_mat(k)
    if k < pkg.algebra.dim:
        q = q.stack(pkg.q_mat(k + 1) @ pkg.d_mat(k))
    return ColumnEliminator(q).nullspace()


def _columns(matrix):
    return [matrix.column(j) for j in range(matrix.ncols)]


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
        E = _columns(pkg.E_basis(k))
        old = _ker_q_ker_qd(pkg, k)
        assert dim_v - kernel_rank(pi) == dim_v - pi.trace() == model_dim == len(E) == old.ncols
        assert rank_of_columns(E) == model_dim
        assert rank_of_columns(_columns(old) + E) == model_dim
        assert not any(pi.apply(v) for v in E)


PI_ROWS = (
    "pi_idempotent",
    "pi_commutes_d",
    "pi_q",
    "q_pi",
    "homotopy_on_im_pi",
    "ker_pi_equals_ker_q_ker_qd",
)


def _loaded_with_stored_pi(data, k, pi):
    """The package data, with the matrix pi stored as its pi(k), loaded by
    each reader: {reader name: package}."""
    data = copy.deepcopy(data)
    data["operators"]["pi"][str(k)]["entries"] = [
        [i, j, fraction_to_str(v)] for j in sorted(pi.cols) for i, v in sorted(pi.column(j).items())
    ]
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return {"from_json": RuminPackage.from_json(data), "read_json": _read(text)}


def test_every_pi_row_fails_unless_pi_is_dq_plus_qd(h2):
    pkg = RuminPackage(h2, 2).build()
    # a package holds no pi: the tampered one is stored in the file and loaded
    pi = pkg.pi_mat(1)
    j = min(pi.cols)
    col = pi.column(j)
    col[min(col)] += 1
    pi.set_column(j, col)
    for reader, loaded in _loaded_with_stored_pi(pkg.to_json(), 1, pi).items():
        rows = {r["identity"]: r for r in loaded.verify()}
        for name in PI_ROWS:
            assert rows[name] == {
                "identity": name,
                "status": "fail",
                "counterexample": pkg._witness(1, j),
            }, (reader, name)


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_build_and_verify_never_form_pi(monkeypatch, name, P):
    # a built package holds no pi, so nothing pins it and no pi row forms
    # it; verify forms no Laplacian, on a built or a loaded package, and the
    # build's Laplacians are dropped, none cached
    def no_pi(pkg, k, minus=None):
        raise AssertionError(f"pi({k}) formed")

    laps, verifying = [], []
    lap_mat, pi_mat, verify = RuminPackage.lap_mat, RuminPackage.pi_mat, RuminPackage.verify

    def kept(pkg, k):
        assert not verifying, f"lap({k}) formed in verify"
        laps.append(lap_mat(pkg, k))
        return laps[-1]

    def watched(pkg):
        verifying.append(pkg)
        try:
            return verify(pkg)
        finally:
            verifying.pop()

    monkeypatch.setattr(RuminPackage, "pi_mat", no_pi)
    monkeypatch.setattr(RuminPackage, "lap_mat", kept)
    monkeypatch.setattr(RuminPackage, "verify", watched)
    pkg = RuminPackage(_algebra(name), P).build()
    rows = {r["identity"]: r for r in suite_ok(pkg)}
    assert all(rows[row]["status"] == "ok" for row in PI_ROWS)
    # writing forms each pi(k), and a load compares the stored pi with it
    monkeypatch.setattr(RuminPackage, "pi_mat", pi_mat)
    text = _dict_text(pkg)
    for loaded in (RuminPackage.from_json(text), _read(text)):
        suite_ok(loaded)
    monkeypatch.undo()
    _assert_holds_no_pi(pkg)
    held = {id(m) for m in _cached_matrices(pkg, pkg.fiber, pkg.group)}
    assert not any(id(m) in held for m in laps)


@pytest.mark.parametrize("name,P", [("heisenberg:2", 2), ("quaternionic:2", 1), ("weighted-h3", 2)])
def test_a_stored_pi_off_dq_plus_qd_fails_every_pi_row(name, P):
    # a stored pi(k) that differs from d q + q d in its last column's last
    # row fails every pi row at that column, at whichever degree it is
    # stored, while the stored pi is d q + q d at the other degrees; the
    # loaded package keeps the witness, not the pi
    pkg = RuminPackage(_algebra(name), P).build()
    data = pkg.to_json()
    tampered = 0
    for k in range(pkg.algebra.dim + 1):
        pi = pkg.pi_mat(k)
        if not pi.cols:
            continue
        j = max(pi.cols)
        col = pi.column(j)
        col[max(col)] += Fraction(1, 3)
        pi.set_column(j, col)
        for reader, loaded in _loaded_with_stored_pi(data, k, pi).items():
            rows = {r["identity"]: r for r in loaded.verify()}
            for row in PI_ROWS:
                assert rows[row] == {
                    "identity": row,
                    "status": "fail",
                    "counterexample": pkg._witness(k, j),
                }, (reader, k, row)
            _assert_holds_no_pi(loaded)
        tampered += 1
    assert tampered >= 2


# sha256 of the package text that write_json gave before pi was formed at
# the writer, when a built package held every pi(k)
WRITTEN_DIGESTS = {
    ("heisenberg:2", 1): "580279cf2556887c2bac0db97548b97e2c011525496626c963a108bb4bbcaf3c",
    ("heisenberg:2", 2): "2f53b22b203a998eb2e7e852558b9e80fe619b41727cbe80a5cad059af743e30",
    ("heisenberg:3", 1): "4893327ed5ea93ce06c792b15fc700d2a04234db9c9bb30156f3bb6c08bd0f12",
    ("heisenberg:3", 2): "b56d96f295efe182ffaf49234f27f5529c21e2916ed6cac4419bf1361b78ae6d",
    ("quaternionic:2", 1): "6eecd9bdac4241a36e4b7bc9f071f12b011a079306243da22a287b654e8c5ee5",
    ("quaternionic:2", 2): "354b2278ce88f4345f23931905a7e335b5cc6b06371b8fb6e56858480c3b8195",
}


@pytest.mark.parametrize("name,P", sorted(WRITTEN_DIGESTS))
def test_writer_holds_one_pi_at_a_time(monkeypatch, name, P):
    # the writer forms pi(k) = d q + q d a slice of columns at a time, so it
    # asks pi_mat for no whole pi(k), and writes the bytes of the package
    # that held every pi(k)
    pkg = RuminPackage(_algebra(name), P).build()

    def whole_pi(self, k, minus=None):
        raise AssertionError(f"pi({k}) formed whole")

    monkeypatch.setattr(RuminPackage, "pi_mat", whole_pi)
    text = io.StringIO()
    pkg.write_json(text)
    monkeypatch.undo()
    _assert_holds_no_pi(pkg)
    written = text.getvalue()
    assert hashlib.sha256(written.encode()).hexdigest() == WRITTEN_DIGESTS[(name, P)]
    assert written == _dict_text(pkg)


def test_writer_peak_stays_below_one_pi():
    # above its starting level, the writer's traced peak stays below the
    # traced size of the largest pi(k), formed here: no pi(k) is held whole
    pkg = RuminPackage(builtin("quaternionic", 2), 2).build()
    sizes = []
    for k in range(pkg.algebra.dim + 1):
        tracemalloc.start()
        try:
            pi = pkg.pi_mat(k)
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del pi
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pkg.write_json(SimpleNamespace(write=lambda text: digest.update(text.encode())))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == WRITTEN_DIGESTS[("quaternionic:2", 2)]
    assert peak < max(sizes), (peak, sizes)


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_trace_of_pi_is_read_off_d_and_q(name, P):
    # the ker_pi row counts n - trace(pi) through trace(d q) at k and k + 1
    pkg = RuminPackage(_algebra(name), P).build()
    dim = pkg.algebra.dim
    for k in range(dim + 1):
        parts = [
            trace_of_product(pkg.d_mat(j - 1), pkg.q_mat(j)) for j in (k, k + 1) if 0 < j <= dim
        ]
        if k < dim:
            assert parts[-1] == trace_of_product(pkg.q_mat(k + 1), pkg.d_mat(k)), k
        assert sum(parts) == pkg.pi_mat(k).trace() == pkg.dim_v(k) - pkg.model_dim(k), k


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
    # one q entry changed after the load, and pi is the d q + q d it implies,
    # so the pin holds and each row must find the fault through its own identity
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
            iota_inv = pkg.iota_inv_mat(k)
            for v in map(iota_inv.column, iota_inv.cols):
                assert not pkg.q_mat(k).apply(v), seed
                if k < dim:
                    assert not pkg.q_mat(k + 1).apply(d[k].apply(v)), seed
            E, old = _columns(pkg.E_basis(k)), _columns(_ker_q_ker_qd(pkg, k))
            assert pkg.dim_v(k) - kernel_rank(pi[k]) == len(old) == len(E) == pkg.model_dim(k), seed
            assert rank_of_columns(old + E) == rank_of_columns(E) == len(E), seed
            assert not any(pi[k].apply(v) for v in old + E), seed


def test_verify_reports_every_row_when_an_early_row_stops(h2):
    # a q fault made after the load, with pi the d q + q d it implies, stops
    # the iota rows at degree 1; fiber_restriction must still build the
    # model bases it reads
    blob = json.dumps(RuminPackage(h2, 1).build().to_json())
    pkg = RuminPackage.from_json(json.loads(blob))
    q = pkg.q_mat(2)
    col = q.column(0)
    col[6] = col.get(6, 0) + 1
    q.set_column(0, col)
    report = pkg.verify()
    assert [r["identity"] for r in report] == SUITE_ROWS
    assert any(r["status"] == "fail" for r in report)


def _spy_combine(monkeypatch, calls):
    """Record (terms, result) of every call of rumin's combine in calls."""
    combine = rumin.combine

    def spy(nrows, ncols, terms, budget=None, keys=None):
        out = combine(nrows, ncols, terms, budget, keys)
        calls.append((terms, out))
        return out

    monkeypatch.setattr(rumin, "combine", spy)


def _q_lap_residuals(pkg, calls):
    """{k: the q_laplacian_is_delta residual} among the recorded calls: the
    sums whose last term is -delta(k)."""
    out = {}
    for terms, result in calls:
        c, a, b = terms[-1]
        for k in range(1, pkg.algebra.dim + 1):
            if c == -1 and b is None and a is pkg.delta_mat(k):
                out[k] = result
    return out


@pytest.mark.parametrize("name,P", [("heisenberg:2", 2), ("quaternionic:2", 1), ("weighted-h3", 2)])
def test_verify_holds_no_projection(monkeypatch, name, P):
    # iota_inverse_right keeps its verdict, not the projection of an iota^-1
    # slice: when verify asks for the next slice's projection, nothing but
    # this wrapper refers to the previous one, and each degree is projected
    # once, a slice of 64 model columns at a time
    pkg = RuminPackage(_algebra(name), P).build()
    asked, last = [], []
    project = RuminPackage.project

    def referrers():
        # less the list's reference and getrefcount's own argument; counted
        # outside an assert, whose rewriting would hold one more
        return sys.getrefcount(last[0]) - 2

    def watched(self, k, matrix, coords=None):
        if last:
            held = referrers()
            assert held == 0, f"project({asked[-1]}) still referred to"
            last.clear()
        asked.append(k)
        last.append(project(self, k, matrix, coords))
        return last[0]

    monkeypatch.setattr(RuminPackage, "project", watched)
    suite_ok(pkg)
    held = referrers()
    assert held == 0
    monkeypatch.undo()
    dim = pkg.algebra.dim
    slices = [k for k in range(dim + 1) for _ in range(0, pkg.model_dim(k), 64)]
    assert asked == slices and set(asked) == set(range(dim + 1))


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_verify_forms_no_d_iota_inv_on_a_sound_package(monkeypatch, name, P):
    # q d q = q at every degree makes q d iota^-1 = (q - q d q) d lift zero,
    # so the ker_pi row forms neither d iota^-1 nor q (d iota^-1) on any
    # slice of the iota^-1 columns
    pkg = RuminPackage(_algebra(name), P).build()
    slices_of = RuminPackage._iota_inv_slices
    for package in (pkg, RuminPackage.from_json(pkg.to_json())):
        calls, slices = [], []

        def spied(self, k):
            for keys, part in slices_of(self, k):
                # held here, so that no id is reused while the calls are read
                slices.append((k, part))
                yield keys, part

        with monkeypatch.context() as m:
            _spy_combine(m, calls)
            m.setattr(RuminPackage, "_iota_inv_slices", spied)
            suite_ok(package)
        assert calls
        assert {k for k, _ in slices} == set(range(package.algebra.dim + 1))
        pairs = {(id(package.d_mat(k)), id(part)) for k, part in slices}
        assert not any((id(a), id(b)) in pairs for terms, _ in calls for _, a, b in terms)


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_q_lap_and_ker_pi_rows_match_direct_forms_on_tampered_q(monkeypatch, name, P):
    # one entry of q(k) changed after the load, so q d q != q there: the
    # residual verify forms from q d is q lap - delta column for column, and
    # the ker_pi row is the one an oracle that always forms q d iota^-1 gives.
    # The entry's column is a row of delta(k + 1) d(k) where there is one, so
    # that the residual's (q delta) d part is nonzero
    alg = _algebra(name)
    dim = alg.dim
    blob = RuminPackage(alg, P).build().to_json()
    for k in range(1, dim + 1):
        pkg = RuminPackage.from_json(blob)
        q = pkg.q_mat(k)
        hit = pkg.delta_mat(k + 1) @ pkg.d_mat(k) if k < dim else SparseMatrix(0, 0)
        j = min((i for _, rows, _ in hit.cols.values() for i in rows), default=min(q.cols, default=0))
        col = q.column(j)
        i = min(col, default=0)
        col[i] = col.get(i, 0) + Fraction(1, 7)
        q.set_column(j, col)
        d = pkg.d_mat(k - 1)
        assert q @ d @ q != q, k
        calls = []
        with monkeypatch.context() as m:
            _spy_combine(m, calls)
            rows = {r["identity"]: r for r in pkg.verify()}
        want = {
            n: pkg.q_mat(n) @ pkg.lap_mat(n) - pkg.delta_mat(n) for n in range(1, dim + 1)
        }
        residuals = _q_lap_residuals(pkg, calls)
        # the row reads every degree up to the first failing one, k at the latest
        assert set(range(1, k + 1)) <= residuals.keys(), k
        for n, residual in residuals.items():
            assert residual == want[n], (k, n)
        assert rows["q_laplacian_is_delta"] == {
            "identity": "q_laplacian_is_delta", **_first_nonzero(pkg, sorted(want.items()))
        }, k
        name = "ker_pi_equals_ker_q_ker_qd"
        assert rows[name] == {"identity": name, **_oracle_iota_rows(pkg)[name]}, k
        # the identity the ker_pi row's shortcut rests on, at degree k - 1
        lift = pkg.lift(k - 1)
        assert q @ (d @ pkg.iota_inv_mat(k - 1)) == (q - q @ d @ q) @ (d @ lift), k


def test_budget_out_in_the_shared_q_d_work_keeps_the_rows_before(monkeypatch, h2):
    # verify forms the q_laplacian_is_delta residual with q d, in the q_d_q
    # row: a budget that runs out there leaves only q_squared's row
    pkg = RuminPackage(h2, 2, budget=Budget()).build()
    exhausted = []

    def check(budget):
        if exhausted:
            raise BudgetExceededError("wall-clock budget exhausted")

    combine = rumin.combine

    def spy(nrows, ncols, terms, budget=None):
        c, a, b = terms[-1]
        if c == -1 and b is None and a is pkg.delta_mat(1):
            exhausted.append(True)
        return combine(nrows, ncols, terms, budget)

    monkeypatch.setattr(Budget, "check", check)
    monkeypatch.setattr(rumin, "combine", spy)
    with pytest.raises(BudgetExceededError) as info:
        pkg.verify()
    assert exhausted
    assert info.value.partial == [{"identity": "q_squared", "status": "ok"}]


def test_ker_pi_row_counts_the_kernel_against_the_model(h2):
    # with q = pi = 0 every premise but the count holds: pi = dq + qd, pi is
    # idempotent and the iota^-1 columns (plain lifts) lie in ker q cap ker qd,
    # but n - trace(pi) exceeds the model dimension
    pkg = RuminPackage(h2, 1).build()
    for k in range(h2.dim + 1):
        pkg._q[k] = SparseMatrix(pkg.dim_v(k - 1), pkg.dim_v(k))
    rows = {r["identity"]: r for r in pkg.verify()}
    assert rows["pi_idempotent"]["status"] == "ok"
    assert rows["iota_inverse_right"]["status"] == "ok"
    assert rows["ker_pi_equals_ker_q_ker_qd"] == {
        "identity": "ker_pi_equals_ker_q_ker_qd",
        "status": "fail",
        "counterexample": "degree 1: dim ker pi = n - trace(pi) = 12, model dimension = 8",
    }


def test_ker_pi_row_forms_q_d_iota_inv_where_q_d_q_is_not_q():
    # a planted q keeps pi(2) idempotent with its trace, iota^-1(2) unchanged
    # and in ker q(2), but q(3) d iota^-1(2) != 0, which only the ker_pi row's
    # branch for q d q != q at degree 3 forms.  With a = a column of d q(2),
    # b = q(2) a and phi a functional on V^3 that kills d lift(2) but not
    # d iota^-1(2): q'(3) = q(3) + a phi and q'(2) = q(2) - b phi pi(3) d(2).
    # Then pi'(2) = pi(2) + a phi (1 - pi(3)) d(2), q'(3) d lift(2) = q(3) d
    # lift(2) and q'(3) d iota^-1(2) = a phi d iota^-1(2)
    alg = builtin("heisenberg", 3)
    pkg = RuminPackage(alg, 1).build()
    k = 2
    q, q_up, d = pkg.q_mat(k), pkg.q_mat(k + 1), pkg.d_mat(k)
    iota = pkg.iota_inv_mat(k)
    dq = pkg.d_mat(k - 1) @ q
    a = SparseMatrix(dq.nrows, 1, {0: dq.column(min(dq.cols))})
    phis = ColumnEliminator((d @ pkg.lift(k)).transpose()).nullspace()
    hits = phis.transpose() @ (d @ iota)
    c = min(i for _, rows, _ in hits.cols.values() for i in rows)
    j = min(j for j, (_, rows, _) in hits.cols.items() if c in rows)
    phi = SparseMatrix(1, phis.nrows, {i: {0: v} for i, v in phis.column(c).items()})
    pkg._q[k + 1] = q_up + a @ phi
    pkg._q[k] = q - (q @ a) @ (phi @ pkg.pi_mat(k + 1) @ d)
    assert pkg.iota_inv_mat(k) == iota and (pkg.q_mat(k) @ iota).is_zero()
    assert pkg.q_mat(k + 1) @ d @ pkg.q_mat(k + 1) != pkg.q_mat(k + 1)
    rows = {r["identity"]: r for r in pkg.verify()}
    assert rows["pi_idempotent"]["status"] == "ok"
    assert rows["iota_inverse_right"]["status"] == "ok"
    assert rows["ker_pi_equals_ker_q_ker_qd"] == {
        "identity": "ker_pi_equals_ker_q_ker_qd",
        "status": "fail",
        "counterexample": _model_witness(pkg, k, j),
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
        idx = spanning_index(pkg, k)
        const = {idx[(zero, m)] for m in pkg.fiber.mons(k)}
        for basis in map(_columns, (pkg.E_basis(k), _ker_q_ker_qd(pkg, k))):
            assert len([v for v in basis if set(v) <= const]) == expected


def test_E_stable_under_d(h2):
    # d maps ker q cap ker qd into itself
    pkg = RuminPackage(h2, 2)
    for k in range(h2.dim):
        d = pkg.d_mat(k)
        q = pkg.q_mat(k + 1)
        qd_next = pkg.q_mat(k + 2) @ pkg.d_mat(k + 1) if k + 1 < h2.dim else None
        for vec in _columns(pkg.E_basis(k)) + _columns(_ker_q_ker_qd(pkg, k)):
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
        index = spanning_index(pkg, k)
        for j, (exps, w, i) in enumerate(mk):
            hvec = _harmonic_vector(pkg.fiber, k, w, i)
            lifted[j] = {index[(exps, m)]: c for m, c in hvec.items()}
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


@pytest.mark.parametrize("name,P", ORACLE_CASES)
def test_harmonic_bases_are_block_columns_in_normal_form(name, P):
    pkg = RuminPackage(_algebra(name), P).build()
    fib = pkg.fiber
    assert fib._harmonic
    for (k, w), harm in fib._harmonic.items():
        assert_normal_form(harm)
        assert harm.nrows == len(fib.block(k, w)) and len(harm.cols) == harm.ncols, (k, w)
        assert (fib.delta_block(k, w) @ harm).is_zero() and kernel_rank(harm) == harm.ncols
    # the lift shares each block column's numerators across its polynomial copies
    for k in range(pkg.algebra.dim + 1):
        lift = pkg.lift(k)
        for j, (exps, w, i) in enumerate(pkg.model_keys(k)):
            assert lift.cols[j][2] is fib.harmonic_basis(k, w).cols[i][2], (k, j)


def _package_dict(pkg):
    """The package as a dict, built in full: the reference for `write_json`.

    json.dumps(this, indent=2, sort_keys=True) + "\n" is the format's byte
    definition from before the package was streamed.
    """
    pkg.build()

    def encode(matrix):
        entries = []
        for j in sorted(matrix.cols):
            den, rows, nums = matrix.cols[j]
            for i, v in sorted(zip(rows, nums)):
                entries.append([i, j, ratio_to_str(v, den)])
        return {"rows": matrix.nrows, "cols": matrix.ncols, "entries": entries}

    harmonic = {}
    for k in range(pkg.algebra.dim + 1):
        for w in sorted(pkg.fiber.blocks(k)):
            basis = pkg.fiber.harmonic_basis(k, w)
            vectors = [_harmonic_vector(pkg.fiber, k, w, i) for i in range(basis.ncols)]
            if vectors:
                harmonic[f"{k},{w}"] = [
                    [[list(m), fraction_to_str(c)] for m, c in sorted(vec.items())]
                    for vec in vectors
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


@pytest.mark.parametrize("name,P", sorted(set(ORACLE_CASES) | set(PACKAGE_CASES)))
def test_D_is_the_projection_of_d_iota_inv(name, P):
    # D is formed a slice of 64 model columns at a time; the whole-matrix
    # product must give the same D, also where model^k has more columns
    # than one slice (quaternionic:2 at P = 2, quaternionic:3 at P = 0)
    pkg = RuminPackage(_algebra(name), P).build()
    for k in range(pkg.algebra.dim):
        whole = pkg.project(k + 1, pkg.d_mat(k) @ pkg.iota_inv_mat(k))
        assert pkg.D_mat(k) == whole, k


def test_build_and_verify_hold_no_iota_inv(monkeypatch):
    # D and the iota rows read the slices of iota^-1, never the whole matrix
    def whole(self, k):
        raise AssertionError(f"iota_inv_mat({k}) called")

    monkeypatch.setattr(RuminPackage, "iota_inv_mat", whole)
    pkg = RuminPackage(builtin("quaternionic", 2), 1).build()
    suite_ok(pkg)
    suite_ok(RuminPackage.from_json(pkg.to_json()))


def test_iota_rows_name_the_whole_matrix_witness_past_the_first_slice():
    # an entry planted in q(k + 1) after the load at position c changes only
    # the iota^-1(k) columns from 64 on, which verify reaches in its second
    # slice.  Planted at a row off ker delta it fails the projection's
    # domain, and at a row in ker delta with harmonic coordinates the
    # projection's identity.  With a second, harmonic entry that changes the
    # first slice too, the domain failure of the second slice still comes
    # first, as on the whole matrix.  Each iota row must name the witness
    # the whole-matrix oracle names
    alg = builtin("quaternionic", 2)
    blob = RuminPackage(alg, 1).build().to_json()
    k = 3
    base = RuminPackage.from_json(blob)
    assert base.model_dim(k) > 64
    first = {}  # V^(k + 1) position -> the first model column j with it in d lift(j)
    d_lift = base.d_mat(k) @ base.lift(k)
    for j in sorted(d_lift.cols):
        for c in d_lift.cols[j][1]:
            first.setdefault(c, j)
    c = min(c for c, j in first.items() if j >= 64)
    delta, coords = base.delta_mat(k), base._coordinates(k)
    off = min(delta.cols)
    harmonic = min(i for i in coords.cols if i not in delta.cols)
    iota = base.iota_inv_mat(k)
    plants = [[(off, c)], [(harmonic, c)], [(harmonic, min(first)), (off, c)]]
    domain = []
    for plant in plants:
        pkg = RuminPackage.from_json(blob)
        q = pkg.q_mat(k + 1)
        for i, at in plant:
            col = q.column(at)
            col[i] = col.get(i, 0) + 1
            q.set_column(at, col)
        tampered = pkg.iota_inv_mat(k)
        changed = [j for j in range(iota.ncols) if tampered.column(j) != iota.column(j)]
        assert changed and (min(changed) >= 64) == (len(plant) == 1), plant
        rows = {r["identity"]: r for r in pkg.verify()}
        for name, want in _oracle_iota_rows(pkg).items():
            assert rows[name] == {"identity": name, **want}, (plant, name)
        right = rows["iota_inverse_right"]
        assert right["status"] == "fail", plant
        domain.append(right["counterexample"].startswith(f"degree {k}, weight"))
    assert domain == [True, False, True]


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


def test_decoded_blocks_share_the_positions_ints():
    # a decoded block's rows and column keys are the shared `positions` ints,
    # not the parser's; past 256 the interpreter shares no int by itself
    entries = '[[599, 399, "1/2"], [300, 399, "-3"], [0, 257, "5"]]'
    blob = {"rows": 600, "cols": 400, "entries": json.loads(entries)}
    got = _decode_matrix({"m": {"0": blob}}, "m", 0, (600, 400))
    assert got.cols == {399: (2, (599, 300), (1, -6)), 257: (1, (0,), (5,))}
    shared = positions(600)
    for j, (_, rows, _) in got.cols.items():
        assert shared[j] is j and all(shared[i] is i for i in rows), j


def _read(text):
    return RuminPackage.read_json(io.StringIO(text))


def _assert_same_operators(got, want):
    """got, a loaded package, holds want's q and D, and no stored pi of it
    differed from d q + q d; pi is compared through pi_mat, since no
    package holds one."""
    assert got is not None
    assert (got.algebra.name, got.P) == (want.algebra.name, want.P)
    for cache in ("_q", "_D"):
        stored = getattr(got, cache)
        assert stored == getattr(want, cache), cache
        for m in stored.values():
            assert_normal_form(m)
    assert got._pi_witness == {}
    for k in range(want.algebra.dim + 1):
        m = got.pi_mat(k)
        assert m == want.pi_mat(k), ("pi", k)
        assert_normal_form(m)


@pytest.mark.parametrize("P", [0, 1, 2])
@pytest.mark.parametrize("name", sorted({name for name, _ in ORACLE_CASES}))
def test_streamed_read_matches_from_json(name, P):
    pkg = RuminPackage(_algebra(name), P)
    text = io.StringIO()
    pkg.write_json(text)
    _assert_same_operators(_read(text.getvalue()), RuminPackage.from_json(text.getvalue()))


@pytest.mark.parametrize("name,P", PACKAGE_CASES)
def test_either_reader_drops_every_stored_pi(monkeypatch, name, P):
    # each reader decodes every stored pi(k) and compares it with d q + q d
    # once q is in; after the load nothing but this test's list refers to
    # the decoded matrices, and no matrix the package holds is a pi
    text = io.StringIO()
    RuminPackage(_algebra(name), P).write_json(text)
    text = text.getvalue()
    decoded = []
    decode = rumin._decode_entries

    def recorded(pieces, what, shape, ratios):
        matrix, fault = decode(pieces, what, shape, ratios)
        if what.startswith("pi "):
            decoded.append(matrix)
        return matrix, fault

    # both readers decode every block through the one entry decoder
    monkeypatch.setattr(rumin, "_decode_entries", recorded)
    for reader in (RuminPackage.from_json, _read):
        decoded.clear()
        pkg = reader(text)
        # less the list's reference, the loop variable's and getrefcount's own
        # argument; counted outside an assert, whose rewriting would hold more
        referrers = [sys.getrefcount(m) - 3 for m in decoded]
        assert len(decoded) == pkg.algebra.dim + 1, reader
        assert referrers == [0] * len(decoded), reader
        assert pkg._pi_witness == {}, reader
        _assert_holds_no_pi(pkg)


def _shuffled_entries(text, seed):
    """The package text with each operator block's entries in a random order
    and an explicit zero entry added to every block that has one to spare,
    in the writer's layout."""
    data = json.loads(text)
    rng = random.Random(seed)
    for blocks in data["operators"].values():
        for blob in blocks.values():
            entries = blob["entries"]
            taken = {(i, j) for i, j, _ in entries}
            free = [(i, j) for j in range(blob["cols"]) for i in range(blob["rows"])
                    if (i, j) not in taken]
            if entries and free:
                entries.append([*rng.choice(free), "0/5"])
            rng.shuffle(entries)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("size", [64, 4096])
@pytest.mark.parametrize("name,P", [("heisenberg:2", 2), ("quaternionic:2", 1)])
def test_entries_in_any_column_order_load_the_same_matrices(monkeypatch, name, P, size):
    # the decoder freezes a column when an entry of another column follows
    # and thaws it if one of its own comes later, so any order of the entries,
    # explicit zeros among them, loads the matrices of the writer's order
    text = io.StringIO()
    RuminPackage(_algebra(name), P).write_json(text)
    want = RuminPackage.from_json(text.getvalue())
    shuffled = _shuffled_entries(text.getvalue(), seed=size)
    assert shuffled != text.getvalue()
    monkeypatch.setattr(_Chunks, "SIZE", size)
    _assert_same_operators(_read(shuffled), want)
    _assert_same_operators(RuminPackage.from_json(shuffled), want)


def test_a_thawed_column_still_finds_a_repeated_entry():
    # a column left and then returned to keeps every entry it had, a zero
    # one included, so a repeat in the later run is still found
    for first, again in (("0", "5"), ("1/3", "0"), ("2", "2")):
        blob = {"rows": 3, "cols": 3,
                "entries": [[1, 1, first], [0, 1, "7"], [2, 2, "1"], [1, 1, again]]}
        with pytest.raises(StructureError, match=r"entry \(1, 1\) appears twice"):
            _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 3))
    blob = {"rows": 3, "cols": 3,
            "entries": [[1, 1, "1/2"], [2, 2, "1"], [0, 1, "0"], [2, 1, "1/3"], [0, 0, "0"]]}
    got = _decode_matrix({"m": {"0": blob}}, "m", 0, (3, 3))
    assert got == _fraction_decode(blob, 3, 3)
    assert_normal_form(got)
    assert got.cols[1] == (6, (1, 2), (3, 2))


@pytest.mark.parametrize("size", [1, 7, 100])
def test_streamed_read_cuts_blocks_across_chunk_edges(monkeypatch, size):
    # a chunk as short as one character still finds every marker that
    # straddles two chunks
    text = io.StringIO()
    RuminPackage(builtin("quaternionic", 2), 1).write_json(text)
    want = RuminPackage.from_json(text.getvalue())
    monkeypatch.setattr(_Chunks, "SIZE", size)
    _assert_same_operators(_read(text.getvalue()), want)


def test_each_ratio_string_is_parsed_once_per_load(monkeypatch):
    text = io.StringIO()
    RuminPackage(builtin("quaternionic", 2), 1).write_json(text)
    data = json.loads(text.getvalue())
    strings = {c for blocks in data["operators"].values() for blob in blocks.values()
               for _, _, c in blob["entries"]}
    strings |= {c for vectors in data["harmonic"].values() for vec in vectors for _, c in vec}
    parsed = []

    def counted(c):
        parsed.append(c)
        return ratio_from_str(c)

    monkeypatch.setattr(rumin, "ratio_from_str", counted)
    for load in (lambda: _read(text.getvalue()), lambda: RuminPackage.from_json(data)):
        parsed.clear()
        assert load() is not None
        assert sorted(parsed) == sorted(strings)
    # an entry that is not a string is not memoized and keeps the parser's error
    for bad in (5, ["1"]):
        blob = {"rows": 1, "cols": 1, "entries": [[0, 0, bad]]}
        with pytest.raises(StructureError, match=f"not a rational string: {re.escape(repr(bad))}$"):
            _decode_matrix({"m": {"0": blob}}, "m", 0, (1, 1))


def _drop_block(text, op, k):
    """text without the degree-k block of op and the separator next to it."""
    start = text.index(f'\n    "{op}": {{\n')
    at = text.index(f'\n      "{k}": {{\n', start)
    end = text.index("\n      }", at) + len("\n      }")
    if text[end] == ",":
        return text[:at] + text[end + 1:]
    return text[: text.rindex(",", 0, at)] + text[end:]


def test_streamed_read_gives_up_off_the_writers_layout(h2, monkeypatch):
    pkg = RuminPackage(h2, 1)
    buf = io.StringIO()
    pkg.write_json(buf)
    text = buf.getvalue()
    data = json.loads(text)
    assert _read(text) is not None
    extra = text.replace('\n    "pi": {\n      "0": {\n',
                         '\n    "pi": {\n      "00": {"rows": 0},\n      "0": {\n', 1)
    deviations = {
        "compact": json.dumps(data),
        "no final newline": text[:-1],
        "trailing text": text + "{}\n",
        "trailing whitespace": text + "\n",
        "truncated": text[: text.rstrip("\n").rindex("\n") + 1],
        "missing first block": _drop_block(text, "D", "0"),
        "missing last block": _drop_block(text, "q", str(h2.dim)),
        "extra block": extra,
        "operators first": json.dumps(
            {"operators": data["operators"], **data}, indent=2
        ) + "\n",
        "not utf-8 inside a block": text.replace('"entries"', '"entries\udcff"', 1),
        # the entry list [, [0, 0, "1"], ...] does not parse; in 16-character
        # pieces its first piece is the empty list, and the rest parse
        "comma before the first entry": text.replace(
            '"entries": [\n          [', '"entries": [\n,\n          [', 1),
    }
    for size in (_Chunks.SIZE, 16):
        monkeypatch.setattr(_Chunks, "SIZE", size)
        for case, bad in deviations.items():
            assert bad != text, case
            got = RuminPackage.read_json(
                io.TextIOWrapper(io.BytesIO(bad.encode("utf-8", "surrogateescape")), "utf-8")
            )
            assert got is None, (case, size)
    monkeypatch.undo()
    # a fault in the layout's content is the reader's to report, not a deviation
    faults = {
        "malformed entry": text.replace('"1/2"', '"1/0"', 1),
        "package is missing 'max_poly_degree'": json.dumps(
            {key: v for key, v in data.items() if key != "max_poly_degree"},
            indent=2, sort_keys=True,
        ) + "\n",
    }
    for message, bad in faults.items():
        with pytest.raises(StructureError, match=message):
            _read(bad)
    # the whole-file decoder still accepts the layouts that are valid packages
    for case in ("compact", "no final newline", "trailing whitespace", "operators first"):
        _assert_same_operators(RuminPackage.from_json(deviations[case]), pkg)


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
