import copy
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import ruminbgg
from ruminbgg import _kernel, linalg
from ruminbgg.budget import Budget
from ruminbgg.errors import BudgetExceededError
from ruminbgg.linalg import (
    ColumnEliminator,
    SparseMatrix,
    accumulate,
    axpy,
    combine,
    kron,
    rank_of_columns,
    sum_columns,
    trace_of_product,
)
from ruminbgg.rumin import _decode_matrix
from ruminbgg.scalars import ratio_to_str

from conftest import assert_normal_form, dense_rank, kernel_rank, random_fraction, sparse_to_dense


def random_sparse(rng, nrows, ncols, fill=0.3):
    cols = {}
    for j in range(ncols):
        col = {}
        for i in range(nrows):
            if rng.random() < fill:
                v = random_fraction(rng)
                if v:
                    col[i] = v
        if col:
            cols[j] = col
    return SparseMatrix(nrows, ncols, cols)


def test_rank_kernels_match_dense_oracle():
    rng = random.Random(7)
    for trial in range(60):
        m = random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8), fill=0.4)
        expected = dense_rank(sparse_to_dense(m))
        columns = [m.column(j) for j in m.cols]
        assert rank_of_columns(columns) == kernel_rank(m) == expected
        # the kernel itself on integer-cleared columns
        rows = []
        for col in columns:
            mult = math.lcm(*(v.denominator for v in col.values()))
            rows.append({i: int(v * mult) for i, v in col.items()})
        assert _kernel.rank_sparse(rows) == expected


def _planted_sparse_rows(rng, nrows, ncols):
    """Very sparse integer rows (2-4 entries) with planted dependencies.

    Besides the random rows: duplicates, scalar multiples, integer
    combinations of two or three rows (so column counts fall through
    cancellation and rise again through fill-in, which leaves stale heap
    entries behind), a row of explicit zeros, and an empty row.
    """
    rows = []
    for _ in range(nrows):
        row = {}
        for j in rng.sample(range(ncols), rng.randint(2, 4)):
            row[j] = rng.choice([-1, 1]) * rng.randint(1, 5)
        rows.append(row)
    for _ in range(nrows // 6):
        rows.append(dict(rng.choice(rows)))
        rows.append({j: -3 * v for j, v in rng.choice(rows).items()})
        combo = {}
        for src in rng.sample(rows, rng.randint(2, 3)):
            f = rng.choice([-2, -1, 1, 2, 3])
            for j, v in src.items():
                combo[j] = combo.get(j, 0) + f * v
        rows.append(combo)
    row = rng.choice(rows)
    rows.append({j: v - v for j, v in row.items()})
    rows.append({})
    rng.shuffle(rows)
    return rows


def test_rank_kernel_on_large_sparse_planted_matrices():
    rng = random.Random(29)
    for trial in range(16):
        nrows, ncols = rng.randint(30, 60), rng.randint(30, 60)
        rows = _planted_sparse_rows(rng, nrows, ncols)
        dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
        expected = dense_rank(dense)
        assert expected < len(rows)
        assert _kernel.rank_sparse([dict(r) for r in rows]) == expected, trial
        # the transpose has the same rank and a different pivot history
        cols = [{i: v for i, r in enumerate(rows) if (v := r.get(j, 0))} for j in range(ncols)]
        assert _kernel.rank_sparse(cols) == expected, trial


def _relabelled_block_diagonal(rng, blocks):
    """The blocks' rows placed on disjoint, randomly drawn column labels
    (so the blocks' columns interleave), shuffled across blocks."""
    ncols = [1 + max((j for r in block for j in r), default=0) for block in blocks]
    labels = rng.sample(range(10 * sum(ncols)), sum(ncols))
    rows, start = [], 0
    for block, n in zip(blocks, ncols):
        rows += [{labels[start + j]: v for j, v in r.items()} for r in block]
        start += n
    rng.shuffle(rows)
    return rows


def test_rank_kernel_on_relabelled_block_diagonal_matrices():
    rng = random.Random(41)
    for trial in range(8):
        blocks = [
            _planted_sparse_rows(rng, rng.randint(8, 24), rng.randint(8, 24))
            for _ in range(rng.randint(2, 5))
        ]
        expected = 0
        for block in blocks:
            ncols = 1 + max(j for r in block for j in r)
            expected += dense_rank([[r.get(j, 0) for j in range(ncols)] for r in block])
        rows = _relabelled_block_diagonal(rng, blocks)
        before = copy.deepcopy(rows)
        assert _kernel.rank_sparse(rows) == expected, trial
        assert rows == before, trial


def test_rank_kernel_on_tiny_components_zero_and_empty_rows():
    rows = [
        {5: 3, 9: -2},  # a component of one row
        {7: 2}, {7: -4}, {7: 6},  # a component of one column
        {1: 2, 2: 3, 4: 0}, {1: 4, 2: 6}, {2: 1, 3: -1},  # rank 2
        {4: 5, 8: 0},  # explicit zeros join no component: {4} on its own
        {6: 0, 8: 0},  # explicit zeros only
        {},
    ]
    before = copy.deepcopy(rows)
    dense = [[r.get(j, 0) for j in range(10)] for r in rows]
    assert _kernel.rank_sparse(rows) == dense_rank(dense) == 5
    assert rows == before
    assert _kernel.rank_sparse([{}, {3: 0}]) == 0
    assert _kernel.rank_sparse([]) == 0


def test_rank_kernel_checks_the_budget_before_each_component(monkeypatch):
    # two components: the 2 x 2 one on columns {1, 2} and the 1 x 1 one on {3}
    rows = [{1: 1, 2: 1}, {3: 2}, {1: 1, 2: -1}]
    events = []
    state = {"stop": None}

    def check(budget):
        events.append("check")
        if events.count("check") == state["stop"]:
            raise BudgetExceededError("wall-clock budget exhausted")

    rank_component = _kernel._rank_component

    def recorded_rank_component(rows, component):
        events.append("rank")
        return rank_component(rows, component)

    monkeypatch.setattr(Budget, "check", check)
    monkeypatch.setattr(_kernel, "_rank_component", recorded_rank_component)
    assert _kernel.rank_sparse(rows, Budget()) == 3
    assert events == ["check", "rank", "check", "rank"]
    events.clear()
    state["stop"] = 2
    with pytest.raises(BudgetExceededError):
        _kernel.rank_sparse(rows, Budget())
    assert events == ["check", "rank", "check"]


def _traced_peak_of_rank(rows):
    tracemalloc.start()
    try:
        _kernel.rank_sparse(rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_kernel_keeps_one_components_fill_live():
    # disjoint copies of a fill-heavy block: eliminating them together keeps
    # every copy's fill live at once (about 8x one copy's peak for 8 copies);
    # component by component the peak grows only by the input-sized index
    rng = random.Random(5)
    n, copies = 120, 8
    block = [{j: rng.choice((-1, 1)) for j in rng.sample(range(n), 4)} for _ in range(n)]
    rows = _relabelled_block_diagonal(rng, [block] * copies)
    one = _traced_peak_of_rank(block)
    assert _traced_peak_of_rank(rows) < 4 * one


def test_single_kernel_bindings():
    # benchmark results record the backend name, and the benchmark's tracer
    # patches rank_sparse in both modules, so linalg must bind the kernel's
    assert ruminbgg.KERNEL_BACKEND == "python"
    assert linalg.rank_sparse is _kernel.rank_sparse


def _reference_axpy(dst, src, a):
    """The accumulate loop as it was written inline before the helpers."""
    for k, v in src.items():
        s = dst.get(k, Fraction(0)) + a * v
        if s:
            dst[k] = s
        elif k in dst:
            del dst[k]


def _random_vector(rng, span, fill):
    vec = {k: random_fraction(rng, span=2, den=2) for k in rng.sample(range(span), fill)}
    return {k: v for k, v in vec.items() if v}


def test_accumulate_and_axpy_match_inline_loop():
    rng = random.Random(17)
    zero_sums = 0
    for _ in range(300):
        dst = _random_vector(rng, 12, rng.randint(0, 8))
        src = _random_vector(rng, 12, rng.randint(0, 8))
        a = rng.choice([Fraction(1), Fraction(-1), random_fraction(rng, span=2, den=2)])

        want = dict(dst)
        _reference_axpy(want, src, a)
        got = dict(dst)
        axpy(got, src, a)
        assert got == want and list(got) == list(want)
        assert all(got.values())

        one_by_one = dict(dst)
        for k, v in src.items():
            accumulate(one_by_one, k, a * v)
        assert one_by_one == want and list(one_by_one) == list(want)
        zero_sums += sum(1 for k in src if k in dst and k not in want)
    # the small value range makes cancellations common, so removal is exercised
    assert zero_sums > 20



def test_rank_rational_entries():
    m = SparseMatrix(2, 3, {0: {0: Fraction(1, 2)}, 1: {0: Fraction(1, 3), 1: Fraction(2)}, 2: {1: Fraction(4)}})
    assert kernel_rank(m) == 2


def test_matmul_and_apply():
    rng = random.Random(11)
    for _ in range(20):
        a = random_sparse(rng, 5, 4)
        b = random_sparse(rng, 4, 6)
        ab = a @ b
        da, db = sparse_to_dense(a), sparse_to_dense(b)
        dab = [
            [sum(da[i][k] * db[k][j] for k in range(4)) for j in range(6)]
            for i in range(5)
        ]
        assert sparse_to_dense(ab) == dab
        vec = {j: random_fraction(rng) for j in range(6)}
        lhs = ab.apply(vec)
        rhs = a.apply(b.apply(vec))
        assert lhs == {k: v for k, v in rhs.items() if v}


def test_stack_and_transpose():
    a = SparseMatrix(2, 2, {0: {0: Fraction(1)}, 1: {1: Fraction(2)}})
    b = SparseMatrix(1, 2, {0: {0: Fraction(3)}})
    s = a.stack(b)
    assert s.shape() == (3, 2)
    assert s.entry(2, 0) == 3
    t = a.transpose()
    assert t.entry(0, 0) == 1 and t.entry(1, 1) == 2


def test_eliminator_solve_and_nullspace():
    rng = random.Random(13)
    for _ in range(40):
        m = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        elim = ColumnEliminator(m)
        # rank consistency
        assert elim.rank == kernel_rank(m)
        # every nullspace vector is nonzero and exactly annihilated
        null = elim.nullspace()
        assert null.shape() == (m.ncols, m.ncols - elim.rank)
        assert len(null.cols) == null.ncols
        assert_normal_form(null)
        assert (m @ null).is_zero()
        for j in null.cols:
            assert m.apply(null.column(j)) == {}
        # solving A x = A e_j must succeed and reproduce the column
        for j in list(m.cols)[:3]:
            b = m.column(j)
            x = elim.solve(b)
            assert x is not None
            assert m.apply(x) == {k: v for k, v in b.items() if v}


def test_solve_inconsistent_returns_none():
    m = SparseMatrix(2, 1, {0: {0: Fraction(1)}})
    elim = ColumnEliminator(m)
    assert elim.solve({1: Fraction(1)}) is None


def test_nullspace_is_deterministic():
    m = SparseMatrix(
        2, 4, {0: {0: Fraction(1)}, 1: {0: Fraction(2)}, 2: {1: Fraction(1)}, 3: {0: Fraction(1), 1: Fraction(1)}}
    )
    first = ColumnEliminator(m).nullspace()
    second = ColumnEliminator(m).nullspace()
    assert first == second and first.cols == second.cols
    # column 1 - 2 column 0 and column 3 - column 0 - column 2
    want = {0: {0: Fraction(-2), 1: Fraction(1)}, 1: {0: Fraction(-1), 2: Fraction(-1), 3: 1}}
    assert first == SparseMatrix(4, 2, want)


# -- the integer column representation against Fraction oracles ----------------


class FractionEliminator:
    """The column eliminator as it was written over Fraction dicts: the oracle.

    Same pivot rule (smallest row index), same column order; every working
    column and combo is a {index: Fraction} dict and a pivot is scaled to 1.
    """

    def __init__(self, matrix):
        self.pivots = {}
        self.negative_pivots = 0
        self.null_combos = [
            {j: Fraction(1)} for j in range(matrix.ncols) if j not in matrix.cols
        ]
        for j in sorted(matrix.cols):
            col, combo = self._reduce(matrix.column(j), {j: Fraction(1)})
            if col:
                r = min(col)
                self.negative_pivots += col[r] < 0
                inv = 1 / col[r]
                self.pivots[r] = (
                    {i: v * inv for i, v in col.items()},
                    {k: v * inv for k, v in combo.items()},
                )
            else:
                self.null_combos.append(combo)

    def _reduce(self, col, combo):
        while col:
            r = min(col)
            hit = self.pivots.get(r)
            if hit is None:
                break
            a = -col[r]
            _reference_axpy(col, hit[0], a)
            _reference_axpy(combo, hit[1], a)
        return col, combo

    @property
    def rank(self):
        return len(self.pivots)

    def solve(self, b):
        col, x = self._reduce({i: -v for i, v in b.items() if v}, {})
        return None if col else x

    def nullspace(self):
        return [dict(c) for c in self.null_combos]


def _hard_value(rng):
    """A nonzero rational: small, negative, mixed or large denominators, large numerators."""
    kind = rng.random()
    sign = rng.choice([-1, 1])
    if kind < 0.4:
        return Fraction(sign * rng.randint(1, 4))
    if kind < 0.7:
        return Fraction(sign * rng.randint(1, 9), rng.randint(2, 12))
    if kind < 0.85:
        return Fraction(sign * rng.randint(1, 10**6), rng.choice([7, 10**9 + 7, 2**40, 3**25]))
    return Fraction(sign * rng.randint(10**12, 10**15), rng.randint(1, 30))


def _hard_sparse(rng, nrows, ncols):
    """Random matrix with zero, duplicate and dependent columns and explicit zeros."""
    cols = {}
    for j in range(ncols):
        kind = rng.random()
        earlier = list(cols.values())
        if kind < 0.1:
            cols[j] = {rng.randrange(nrows): Fraction(0)}  # a zero column, stored explicitly
        elif kind < 0.15:
            continue  # a zero column, absent
        elif kind < 0.3 and earlier:
            src = rng.choice(earlier)
            f = rng.choice([Fraction(1), Fraction(-1), _hard_value(rng)])
            cols[j] = {i: f * v for i, v in src.items()}  # duplicate or multiple
        elif kind < 0.4 and len(earlier) >= 2:
            col = {}
            for src in rng.sample(earlier, 2):
                _reference_axpy(col, src, _hard_value(rng))
            cols[j] = col
        else:
            rows = rng.sample(range(nrows), rng.randint(1, min(nrows, 4)))
            cols[j] = {i: _hard_value(rng) for i in rows}
    return SparseMatrix(nrows, ncols, cols)


def _random_rhs(rng, nrows):
    return {i: _hard_value(rng) for i in rng.sample(range(nrows), rng.randint(0, nrows))}


def test_eliminator_matches_fraction_oracle():
    rng = random.Random(20261019)
    inconsistent = negative = duplicates = 0
    for trial in range(300):
        m = _hard_sparse(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert_normal_form(m)
        want = FractionEliminator(m)
        got = ColumnEliminator(m)
        assert got.rank == want.rank == kernel_rank(m) == dense_rank(sparse_to_dense(m)), trial
        null, want_null = got.nullspace(), want.nullspace()
        assert null == SparseMatrix(m.ncols, len(want_null), dict(enumerate(want_null))), trial
        assert len(null.cols) == null.ncols, trial
        assert_normal_form(null)
        # each pivot is stored in normal form with its pivot entry equal to den
        for r, (den, col, combo) in got.pivots.items():
            assert den > 0 and col[r] == den and min(col) == r, trial
            assert math.gcd(den, *col.values(), *combo.values()) == 1, trial
            assert all(col.values()) and all(combo.values()), trial
        for _ in range(4):
            x = {j: _hard_value(rng) for j in rng.sample(range(m.ncols), rng.randint(0, m.ncols))}
            for b in (m.apply(x), _random_rhs(rng, m.nrows)):
                sol = got.solve(b)
                assert sol == want.solve(b), trial
                if sol is None:
                    inconsistent += 1
                else:
                    assert m.apply(sol) == {i: v for i, v in b.items() if v}, trial
        negative += want.negative_pivots
        dense = sparse_to_dense(m)
        columns = [tuple(row[j] for row in dense) for j in range(m.ncols)]
        duplicates += len(set(c for c in columns if any(c))) < sum(1 for c in columns if any(c))
    assert inconsistent > 100 and negative > 100 and duplicates > 20


def _dense_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _scalar(n, x):
    """x times the n x n identity."""
    return SparseMatrix(n, n, {j: {j: Fraction(x)} for j in range(n)})


def test_matrix_operations_match_dense_oracle():
    rng = random.Random(31)
    for trial in range(150):
        n, k, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, a2 = _hard_sparse(rng, n, k), _hard_sparse(rng, n, k)
        b = _hard_sparse(rng, k, p)
        da, da2, db = sparse_to_dense(a), sparse_to_dense(a2), sparse_to_dense(b)
        f = Fraction(rng.choice([0, 1, -1, -3, _hard_value(rng)]))
        # f * a through combine: the int numerator times a @ (I / denominator)
        f_a = combine(n, k, [(f.numerator, a, _scalar(k, Fraction(1, f.denominator)))])
        results = {
            "compose": (a @ b, _dense_product(da, db)),
            "add": (a + a2, [[x + y for x, y in zip(r, s)] for r, s in zip(da, da2)]),
            "sub": (a - a2, [[x - y for x, y in zip(r, s)] for r, s in zip(da, da2)]),
            "combine_2": (combine(n, k, [(2, a, None)]), [[2 * x for x in r] for r in da]),
            "combine_-1": (combine(n, k, [(-1, a, None)]), [[-x for x in r] for r in da]),
            "combine_f": (f_a, [[f * x for x in r] for r in da]),
            "transpose": (a.transpose(), [list(c) for c in zip(*da)]),
            "stack": (a.stack(a2), da + da2),
        }
        for name, (got, want) in results.items():
            assert_normal_form(got)
            assert sparse_to_dense(got) == want, (trial, name)
            # == is structural and agrees with value equality
            assert got == SparseMatrix(got.nrows, got.ncols, {
                j: {i: row[j] for i, row in enumerate(want)} for j in range(got.ncols)
            }), (trial, name)
        assert (a + a2) - a2 == a and a - a == SparseMatrix(n, k)
        assert a + a == combine(n, k, [(2, a, None)])
        assert combine(n, k, [(-1, a, None)]) + a == SparseMatrix(n, k)
        assert (a == a2) == (da == da2)
        sq = a.transpose() @ a
        assert sq.trace() == sum((sparse_to_dense(sq)[i][i] for i in range(k)), Fraction(0))
        assert type(sq.trace()) is Fraction
        vec = {j: _hard_value(rng) for j in rng.sample(range(k), rng.randint(0, k))}
        want = {i: v for i, row in enumerate(da) if (v := sum(row[j] * x for j, x in vec.items()))}
        assert a.apply(vec) == want


def test_trace_of_product_matches_the_formed_product():
    # non-square factors with empty, zero and dependent columns and mixed
    # denominators, some with every column's rows reordered
    rng = random.Random(53)
    nonsquare = 0
    for trial in range(200):
        n, k = rng.randint(1, 7), rng.randint(1, 7)
        nonsquare += n != k
        a = _hard_sparse(rng, n, k) if rng.random() < 0.9 else SparseMatrix(n, k)
        b = _hard_sparse(rng, k, n) if rng.random() < 0.9 else SparseMatrix(k, n)
        if rng.random() < 0.5:
            a, b = _reordered(a, rng), _reordered(b, rng)
        got = trace_of_product(a, b)
        assert type(got) is Fraction
        dense = _dense_product(sparse_to_dense(a), sparse_to_dense(b))
        assert got == sum((dense[i][i] for i in range(n)), Fraction(0)), trial
        assert got == (a @ b).trace() == trace_of_product(b, a), trial
    assert nonsquare > 100
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_of_product(SparseMatrix(2, 3), SparseMatrix(3, 3))


def _reordered(m, rng):
    """m with the rows of every column in a random order, in fresh tuples."""
    out = SparseMatrix(m.nrows, m.ncols)
    for j, (den, rows, nums) in m.cols.items():
        pairs = list(zip(rows, nums))
        rng.shuffle(pairs)
        out.cols[j] = (den, tuple(i for i, _ in pairs), tuple(v for _, v in pairs))
    return out


def test_equality_and_difference_ignore_row_order():
    rng = random.Random(41)
    reordered = 0
    for trial in range(200):
        n, k = rng.randint(1, 7), rng.randint(1, 6)
        a, a2 = _hard_sparse(rng, n, k), _hard_sparse(rng, n, k)
        b = _reordered(a, rng)
        assert_normal_form(b)
        reordered += any(b.cols[j][1] != a.cols[j][1] for j in a.cols)
        assert a == b and b == a, trial
        assert (a - b).is_zero() and (b - a).is_zero(), trial
        assert (b == a2) == (a == a2) == (sparse_to_dense(a) == sparse_to_dense(a2)), trial
        assert sparse_to_dense(b - a2) == sparse_to_dense(a - a2), trial
        assert b - a2 == a - a2 and a2 - b == a2 - a, trial
    assert reordered > 50
    # same denominator and length: the rows or the values differ, or only the order
    x, y, z, w = (SparseMatrix(3, 1) for _ in range(4))
    x.cols = {0: (2, (0, 2), (1, -3))}
    y.cols = {0: (2, (2, 0), (-3, 1))}
    z.cols = {0: (2, (2, 0), (1, -3))}
    w.cols = {0: (2, (1, 0), (-3, 1))}
    assert x == y and x != z and x != w and y != z
    assert (x - y).is_zero()
    assert x - z == SparseMatrix(3, 1, {0: {0: Fraction(2), 2: Fraction(-2)}})


def test_single_product_terms_are_normalized():
    """A product column with one term needs a gcd pass too: B's denominator
    can share a factor with the content of A's numerators."""
    a = SparseMatrix(2, 2, {
        0: {0: Fraction(2), 1: Fraction(4)},
        1: {0: Fraction(2, 3), 1: Fraction(-4, 3)},
    })
    assert a.cols == {0: (1, (0, 1), (2, 4)), 1: (3, (0, 1), (2, -4))}
    b = SparseMatrix(2, 3, {0: {0: Fraction(1, 2)}, 1: {1: Fraction(1, 2)}, 2: {1: Fraction(3, 2)}})
    got = a @ b
    assert got.cols == {0: (1, (0, 1), (1, 2)), 1: (3, (0, 1), (1, -2)), 2: (1, (0, 1), (1, -2))}
    assert_normal_form(got)
    assert sparse_to_dense(got) == _dense_product(sparse_to_dense(a), sparse_to_dense(b))
    # the same single-term column through apply_column, a coefficient, a plain summand
    assert a.apply_column(2, (0,), (1,)) == (1, (0, 1), (1, 2))
    assert combine(2, 3, [(2, a, b)]).cols[1] == (3, (0, 1), (2, -4))
    half = SparseMatrix(2, 2, {0: {0: Fraction(1, 2)}})
    assert combine(2, 2, [(2, half, None)]).cols == {0: (1, (0,), (1,))}


def _dense_scaled_sum(c, x, y):
    return [[c * u + v for u, v in zip(r, s)] for r, s in zip(x, y)]


def _reaches(a, b, j):
    """Whether the term a @ b, or the plain summand a if b is None, has a
    source entry for column j."""
    if b is None:
        return j in a.cols
    return j in b.cols and any(k in a.cols for k in b.cols[j][1])


def test_combine_matches_dense_oracle():
    """Random sums of products and plain summands against dense Fractions."""
    rng = random.Random(37)
    cancelled = shared = 0
    for trial in range(200):
        n, p = rng.randint(1, 6), rng.randint(1, 6)
        terms = []
        want = [[Fraction(0)] * p for _ in range(n)]
        for _ in range(rng.randint(0, 4)):
            c = rng.choice([1, -1, 2, -2])
            if rng.random() < 0.4:
                a = _hard_sparse(rng, n, p) if rng.random() < 0.8 else SparseMatrix(n, p)
                terms.append((c, a, None))
                want = _dense_scaled_sum(c, sparse_to_dense(a), want)
            else:
                k = rng.randint(1, 6)
                a = _hard_sparse(rng, n, k) if rng.random() < 0.85 else SparseMatrix(n, k)
                b = _hard_sparse(rng, k, p) if rng.random() < 0.85 else SparseMatrix(k, p)
                terms.append((c, a, b))
                prod = _dense_product(sparse_to_dense(a), sparse_to_dense(b))
                want = _dense_scaled_sum(c, prod, want)
        if terms and rng.random() < 0.3:
            # subtract the sum so far: every column cancels to zero
            total = combine(n, p, terms)
            terms.append((-1, total, None))
            want = [[Fraction(0)] * p for _ in range(n)]
            cancelled += 1
        got = combine(n, p, terms)
        assert_normal_form(got)
        assert sparse_to_dense(got) == want, trial
        assert got == SparseMatrix(n, p, {
            j: {i: row[j] for i, row in enumerate(want)} for j in range(p)
        }), trial
        # a column that only one plain summand with c = 1 reaches is that summand's column
        for j, col in got.cols.items():
            reach = [(c, a, b) for c, a, b in terms if _reaches(a, b, j)]
            if len(reach) == 1 and reach[0][0] == 1 and reach[0][2] is None:
                assert col is reach[0][1].cols[j], trial
                shared += 1
    assert cancelled > 30 and shared > 10


def test_combine_shares_single_plain_columns_and_skips_empty_operands():
    a = SparseMatrix(3, 3, {0: {0: Fraction(1, 2)}, 1: {1: Fraction(3)}})
    b = SparseMatrix(3, 3, {1: {2: Fraction(1)}, 2: {0: Fraction(-1, 3)}})
    total = a + b
    assert total.cols[0] is a.cols[0] and total.cols[2] is b.cols[2]
    assert total.cols[1] == (1, (1, 2), (3, 1))
    diff = a - b
    assert diff.cols[0] is a.cols[0] and diff.cols[2] == (3, (0,), (1,))
    # an empty operand contributes nothing, and a sum of nothing is empty
    empty = SparseMatrix(3, 3)
    assert combine(3, 3, [(1, a, None), (2, empty, b), (-1, b, empty)]).cols[0] is a.cols[0]
    assert combine(3, 3, [(1, empty, b), (1, a, empty)]) == empty
    assert combine(3, 3, []) == empty
    assert combine(3, 3, [(1, a, None), (-1, a, None)]) == empty
    # shapes are checked for plain summands and for both sides of a product
    with pytest.raises(ValueError):
        combine(3, 2, [(1, a, None)])
    with pytest.raises(ValueError):
        combine(3, 3, [(1, a, SparseMatrix(2, 3))])
    with pytest.raises(ValueError):
        combine(2, 3, [(1, a, b)])


class _CountingBudget:
    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1

    def count_monomials(self, n):
        self.check()


def test_combine_checks_the_budget_every_64_columns():
    n = 130
    a = SparseMatrix.identity(n)
    b = SparseMatrix(n, n, {j: {(j + 1) % n: Fraction(j + 1)} for j in range(n)})
    budget = _CountingBudget()
    assert combine(n, n, [(1, a, b)], budget) == b
    assert budget.checks == 3  # result columns 0, 64 and 128
    exhausted = Budget(seconds=0.001)
    time.sleep(0.01)
    with pytest.raises(BudgetExceededError):
        combine(n, n, [(1, a, b)], exhausted)
    with pytest.raises(BudgetExceededError):
        combine(n, n, [(1, a, b), (-1, b, None)], exhausted)
    # `@` and `+` take no budget
    assert a @ b == b and (a @ b) - b == SparseMatrix(n, n)


def test_combine_by_key_slices_matches_the_whole():
    # a sum formed one slice of column keys at a time is the whole sum, in
    # the whole sum's columns; keys outside every operand form nothing
    rng = random.Random(41)
    for trial in range(60):
        n, m, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 9)
        a, b = _hard_sparse(rng, n, m), _hard_sparse(rng, m, p)
        terms = [(rng.choice([1, -2]), a, b), (rng.choice([1, 3]), _hard_sparse(rng, n, p), None)]
        whole = combine(n, p, terms)
        for size in (1, 2, 4):
            parts = SparseMatrix(n, p)
            for start in range(0, p + size, size):
                part = combine(n, p, terms, keys=range(start, start + size))
                assert part.shape() == (n, p)
                assert set(part.cols) <= set(range(start, start + size)), trial
                parts.cols.update(part.cols)
            assert parts == whole, (trial, size)
            assert_normal_form(parts)
    # the shapes are checked as for the whole sum
    a = SparseMatrix(3, 3, {0: {0: Fraction(1, 2)}})
    with pytest.raises(ValueError, match="shape mismatch"):
        combine(3, 2, [(1, a, None)], keys=[0])
    with pytest.raises(ValueError, match="shape mismatch"):
        combine(3, 3, [(1, a, SparseMatrix(2, 3))], keys=[0])
    # the budget is checked every 64 columns walked, as for the whole sum
    n = 130
    a = SparseMatrix.identity(n)
    b = SparseMatrix(n, n, {j: {(j + 1) % n: Fraction(j + 1)} for j in range(n)})
    for keys, checks in ((range(n), 3), (range(64), 1), (range(64, 129), 2), (range(5), 1)):
        budget = _CountingBudget()
        got = combine(n, n, [(1, a, b)], budget, keys=keys)
        assert budget.checks == checks, keys
        assert got.cols == {j: b.cols[j] for j in keys}
    exhausted = Budget(seconds=0.001)
    time.sleep(0.01)
    with pytest.raises(BudgetExceededError):
        combine(n, n, [(1, a, b)], exhausted, keys=[7])


def test_column_eliminator_checks_the_budget_every_64_columns():
    n = 130
    m = SparseMatrix(n, n, {j: {j: Fraction(j + 1), (j + 1) % n: 1} for j in range(n)})
    budget = _CountingBudget()
    elim = ColumnEliminator(m, budget)
    assert budget.checks == 3  # input columns 0, 64 and 128
    assert elim.rank == ColumnEliminator(m).rank == n
    exhausted = Budget(seconds=0.001)
    time.sleep(0.01)
    with pytest.raises(BudgetExceededError):
        ColumnEliminator(m, exhausted)


def _kron_oracle(npoly, terms):
    """sum A (x) B entry by entry: B[I, J] A[f, e] at row I * npoly + f
    and column J * npoly + e, A = None the identity."""
    nrows, ncols = terms[0][0].shape()
    want = {}
    for b, a in terms:
        for J in range(ncols):
            for I, bv in b.column(J).items():
                for e in range(npoly):
                    for f, av in ({e: 1} if a is None else a.column(e)).items():
                        key = (J * npoly + e, I * npoly + f)
                        want[key] = want.get(key, 0) + bv * av
    cols = {}
    for (j, i), v in want.items():
        cols.setdefault(j, {})[i] = v
    return SparseMatrix(npoly * nrows, npoly * ncols, cols)


def test_kron_matches_per_entry_oracle():
    """Random sums of Kronecker products of sparse Fraction factors, with
    identity factors, empty columns and operands, and terms that cancel."""
    rng = random.Random(41)
    cancelled = copied = 0
    for trial in range(200):
        npoly, nrows, ncols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        terms = []
        for _ in range(rng.randint(1, 3)):
            b = SparseMatrix(nrows, ncols)
            if rng.random() < 0.9:
                b = _hard_sparse(rng, nrows, ncols)
            a = None if rng.random() < 0.4 else _hard_sparse(rng, npoly, npoly)
            terms.append((b, a))
        if rng.random() < 0.3:
            # minus the first term: the columns that only it reached cancel to zero
            b, a = terms[0]
            terms.append((combine(nrows, ncols, [(-1, b, None)]), a))
        got = kron(npoly, terms)
        assert_normal_form(got)
        assert got == _kron_oracle(npoly, terms), trial
        for j in range(got.ncols):
            J, e = divmod(j, npoly)
            reach = [(b, a) for b, a in terms if J in b.cols and (a is None or e in a.cols)]
            if reach and j not in got.cols:
                cancelled += 1
            if len(reach) == 1 and reach[0][1] is None:
                # one identity-factor copy: the block column's den and nums object
                den, _, nums = reach[0][0].cols[J]
                assert got.cols[j][0] == den and got.cols[j][2] is nums, trial
                copied += 1
    assert cancelled > 30 and copied > 30


def test_kron_moves_rows_and_checks_shapes_and_budget():
    half = SparseMatrix(2, 2, {0: {1: Fraction(1, 2)}, 1: {0: Fraction(-3)}})
    x = SparseMatrix(3, 3, {2: {0: Fraction(2)}})
    got = kron(3, [(half, x), (half, None)])
    assert got.shape() == (6, 6)
    # column (J, e) = (0, 2): 1/2 * 2 at (1, 0) and 1/2 at (1, 2)
    assert got.cols[2] == (2, (3, 5), (2, 1))
    # row ints and column keys are the shared positions list's own objects;
    # ints up to 256 are shared by the interpreter anyway, so go past them
    npoly = 200
    wide = SparseMatrix(npoly, npoly, {npoly - 1: {0: Fraction(2), npoly - 2: Fraction(1, 3)}})
    big = kron(npoly, [(half, wide), (half, None)])
    shared = linalg.positions(big.nrows)
    assert len(shared) >= big.nrows and shared[: big.nrows] == list(range(big.nrows))
    assert max(big.cols) > 256 and max(max(rows) for _, rows, _ in big.cols.values()) > 256
    for j, (_, rows, _) in big.cols.items():
        assert shared[j] is j and all(shared[i] is i for i in rows), j
    assert kron(3, [(SparseMatrix(2, 2), x)]) == SparseMatrix(6, 6)
    with pytest.raises(ValueError):
        kron(3, [(half, x), (SparseMatrix(2, 3), None)])
    with pytest.raises(ValueError):
        kron(2, [(half, x)])
    budget = _CountingBudget()
    n = 13
    assert kron(10, [(SparseMatrix.identity(n), None)], budget) == SparseMatrix.identity(10 * n)
    assert budget.checks == 3  # result columns 0, 64 and 128


def test_columns_are_written_in_normal_form():
    half = Fraction(1, 2)
    m = SparseMatrix(
        3, 3, {0: {0: Fraction(2, 4), 2: Fraction(-3, 2)}, 1: {1: Fraction(0)}, 2: {0: 4, 1: 6}}
    )
    assert m.cols == {0: (2, (0, 2), (1, -3)), 2: (1, (0, 1), (4, 6))}
    # a product whose numerators share a factor with the denominator
    two = SparseMatrix(1, 1, {0: {0: Fraction(2)}})
    assert (SparseMatrix(1, 1, {0: {0: half}}) @ two).cols == {0: (1, (0,), (1,))}
    assert SparseMatrix(1, 1, {0: {0: half}}) @ two == SparseMatrix.identity(1)
    third = _scalar(3, Fraction(1, 3))
    assert combine(3, 3, [(-2, m, third)]).cols[0] == (3, (0, 2), (-1, 3))
    m.set_column(1, {2: Fraction(6, 9), 0: Fraction(0)})
    assert m.cols[1] == (3, (2,), (2,))
    m.set_column(1, {2: Fraction(0)})
    assert 1 not in m.cols
    assert m.column(0) == {0: half, 2: Fraction(-3, 2)} and m.entry(2, 0) == Fraction(-3, 2)
    assert m.entry(1, 0) == 0 and m.column(1) == {}
    half_m = combine(3, 3, [(1, m, _scalar(3, half))])
    for out in (m, m.transpose(), m.stack(m), m + m, m - half_m, SparseMatrix.identity(4)):
        assert_normal_form(out)


def test_integer_paths_create_no_fraction(monkeypatch):
    rng = random.Random(5)
    a, a2 = _hard_sparse(rng, 7, 6), _hard_sparse(rng, 7, 6)
    b = _hard_sparse(rng, 6, 8)
    columns = [a.column(j) for j in a.cols]
    f = Fraction(-2, 7)
    f_scalar = _scalar(6, Fraction(1, f.denominator))
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    elim = ColumnEliminator(a)
    stored = {"rows": 7, "cols": 6, "entries": [
        [i, j, ratio_to_str(v, den)] for j, (den, rows, nums) in a.cols.items()
        for i, v in zip(rows, nums)
    ]}
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    a @ b, a + a2, a - a2, kernel_rank(a), a.transpose(), a.stack(a2)
    combine(7, 6, [(-3, a, None)]), combine(7, 6, [(f.numerator, a, f_scalar)])
    rank_of_columns(columns)
    ColumnEliminator(a.stack(a2)).nullspace()
    a.apply_column(*b.cols[min(b.cols)]), sum_columns([a.cols[j] for j in a.cols])
    combine(7, 8, [(2, a, b), (-1, a2, b), (1, a @ b, None), (-2, a2 @ b, None)])
    elim.solve_column(*a.cols[min(a.cols)])
    decoded = _decode_matrix({"a": {"0": stored}}, "a", 0, (7, 6))
    monkeypatch.undo()
    assert created == []
    assert decoded == a
    # the boundary calls do create them, so the counter sees Fractions
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    a.column(min(a.cols))
    monkeypatch.undo()
    assert created
