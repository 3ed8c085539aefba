import math
import random
import time
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
    rank_of_columns,
    sum_columns,
)
from ruminbgg.rumin import _decode_matrix
from ruminbgg.scalars import ratio_to_str

from conftest import assert_normal_form, dense_rank, random_fraction, sparse_to_dense


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
        assert rank_of_columns(columns) == m.rank() == expected
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
    assert m.rank() == 2


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
        assert elim.rank == m.rank()
        # every nullspace vector is exactly annihilated
        null = elim.nullspace()
        assert len(null) == m.ncols - elim.rank
        for vec in null:
            assert m.apply(vec) == {}
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
    assert first == second


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
        assert got.rank == want.rank == m.rank() == dense_rank(sparse_to_dense(m)), trial
        assert got.nullspace() == want.nullspace(), trial
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


def test_matrix_operations_match_dense_oracle():
    rng = random.Random(31)
    for trial in range(150):
        n, k, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, a2 = _hard_sparse(rng, n, k), _hard_sparse(rng, n, k)
        b = _hard_sparse(rng, k, p)
        da, da2, db = sparse_to_dense(a), sparse_to_dense(a2), sparse_to_dense(b)
        f = rng.choice([0, 1, -1, -3, _hard_value(rng)])
        results = {
            "compose": (a @ b, _dense_product(da, db)),
            "add": (a + a2, [[x + y for x, y in zip(r, s)] for r, s in zip(da, da2)]),
            "sub": (a - a2, [[x - y for x, y in zip(r, s)] for r, s in zip(da, da2)]),
            "scaled": (a.scaled(f), [[f * x for x in r] for r in da]),
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
        assert a + a == a.scaled(2) and a.scaled(-1) + a == SparseMatrix(n, k)
        assert (a == a2) == (da == da2)
        sq = a.transpose() @ a
        assert sq.trace() == sum((sparse_to_dense(sq)[i][i] for i in range(k)), Fraction(0))
        assert type(sq.trace()) is Fraction
        vec = {j: _hard_value(rng) for j in rng.sample(range(k), rng.randint(0, k))}
        want = {i: v for i, row in enumerate(da) if (v := sum(row[j] * x for j, x in vec.items()))}
        assert a.apply(vec) == want


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
    assert total.cols[1] == (1, {1: 3, 2: 1})
    diff = a - b
    assert diff.cols[0] is a.cols[0] and diff.cols[2] == (3, {0: 1})
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


def test_columns_are_written_in_normal_form():
    half = Fraction(1, 2)
    m = SparseMatrix(
        3, 3, {0: {0: Fraction(2, 4), 2: Fraction(-3, 2)}, 1: {1: Fraction(0)}, 2: {0: 4, 1: 6}}
    )
    assert m.cols == {0: (2, {0: 1, 2: -3}), 2: (1, {0: 4, 1: 6})}
    # a product whose numerators share a factor with the denominator
    two = SparseMatrix(1, 1, {0: {0: Fraction(2)}})
    assert (SparseMatrix(1, 1, {0: {0: half}}) @ two).cols == {0: (1, {0: 1})}
    assert SparseMatrix(1, 1, {0: {0: half}}) @ two == SparseMatrix.identity(1)
    assert m.scaled(Fraction(-2, 3)).cols[0] == (3, {0: -1, 2: 3})
    m.set_column(1, {2: Fraction(6, 9), 0: Fraction(0)})
    assert m.cols[1] == (3, {2: 2})
    m.set_column(1, {2: Fraction(0)})
    assert 1 not in m.cols
    assert m.column(0) == {0: half, 2: Fraction(-3, 2)} and m.entry(2, 0) == Fraction(-3, 2)
    assert m.entry(1, 0) == 0 and m.column(1) == {}
    for out in (m, m.transpose(), m.stack(m), m + m, m - m.scaled(half), SparseMatrix.identity(4)):
        assert_normal_form(out)


def test_integer_paths_create_no_fraction(monkeypatch):
    rng = random.Random(5)
    a, a2 = _hard_sparse(rng, 7, 6), _hard_sparse(rng, 7, 6)
    b = _hard_sparse(rng, 6, 8)
    columns = [a.column(j) for j in a.cols]
    f = Fraction(-2, 7)
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    elim = ColumnEliminator(a)
    stored = {"rows": 7, "cols": 6, "entries": [
        [i, j, ratio_to_str(v, den)] for j, (den, num) in a.cols.items() for i, v in num.items()
    ]}
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    a @ b, a + a2, a - a2, a.scaled(-3), a.scaled(f), a.rank(), a.transpose(), a.stack(a2)
    rank_of_columns(columns)
    ColumnEliminator(a.stack(a2))
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
