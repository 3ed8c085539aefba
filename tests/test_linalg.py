import math
import random
from fractions import Fraction

import ruminbgg
from ruminbgg import _kernel, linalg
from ruminbgg.linalg import (
    ColumnEliminator,
    SparseMatrix,
    accumulate,
    axpy,
    rank_of_columns,
)

from conftest import dense_rank, random_fraction, sparse_to_dense


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
        assert rank_of_columns(m.cols.values()) == expected
        # the kernel itself on integer-cleared columns
        rows = []
        for col in m.cols.values():
            mult = math.lcm(*(v.denominator for v in col.values()))
            rows.append({i: int(v * mult) for i, v in col.items()})
        assert _kernel.rank_sparse(rows, m.nrows) == expected


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
        assert _kernel.rank_sparse([dict(r) for r in rows], ncols) == expected, trial
        # the transpose has the same rank and a different pivot history
        cols = [{i: v for i, r in enumerate(rows) if (v := r.get(j, 0))} for j in range(ncols)]
        assert _kernel.rank_sparse(cols, len(rows)) == expected, trial


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
