import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ruminbgg import _kernel
from ruminbgg.algebra import builtin
from ruminbgg.linalg import SparseMatrix

# the environment of a `python -m ruminbgg.cli` child: pytest's `pythonpath`
# setting reaches this interpreter only, so the child gets src on PYTHONPATH
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

# the rows of RuminPackage.verify(), in report order
SUITE_ROWS = [
    "q_squared",
    "q_d_q",
    "pi_idempotent",
    "pi_commutes_d",
    "pi_q",
    "q_pi",
    "homotopy_on_im_pi",
    "q_laplacian_is_delta",
    "ker_pi_equals_ker_q_ker_qd",
    "iota_inverse_right",
    "iota_inverse_left",
    "D_squared",
    "fiber_restriction",
]


def assert_normal_form(matrix):
    """Every stored column is a (den, rows, nums) tuple: rows and nums are
    nonempty equal-length tuples of ints, the rows distinct and in range,
    den > 0, gcd(den, nums) = 1 and no zero numerator."""
    for j, col in matrix.cols.items():
        assert type(j) is int and 0 <= j < matrix.ncols
        assert type(col) is tuple and len(col) == 3
        den, rows, nums = col
        assert type(den) is int and den > 0
        assert type(rows) is tuple and type(nums) is tuple
        assert rows and len(rows) == len(nums)
        assert all(type(i) is int and 0 <= i < matrix.nrows for i in rows)
        assert len(set(rows)) == len(rows)
        assert all(type(v) is int and v for v in nums)
        assert math.gcd(den, *nums) == 1


def operator_matrix(src_keys, dst_index, term_fn):
    """Matrix of a term-wise operator on a basis of (exps, mono) keys, one
    term_fn call per basis element; the oracle of the Kronecker-built
    operator matrices.

    Column j holds term_fn(*src_keys[j]) in the coordinates dst_index
    (key -> row).
    """
    cols = {}
    for j, (exps, mono) in enumerate(src_keys):
        col = {dst_index[key]: c for key, c in term_fn(exps, mono).items()}
        if col:
            cols[j] = col
    return SparseMatrix(len(dst_index), len(src_keys), cols)


def spanning_index(pkg, k):
    """{(exps, mono): V^k position} over `pkg.keys(k)`: the table the package
    does not hold, for the oracles that address V^k by key."""
    return {key: i for i, key in enumerate(pkg.keys(k))}


def kernel_rank(matrix):
    """Exact rank of a SparseMatrix by the integer kernel: each column's
    numerators as one row (rank is symmetric, and a column's denominator
    does not change it)."""
    rows = [dict(zip(rows, nums)) for _, rows, nums in matrix.cols.values()]
    return _kernel.rank_sparse(rows) if rows else 0


def dense_rank(rows):
    """Independent dense Gaussian elimination over Fraction; the rank oracle.

    Deliberately separate from the package's sparse kernel.
    """
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, nrows):
            f = m[r][col] * inv
            if f:
                for c in range(col, ncols):
                    m[r][c] -= f * m[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def sparse_to_dense(matrix):
    """SparseMatrix (column-major dicts) to a dense list of rows."""
    out = [[Fraction(0)] * matrix.ncols for _ in range(matrix.nrows)]
    for j in matrix.cols:
        for i, v in matrix.column(j).items():
            out[i][j] = v
    return out


def random_fraction(rng, span=9, den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


@pytest.fixture(scope="session")
def h2():
    return builtin("heisenberg", 2)


@pytest.fixture(scope="session")
def h3():
    return builtin("heisenberg", 3)


@pytest.fixture(scope="session")
def q2():
    return builtin("quaternionic", 2)


@pytest.fixture(scope="session")
def octo():
    return builtin("octonionic")


@pytest.fixture()
def rng():
    return random.Random(20260809)
