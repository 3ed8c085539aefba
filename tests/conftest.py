import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ruminbgg.algebra import builtin

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
    """Every stored column is (den, {row: int}) with den > 0, gcd 1, no zero."""
    for j, (den, num) in matrix.cols.items():
        assert 0 <= j < matrix.ncols
        assert type(den) is int and den > 0
        assert num and all(type(v) is int and v for v in num.values())
        assert all(0 <= i < matrix.nrows for i in num)
        assert math.gcd(den, *num.values()) == 1


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
