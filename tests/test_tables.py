from fractions import Fraction

import pytest

from ruminbgg.algebra import builtin
from ruminbgg.errors import StructureError
from ruminbgg.tables import (
    ad_matrix,
    dilation_matrix,
    quasiconformal_check,
    quasiconformal_matrix,
    strip_bound,
    strip_table,
    truncation_ranks,
)

from conftest import random_fraction


# -- strip tables -----------------------------------------------------------------


def test_strip_bounds_heisenberg2(h2):
    table = strip_table(h2)
    assert table.nu == 4
    got = [(k, w, r, bound, exc) for k, w, r, bound, exc in table.rows]
    assert got == [
        (0, 0, 1, Fraction(1), True),
        (1, 1, 2, Fraction(2), False),
        (2, 3, 2, Fraction(2), False),
        (3, 4, 1, Fraction(1), True),
    ]


def test_strip_exceptional_set_is_ends(h2):
    table = strip_table(h2)
    exceptional = [(k, w) for k, w, _, _, exc in table.rows if exc]
    assert exceptional == [(0, 0), (3, 4)]
    # s = 1 lies inside the strip exactly away from the ends
    payload = table.to_json()
    for row in payload["rows"]:
        assert row["s1_inside_strip"] == (not row["exceptional"])


def test_strip_bound_formula_symmetry():
    for nu in (3, 4, 7, 10, 22):
        for w in range(nu + 1):
            b1 = strip_bound(nu, w)
            b2 = strip_bound(nu, nu - w)
            assert b1 == b2
            if w in (0, nu):
                assert b1 == 1
            elif b1 is not None:
                assert b1 > 1


def test_strip_middle_weight_infinity():
    # abelian(2): nu = 2, the degree-1 component sits at w = 1 = nu/2
    table = strip_table(builtin("abelian", 2))
    middle = [row for row in table.rows if row[1] == 1]
    assert middle and middle[0][3] is None
    csv_rows = table.csv_rows()
    inf_rows = [r for r in csv_rows[1:] if r[4] == 0]
    assert inf_rows and inf_rows[0][3] == 1  # sentinel 1/0


def test_strip_minimum_attained_at_rank_one_ends(q2):
    table = strip_table(q2)
    assert table.nu == 10
    finite = [(b, k, w, r) for k, w, r, b, _ in table.rows if b is not None]
    assert min(b for b, *_ in finite) == 1
    ends = [(k, w, r) for b, k, w, r in finite if b == 1]
    assert ends == [(0, 0, 1), (7, 10, 1)]


def test_strip_rows_all_positive_rank(octo):
    table = strip_table(octo)
    assert all(r >= 1 for _, _, r, _, _ in table.rows)


# -- truncation ---------------------------------------------------------------------


def test_truncation_heisenberg2(h2):
    result = truncation_ranks(h2)
    assert result["m"] == 3
    assert result["ranks"] == [1, 2, 2]
    assert result["middle_blocks"] == [{"weight": 3, "rank": 2}]
    assert result["full_rank_alternating_sum"] == 0
    assert "not verified" in result["index_one_claim"]


def test_truncation_middle_is_symbol_image_rank(h2):
    # independent recomputation: dense rank of the constant-output rows of D
    from ruminbgg.rumin import RuminPackage

    from conftest import dense_rank

    result = truncation_ranks(h2)
    pkg = RuminPackage(h2, 2)
    D = pkg.D_mat(1)
    mk1 = pkg.model_keys(2)
    zero = (0,) * h2.dim
    rows = [i for i, (exps, w, t) in enumerate(mk1) if exps == zero]
    dense = [[Fraction(0)] * D.ncols for _ in rows]
    pos = {i: r for r, i in enumerate(rows)}
    for j in D.cols:
        for i, c in D.column(j).items():
            if i in pos:
                dense[pos[i]][j] = c
    assert dense_rank(dense) == result["ranks"][-1] == 2


def test_truncation_abelian3():
    result = truncation_ranks(builtin("abelian", 3))
    assert result["ranks"] == [1, 3, 3]


def test_truncation_quaternionic(q2):
    result = truncation_ranks(q2)
    assert result["m"] == 7
    assert result["ranks"][:4] == [1, 4, 11, 14]
    assert result["full_rank_alternating_sum"] == 0


def test_truncation_rejects_even_dimension():
    # only the abelian family can have even total dimension
    with pytest.raises(StructureError, match="odd"):
        truncation_ranks(builtin("abelian", 4))
    with pytest.raises(StructureError, match="odd"):
        truncation_ranks(builtin("abelian", 2))


# -- quasi-conformality ---------------------------------------------------------------


def test_qc_accepts_pure_dilation(h2):
    for t in (2, Fraction(1, 3), Fraction(7, 5)):
        decision = quasiconformal_check(h2, dilation_matrix(h2, t))
        assert decision["accepted"]
        assert decision["t"] == t
        assert all(v == 0 for v in decision["Y"])


def test_qc_recovers_ad_witness(h2):
    m = quasiconformal_matrix(h2, 3, [1, 0])
    decision = quasiconformal_check(h2, m)
    assert decision["accepted"]
    assert decision["t"] == 3
    assert decision["Y"] == [Fraction(1), Fraction(0)]


def test_qc_rejects_layer2_to_layer1_block(h2):
    bad = dilation_matrix(h2, 2)
    bad[0][2] = Fraction(1)
    decision = quasiconformal_check(h2, bad)
    assert not decision["accepted"]
    assert decision["obstruction"] == "layer-2 to layer-1 block nonzero"


def test_qc_rejects_bad_blocks(h2):
    wrong_scale = dilation_matrix(h2, 2)
    wrong_scale[2][2] = Fraction(5)
    decision = quasiconformal_check(h2, wrong_scale)
    assert not decision["accepted"]
    assert "t^2" in decision["obstruction"]

    negative = dilation_matrix(h2, -2)
    decision = quasiconformal_check(h2, negative)
    assert not decision["accepted"]

    skew = dilation_matrix(h2, 2)
    skew[0][1] = Fraction(1)
    assert not quasiconformal_check(h2, skew)["accepted"]


def test_qc_random_instances_with_recovery(h2, rng):
    # ad is injective on layer 1 for heisenberg, so witnesses are unique
    for _ in range(100):
        t = abs(random_fraction(rng)) + Fraction(1, 7)
        y = [random_fraction(rng), random_fraction(rng)]
        m = quasiconformal_matrix(h2, t, y)
        decision = quasiconformal_check(h2, m)
        assert decision["accepted"]
        assert decision["t"] == t
        assert decision["Y"] == y


def test_qc_closure_under_composition(h2, rng):
    # composing an accepted candidate with a further (1 + ad Y') stays accepted
    dim = h2.dim
    for _ in range(25):
        t = abs(random_fraction(rng)) + Fraction(1, 5)
        y = [random_fraction(rng), random_fraction(rng)]
        y2 = [random_fraction(rng), random_fraction(rng)]
        base = quasiconformal_matrix(h2, t, y)
        extra = ad_matrix(h2, y2)
        composed = [
            [
                base[i][j] + sum(extra[i][l] * base[l][j] for l in range(dim))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        decision = quasiconformal_check(h2, composed)
        assert decision["accepted"]
        assert decision["t"] == t
        assert decision["Y"] == [a + b for a, b in zip(y, y2)]


def test_qc_quaternionic(q2, rng):
    y = [random_fraction(rng) for _ in range(4)]
    m = quasiconformal_matrix(q2, Fraction(5, 2), y)
    decision = quasiconformal_check(q2, m)
    assert decision["accepted"] and decision["t"] == Fraction(5, 2)
    # recovered Y acts identically (ad may have kernel in general)
    assert ad_matrix(q2, decision["Y"]) == ad_matrix(q2, y)


def test_qc_abelian_requires_zero_offdiagonal():
    alg = builtin("abelian", 3)
    good = dilation_matrix(alg, 4)
    decision = quasiconformal_check(alg, good)
    assert decision["accepted"] and decision["Y"] == [0, 0, 0]


def test_qc_shape_errors(h2):
    with pytest.raises(StructureError):
        quasiconformal_check(h2, [[1, 0], [0, 1]])
