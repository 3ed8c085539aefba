from fractions import Fraction

import pytest

from ruminbgg.algebra import (
    GradedNilpotentLieAlgebra,
    algebra_from_json,
    builtin,
    dilate,
    homogeneous_dimension,
)
from ruminbgg.errors import StructureError
from ruminbgg.fiber import (
    FiberContext,
    FiberForm,
    bgg_fiber,
    cohomology_ranks,
    d0,
    delta,
    fiber_inner,
    monomial_weight,
    sort_with_sign,
)
from ruminbgg.linalg import SparseMatrix, accumulate

from conftest import dense_rank, kernel_rank, random_fraction, sparse_to_dense
from test_linalg import _CountingBudget


def random_fiber_form(rng, alg, ctx, k, nterms=4):
    monos = ctx.mons(k)
    terms = {}
    for _ in range(nterms):
        terms[monos[rng.randrange(len(monos))]] = random_fraction(rng)
    return FiberForm(alg, terms)


def test_hodge_eliminators_check_the_budget():
    # block (6, 8) of quaternionic:3 has 210 monomials, 99 harmonic, and
    # block (7, 8) 84; eliminators and coordinate solves check every 64 columns
    budget = _CountingBudget()
    ctx = FiberContext(builtin("quaternionic", 3), budget)
    assert len(ctx.block(6, 8)) == 210 and len(ctx.block(7, 8)) == 84
    for k in (5, 6, 7):
        ctx.d0_block(k, 8), ctx.delta_block(k, 8)
    ctx.delta_block(8, 8), ctx.laplacian_block(6, 8)
    # the [d0; delta0] kernel (210 columns), L0 delta0 (84 columns), and
    # H^T H (99 columns) plus its 210 solves
    for build, checks in [
        ("harmonic_basis", 4), ("imdelta_solver", 2), ("harmonic_coordinate_block", 2 + 4),
    ]:
        before = budget.checks
        getattr(ctx, build)(6, 8)
        assert budget.checks - before == checks, build


# -- d0 ------------------------------------------------------------------


def test_d0_heisenberg_examples(h2):
    ctx = FiberContext(h2)
    assert ctx.d0_of_monomial((2,)) == {(0, 1): Fraction(-1)}
    assert ctx.d0_of_monomial((0,)) == {}
    assert ctx.d0_of_monomial((1,)) == {}
    # d0(xi1 ^ xi3) = 0: the only candidate target has a repeated factor
    assert ctx.d0_of_monomial((0, 2)) == {}


def _d0_bubble_oracle(alg):
    """d0_of_monomial as it was written with the bubble sort `sort_with_sign`."""
    pairs = {}
    for (a, b), terms in alg.bracket.items():
        if a < b:
            for k, c in terms.items():
                pairs.setdefault(k, []).append(((a, b), c))
    for hits in pairs.values():
        hits.sort()

    def d0_of_monomial(mono):
        out = {}
        for pos, idx in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1 :]
            base = -((-1) ** pos)
            for (a, b), c in pairs.get(idx, ()):
                merged, sign = sort_with_sign((a, b) + rest)
                if merged is None:
                    continue
                accumulate(out, merged, base * sign * c)
        return out

    return d0_of_monomial


# a 2-step algebra (so Jacobi holds) with non-integer rational structure
# constants, given as a JSON definition with both orders of each bracket
RATIONAL = {
    "name": "rational-2-step",
    "layers": [5, 3],
    "brackets": [
        {"a": a, "b": b, "terms": [{"k": k, "c": str(sign * Fraction(c))} for k, c in terms]}
        for a0, b0, terms in [
            (1, 2, [(6, "1/2")]),
            (1, 3, [(6, "2/3"), (7, "-3/4")]),
            (2, 4, [(7, "-5/3"), (8, "7/2")]),
            (3, 5, [(8, "1/5")]),
            (4, 5, [(6, "-9/4"), (8, "3/8")]),
        ]
        for sign, a, b in ((1, a0, b0), (-1, b0, a0))
    ],
}


def test_d0_matches_bubble_sort_oracle(h3, q2, octo):
    for alg in (h3, q2, octo, algebra_from_json(RATIONAL)):
        ctx = FiberContext(alg)
        oracle = _d0_bubble_oracle(alg)
        for k in range(alg.dim + 1):
            for m in ctx.mons(k):
                want = list(oracle(m).items())
                assert list(ctx.d0_of_monomial(m).items()) == want, (alg.name, m)


def test_d0_abelian_is_zero():
    alg = builtin("abelian", 4)
    assert FiberContext(alg).d0_map() == {}


def test_d0_squared_zero_all_builtins(octo):
    models = [builtin("abelian", 3), builtin("heisenberg", 2), builtin("heisenberg", 4),
              builtin("quaternionic", 2), builtin("quaternionic", 3), octo]
    for alg in models:
        ctx = FiberContext(alg)
        table = ctx.d0_map()
        for src, img in table.items():
            acc = {}
            for mid, c in img.items():
                for dst, v in table.get(mid, {}).items():
                    acc[dst] = acc.get(dst, Fraction(0)) + c * v
            assert all(v == 0 for v in acc.values()), (alg.name, src)


def test_delta_squared_zero_all_builtins(octo):
    models = [builtin("heisenberg", 3), builtin("quaternionic", 2), octo]
    for alg in models:
        ctx = FiberContext(alg)
        table = ctx.delta_map()
        for src, img in table.items():
            acc = {}
            for mid, c in img.items():
                for dst, v in table.get(mid, {}).items():
                    acc[dst] = acc.get(dst, Fraction(0)) + c * v
            assert all(v == 0 for v in acc.values()), (alg.name, src)


def test_d0_weight_purity_and_filtration(q2):
    op = d0(q2)
    assert op.check_filtration()
    ctx = FiberContext(q2)
    for src, img in ctx.d0_map().items():
        for dst in img:
            assert monomial_weight(q2, dst) == monomial_weight(q2, src)


def test_delta_heisenberg_examples(h2):
    ctx = FiberContext(h2)
    assert ctx.delta_of_monomial((0, 1)) == {(2,): Fraction(-1)}
    for a in range(3):
        assert ctx.delta_of_monomial((a,)) == {}


def test_delta_abelian_zero():
    assert FiberContext(builtin("abelian", 5)).delta_map() == {}


def test_adjointness_random_pairs_quaternionic(q2, rng):
    ctx = FiberContext(q2)
    dop, deltaop = d0(q2, ctx), delta(q2, ctx)
    for _ in range(100):
        k = rng.randrange(q2.dim)
        alpha = random_fiber_form(rng, q2, ctx, k)
        beta = random_fiber_form(rng, q2, ctx, k + 1)
        lhs = fiber_inner(ctx, dop.apply(alpha), beta)
        rhs = fiber_inner(ctx, alpha, deltaop.apply(beta))
        assert lhs == rhs


def test_dilation_equivariance_t2(h2, q2):
    # conjugating d0 by the dual dilation fixes the matrix exactly, and
    # composing d0 with the dual dilation rescales weight-w blocks by t^w
    for alg in (h2, q2):
        ctx = FiberContext(alg)
        theta = dilate(alg, 2)

        def dual_scale(mono):
            s = Fraction(1)
            for i in mono:
                s *= theta.dual_scale(i)
            return s

        for src, img in ctx.d0_map().items():
            for dst, c in img.items():
                # Theta d0 Theta^{-1} entry equals the original entry
                assert dual_scale(dst) * c / dual_scale(src) == c
                # d0 . Theta = t^w . d0 on a weight-w monomial
                assert dual_scale(src) == Fraction(2) ** monomial_weight(alg, src)


# -- ranks ------------------------------------------------------------------


def test_cohomology_heisenberg2_vs_dense_oracle(h2):
    ctx = FiberContext(h2)
    # independent dense-rank Betti computation from the full d0 matrices
    betti_oracle = []
    ranks = []
    for k in range(h2.dim + 1):
        src = ctx.mons(k)
        dst = {m: i for i, m in enumerate(ctx.mons(k + 1))}
        dense = [[Fraction(0)] * len(src) for _ in range(len(dst))]
        for j, m in enumerate(src):
            for out, c in ctx.d0_of_monomial(m).items():
                dense[dst[out]][j] = c
        ranks.append(dense_rank(dense))
    for k in range(h2.dim + 1):
        betti_oracle.append(len(ctx.mons(k)) - ranks[k] - (ranks[k - 1] if k else 0))
    assert betti_oracle == [1, 2, 2, 1]
    assert cohomology_ranks(h2) == betti_oracle


def _check_ranks_vs_dense_oracle(alg, top_down):
    """Every rank_d0_block of a fresh context against a dense rank of its block."""
    ctx = FiberContext(alg)
    keys = [(k, w) for k in range(alg.dim + 1) for w in ctx.blocks(k)]
    for k, w in reversed(keys) if top_down else keys:
        dense = sparse_to_dense(ctx.d0_block(k, w))
        assert ctx.rank_d0_block(k, w) == dense_rank(dense), (alg.name, k, w)


def test_rank_d0_block_vs_dense_oracle(q2):
    for alg in (builtin("heisenberg", 4), q2):
        _check_ranks_vs_dense_oracle(alg, top_down=False)


def test_rank_d0_block_queried_from_the_top_vs_dense_oracle(q2):
    # from the highest degree down, each dual pair's shared rank is first
    # asked for on its higher-degree side
    for alg in (builtin("heisenberg", 4), q2):
        _check_ranks_vs_dense_oracle(alg, top_down=True)


def _complement(mono, n):
    """(I^c, s) with xi^I ^ xi^{I^c} = s vol."""
    comp = tuple(i for i in range(n) if i not in mono)
    return comp, sort_with_sign(mono + comp)[1]


def test_d0_blocks_of_a_dual_pair_are_signed_transposes(octo):
    # d0 a ^ b = -(-1)^k a ^ d0 b for a in block (k, w), b in block
    # (n-1-k, Q-w), so entry (M, I) of d0_block(k, w) and entry (I^c, M^c)
    # of the dual block differ by the sign -(-1)^k s(I) s(M)
    models = [builtin("heisenberg", n) for n in (2, 3, 4)]
    models += [builtin("quaternionic", 2), builtin("abelian", 4), octo]
    models += [algebra_from_json(RATIONAL), algebra_from_json(CUSTOM)]
    for alg in models:
        ctx = FiberContext(alg)
        n, top = alg.dim, homogeneous_dimension(alg)
        for k in range(n):
            for w in range(top + 1):
                block, dual = ctx.d0_block(k, w), ctx.d0_block(n - 1 - k, top - w)
                src, dst = ctx.block(k, w), ctx.block(k + 1, w)
                rows = ctx.block_index(n - k, top - w)
                cols = ctx.block_index(n - 1 - k, top - w)
                want = {}
                for j in block.cols:
                    src_c, s_src = _complement(src[j], n)
                    for i, v in block.column(j).items():
                        dst_c, s_dst = _complement(dst[i], n)
                        sign = (-1) ** (k + 1) * s_src * s_dst
                        want.setdefault(cols[dst_c], {})[rows[src_c]] = sign * v
                assert dual == SparseMatrix(len(src), len(dst), want), (alg.name, k, w)
                assert kernel_rank(dual) == kernel_rank(block), (alg.name, k, w)


# well-formed algebras, built without `validate`, whose bracket leaves the grading
OFF_GRADING = [
    # [e1, e3] = e2: layers 1 + 2 land in layer 1
    GradedNilpotentLieAlgebra(
        "off-grading", (2, 1), {(0, 2): {1: Fraction(1)}, (2, 0): {1: Fraction(-1)}}
    ),
    # [e1, e2] = e3 with e3 in layer 4; the only block d0 leaves is (1, 4),
    # the higher side of its dual pair (1, 2), whose block is empty
    GradedNilpotentLieAlgebra(
        "off-grading-high", (2, 0, 0, 1), {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)}}
    ),
]


@pytest.mark.parametrize("alg", OFF_GRADING, ids=lambda a: a.name)
def test_bracket_off_the_grading_raises_structure_error(alg):
    for compute in (bgg_fiber, cohomology_ranks):
        with pytest.raises(StructureError, match="d0 left weight block"):
            compute(alg)
    ctx = FiberContext(alg)
    for k in range(alg.dim + 1):
        for w in range(homogeneous_dimension(alg) + 1):
            with pytest.raises(StructureError):
                ctx.rank_d0_block(k, w)
            for block in (ctx.d0_block, ctx.delta_block):
                with pytest.raises(StructureError, match="d0 left weight block"):
                    block(k, w)
    with pytest.raises(StructureError, match="d0 left weight block"):
        ctx.delta_map()


def test_fiber_forms_are_unequal_to_other_types():
    alg = builtin("heisenberg", 2)
    for form in (FiberForm(alg), FiberForm.monomial(alg, (0, 2))):
        assert form == FiberForm(alg, form.terms)
        for other in (0, None):
            assert not form == other
            assert form != other


def test_cohomology_abelian_binomials():
    assert cohomology_ranks(builtin("abelian", 3)) == [1, 3, 3, 1]
    assert cohomology_ranks(builtin("abelian", 5)) == [1, 5, 10, 10, 5, 1]


def test_euler_characteristic_zero_for_builtins():
    for alg in (builtin("heisenberg", 2), builtin("heisenberg", 3),
                builtin("quaternionic", 2), builtin("abelian", 4)):
        betti = cohomology_ranks(alg)
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


def test_poincare_duality_of_ranks():
    for alg in (builtin("heisenberg", 2), builtin("heisenberg", 3),
                builtin("quaternionic", 2), builtin("abelian", 4)):
        betti = cohomology_ranks(alg)
        assert betti == betti[::-1]


# -- bgg tables ------------------------------------------------------------------


def test_bgg_heisenberg2(h2):
    table = bgg_fiber(h2).by_degree()
    assert table == {0: [(0, 1)], 1: [(1, 2)], 2: [(3, 2)], 3: [(4, 1)]}


def test_bgg_abelian_full_exterior():
    alg = builtin("abelian", 4)
    table = bgg_fiber(alg).by_degree()
    from math import comb

    assert table == {k: [(k, comb(4, k))] for k in range(5)}


def test_bgg_quaternionic_ends(q2):
    table = bgg_fiber(q2).by_degree()
    assert table[0] == [(0, 1)]
    assert table[7] == [(10, 1)]


def test_bgg_totals_match_cohomology():
    for alg in (builtin("heisenberg", 2), builtin("heisenberg", 3),
                builtin("quaternionic", 2), builtin("abelian", 3)):
        table = bgg_fiber(alg)
        betti = cohomology_ranks(alg)
        for k in range(alg.dim + 1):
            assert table.degree_total(k) == betti[k]


def test_bgg_alternating_sum_zero(q2):
    table = bgg_fiber(q2)
    total = sum((-1) ** k * r for k, _, r in table.rows)
    assert total == 0


def test_harmonic_dims_match_bgg(h3):
    ctx = FiberContext(h3)
    table = bgg_fiber(h3, context=ctx)
    by = {}
    for k, w, r in table.rows:
        by[(k, w)] = r
    for k in range(h3.dim + 1):
        for w in ctx.blocks(k):
            assert ctx.harmonic_basis(k, w).ncols == by.get((k, w), 0)


# -- forms and the custom inner product ------------------------------------------


def test_fiber_form_wedge_signs(h2):
    xi1 = FiberForm.monomial(h2, (0,))
    xi2 = FiberForm.monomial(h2, (1,))
    assert xi1.wedge(xi2).terms == {(0, 1): Fraction(1)}
    assert xi2.wedge(xi1).terms == {(0, 1): Fraction(-1)}
    assert xi1.wedge(xi1).is_zero()


def test_filtered_operator_apply(h2):
    op = d0(h2)
    form = FiberForm(h2, {(2,): Fraction(3)})
    assert op.apply(form).terms == {(0, 1): Fraction(-3)}
    assert op.degree_shift == 1


CUSTOM = {
    "name": "weighted-h3",
    "layers": [2, 1],
    "brackets": [
        {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
        {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-1"}]},
    ],
    "inner_product": [["2", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "3"]],
}


def test_custom_inner_product_adjointness(rng):
    alg = algebra_from_json(CUSTOM)
    ctx = FiberContext(alg)
    dop, deltaop = d0(alg, ctx), delta(alg, ctx)
    # delta^2 = 0
    table = ctx.delta_map()
    for src, img in table.items():
        acc = {}
        for mid, c in img.items():
            for dst, v in table.get(mid, {}).items():
                acc[dst] = acc.get(dst, Fraction(0)) + c * v
        assert all(v == 0 for v in acc.values())
    for _ in range(50):
        k = rng.randrange(alg.dim)
        alpha = random_fiber_form(rng, alg, ctx, k, nterms=2)
        beta = random_fiber_form(rng, alg, ctx, k + 1, nterms=2)
        assert fiber_inner(ctx, dop.apply(alpha), beta) == fiber_inner(
            ctx, alpha, deltaop.apply(beta)
        )


def test_ranks_insensitive_to_inner_product():
    # the adjoint changes but its blockwise ranks cannot
    weighted = algebra_from_json(CUSTOM)
    assert cohomology_ranks(weighted) == [1, 2, 2, 1]
    table = bgg_fiber(weighted).by_degree()
    assert table == {0: [(0, 1)], 1: [(1, 2)], 2: [(3, 2)], 3: [(4, 1)]}
