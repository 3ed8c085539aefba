from fractions import Fraction

import pytest

from ruminbgg.algebra import GradedNilpotentLieAlgebra, algebra_from_json, builtin, validate
from ruminbgg.errors import UnsupportedStepError
from ruminbgg.fiber import FiberContext
from ruminbgg.groupcalc import (
    GroupContext,
    LeftInvariantField,
    PolyForm,
    format_term,
    parametrix_identity_check,
    term_weight,
)
from ruminbgg.linalg import SparseMatrix

from conftest import assert_normal_form, operator_matrix, random_fraction


def test_poly_forms_are_unequal_to_other_types():
    alg = builtin("heisenberg", 2)
    for form in (PolyForm(alg), PolyForm.from_monomial(alg, (1,) + (0,) * (alg.dim - 1), (0, 2))):
        assert form == PolyForm(alg, form.terms)
        for other in (0, None):
            assert not form == other
            assert form != other


def random_polyform(rng, ctx, k, max_degree, nterms=3):
    polys = ctx.poly_basis(max_degree)
    monos = ctx.fiber.mons(k)
    terms = {}
    for _ in range(nterms):
        key = (polys[rng.randrange(len(polys))], monos[rng.randrange(len(monos))])
        terms[key] = random_fraction(rng)
    return PolyForm(ctx.algebra, terms)


def test_step_restriction():
    bracket = {
        (0, 1): {2: Fraction(1)},
        (1, 0): {2: Fraction(-1)},
        (0, 2): {3: Fraction(1)},
        (2, 0): {3: Fraction(-1)},
    }
    alg = GradedNilpotentLieAlgebra("step3", (2, 1, 1), bracket)
    with pytest.raises(UnsupportedStepError, match="2-step"):
        GroupContext(alg)


def test_d_of_z_theta1(h2):
    ctx = GroupContext(h2)
    form = PolyForm.from_monomial(h2, (0, 0, 1), (0,))  # z . theta^1
    df = ctx.d(form)
    # = 1/2 x1 theta^2^theta^1 + theta^3^theta^1, in sorted-monomial terms
    assert df.terms == {
        ((1, 0, 0), (0, 1)): Fraction(-1, 2),
        ((0, 0, 0), (0, 2)): Fraction(-1),
    }
    assert ctx.d(df).is_zero()


def test_d_of_theta3_matches_d0(h2):
    ctx = GroupContext(h2)
    th3 = PolyForm.from_monomial(h2, (0, 0, 0), (2,))
    assert ctx.d(th3).terms == {((0, 0, 0), (0, 1)): Fraction(-1)}


def test_d_abelian_is_classical():
    alg = builtin("abelian", 3)
    ctx = GroupContext(alg)
    x1 = PolyForm.from_monomial(alg, (1, 0, 0), ())
    assert ctx.d(x1).terms == {((0, 0, 0), (0,)): Fraction(1)}
    # d(x1 x2 dx3) = x2 dx1^dx3 + x1 dx2^dx3
    form = PolyForm.from_monomial(alg, (1, 1, 0), (2,))
    assert ctx.d(form).terms == {
        ((0, 1, 0), (0, 2)): Fraction(1),
        ((1, 0, 0), (1, 2)): Fraction(1),
    }


def test_d_squared_on_random_sparse_forms(h2, rng):
    ctx = GroupContext(h2)
    for _ in range(40):
        k = rng.randrange(h2.dim + 1)
        form = random_polyform(rng, ctx, k, 3)
        assert ctx.d(ctx.d(form)).is_zero()


def test_contraction_dual_pair(h2):
    ctx = GroupContext(h2)
    w = PolyForm.from_monomial(h2, (0, 0, 0), (0, 1))
    assert ctx.contraction(0, w).terms == {((0, 0, 0), (1,)): Fraction(1)}
    assert ctx.contraction(1, w).terms == {((0, 0, 0), (0,)): Fraction(-1)}
    assert ctx.contraction(2, w).is_zero()


def test_cartan_on_zero_form(h2):
    # (d i_X + i_X d) f = X f for f = x2 z
    ctx = GroupContext(h2)
    f = PolyForm.from_monomial(h2, (0, 1, 1), ())
    lhs = ctx.lie_derivative(ctx.fields[0], f)
    rhs = ctx.fields[0].apply_function(f)
    assert lhs == rhs
    # X1 = d/dx1 - (1/2) x2 d/dz, so X1(x2 z) = -(1/2) x2^2
    assert rhs.terms == {((0, 2, 0), ()): Fraction(-1, 2)}


def test_lie_derivative_of_theta3(h2):
    ctx = GroupContext(h2)
    th3 = PolyForm.from_monomial(h2, (0, 0, 0), (2,))
    out = ctx.lie_derivative(ctx.fields[0], th3)
    assert out.terms == {((0, 0, 0), (1,)): Fraction(-1)}
    assert ctx.lie_derivative_direct(ctx.fields[0], th3) == out


def test_frame_bracket_operators(h2):
    # [X_1, X_2] = Z_3 on polynomials of degree <= 3
    ctx = GroupContext(h2)
    x1, x2, z3 = ctx.fields
    for exps in ctx.poly_basis(3):
        f = PolyForm(h2, {(exps, ()): Fraction(1)})
        lhs = x1.apply_function(x2.apply_function(f)) - x2.apply_function(
            x1.apply_function(f)
        )
        assert lhs == z3.apply_function(f)
        # [X_a, Z_3] = 0
        for xa in (x1, x2):
            comm = xa.apply_function(z3.apply_function(f)) - z3.apply_function(
                xa.apply_function(f)
            )
            assert comm.is_zero()


def test_d_raises_weight(h2):
    ctx = GroupContext(h2)
    for exps, mono in ctx.spanning_basis(1, 2):
        base = term_weight(h2, exps, mono)
        for e2, m2 in ctx.d(PolyForm(h2, {(exps, mono): Fraction(1)})).terms:
            assert term_weight(h2, e2, m2) >= base


def test_d_weight_zero_part_is_d0(h2, q2):
    # the graded weight-0 part of d is exactly the fiber coboundary; the
    # vector-field terms strictly raise total weight
    for alg in (h2, q2):
        ctx = GroupContext(alg)
        for k in range(alg.dim + 1):
            for exps, mono in ctx.spanning_basis(k, 1):
                base = term_weight(alg, exps, mono)
                graded_part = {}
                for (e2, m2), c in ctx.d(
                    PolyForm(alg, {(exps, mono): Fraction(1)})
                ).terms.items():
                    shift = term_weight(alg, e2, m2) - base
                    assert shift >= 0
                    if shift == 0:
                        graded_part[(e2, m2)] = c
                expected = {
                    (exps, m2): c for m2, c in ctx.fiber.d0_of_monomial(mono).items()
                }
                assert graded_part == expected


def test_parametrix_report_heisenberg2(h2):
    report = parametrix_identity_check(h2, 3)
    assert all(row["status"] == "ok" for row in report)
    names = {row["identity"] for row in report}
    assert "parametrix" in names and "d_squared" in names


def test_calculus_verify_reuses_the_held_wedges(monkeypatch):
    # d_matrix builds its own copy of a degree's wedge matrices unless the
    # fiber holds them; calculus verify holds them before it asks for d, and
    # d, interior_matrices and coadjoint_matrix read the held ones, so each
    # degree's are built once
    alg = builtin("quaternionic", 2)
    built = []
    build = FiberContext._build_wedges

    def counted(fib, k):
        built.append(k)
        return build(fib, k)

    monkeypatch.setattr(FiberContext, "_build_wedges", counted)
    report = parametrix_identity_check(alg, 1)
    assert all(row["status"] == "ok" for row in report)
    assert sorted(built) == list(range(-1, alg.dim + 2))
    fib = FiberContext(alg)
    ctx = GroupContext(alg, fib)
    fresh = GroupContext(alg).d_matrix(2, 1)
    built.clear()
    held = fib.wedge_matrices(2)
    fib.interior_matrices(3)
    fib.coadjoint_matrix(0, 3)
    assert ctx.d_matrix(2, 1) == fresh
    assert built == [2] and fib._wedges == {2: held}


def test_parametrix_abelian_is_flat_laplacian():
    # dA + Ad = sum of plain second derivatives on forms
    alg = builtin("abelian", 2)
    ctx = GroupContext(alg)
    report = parametrix_identity_check(alg, 2)
    assert all(row["status"] == "ok" for row in report)

    def second_derivatives(form):
        out = PolyForm(alg)
        for f in ctx.fields:
            out = out + f.apply_function(f.apply_function(form))
        return out

    def a_op(form):
        out = PolyForm(alg)
        for f in ctx.fields:
            out = out + ctx.contraction(f, ctx.lie_derivative(f, form))
        return out

    for k in range(alg.dim + 1):
        for exps, mono in ctx.spanning_basis(k, 2):
            v = PolyForm(alg, {(exps, mono): Fraction(1)})
            assert ctx.d(a_op(v)) + a_op(ctx.d(v)) == second_derivatives(v)


def test_parametrix_quaternionic_p1(q2):
    report = parametrix_identity_check(q2, 1)
    assert all(row["status"] == "ok" for row in report)


def test_lie_derivative_commutes_with_d(h2, rng):
    ctx = GroupContext(h2)
    for _ in range(20):
        k = rng.randrange(h2.dim)
        form = random_polyform(rng, ctx, k, 2)
        for f in ctx.fields:
            assert ctx.lie_derivative(f, ctx.d(form)) == ctx.d(ctx.lie_derivative(f, form))


# -- the per-element calculus check, kept as the oracle of the matrix one ------


def per_element_report(alg, max_poly_degree):
    """The per-element form of the calculus check: every operator is
    re-derived term by term on each spanning element, and the first
    failing element is the witness."""
    ctx = GroupContext(alg)
    report = []
    layer1 = [f for f in ctx.fields if f.layer == 1]

    def run(name, check_fn):
        witness = check_fn()
        if witness is None:
            report.append({"identity": name, "status": "ok"})
        else:
            report.append({"identity": name, "status": "fail", "counterexample": witness})

    def spanning(k):
        for exps, mono in ctx.spanning_basis(k, max_poly_degree):
            yield PolyForm(alg, {(exps, mono): Fraction(1)}), (exps, mono)

    def first_failure(fails):
        for k in range(alg.dim + 1):
            for v, key in spanning(k):
                if fails(v, key):
                    return format_term(alg, *key)
        return None

    def lower_weight(v, key):
        base = term_weight(alg, *key)
        return any(term_weight(alg, e, m) < base for e, m in ctx.d(v).terms)

    def a_op(form):
        acc = PolyForm(alg)
        for f in layer1:
            acc = acc + ctx.contraction(f, ctx.lie_derivative(f, form))
        return acc

    def lap(form):
        acc = PolyForm(alg)
        for f in layer1:
            acc = acc + ctx.lie_derivative(f, ctx.lie_derivative(f, form))
        return acc

    run("d_squared", lambda: first_failure(lambda v, _: not ctx.d(ctx.d(v)).is_zero()))
    for f in ctx.fields:
        run(
            f"cartan[{f!r}]",
            lambda f=f: first_failure(
                lambda v, _: ctx.lie_derivative(f, v) != ctx.lie_derivative_direct(f, v)
            ),
        )
    for f in layer1:
        run(
            f"lie_commutes_d[{f!r}]",
            lambda f=f: first_failure(
                lambda v, _: ctx.lie_derivative(f, ctx.d(v))
                != ctx.d(ctx.lie_derivative(f, v))
            ),
        )

    def check_frame_brackets():
        for a in range(alg.dim):
            for b in range(alg.dim):
                fa, fb = ctx.fields[a], ctx.fields[b]
                for exps in ctx.poly_basis(max_poly_degree):
                    f = PolyForm(alg, {(exps, ()): Fraction(1)})
                    lhs = fa.apply_function(fb.apply_function(f)) - fb.apply_function(
                        fa.apply_function(f)
                    )
                    rhs = PolyForm(alg)
                    for k, c in alg.bracket_of(a, b).items():
                        rhs = rhs + ctx.fields[k].apply_function(f).scaled(c)
                    if lhs != rhs:
                        return f"[{fa},{fb}] on {format_term(alg, exps, ())}"
        return None

    run("frame_brackets", check_frame_brackets)
    run("d_weight_filtration", lambda: first_failure(lower_weight))
    run(
        "parametrix",
        lambda: first_failure(lambda v, _: ctx.d(a_op(v)) + a_op(ctx.d(v)) != lap(v)),
    )
    return report


def _antisymmetric(pairs):
    out = {}
    for (a, b), terms in pairs.items():
        out[(a, b)] = {k: Fraction(c) for k, c in terms.items()}
        out[(b, a)] = {k: -Fraction(c) for k, c in terms.items()}
    return out


# well-formed but not Lie algebras, built without `validate`
BROKEN = {
    # [e1, e2] = [e2, e1] = e3
    "symmetric": ((2, 1), {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(1)}}),
    # [e1, e2] = e3, [e1, e4] = -e1: grading and Jacobi fail
    "jacobi_22": ((2, 2), _antisymmetric({(0, 1): {2: 1}, (0, 3): {0: -1}})),
    # [e2, e3] = e4, [e3, e4] = -e3: grading and Jacobi fail
    "jacobi_31": ((3, 1), _antisymmetric({(1, 2): {3: 1}, (2, 3): {2: -1}})),
}


def test_broken_algebras_are_broken():
    kinds = {}
    for name, (layers, bracket) in BROKEN.items():
        report = validate(GradedNilpotentLieAlgebra(name, layers, bracket))
        kinds[name] = {axiom for axiom, _ in report.violations}
    assert "antisymmetry" in kinds["symmetric"]
    assert "jacobi" in kinds["jacobi_22"] and "jacobi" in kinds["jacobi_31"]


@pytest.mark.parametrize(
    "model,P",
    [("heisenberg", 1), ("heisenberg", 3), ("quaternionic", 1), ("abelian", 2)]
    + [(name, P) for name in BROKEN for P in (1, 2)]
    + [("fractional", 1), ("fractional", 2)],
)
def test_report_matches_per_element_oracle(model, P):
    if model in BROKEN or model == "fractional":
        alg = _oracle_algebra(model)
    else:
        alg = builtin(model, 2)
    assert parametrix_identity_check(alg, P) == per_element_report(alg, P)


def test_broken_algebras_fail_rows_with_witnesses():
    failed = set()
    for name, (layers, bracket) in BROKEN.items():
        alg = GradedNilpotentLieAlgebra(name, layers, bracket)
        for row in parametrix_identity_check(alg, 1):
            if row["status"] == "fail":
                assert row["counterexample"]
                failed.add(row["identity"])
    assert {"d_squared", "parametrix"} <= failed


def _d_term_mutants(alg, P, stride):
    """Single-key mutants of d: one spanning element gets an extra image
    term, of the same coefficient or (raise_z) one more z-power, so that the
    weight filtration breaks too.  Each mutant is a (d_term, d_matrix) pair
    with the same change, since the per-element oracle builds d from d_term
    and the matrix identities from d_matrix."""
    ctx = GroupContext(alg)
    original_term, original_matrix = GroupContext.d_term, GroupContext.d_matrix
    for k in range(alg.dim):
        basis, image_basis = ctx.spanning_basis(k, P), ctx.spanning_basis(k + 1, P)
        first_mono = ctx.fiber.mons(k + 1)[0]
        for n, (exps, mono) in enumerate(basis[k % stride :: stride]):
            raise_z = n % 2 == 0 and sum(exps) < P
            extra = (exps[:-1] + (exps[-1] + 1,) if raise_z else exps, first_mono)

            def term(self, e, m, target=(exps, mono), extra=extra):
                out = original_term(self, e, m)
                if (e, m) == target:
                    out = dict(out)
                    out[extra] = out.get(extra, 0) + Fraction(1, 3)
                return out

            def matrix(
                self, kk, PP, budget=None, k=k, j=basis.index((exps, mono)),
                i=image_basis.index(extra),
            ):
                out = original_matrix(self, kk, PP, budget)
                if (kk, PP) == (k, P):
                    col = out.column(j)
                    col[i] = col.get(i, 0) + Fraction(1, 3)
                    out.set_column(j, col)
                return out

            kind = "raise_z" if raise_z else "extra"
            yield pytest.param((term, matrix), id=f"{format_term(alg, exps, mono)}-{kind}")


@pytest.mark.parametrize("mutant", list(_d_term_mutants(builtin("heisenberg", 2), 2, 9)))
def test_report_matches_oracle_on_d_term_mutants(h2, monkeypatch, mutant):
    term, matrix = mutant
    monkeypatch.setattr(GroupContext, "d_term", term)
    monkeypatch.setattr(GroupContext, "d_matrix", matrix)
    report = parametrix_identity_check(h2, 2)
    assert any(row["status"] == "fail" for row in report)
    assert report == per_element_report(h2, 2)


# a Lie algebra read from JSON whose structure constants are not integers
FRACTIONAL = {
    "name": "fractional",
    "layers": [2, 2],
    "brackets": [
        {"a": 1, "b": 2, "terms": [{"k": 3, "c": "3/2"}, {"k": 4, "c": "-2/3"}]},
        {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-3/2"}, {"k": 4, "c": "2/3"}]},
    ],
}


# [e1, e3] = e3 and [e1, e4] = e4: the two parts of a direct L_X column can
# share a row, and C_X reaches theta^3 ^ theta^4 twice from itself
DIAGONAL = {
    "diagonal": ((2, 2), _antisymmetric({(0, 1): {2: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}}))
}


def _oracle_algebra(name):
    if name in BROKEN or name in DIAGONAL:
        layers, bracket = {**BROKEN, **DIAGONAL}[name]
        return GradedNilpotentLieAlgebra(name, layers, bracket)
    if name == "fractional":
        alg = algebra_from_json(FRACTIONAL)
        assert validate(alg).passed
        return alg
    model, n = name.split(":")
    return builtin(model, int(n))


@pytest.mark.parametrize(
    "name",
    ["heisenberg:2", "heisenberg:3", "quaternionic:2", "abelian:2", "fractional", *BROKEN,
     *DIAGONAL],
)
def test_operator_builders_match_per_element_oracle(name):
    # i_X and the direct L_X built from cached pieces equal the matrices of
    # contraction_term and lie_derivative_direct, element by element
    alg = _oracle_algebra(name)
    ctx = GroupContext(alg)
    for P in range(3):
        bases = {k: ctx.spanning_basis(k, P) for k in range(-1, alg.dim + 2)}
        indexes = {k: {b: i for i, b in enumerate(basis)} for k, basis in bases.items()}
        for f in ctx.fields:

            def contraction(e, m, f=f):
                return ctx.contraction_term(f.index, e, m)

            def direct(e, m, f=f):
                return ctx.lie_derivative_direct(f, PolyForm(alg, {(e, m): Fraction(1)})).terms

            for k in range(-1, alg.dim + 2):
                got = ctx.contraction_matrix(f.index, k, P)
                want = operator_matrix(bases[k], indexes.get(k - 1, {}), contraction)
                assert got == want, (P, f, k)
                assert_normal_form(got)
                got = ctx.lie_derivative_matrix(f.index, k, P)
                assert got == operator_matrix(bases[k], indexes[k], direct), (P, f, k)
                assert_normal_form(got)


@pytest.mark.parametrize(
    "model,a,k", [("heisenberg:2", 0, 1), ("heisenberg:2", 1, 2), ("quaternionic:2", 2, 3)]
)
def test_report_matches_oracle_on_coadjoint_mutants(monkeypatch, model, a, k):
    # the first entry of the first column of C_a on degree k changes sign, in
    # the fiber's coadjoint matrix and in lie_derivative_direct alike: the
    # matrix check and the per-element oracle both fail cartan[X_a], with one
    # report
    alg = _oracle_algebra(model)
    original_matrix = FiberContext.coadjoint_matrix
    original_direct = GroupContext.lie_derivative_direct
    ctx = GroupContext(alg)
    mons = ctx.fiber.mons(k)
    source = min(ctx.fiber.coadjoint_matrix(a, k).cols)
    den, rows, nums = ctx.fiber.coadjoint_matrix(a, k).cols[source]

    def matrix(self, aa, kk):
        out = original_matrix(self, aa, kk)
        if (aa, kk) == (a, k):
            flipped = SparseMatrix(out.nrows, out.ncols)
            flipped.cols = {**out.cols, source: (den, rows, (-nums[0],) + nums[1:])}
            return flipped
        return out

    def direct(self, field, form):
        out = original_direct(self, field, form)
        index = field.index if isinstance(field, LeftInvariantField) else field
        if index != a:
            return out
        flip = Fraction(-2 * nums[0], den)
        return out + PolyForm(alg, {
            (exps, mons[rows[0]]): flip * c
            for (exps, mono), c in form.terms.items()
            if mono == mons[source]
        })

    monkeypatch.setattr(FiberContext, "coadjoint_matrix", matrix)
    monkeypatch.setattr(GroupContext, "lie_derivative_direct", direct)
    report = parametrix_identity_check(alg, 1)
    failed = {row["identity"] for row in report if row["status"] == "fail"}
    assert f"cartan[{ctx.fields[a]!r}]" in failed
    assert report == per_element_report(alg, 1)
