import json
from fractions import Fraction

import pytest

from ruminbgg.algebra import (
    GradedNilpotentLieAlgebra,
    _positive_definite,
    algebra_from_json,
    algebra_to_json,
    builtin,
    dilate,
    homogeneous_dimension,
    validate,
)
from ruminbgg.errors import StructureError

from conftest import random_fraction


def test_validate_heisenberg_data_passes():
    data = {
        "name": "h3",
        "layers": [2, 1],
        "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
            {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-1"}]},
        ],
    }
    assert validate(data).passed


def test_validate_antisymmetry_violation_witness():
    data = {
        "name": "bad",
        "layers": [2, 1],
        "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
            {"a": 2, "b": 1, "terms": [{"k": 3, "c": "1"}]},
        ],
    }
    report = validate(data)
    assert not report.passed
    assert ("antisymmetry", (1, 2, 3)) in report.violations


def test_validate_grading_violation():
    # [layer1, layer1] landing back in layer 1
    data = {
        "name": "bad-grading",
        "layers": [2, 1],
        "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 1, "c": "1"}]},
            {"a": 2, "b": 1, "terms": [{"k": 1, "c": "-1"}]},
        ],
    }
    report = validate(data)
    assert ("grading", (1, 2, 1)) in report.violations


def test_validate_jacobi_violation():
    # [[e1,e2],e3] = [e4,e3] = e5 with the two other cyclic terms zero
    data = {
        "name": "bad-jacobi",
        "layers": [3, 1, 1],
        "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 4, "c": "1"}]},
            {"a": 2, "b": 1, "terms": [{"k": 4, "c": "-1"}]},
            {"a": 4, "b": 3, "terms": [{"k": 5, "c": "1"}]},
            {"a": 3, "b": 4, "terms": [{"k": 5, "c": "-1"}]},
        ],
    }
    report = validate(data)
    assert any(axiom == "jacobi" for axiom, _ in report.violations)


def test_malformed_input_is_structural_not_axiom():
    with pytest.raises(StructureError):
        algebra_from_json({"name": "x", "layers": [2, 1], "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 3, "c": 0.5}]}
        ]})
    with pytest.raises(StructureError):
        algebra_from_json({"name": "x"})
    with pytest.raises(StructureError):
        algebra_from_json({"name": "x", "layers": [2, 1], "brackets": [
            {"a": 1, "b": 9, "terms": [{"k": 3, "c": "1"}]}
        ]})
    for terms in ([{"c": "1"}], [{"k": 3, "c": "1/0"}], 5):
        with pytest.raises(StructureError):
            algebra_from_json({"name": "x", "layers": [2, 1], "brackets": [
                {"a": 1, "b": 2, "terms": terms}
            ]})


def test_builtin_models_validate():
    for model, ns in (("abelian", (1, 2, 3, 4)), ("heisenberg", (2, 3, 4)),
                      ("quaternionic", (2, 3, 4)), ("octonionic", (1,))):
        for n in ns:
            alg = builtin(model, n)
            assert validate(alg).passed


def test_builtin_errors():
    with pytest.raises(StructureError):
        builtin("unknown", 2)
    with pytest.raises(StructureError):
        builtin("heisenberg", 1)
    with pytest.raises(StructureError):
        builtin("quaternionic", 1)


def test_builtin_shapes():
    assert builtin("heisenberg", 2).layers == (2, 1)
    assert builtin("heisenberg", 3).layers == (4, 1)
    assert builtin("quaternionic", 2).layers == (4, 3)
    assert builtin("octonionic").layers == (8, 7)
    assert builtin("abelian", 5).layers == (5, 0)


def test_heisenberg2_bracket():
    h2 = builtin("heisenberg", 2)
    assert h2.bracket_of(0, 1) == {2: Fraction(1)}
    assert h2.bracket_of(1, 0) == {2: Fraction(-1)}


def test_homogeneous_dimension():
    assert homogeneous_dimension(builtin("heisenberg", 2)) == 4
    assert homogeneous_dimension(builtin("quaternionic", 2)) == 10
    assert homogeneous_dimension(builtin("abelian", 7)) == 7
    assert homogeneous_dimension(builtin("octonionic")) == 22


def test_homogeneous_dimension_permutation_invariant(rng):
    # permute the basis inside each layer and transport the bracket
    alg = builtin("quaternionic", 2)
    perm = list(range(alg.dim))
    l1 = perm[:4]
    l2 = perm[4:]
    rng.shuffle(l1)
    rng.shuffle(l2)
    perm = l1 + l2
    bracket = {}
    for (a, b), terms in alg.bracket.items():
        bracket[(perm[a], perm[b])] = {perm[k]: c for k, c in terms.items()}
    shuffled = GradedNilpotentLieAlgebra("shuffled", alg.layers, bracket)
    assert validate(shuffled).passed
    assert homogeneous_dimension(shuffled) == homogeneous_dimension(alg)


def test_quaternionic_jacobi_brute_force(q2):
    # independent of validate(): raw triple loop over structure constants
    dim = q2.dim
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                total = {}
                for mid, coeff in q2.bracket_of(a, b).items():
                    for k, s in q2.bracket_of(mid, c).items():
                        total[k] = total.get(k, Fraction(0)) + coeff * s
                for mid, coeff in q2.bracket_of(b, c).items():
                    for k, s in q2.bracket_of(mid, a).items():
                        total[k] = total.get(k, Fraction(0)) + coeff * s
                for mid, coeff in q2.bracket_of(c, a).items():
                    for k, s in q2.bracket_of(mid, b).items():
                        total[k] = total.get(k, Fraction(0)) + coeff * s
                assert all(v == 0 for v in total.values())


def test_octonionic_jacobi_brute_force(octo):
    dim = octo.dim
    for a in range(dim):
        for b in range(dim):
            ab = octo.bracket_of(a, b)
            for c in range(dim):
                total = {}
                for vec, other in ((ab, c), (octo.bracket_of(b, c), a), (octo.bracket_of(c, a), b)):
                    for mid, coeff in vec.items():
                        for k, s in octo.bracket_of(mid, other).items():
                            total[k] = total.get(k, Fraction(0)) + coeff * s
                assert all(v == 0 for v in total.values())


def test_octonion_table_is_a_composition_algebra(rng):
    # |u v|^2 = |u|^2 |v|^2 pins genuine octonion multiplication, which is
    # what makes the (8,7) model Heisenberg type
    from ruminbgg.algebra import _OCT

    def mult(u, v):
        out = [Fraction(0)] * 8
        for a in range(8):
            if not u[a]:
                continue
            for b in range(8):
                if not v[b]:
                    continue
                s, idx = _OCT[(a, b)]
                out[idx] += s * u[a] * v[b]
        return out

    for _ in range(25):
        u = [random_fraction(rng) for _ in range(8)]
        v = [random_fraction(rng) for _ in range(8)]
        uv = mult(u, v)
        lhs = sum(x * x for x in uv)
        rhs = sum(x * x for x in u) * sum(x * x for x in v)
        assert lhs == rhs


def test_dilation_scales_layers():
    h2 = builtin("heisenberg", 2)
    theta = dilate(h2, 2)
    assert theta.apply({0: Fraction(1)}) == {0: Fraction(2)}
    assert theta.apply({2: Fraction(1)}) == {2: Fraction(4)}


def test_dilation_composition_law():
    for model, n in (("heisenberg", 2), ("quaternionic", 2), ("abelian", 3)):
        alg = builtin(model, n)
        s, t = Fraction(3, 2), Fraction(-5, 7)
        assert dilate(alg, s).compose(dilate(alg, t)).diagonal() == dilate(alg, s * t).diagonal()


def test_dilation_is_automorphism_on_all_pairs():
    h2 = builtin("heisenberg", 2)
    t = Fraction(3)
    theta = dilate(h2, t)
    for a in range(h2.dim):
        for b in range(h2.dim):
            lhs = {k: theta.diagonal()[k] * c for k, c in h2.bracket_of(a, b).items()}
            scale = theta.diagonal()[a] * theta.diagonal()[b]
            rhs = {k: scale * c for k, c in h2.bracket_of(a, b).items()}
            assert lhs == rhs
    # theta_3([e1,e2]) = [theta_3 e1, theta_3 e2] = 9 e3
    assert theta.diagonal()[2] == 9


def test_dilation_rejects_zero():
    with pytest.raises(StructureError):
        dilate(builtin("heisenberg", 2), 0)


def test_json_round_trip_exact():
    alg = builtin("quaternionic", 2)
    data = algebra_to_json(alg)
    back = algebra_from_json(json.loads(json.dumps(data)))
    assert back.layers == alg.layers
    assert back.bracket == alg.bracket
    assert back.inner_product == alg.inner_product


def test_json_round_trip_custom_inner_product():
    data = {
        "name": "weighted",
        "layers": [2, 1],
        "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
            {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-1"}]},
        ],
        "inner_product": [["2", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "3"]],
    }
    alg = algebra_from_json(data)
    assert validate(alg).passed
    assert not alg.inner_product_is_standard()
    assert algebra_to_json(alg)["inner_product"][0] == ["2", "1/2", "0"]


def test_inner_product_axioms():
    base = {
        "name": "x",
        "layers": [2, 1],
        "brackets": [
            {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
            {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-1"}]},
        ],
    }
    crossing = dict(base, inner_product=[["1", "0", "1"], ["0", "1", "0"], ["1", "0", "1"]])
    report = validate(algebra_from_json(crossing))
    assert any(a == "inner_product_layer_orthogonal" for a, _ in report.violations)
    indefinite = dict(base, inner_product=[["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    report = validate(algebra_from_json(indefinite))
    assert any(a == "inner_product_positive_definite" for a, _ in report.violations)


def minor_by_minor_positive_definite(matrix):
    """Sylvester's criterion by the determinant of every leading minor
    (Gaussian elimination with row exchanges); the oracle."""
    n = len(matrix)
    for k in range(1, n + 1):
        sub = [list(row[:k]) for row in matrix[:k]]
        det = Fraction(1)
        for col in range(k):
            piv = next((r for r in range(col, k) if sub[r][col] != 0), None)
            if piv is None:
                return False
            if piv != col:
                sub[col], sub[piv] = sub[piv], sub[col]
                det = -det
            det *= sub[col][col]
            for r in range(col + 1, k):
                f = sub[r][col] / sub[col][col]
                for c in range(col, k):
                    sub[r][c] -= f * sub[col][c]
        if det <= 0:
            return False
    return True


def test_positive_definite_matches_minor_oracle(rng):
    verdicts = set()
    for trial in range(3000):
        n = rng.randint(1, 5)
        m = [[random_fraction(rng, span=3, den=2) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            # symmetric, shifted towards positive definite half of the time
            shift = rng.randint(0, 6)
            m = [
                [(m[i][j] + m[j][i]) / 2 + (shift if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        verdict = _positive_definite(m)
        assert verdict == minor_by_minor_positive_definite(m), m
        verdicts.add((trial % 2, verdict))
    assert len(verdicts) == 4
