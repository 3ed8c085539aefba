"""Graded nilpotent Lie algebras with exact structure constants.

An algebra is determined by its layer dimensions (d_1, ..., d_l), the
bracket constants c^k_{ab} with [e_a, e_b] = sum_k c^k_{ab} e_k, and a
layer-orthogonal positive-definite inner product (identity by default).
The built-in models are the flat boundary geometries of the rank-one
world: abelian space, the Heisenberg groups, their quaternionic
analogues, and the octonionic 15-dimensional algebra.
"""

import json
from fractions import Fraction

from .errors import StructureError
from .scalars import as_fraction, fraction_to_str

BUILTIN_MODELS = ("abelian", "heisenberg", "quaternionic", "octonionic")


class GradedNilpotentLieAlgebra:
    """Immutable after construction; all operations on it are pure."""

    def __init__(self, name, layers, bracket, inner_product=None):
        self.name = name
        self.layers = tuple(int(d) for d in layers)
        self.dim = sum(self.layers)
        self.step = len(self.layers)
        # layer number (1-based) per basis index, layers enumerated in order
        self._layer_of = []
        for lnum, d in enumerate(self.layers, start=1):
            self._layer_of.extend([lnum] * d)
        # bracket stored antisymmetrically for every ordered pair
        self.bracket = {}
        for (a, b), terms in bracket.items():
            terms = {k: as_fraction(c) for k, c in terms.items() if c}
            if terms:
                self.bracket[(a, b)] = terms
        if inner_product is None:
            inner_product = [
                [Fraction(1) if i == j else Fraction(0) for j in range(self.dim)]
                for i in range(self.dim)
            ]
        self.inner_product = tuple(
            tuple(as_fraction(v) for v in row) for row in inner_product
        )

    def layer_of(self, index):
        return self._layer_of[index]

    def layer_range(self, layer):
        start = sum(self.layers[: layer - 1])
        return range(start, start + self.layers[layer - 1])

    def bracket_of(self, a, b):
        """Structure constants of [e_a, e_b] as {k: coefficient}."""
        return dict(self.bracket.get((a, b), {}))

    def inner_product_is_standard(self):
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.inner_product)
            for j, v in enumerate(row)
        )

    def __repr__(self):
        return f"GradedNilpotentLieAlgebra({self.name!r}, layers={self.layers})"


class ValidationReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return {
            "passed": self.passed,
            "violations": [
                {"axiom": axiom, "witness": list(witness)}
                for axiom, witness in self.violations
            ],
        }


def validate(candidate):
    """Check the graded-Lie-algebra axioms; returns a ValidationReport.

    `candidate` is an algebra object or the raw dict form accepted by
    `algebra_from_json`.  Malformed data raises StructureError; axiom
    violations are collected with witnessing basis tuples (1-based).
    """
    if isinstance(candidate, dict):
        candidate = algebra_from_json(candidate)
    alg = candidate
    violations = []
    dim = alg.dim

    def c_of(a, b):
        return alg.bracket.get((a, b), {})

    # antisymmetry: c^k_{ab} + c^k_{ba} = 0, and [e_a, e_a] = 0
    for (a, b), terms in sorted(alg.bracket.items()):
        if a == b:
            for k in sorted(terms):
                violations.append(("antisymmetry", (a + 1, b + 1, k + 1)))
            continue
        opposite = c_of(b, a)
        for k in sorted(set(terms) | set(opposite)):
            if terms.get(k, Fraction(0)) != -opposite.get(k, Fraction(0)):
                violations.append(("antisymmetry", (a + 1, b + 1, k + 1)))

    # grading: [layer i, layer j] inside layer i+j (empty when i+j > step)
    for (a, b), terms in sorted(alg.bracket.items()):
        target = alg.layer_of(a) + alg.layer_of(b)
        for k in sorted(terms):
            if target > alg.step or alg.layer_of(k) != target:
                violations.append(("grading", (a + 1, b + 1, k + 1)))

    # Jacobi, brute force over all basis triples
    for a in range(dim):
        for b in range(a + 1, dim):
            ab = c_of(a, b)
            for c in range(dim):
                total = {}
                for vec, other in ((ab, c), (c_of(b, c), a), (c_of(c, a), b)):
                    for mid, coeff in vec.items():
                        for k, s in c_of(mid, other).items():
                            total[k] = total.get(k, Fraction(0)) + coeff * s
                if any(v != 0 for v in total.values()):
                    violations.append(("jacobi", (a + 1, b + 1, c + 1)))

    # inner product: symmetric, layers orthogonal, positive definite
    ip = alg.inner_product
    if len(ip) != dim or any(len(row) != dim for row in ip):
        raise StructureError("inner_product must be a dim x dim matrix")
    for i in range(dim):
        for j in range(i, dim):
            if ip[i][j] != ip[j][i]:
                violations.append(("inner_product_symmetric", (i + 1, j + 1)))
            if alg.layer_of(i) != alg.layer_of(j) and ip[i][j] != 0:
                violations.append(("inner_product_layer_orthogonal", (i + 1, j + 1)))
    if not _positive_definite(ip):
        violations.append(("inner_product_positive_definite", ()))

    return ValidationReport(violations)


def _positive_definite(matrix):
    """Sylvester criterion: every leading principal minor is positive.

    Without row exchanges the k-th pivot is the ratio of the k-th and the
    (k-1)-th leading minors, so one elimination pass decides it: every
    pivot must be positive.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    for col in range(n):
        pivot = rows[col][col]
        if pivot <= 0:
            return False
        for r in range(col + 1, n):
            f = rows[r][col] / pivot
            if f:
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
    return True


def homogeneous_dimension(algebra):
    """sum_j j * d_j; the weight range of forms runs from 0 to this."""
    return sum(j * d for j, d in enumerate(algebra.layers, start=1))


class Dilation:
    """The grading automorphism scaling layer j by t^j."""

    def __init__(self, algebra, t):
        t = as_fraction(t)
        if t == 0:
            raise StructureError("dilation scale t must be nonzero")
        self.algebra = algebra
        self.t = t
        self._diag = tuple(
            t ** algebra.layer_of(i) for i in range(algebra.dim)
        )
        self._verify_automorphism()

    def _verify_automorphism(self):
        alg = self.algebra
        for (a, b), terms in alg.bracket.items():
            scale = self._diag[a] * self._diag[b]
            for k, c in terms.items():
                if scale * c != self._diag[k] * c:
                    raise StructureError(
                        f"dilation is not an automorphism at ({a + 1},{b + 1},{k + 1})"
                    )

    def diagonal(self):
        return self._diag

    def apply(self, vec):
        """Act on a vector given as {basis index: coefficient}."""
        return {i: self._diag[i] * v for i, v in vec.items() if v}

    def dual_scale(self, index):
        """Pullback action on the dual basis covector of `index`."""
        return self._diag[index]

    def compose(self, other):
        if other.algebra is not self.algebra:
            raise StructureError("dilations live on the same algebra")
        return Dilation(self.algebra, self.t * other.t)


def dilate(algebra, t):
    return Dilation(algebra, t)


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

# quaternion units 1, i, j, k: mult[(a, b)] = (sign, index)
_QUAT = {}
for _a in range(4):
    _QUAT[(0, _a)] = (1, _a)
    _QUAT[(_a, 0)] = (1, _a)
for _a in range(1, 4):
    _QUAT[(_a, _a)] = (-1, 0)
for _a, _b, _c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    _QUAT[(_a, _b)] = (1, _c)
    _QUAT[(_b, _a)] = (-1, _c)

# octonion units e0 = 1, e1..e7; oriented Fano triples of the 7-dim cross
# product, each imaginary pair lies on exactly one line
_FANO = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))
_OCT = {}
for _a in range(8):
    _OCT[(0, _a)] = (1, _a)
    _OCT[(_a, 0)] = (1, _a)
for _a in range(1, 8):
    _OCT[(_a, _a)] = (-1, 0)
for _t in _FANO:
    for _a, _b, _c in (_t, (_t[1], _t[2], _t[0]), (_t[2], _t[0], _t[1])):
        _OCT[(_a, _b)] = (1, _c)
        _OCT[(_b, _a)] = (-1, _c)


def _imaginary_bracket(table, a, b):
    """Im(u_a * conj(u_b)) for unit indices; {} or {m: sign} with m >= 1."""
    sign, idx = table[(a, b)]
    if b != 0:
        sign = -sign
    if idx == 0:
        return {}
    return {idx: Fraction(sign)}


def builtin(model, n=1):
    """Construct and validate one of the built-in models.

    abelian(n) has layers (n, 0); heisenberg(n) has layers (2(n-1), 1);
    quaternionic(n) has layers (4(n-1), 3); octonionic ignores n and has
    layers (8, 7).  All carry the standard orthonormal inner product.
    """
    if model not in BUILTIN_MODELS:
        raise StructureError(f"unknown builtin model {model!r}")
    n = int(n)
    bracket = {}
    if model == "abelian":
        if n < 1:
            raise StructureError("abelian model needs n >= 1")
        layers = (n, 0)
        name = f"abelian:{n}"
    elif model == "heisenberg":
        if n < 2:
            raise StructureError("heisenberg model needs n >= 2")
        p = 2 * (n - 1)
        layers = (p, 1)
        for i in range(n - 1):
            a, b = 2 * i, 2 * i + 1
            bracket[(a, b)] = {p: Fraction(1)}
            bracket[(b, a)] = {p: Fraction(-1)}
        name = f"heisenberg:{n}"
    elif model == "quaternionic":
        if n < 2:
            raise StructureError("quaternionic model needs n >= 2")
        p = 4 * (n - 1)
        layers = (p, 3)
        for coord in range(n - 1):
            for mu in range(4):
                for nu in range(4):
                    terms = _imaginary_bracket(_QUAT, mu, nu)
                    if terms:
                        a = 4 * coord + mu
                        b = 4 * coord + nu
                        bracket[(a, b)] = {
                            p + m - 1: c for m, c in terms.items()
                        }
        name = f"quaternionic:{n}"
    else:  # octonionic
        layers = (8, 7)
        p = 8
        for mu in range(8):
            for nu in range(8):
                terms = _imaginary_bracket(_OCT, mu, nu)
                if terms:
                    bracket[(mu, nu)] = {p + m - 1: c for m, c in terms.items()}
        name = "octonionic"

    alg = GradedNilpotentLieAlgebra(name, layers, bracket)
    report = validate(alg)
    if not report.passed:
        raise StructureError(f"builtin {name} failed validation: {report.violations}")
    return alg


# ---------------------------------------------------------------------------
# JSON definition files (1-based indices, "p/q" rationals)
# ---------------------------------------------------------------------------


def algebra_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise StructureError("algebra definition must be a JSON object")
    try:
        name = data["name"]
        layers = data["layers"]
    except KeyError as missing:
        raise StructureError(f"algebra definition missing field {missing}") from None
    if not isinstance(layers, list) or not layers or not all(
        isinstance(d, int) and d >= 0 for d in layers
    ):
        raise StructureError("layers must be a nonempty list of nonnegative ints")
    dim = sum(layers)
    if dim < 1:
        raise StructureError("algebra must have positive dimension")
    bracket = {}
    for item in data.get("brackets", []):
        try:
            a, b = int(item["a"]), int(item["b"])
            terms = list(item["terms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"malformed bracket entry {item!r}") from exc
        if not (1 <= a <= dim and 1 <= b <= dim):
            raise StructureError(f"bracket indices out of range: ({a},{b})")
        parsed = {}
        for term in terms:
            try:
                k = int(term["k"])
            except (KeyError, TypeError, ValueError) as exc:
                raise StructureError(f"malformed bracket term {term!r}") from exc
            if not (1 <= k <= dim):
                raise StructureError(f"bracket target index out of range: {k}")
            try:
                c = as_fraction(term["c"])
            except (TypeError, ValueError) as exc:
                raise StructureError(f"non-rational coefficient {term.get('c')!r}") from exc
            if c:
                parsed[k - 1] = parsed.get(k - 1, Fraction(0)) + c
        if parsed:
            key = (a - 1, b - 1)
            if key in bracket:
                raise StructureError(f"duplicate bracket entry for ({a},{b})")
            bracket[key] = parsed
    inner = data.get("inner_product")
    if inner is not None:
        if (
            not isinstance(inner, list)
            or len(inner) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in inner)
        ):
            raise StructureError("inner_product must be a dim x dim matrix")
        try:
            inner = [[as_fraction(v) for v in row] for row in inner]
        except (TypeError, ValueError) as exc:
            raise StructureError("non-rational inner_product entry") from exc
    return GradedNilpotentLieAlgebra(name, layers, bracket, inner)


def algebra_to_json(algebra):
    brackets = []
    for (a, b) in sorted(algebra.bracket):
        terms = algebra.bracket[(a, b)]
        brackets.append(
            {
                "a": a + 1,
                "b": b + 1,
                "terms": [
                    {"k": k + 1, "c": fraction_to_str(c)} for k, c in sorted(terms.items())
                ],
            }
        )
    data = {
        "name": algebra.name,
        "layers": list(algebra.layers),
        "brackets": brackets,
    }
    if not algebra.inner_product_is_standard():
        data["inner_product"] = [
            [fraction_to_str(v) for v in row] for row in algebra.inner_product
        ]
    return data
