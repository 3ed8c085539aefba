"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
assertion is exact (no tolerances) except the stated wall-clock budgets.
"""

import functools
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ruminbgg.algebra import builtin
from ruminbgg.fiber import FiberContext, FiberForm, bgg_fiber, cohomology_ranks, fiber_inner
from ruminbgg.groupcalc import parametrix_identity_check
from ruminbgg.rumin import RuminPackage
from ruminbgg.tables import (
    dilation_matrix,
    quasiconformal_check,
    quasiconformal_matrix,
    strip_table,
)

from conftest import CLI_ENV, SUITE_ROWS, dense_rank, random_fraction


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {description}")

        return run

    return wrap


@pytest.fixture(scope="module")
def packages():
    """Shared homotopy packages for criteria 3 and 4, with build timing."""
    out = {}
    t0 = time.monotonic()
    for model, n, P in (("heisenberg", 2, 3), ("heisenberg", 3, 3), ("quaternionic", 2, 1)):
        alg = builtin(model, n)
        out[(model, n)] = RuminPackage(alg, P).build()
    out["build_seconds"] = time.monotonic() - t0
    return out


@criterion(1, "heisenberg(2) cohomology and bigraded table, exact, < 1 s")
def test_criterion_1_heisenberg2_tables():
    h2 = builtin("heisenberg", 2)
    t0 = time.monotonic()
    betti = cohomology_ranks(h2)
    table = bgg_fiber(h2).by_degree()
    elapsed = time.monotonic() - t0
    assert betti == [1, 2, 2, 1]
    assert table == {0: [(0, 1)], 1: [(1, 2)], 2: [(3, 2)], 3: [(4, 1)]}
    assert elapsed < 1.0, f"took {elapsed:.3f}s"

    # independent oracle: dense rational ranks of the d0/delta matrices
    ctx = FiberContext(h2)
    ranks = []
    for k in range(h2.dim + 1):
        src = ctx.mons(k)
        dst = {m: i for i, m in enumerate(ctx.mons(k + 1))}
        dense = [[Fraction(0)] * len(src) for _ in range(len(dst))]
        for j, m in enumerate(src):
            for out, c in ctx.d0_of_monomial(m).items():
                dense[dst[out]][j] = c
        ranks.append(dense_rank(dense))
    oracle_betti = [
        len(ctx.mons(k)) - ranks[k] - (ranks[k - 1] if k else 0)
        for k in range(h2.dim + 1)
    ]
    assert oracle_betti == betti
    # blockwise oracle for the bigraded ranks
    for k, rows in table.items():
        for w, r in rows:
            src = ctx.block(k, w)
            up = {m: i for i, m in enumerate(ctx.block(k + 1, w))}
            dense_up = [[Fraction(0)] * len(src) for _ in range(len(up))]
            for j, m in enumerate(src):
                for out, c in ctx.d0_of_monomial(m).items():
                    dense_up[up[out]][j] = c
            down_rank = 0
            if k > 0:
                lower = ctx.block(k - 1, w)
                idx = {m: i for i, m in enumerate(src)}
                dense_down = [[Fraction(0)] * len(lower) for _ in range(len(src))]
                for j, m in enumerate(lower):
                    for out, c in ctx.d0_of_monomial(m).items():
                        dense_down[idx[out]][j] = c
                down_rank = dense_rank(dense_down)
            assert r == len(src) - dense_rank(dense_up) - down_rank


@criterion(2, "d0^2 = delta^2 = 0, adjointness, Euler = 0 on all built-ins incl. octonionic")
def test_criterion_2_fiber_identities_all_builtins():
    models = [builtin("abelian", n) for n in (2, 3, 4)]
    models += [builtin("heisenberg", n) for n in (2, 3, 4)]
    models += [builtin("quaternionic", n) for n in (2, 3)]
    models.append(builtin("octonionic"))
    rng = random.Random(2)
    t_oct = None
    for alg in models:
        t0 = time.monotonic()
        ctx = FiberContext(alg)
        d0 = ctx.d0_map()
        delta = ctx.delta_map()
        for table in (d0, delta):
            for src, img in table.items():
                acc = {}
                for mid, c in img.items():
                    for dst, v in table.get(mid, {}).items():
                        acc[dst] = acc.get(dst, Fraction(0)) + c * v
                assert all(v == 0 for v in acc.values()), (alg.name, src)
        for _ in range(100):
            k = rng.randrange(alg.dim)
            alpha = _random_fiber(rng, alg, ctx, k)
            beta = _random_fiber(rng, alg, ctx, k + 1)
            da = FiberForm(alg, _apply_map(d0, alpha.terms))
            db = FiberForm(alg, _apply_map(delta, beta.terms))
            assert fiber_inner(ctx, da, beta) == fiber_inner(ctx, alpha, db)
        betti = cohomology_ranks(alg, context=ctx)
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0, alg.name
        if alg.name == "octonionic":
            t_oct = time.monotonic() - t0
    assert t_oct is not None and t_oct < 600.0, f"octonionic took {t_oct:.1f}s"


def _random_fiber(rng, alg, ctx, k, nterms=4):
    monos = ctx.mons(k)
    return FiberForm(
        alg,
        {monos[rng.randrange(len(monos))]: random_fraction(rng) for _ in range(nterms)},
    )


def _apply_map(table, terms):
    out = {}
    for mono, c in terms.items():
        for dst, v in table.get(mono, {}).items():
            out[dst] = out.get(dst, Fraction(0)) + c * v
    return out


@criterion(3, "full homotopy identity suite exact on h2/h3 (P=3), quaternionic(2) (P=1), < 5 min")
def test_criterion_3_identity_suite(packages):
    t0 = time.monotonic()
    for key in (("heisenberg", 2), ("heisenberg", 3), ("quaternionic", 2)):
        pkg = packages[key]
        report = pkg.verify()
        by_name = {r["identity"]: r["status"] for r in report}
        assert [r["identity"] for r in report] == SUITE_ROWS
        failures = {n: s for n, s in by_name.items() if s != "ok"}
        assert not failures, failures
    elapsed = packages["build_seconds"] + (time.monotonic() - t0)
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@criterion(4, "homotopy identity: id = dq + qd exactly on im pi for the same models")
def test_criterion_4_homotopy_identity(packages):
    for key in (("heisenberg", 2), ("heisenberg", 3), ("quaternionic", 2)):
        pkg = packages[key]
        dim = pkg.algebra.dim
        for k in range(dim + 1):
            pi = pkg.pi_mat(k)
            for j in sorted(pi.cols):
                col = pi.column(j)
                back = {}
                if k > 0:
                    back = pkg.d_mat(k - 1).apply(pkg.q_mat(k).apply(col))
                if k < dim:
                    for i, v in pkg.q_mat(k + 1).apply(pkg.d_mat(k).apply(col)).items():
                        back[i] = back.get(i, Fraction(0)) + v
                back = {i: v for i, v in back.items() if v}
                assert back == col, (pkg.algebra.name, k, j)


@criterion(5, "Cartan and parametrix identities exact: h2 (P=3), quaternionic(2) (P=1)")
def test_criterion_5_cartan_parametrix():
    for model, n, P in (("heisenberg", 2, 3), ("quaternionic", 2, 1)):
        alg = builtin(model, n)
        report = parametrix_identity_check(alg, P)
        failures = [r for r in report if r["status"] != "ok"]
        assert not failures, (alg.name, failures)
        names = {r["identity"] for r in report}
        assert "parametrix" in names
        assert any(name.startswith("cartan[X") for name in names)


@criterion(6, "middle arrow on heisenberg(2) is second order; abelian degenerates to de Rham")
def test_criterion_6_weight_jumps(packages):
    arrows = packages[("heisenberg", 2)].arrows()
    middle = [a for a in arrows if a["degree"] == 1]
    assert middle == [
        {"degree": 1, "source_weight": 1, "target_weight": 3, "order": 2}
    ]
    for n in (2, 3):
        alg = builtin("abelian", n)
        pkg = RuminPackage(alg, 2).build()
        for a in pkg.arrows():
            assert a["order"] == 1
            assert a["target_weight"] - a["source_weight"] == 1


@criterion(7, "strip tables: symmetric bounds, 1 exactly at the ends, h2 = (1,2,2,1)")
def test_criterion_7_strip_tables():
    h2 = builtin("heisenberg", 2)
    table = strip_table(h2)
    assert [row[3] for row in table.rows] == [Fraction(1), Fraction(2), Fraction(2), Fraction(1)]
    exceptional = [(row[0], row[1]) for row in table.rows if row[4]]
    assert exceptional == [(0, 0), (3, 4)]
    for alg in (h2, builtin("quaternionic", 2), builtin("heisenberg", 3)):
        t = strip_table(alg)
        by_weight = {}
        for _, w, r, bound, exc in t.rows:
            by_weight.setdefault(w, bound)
            assert exc == (w in (0, t.nu))
            if bound is not None:
                assert (bound == 1) == (w in (0, t.nu))
                assert bound >= 1
        for w, bound in by_weight.items():
            mirror = by_weight.get(t.nu - w)
            if mirror is not None:
                assert bound == mirror


@criterion(8, "quasi-conformality decisions with recovered witnesses, 100 seeded instances")
def test_criterion_8_quasiconformal():
    h2 = builtin("heisenberg", 2)
    rng = random.Random(77)
    for trial in range(100):
        t = abs(random_fraction(rng)) + Fraction(1, 9)
        y = [random_fraction(rng), random_fraction(rng)]
        pure = quasiconformal_check(h2, dilation_matrix(h2, t))
        assert pure["accepted"] and pure["t"] == t and pure["Y"] == [0, 0]
        mixed = quasiconformal_check(h2, quasiconformal_matrix(h2, t, y))
        assert mixed["accepted"] and mixed["t"] == t and mixed["Y"] == y
        bad = dilation_matrix(h2, t)
        bad[rng.randrange(2)][2] = Fraction(1, trial + 1)
        rejected = quasiconformal_check(h2, bad)
        assert not rejected["accepted"]
        assert rejected["obstruction"] == "layer-2 to layer-1 block nonzero"


@criterion(9, "CLI determinism: fixed seed gives byte-identical artifacts")
def test_criterion_9_cli_determinism(tmp_path):
    cmd = [sys.executable, "-m", "ruminbgg.cli"]
    fixtures = [
        ["bgg", "heisenberg:2", "--format", "csv", "--seed", "5"],
        ["strips", "quaternionic:2", "--seed", "5"],
        ["calculus", "verify", "heisenberg:2", "--max-poly-degree", "1", "--seed", "5"],
        ["rumin", "build", "heisenberg:2", "--max-poly-degree", "1", "--seed", "5"],
    ]
    for args in fixtures:
        runs = []
        for _ in range(2):
            proc = subprocess.run(cmd + args, capture_output=True, env=CLI_ENV)
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        assert runs[0] == runs[1], args
