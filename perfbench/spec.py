"""What the end-to-end benchmark runs and what it reports.

Each workload is a list of `ruminbgg` CLI invocations, run one child
process at a time from a single parent (a closed loop with one client).
Setup commands prepare a workload's inputs; their outputs are checked
like every other command's. Paths are relative to the checkout root,
which is also the children's working directory, so `rumin build` echoes
the same `package_written` path on every run.

`PER_LAYER` is the traced run's metric list, grouped by layer, with the
end-to-end metric and workload each group is expected to move. A later
change names its predicted movers (and its "should not move" workloads)
from this map.
"""

OUT_DIR = ".perfbench_out"

# Children run with these unset, so a caller's shell cannot pick the kernel
# or shrink a budget, and with a fixed hash seed.
UNSET_ENV = ("RUMINBGG_KERNEL", "RUMINBGG_BUDGET_SECONDS", "RUMINBGG_MAX_MONOMIALS")
PYTHONHASHSEED = "0"

_VERIFY_P0 = f"{OUT_DIR}/rumin-verify/quaternionic-3-P0.json"
_VERIFY_P2 = f"{OUT_DIR}/rumin-verify/quaternionic-2-P2.json"

# "{seed}" is replaced by a per-run value drawn from the benchmark seed.
# A command's "--out" target, if any, is the argument after "--out".
WORKLOADS = {
    "tables": {
        "why": (
            "three 15-dim models with layer splits (8,7), (12,3), (14,1) vary the "
            "block sizes fed to the rank kernel; the calculus pair is the only "
            "real load on groupcalc; never touches rumin"
        ),
        "setup": [],
        "setup_reps": 5,
        "commands": [
            "strips octonionic --format csv",
            "bgg quaternionic:4 --format csv",
            "cohomology heisenberg:8",
            "calculus verify quaternionic:2 --max-poly-degree 1 --seed {seed}",
            "calculus verify heisenberg:3 --max-poly-degree 3 --seed {seed}",
        ],
    },
    "rumin-build": {
        "why": (
            "the headline case: Fraction work in linalg inside rumin (apply, "
            "ColumnEliminator, E_basis, the Neumann series) plus a 21.5 MB "
            "package written to a fixed path"
        ),
        "setup": [],
        "setup_reps": 5,
        "commands": [
            f"rumin build quaternionic:2 --out {OUT_DIR}/rumin-build/quaternionic-2.json",
        ],
    },
    "rumin-verify": {
        "why": (
            "the same rumin/linalg layers used differently: parse and decode a "
            "stored package, then the identity suite with no Neumann series; "
            "P=0 stresses fiber Hodge blocks, P=2 compose"
        ),
        "setup": [
            f"rumin build quaternionic:3 --max-poly-degree 0 --out {_VERIFY_P0}",
            f"rumin build quaternionic:2 --max-poly-degree 2 --out {_VERIFY_P2}",
        ],
        "setup_reps": 3,
        "commands": [
            f"rumin verify {_VERIFY_P0}",
            f"rumin verify {_VERIFY_P2}",
        ],
    },
}


def _s(*names):
    return [(f"{n}.s", "s") for n in names]


def _count(*names):
    return [(n, "count") for n in names]


# (layer, [(metric, unit)], moves: [(end-to-end metric, workload)], note)
PER_LAYER = [
    (
        "kernel",
        _s("kernel.rank_sparse")
        + _count(
            "kernel.rank_sparse.calls",
            "kernel.rank_sparse.rows",
            "kernel.rank_sparse.nnz",
            "kernel.rank_sparse.rank",
        ),
        [("wall_s", "tables")],
        "about 60% of strips octonionic; small on rumin-build (pi.rank() ~1.2 s)",
    ),
    (
        "linalg",
        _s("linalg.rank_of_columns", "linalg.ColumnEliminator")
        + _count("linalg.ColumnEliminator.calls", "linalg.ColumnEliminator.cols",
                 "linalg.ColumnEliminator.nnz")
        + _s("linalg.ColumnEliminator.solve")
        + _count("linalg.ColumnEliminator.solve.calls")
        + _s("linalg.SparseMatrix.apply")
        + _count("linalg.SparseMatrix.apply.calls")
        + _s("linalg.SparseMatrix.compose"),
        [("wall_s", "rumin-build"), ("cpu_s", "rumin-build"),
         ("wall_s", "rumin-verify"), ("cpu_s", "rumin-verify")],
        "about 0 on tables",
    ),
    (
        "fiber",
        _s("fiber.mons")
        + _count("fiber.monomials")
        + _s("fiber.d0_block")
        + _count("fiber.d0_block.nnz")
        + _s("fiber.rank_d0_block", "fiber.harmonic_basis", "fiber.imdelta_solver",
             "fiber.kerdelta_solver", "fiber.delta_map"),
        [("wall_s", "tables"), ("wall_s", "rumin-verify")],
        "d0_block is ~0.9 s of each octonionic command; the Hodge solvers move "
        "rumin-verify (P=0)",
    ),
    (
        "groupcalc",
        _s("groupcalc.d", "groupcalc.d_term")
        + _count("groupcalc.d_term.calls")
        + _s("groupcalc.lie_derivative", "groupcalc.lie_derivative_direct",
             "groupcalc.parametrix_identity_check"),
        [("wall_s", "tables")],
        "the calculus commands are ~45% of tables; about 1% of rumin-build",
    ),
    (
        "rumin",
        _s("rumin.keys", "rumin.d_mat", "rumin.delta_mat", "rumin.lap_mat",
           "rumin.l0_mat", "rumin.q_mat", "rumin.pi_mat", "rumin.D_mat",
           "rumin.E_basis", "rumin.lift", "rumin.verify", "rumin.inverse_apply")
        + _count("rumin.inverse_apply.calls", "rumin.neumann_terms")
        + _s("rumin.project")
        + _count("rumin.project.calls")
        + _s("rumin.iota_inv_mat")
        + _count("rumin.iota_inv_mat.calls", "rumin.iota_inv_mat.rebuilds",
                 "rumin.V_dim"),
        [("wall_s", "rumin-build"), ("wall_s", "rumin-verify")],
        "inverse_apply moves only rumin-build; E_basis and iota_inv_mat move "
        "both rumin workloads; nothing here runs on tables",
    ),
    (
        "serialization",
        _s("rumin.to_json", "rumin.from_json", "cli.to_json_text", "cli.load_package"),
        [("wall_s", "rumin-build"), ("peak_rss_mb", "rumin-build"),
         ("wall_s", "rumin-verify")],
        "cli.load_package is the json.load of the package in rumin verify",
    ),
    (
        "tables",
        _s("tables.strip_table"),
        [("wall_s", "tables")],
        "tables only",
    ),
    (
        "cli",
        _s("cli.main"),
        [("wall_s", "tables")],
        "time inside cli.main that no traced layer covers (argument parsing, "
        "algebra loading, writing the artifact); interpreter start-up and "
        "imports are outside it",
    ),
    (
        "trace",
        [("trace.overhead_s", "s")],
        [],
        "traced wall minus untraced wall for the same commands",
    ),
]

# Counts that the seeded inputs feed: the d^2 sweep in `calculus verify`
# draws its forms and form degrees from --seed, so these repeat exactly
# for a fixed seed but not across seeds.
SEED_DEPENDENT_COUNTS = ("groupcalc.d_term.calls", "fiber.monomials")


def per_layer_metrics():
    """[(name, unit)] in report order."""
    return [m for _, metrics, _, _ in PER_LAYER for m in metrics]


def count_metrics():
    return [name for name, unit in per_layer_metrics() if unit == "count"]
