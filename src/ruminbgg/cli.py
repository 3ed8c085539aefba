"""Command-line front end.

Artifacts are emitted on stdout (or --out) as JSON or CSV with fully
deterministic bytes: dict keys sorted, fixed column orders, exact "p/q"
rationals.  Exit codes: 0 success, 1 identity or axiom failure (with a
JSON witness), 2 input error, 3 resource budget exhausted (partial
report carries a "budget" marker).
"""

import argparse
import csv
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .algebra import (
    BUILTIN_MODELS,
    algebra_from_json,
    algebra_to_json,
    builtin,
    validate,
)
from .budget import Budget
from .errors import BudgetExceededError, IdentityError, StructureError
from .fiber import bgg_fiber, cohomology_ranks
from .groupcalc import GroupContext, PolyForm, parametrix_identity_check
from .rumin import RuminPackage
from .scalars import fraction_to_str
from .tables import quasiconformal_check, strip_table, truncation_ranks


class RunConfig:
    """Validated run parameters shared by every subcommand."""

    def __init__(self, max_poly_degree=None, fmt="json", budget_seconds=None,
                 max_monomials=None, seed=0, out=None):
        if max_poly_degree is not None and max_poly_degree < 0:
            raise StructureError("max polynomial degree must be >= 0")
        if fmt not in ("json", "csv"):
            raise StructureError(f"unknown output format {fmt!r}")
        self.max_poly_degree = max_poly_degree
        self.fmt = fmt
        self.budget = Budget(budget_seconds, max_monomials)
        self.seed = seed
        self.out = out


def load_algebra(source, require_valid=True):
    """Resolve 'model:n', a bare builtin name, or a JSON definition path."""
    if ":" in source:
        model, _, num = source.partition(":")
        if model in BUILTIN_MODELS:
            try:
                n = int(num)
            except ValueError:
                raise StructureError(f"bad rank parameter in {source!r}") from None
            return builtin(model, n)
    if source in BUILTIN_MODELS:
        if source in ("heisenberg", "quaternionic"):
            raise StructureError(f"{source} needs a rank, e.g. {source}:2")
        return builtin(source, 1)
    if not os.path.exists(source):
        raise StructureError(f"no such builtin or file: {source}")
    alg = algebra_from_json(read_json(source))
    if require_valid:
        report = validate(alg)
        if not report.passed:
            raise StructureError(
                f"algebra in {source} violates axioms: {report.violations[:3]}"
            )
    return alg


def read_json(path):
    """Parse a JSON file; invalid JSON is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructureError(f"invalid JSON in {path}: {exc}") from exc


def emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_replacing(path, write):
    """Stream write(fh) into a temporary file beside path, then move it onto path.

    A failed or interrupted write removes the temporary file and leaves
    path as it was, so a reader never sees a truncated file.
    """
    # mkstemp creates the file 0600; give it the mode open(path, "w") would
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def to_json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def to_csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand handlers: return (exit_code, text artifact)
# ---------------------------------------------------------------------------


def cmd_algebra_validate(args, config):
    report = validate(algebra_from_json(read_json(args.file)))
    text = to_json_text(report.to_json())
    return (0 if report.passed else 1), text


def cmd_algebra_show(args, config):
    alg = load_algebra(args.algebra)
    return 0, to_json_text(algebra_to_json(alg))


def cmd_cohomology(args, config):
    alg = load_algebra(args.algebra)
    betti = cohomology_ranks(alg, budget=config.budget)
    if config.fmt == "csv":
        rows = [("degree", "rank")] + [(k, b) for k, b in enumerate(betti)]
        return 0, to_csv_text(rows)
    payload = {
        "algebra": alg.name,
        "betti": betti,
        "euler_characteristic": sum((-1) ** k * b for k, b in enumerate(betti)),
    }
    return 0, to_json_text(payload)


def cmd_bgg(args, config):
    alg = load_algebra(args.algebra)
    table = bgg_fiber(alg, budget=config.budget)
    if config.fmt == "csv":
        rows = [("degree", "weight", "rank")] + [tuple(r) for r in table.rows]
        return 0, to_csv_text(rows)
    return 0, to_json_text({"algebra": alg.name, "rows": table.to_json()})


def cmd_calculus_verify(args, config):
    alg = load_algebra(args.algebra)
    P = config.max_poly_degree if config.max_poly_degree is not None else 3
    report = parametrix_identity_check(alg, P, budget=config.budget)
    report.append(_random_d_squared_row(alg, P, config.seed))
    ok = all(r["status"] == "ok" for r in report)
    payload = {"algebra": alg.name, "max_poly_degree": P, "report": report}
    if config.fmt == "csv":
        rows = [("identity", "status", "counterexample")] + [
            (r["identity"], r["status"], r.get("counterexample", "")) for r in report
        ]
        return (0 if ok else 1), to_csv_text(rows)
    return (0 if ok else 1), to_json_text(payload)


def _random_d_squared_row(alg, P, seed):
    """Seeded random-sparse-form sweep of d^2 = 0 beyond the spanning set."""
    rng = random.Random(seed)
    ctx = GroupContext(alg)
    polys = ctx.poly_basis(P)
    for trial in range(20):
        k = rng.randrange(alg.dim + 1)
        monos = ctx.fiber.mons(k)
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            key = (polys[rng.randrange(len(polys))], monos[rng.randrange(len(monos))])
            terms[key] = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 7))
        form = PolyForm(alg, terms)
        if not ctx.d(ctx.d(form)).is_zero():
            return {
                "identity": "d_squared_random",
                "status": "fail",
                "counterexample": f"seed {seed} trial {trial}",
            }
    return {"identity": "d_squared_random", "status": "ok"}


def cmd_rumin_build(args, config):
    """--out names the serialized package here; the report goes to stdout."""
    alg = load_algebra(args.algebra)
    pkg = RuminPackage(alg, config.max_poly_degree, budget=config.budget).build()
    report = pkg.verify()
    ok = all(r["status"] == "ok" for r in report)
    if config.out:
        write_replacing(config.out, pkg.write_json)
    payload = {
        "algebra": alg.name,
        "max_poly_degree": pkg.P,
        "neumann_terms": pkg.neumann_terms,
        "report": report,
        "arrows": pkg.arrows(),
        "package_written": config.out or None,
    }
    config.out = None
    return (0 if ok else 1), to_json_text(payload)


def cmd_rumin_verify(args, config):
    pkg = RuminPackage.from_json(read_json(args.package), budget=config.budget)
    report = pkg.verify()
    ok = all(r["status"] == "ok" for r in report)
    payload = {
        "algebra": pkg.algebra.name,
        "max_poly_degree": pkg.P,
        "report": report,
    }
    return (0 if ok else 1), to_json_text(payload)


def cmd_strips(args, config):
    alg = load_algebra(args.algebra)
    table = strip_table(alg, budget=config.budget)
    if config.fmt == "csv":
        return 0, to_csv_text(table.csv_rows())
    return 0, to_json_text(table.to_json())


def cmd_truncate(args, config):
    alg = load_algebra(args.algebra)
    result = truncation_ranks(
        alg, budget=config.budget, max_poly_degree=config.max_poly_degree
    )
    if config.fmt == "csv":
        table = bgg_fiber(alg, budget=config.budget)
        mid = (alg.dim - 1) // 2
        rows = [("degree", "weight", "rank")]
        rows += [tuple(r) for r in table.rows if r[0] <= mid]
        rows += [
            (result["middle_degree"], b["weight"], b["rank"])
            for b in result["middle_blocks"]
        ]
        return 0, to_csv_text(rows)
    return 0, to_json_text(result)


def cmd_qc_check(args, config):
    data = read_json(args.matrix)
    if not isinstance(data, dict) or "matrix" not in data or "algebra" not in data:
        raise StructureError("qc-check file needs {algebra, matrix}")
    source = data["algebra"]
    alg = load_algebra(source) if isinstance(source, str) else _validated(source)
    decision = quasiconformal_check(alg, data["matrix"])
    payload = {"algebra": alg.name, "accepted": decision["accepted"]}
    if decision["accepted"]:
        payload["t"] = fraction_to_str(decision["t"])
        payload["Y"] = [fraction_to_str(v) for v in decision["Y"]]
    else:
        payload["obstruction"] = decision["obstruction"]
    if config.fmt == "csv":
        rows = [("field", "value")] + sorted(
            (k, v if not isinstance(v, list) else " ".join(v))
            for k, v in payload.items()
        )
        return 0, to_csv_text(rows)
    return 0, to_json_text(payload)


def _validated(data):
    alg = algebra_from_json(data)
    report = validate(alg)
    if not report.passed:
        raise StructureError(f"algebra violates axioms: {report.violations[:3]}")
    return alg


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser, suppress):
    """Run options, accepted both before and after the subcommand."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--format", choices=("json", "csv"), default=default("json")
    )
    parser.add_argument(
        "--out",
        default=default(None),
        help="write the artifact to this path instead of stdout",
    )
    parser.add_argument(
        "--seed", type=int, default=default(0), help="seed for property sweeps"
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=default(None),
        help="wall-clock budget in seconds (or RUMINBGG_BUDGET_SECONDS)",
    )
    parser.add_argument(
        "--max-monomials",
        type=int,
        default=default(None),
        help="cap on enumerated monomials (or RUMINBGG_MAX_MONOMIALS)",
    )
    parser.add_argument(
        "--max-poly-degree",
        type=int,
        default=default(None),
        help="polynomial coefficient degree P",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ruminbgg",
        description="Exact bigraded complexes on graded nilpotent Lie algebras",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="validate or show algebra definitions")
    alg_sub = p_alg.add_subparsers(dest="algebra_command", required=True)
    p_val = alg_sub.add_parser(
        "validate", parents=[common], help="check the axioms of a definition file"
    )
    p_val.add_argument("file")
    p_val.set_defaults(handler=cmd_algebra_validate)
    p_show = alg_sub.add_parser(
        "show", parents=[common], help="emit a builtin as a definition file"
    )
    p_show.add_argument("algebra")
    p_show.set_defaults(handler=cmd_algebra_show)

    p = sub.add_parser("cohomology", parents=[common], help="Betti numbers of the fiber complex")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("bgg", parents=[common], help="bigraded ranks of ker delta / im delta")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_bgg)

    p_calc = sub.add_parser("calculus", help="flat-model calculus checks")
    calc_sub = p_calc.add_subparsers(dest="calculus_command", required=True)
    p = calc_sub.add_parser(
        "verify", parents=[common], help="Cartan and parametrix identity report"
    )
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_calculus_verify)

    p_rumin = sub.add_parser("rumin", help="build or re-verify the homotopy package")
    rumin_sub = p_rumin.add_subparsers(dest="rumin_command", required=True)
    p = rumin_sub.add_parser(
        "build", parents=[common], help="construct q, pi, D and verify identities"
    )
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_rumin_build)
    p = rumin_sub.add_parser(
        "verify", parents=[common], help="re-run the identity suite on a package"
    )
    p.add_argument("package")
    p.set_defaults(handler=cmd_rumin_verify)

    p = sub.add_parser(
        "strips", parents=[common], help="uniform-boundedness strip bounds per component"
    )
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_strips)

    p = sub.add_parser("truncate", parents=[common], help="half-complex rank bookkeeping")
    p.add_argument("algebra")
    p.set_defaults(handler=cmd_truncate)

    p = sub.add_parser(
        "qc-check", parents=[common], help="decide quasi-conformality of a filtered map"
    )
    p.add_argument("matrix")
    p.set_defaults(handler=cmd_qc_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            max_poly_degree=args.max_poly_degree,
            fmt=args.format,
            budget_seconds=args.budget_seconds,
            max_monomials=args.max_monomials,
            seed=args.seed,
            out=args.out,
        )
        code, text = args.handler(args, config)
    except BudgetExceededError as exc:
        payload = {"budget": {"exceeded": True, "reason": str(exc)}}
        if exc.partial is not None:
            payload["partial"] = exc.partial
        emit(to_json_text(payload), None)
        return 3
    except StructureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except IdentityError as exc:
        emit(
            to_json_text(
                {
                    "identity_failure": {
                        "identity": exc.identity,
                        "witness": str(exc.witness),
                        "detail": exc.detail,
                    }
                }
            ),
            None,
        )
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    emit(text, config.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
