import copy
import errno
import json
import os
import stat
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from ruminbgg.algebra import builtin
from ruminbgg.budget import Budget
from ruminbgg.cli import main
from ruminbgg.errors import BudgetExceededError
from ruminbgg.rumin import RuminPackage

from conftest import CLI_ENV, SUITE_ROWS

GOOD_ALGEBRA = {
    "name": "h3file",
    "layers": [2, 1],
    "brackets": [
        {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
        {"a": 2, "b": 1, "terms": [{"k": 3, "c": "-1"}]},
    ],
}

BROKEN_ALGEBRA = {
    "name": "broken",
    "layers": [2, 1],
    "brackets": [
        {"a": 1, "b": 2, "terms": [{"k": 3, "c": "1"}]},
        {"a": 2, "b": 1, "terms": [{"k": 3, "c": "1"}]},
    ],
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bgg_csv_matches_fiber_example(capsys):
    code, out = run_cli(["bgg", "heisenberg:2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "degree,weight,rank",
        "0,0,1",
        "1,1,2",
        "2,3,2",
        "3,4,1",
    ]


def test_strips_heisenberg_json(capsys):
    code, out = run_cli(["strips", "heisenberg:2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["bound"] for row in payload["rows"]] == ["1", "2", "2", "1"]
    exceptional = [row["degree"] for row in payload["rows"] if row["exceptional"]]
    assert exceptional == [0, 3]


def test_validate_broken_exit1_with_witness(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(BROKEN_ALGEBRA))
    code, out = run_cli(["algebra", "validate", str(f)], capsys)
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"]
    assert {"axiom": "antisymmetry", "witness": [1, 2, 3]} in payload["violations"]


def test_validate_good_exit0(tmp_path, capsys):
    f = tmp_path / "good.json"
    f.write_text(json.dumps(GOOD_ALGEBRA))
    code, out = run_cli(["algebra", "validate", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["passed"]


def test_input_errors_exit2(tmp_path, capsys):
    assert main(["cohomology", "nonexistent:?"]) == 2
    capsys.readouterr()
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["algebra", "validate", str(f)]) == 2
    capsys.readouterr()
    assert main(["cohomology", "heisenberg"]) == 2  # missing rank
    capsys.readouterr()


def test_algebra_show_round_trips(capsys):
    code, out = run_cli(["algebra", "show", "quaternionic:2"], capsys)
    assert code == 0
    from ruminbgg.algebra import algebra_from_json, builtin

    alg = algebra_from_json(json.loads(out))
    assert alg.bracket == builtin("quaternionic", 2).bracket


def test_cohomology_json_euler(capsys):
    code, out = run_cli(["cohomology", "heisenberg:3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["betti"] == [1, 4, 5, 5, 4, 1]
    assert payload["euler_characteristic"] == 0


def test_emitted_tables_reparse_exactly(capsys):
    # round-trip: every rank in the CSV equals the library's exact value
    from ruminbgg.algebra import builtin
    from ruminbgg.fiber import bgg_fiber

    code, out = run_cli(["bgg", "quaternionic:2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    parsed = [tuple(int(x) for x in line.split(",")) for line in lines]
    assert parsed == [tuple(r) for r in bgg_fiber(builtin("quaternionic", 2)).rows]


def test_calculus_verify_exit0(capsys):
    code, out = run_cli(
        ["calculus", "verify", "heisenberg:2", "--max-poly-degree", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert all(r["status"] == "ok" for r in payload["report"])
    names = {r["identity"] for r in payload["report"]}
    assert "parametrix" in names and "d_squared_random" in names


def test_rumin_build_verify_round_trip(tmp_path, capsys):
    pkg_path = tmp_path / "pkg.json"
    code, out = run_cli(
        ["rumin", "build", "heisenberg:2", "--max-poly-degree", "2", "--out", str(pkg_path)],
        capsys,
    )
    assert code == 0
    build_payload = json.loads(out)
    assert build_payload["package_written"] == str(pkg_path)
    assert all(r["status"] == "ok" for r in build_payload["report"])
    assert [r["identity"] for r in build_payload["report"]] == SUITE_ROWS
    # written through a temporary file, with the mode a plain open() gives
    assert [p.name for p in tmp_path.iterdir()] == ["pkg.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(pkg_path.stat().st_mode) == 0o666 & ~umask
    code, out = run_cli(["rumin", "verify", str(pkg_path)], capsys)
    assert code == 0
    verify_payload = json.loads(out)
    assert all(r["status"] == "ok" for r in verify_payload["report"])
    assert [r["identity"] for r in verify_payload["report"]] == SUITE_ROWS


@pytest.mark.parametrize("failure", ["budget", "disk_full"])
def test_failed_package_write_keeps_the_old_file(failure, tmp_path, monkeypatch, capsys):
    dest = tmp_path / "pkg.json"
    dest.write_text("old bytes")
    write_json = RuminPackage.write_json

    def exhausted(budget):
        raise BudgetExceededError("wall-clock budget exhausted")

    def failing_write_json(pkg, fh):
        if failure == "budget":
            # only the writer's own checkpoints can trip
            monkeypatch.setattr(Budget, "check", exhausted)
            write_json(pkg, fh)
            return
        chunks = []

        def write(text):
            if len(chunks) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            chunks.append(text)
            fh.write(text)

        write_json(pkg, SimpleNamespace(write=write))

    monkeypatch.setattr(RuminPackage, "write_json", failing_write_json)
    code = main(["rumin", "build", "heisenberg:2", "--max-poly-degree", "1", "--out", str(dest)])
    captured = capsys.readouterr()
    if failure == "budget":
        assert code == 3
        assert json.loads(captured.out)["budget"]["exceeded"]
    else:
        assert code == 2
        assert captured.err.startswith("error: ") and captured.out == ""
    assert dest.read_text() == "old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["pkg.json"]


def test_rumin_verify_catches_tampering(tmp_path, capsys):
    pkg_path = tmp_path / "pkg.json"
    code, _ = run_cli(
        ["rumin", "build", "heisenberg:2", "--max-poly-degree", "1", "--out", str(pkg_path)],
        capsys,
    )
    assert code == 0
    blob = json.loads(pkg_path.read_text())
    entries = blob["operators"]["q"]["2"]["entries"]
    assert entries
    entries[0][2] = "17/3"  # corrupt one stored coefficient of q
    pkg_path.write_text(json.dumps(blob))
    code, out = run_cli(["rumin", "verify", str(pkg_path)], capsys)
    assert code == 1
    payload = json.loads(out)
    assert any(r["status"] == "fail" for r in payload["report"])


def test_rumin_verify_rejects_malformed_package(tmp_path, capsys):
    pkg_path = tmp_path / "pkg.json"
    pkg_path.write_text(json.dumps({"algebra": {"name": "x", "layers": [2, 1]},
                                    "max_poly_degree": 1, "operators": {"q": {}}}))
    assert main(["rumin", "verify", str(pkg_path)]) == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def h2_package():
    return RuminPackage(builtin("heisenberg", 2), 1).to_json()


def _set_q_entry(pkg, text):
    pkg["operators"]["q"]["2"]["entries"][0][2] = text


def _set_harmonic_entry(pkg, text):
    vectors = next(iter(pkg["harmonic"].values()))
    vectors[0][0][1] = text


def _bool_harmonic_monomial(pkg):
    for vectors in pkg["harmonic"].values():
        for vec in vectors:
            for mono, _ in vec:
                if 0 in mono:
                    mono[mono.index(0)] = False
                    return
    raise AssertionError("no harmonic monomial holds index 0")


def _grow_D_block(pkg):
    pkg["operators"]["D"]["0"]["rows"] += 1


def _far_D_row(pkg):
    pkg["operators"]["D"]["0"]["entries"].append([10**6, 0, "1"])


def _bool_pi_row(pkg):
    entries = pkg["operators"]["pi"]["2"]["entries"]
    assert entries[0][0] == 0
    entries[0][0] = False


def _duplicate_pi_entry(pkg):
    entries = pkg["operators"]["pi"]["2"]["entries"]
    entries.append(list(entries[0]))


def _bool_q_rows(pkg):
    blob = pkg["operators"]["q"]["0"]
    assert blob["rows"] == 0
    blob["rows"] = False


def _set_bracket_coefficient(pkg, text):
    pkg["algebra"]["brackets"][0]["terms"][0]["c"] = text


MALFORMED_PACKAGES = {
    "D_block_wrong_shape": _grow_D_block,
    "q_entry_zero_denominator": lambda pkg: _set_q_entry(pkg, "1/0"),
    "harmonic_zero_denominator": lambda pkg: _set_harmonic_entry(pkg, "1/0"),
    "harmonic_not_rational": lambda pkg: _set_harmonic_entry(pkg, "abc"),
    "harmonic_monomial_bool": _bool_harmonic_monomial,
    "missing_max_poly_degree": lambda pkg: pkg.pop("max_poly_degree"),
    "D_entry_outside_shape": _far_D_row,
    "max_poly_degree_bool": lambda pkg: pkg.update(max_poly_degree=True),
    "pi_entry_bool_row": _bool_pi_row,
    "pi_entry_duplicated": _duplicate_pi_entry,
    "q_block_bool_rows": _bool_q_rows,
    "algebra_zero_denominator": lambda pkg: _set_bracket_coefficient(pkg, "1/0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PACKAGES))
def test_rumin_verify_malformed_package_exit2(case, h2_package, tmp_path, capsys):
    pkg = copy.deepcopy(h2_package)
    MALFORMED_PACKAGES[case](pkg)
    pkg_path = tmp_path / "pkg.json"
    pkg_path.write_text(json.dumps(pkg))
    assert main(["rumin", "verify", str(pkg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_truncate_json(capsys):
    code, out = run_cli(["truncate", "heisenberg:2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 2]


def test_qc_check_cli(tmp_path, capsys):
    f = tmp_path / "qc.json"
    f.write_text(
        json.dumps(
            {
                "algebra": "heisenberg:2",
                "matrix": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]],
            }
        )
    )
    code, out = run_cli(["qc-check", str(f)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] and payload["t"] == "2"


def test_budget_exhaustion_exit3(capsys):
    code, out = run_cli(
        ["rumin", "build", "quaternionic:2", "--max-monomials", "50"], capsys
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["budget"]["exceeded"]


def test_budget_overshoot_is_bounded(capsys):
    # checkpoints before each Neumann term and every 64 columns of the
    # blockwise solves stop a 0.5 s budget well within a second past it
    start = time.monotonic()
    code, out = run_cli(
        ["rumin", "build", "quaternionic:2", "--budget-seconds", "0.5"], capsys
    )
    assert code == 3
    assert json.loads(out)["budget"]["exceeded"]
    assert time.monotonic() - start < 1.5


@pytest.mark.parametrize(
    "flags,env",
    [
        (["--budget-seconds", "0"], {}),
        (["--budget-seconds", "nan"], {}),
        (["--max-monomials", "-5"], {}),
        ([], {"RUMINBGG_BUDGET_SECONDS": "abc"}),
        ([], {"RUMINBGG_MAX_MONOMIALS": "1.5"}),
    ],
    ids=["zero-seconds", "nan-seconds", "negative-monomials", "env-seconds", "env-monomials"],
)
def test_invalid_budget_is_input_error(monkeypatch, capsys, flags, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(["bgg", "heisenberg:2", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_calculus_budget_partial_report(capsys):
    # budget exhaustion mid-verify is distinct from identity failure and
    # keeps the rows finished so far
    code, out = run_cli(
        ["calculus", "verify", "quaternionic:2", "--max-poly-degree", "1",
         "--budget-seconds", "0.05"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["budget"]["exceeded"]
    assert "partial" in payload
    assert all(r["status"] == "ok" for r in payload["partial"])


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    code, _ = run_cli(
        ["bgg", "heisenberg:2", "--format", "csv", "--out", str(dest)], capsys
    )
    assert code == 0
    assert dest.read_text().startswith("degree,weight,rank")


def test_byte_identical_reruns():
    # determinism across processes, not just within one interpreter
    cmd = [sys.executable, "-m", "ruminbgg.cli"]
    env_runs = []
    for _ in range(2):
        proc = subprocess.run(
            cmd + ["calculus", "verify", "heisenberg:2", "--max-poly-degree", "1", "--seed", "7"],
            capture_output=True,
            env=CLI_ENV,
        )
        assert proc.returncode == 0
        env_runs.append(proc.stdout)
    assert env_runs[0] == env_runs[1]

    runs = []
    for _ in range(2):
        proc = subprocess.run(
            cmd + ["strips", "quaternionic:2"], capture_output=True, env=CLI_ENV
        )
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
