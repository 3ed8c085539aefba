import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from ruminbgg.algebra import builtin
from ruminbgg.budget import Budget
from ruminbgg.cli import main
from ruminbgg.errors import BudgetExceededError
from ruminbgg.groupcalc import GroupContext
from ruminbgg.rumin import RuminPackage, _Chunks

from conftest import CLI_ENV, SUITE_ROWS
from test_rumin import CUSTOM_INNER_PRODUCT, custom_quaternionic

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


def _duplicate_harmonic_monomial(pkg):
    # the repeat comes first with a wrong coefficient, so a decoder that keeps
    # the last entry per monomial would still match the canonical basis
    vec = next(iter(pkg["harmonic"].values()))[0]
    mono, _ = vec[0]
    vec.insert(0, [list(mono), "17"])


def _zero_harmonic_entry(pkg):
    # an explicit zero at a block monomial that the vector does not hold
    for vectors in pkg["harmonic"].values():
        monos = [m for vec in vectors for m, _ in vec]
        for vec in vectors:
            extra = [m for m in monos if m not in [held for held, _ in vec]]
            if extra:
                vec.append([list(extra[0]), "0"])
                return
    raise AssertionError("no harmonic block has two monomials")


def _harmonic_monomial_outside_block(pkg):
    blocks = list(pkg["harmonic"].values())
    first, last = blocks[0][0][0], blocks[-1][0][0]
    assert first[0] != last[0]
    first[0] = list(last[0])


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


def _drop_harmonic_block(pkg):
    del pkg["harmonic"]["1,1"]


def _harmonic_block_without_forms(pkg):
    # block (1, 2) of heisenberg:2 holds theta^3 alone, which d0 does not kill
    assert "1,2" not in pkg["harmonic"]
    pkg["harmonic"]["1,2"] = []


# each case's change to the heisenberg:2 P=1 package, and the message that
# `rumin verify` prints after "error: " in either layout
MALFORMED_PACKAGES = {
    "D_block_wrong_shape": (
        _grow_D_block, "stored D at degree 0 has shape 9x4, expected 8x4"),
    "q_entry_zero_denominator": (
        lambda pkg: _set_q_entry(pkg, "1/0"),
        "malformed entry [8, 0, '1/0'] in stored q at degree 2: zero denominator in '1/0'"),
    "harmonic_zero_denominator": (
        lambda pkg: _set_harmonic_entry(pkg, "1/0"),
        "malformed harmonic block '0,0': zero denominator in '1/0'"),
    "harmonic_not_rational": (
        lambda pkg: _set_harmonic_entry(pkg, "abc"),
        "malformed harmonic block '0,0': invalid literal for int() with base 10: 'abc'"),
    "harmonic_monomial_bool": (
        _bool_harmonic_monomial,
        "malformed harmonic block '1,1': monomial [False] is repeated or not one of the block"),
    "harmonic_duplicated": (
        _duplicate_harmonic_monomial,
        "malformed harmonic block '0,0': monomial [] is repeated or not one of the block"),
    "harmonic_zero_entry": (
        _zero_harmonic_entry, "malformed harmonic block '1,1': zero coefficient at monomial [1]"),
    "harmonic_monomial_outside_block": (
        _harmonic_monomial_outside_block,
        "malformed harmonic block '0,0': monomial [0, 1, 2] is repeated or not one of the block"),
    "harmonic_block_missing": (
        _drop_harmonic_block, "package harmonic section lacks block '1,1'"),
    "harmonic_section_missing": (
        lambda pkg: pkg.pop("harmonic"), "package is missing 'harmonic'"),
    "harmonic_block_without_forms": (
        _harmonic_block_without_forms,
        "package harmonic section holds '1,2', not a block with harmonic forms"),
    "missing_max_poly_degree": (
        lambda pkg: pkg.pop("max_poly_degree"), "package is missing 'max_poly_degree'"),
    "D_entry_outside_shape": (
        _far_D_row, "entry (1000000, 0) lies outside the 8x4 stored D at degree 0"),
    # the polynomials of a tampered P are never listed, only counted
    "max_poly_degree_huge": (
        lambda pkg: pkg.update(max_poly_degree=10**6),
        "stored D at degree 0 has shape 8x4, expected 333335333337000002x166667666668500001"),
    "max_poly_degree_bool": (
        lambda pkg: pkg.update(max_poly_degree=True),
        "max_poly_degree must be an integer, got True"),
    "neumann_terms_str": (
        lambda pkg: pkg.update(neumann_terms="x"),
        "neumann_terms must be a non-negative integer, got 'x'"),
    "neumann_terms_bool": (
        lambda pkg: pkg.update(neumann_terms=True),
        "neumann_terms must be a non-negative integer, got True"),
    "neumann_terms_negative": (
        lambda pkg: pkg.update(neumann_terms=-1),
        "neumann_terms must be a non-negative integer, got -1"),
    "missing_neumann_terms": (
        lambda pkg: pkg.pop("neumann_terms"), "package is missing 'neumann_terms'"),
    "pi_entry_bool_row": (
        _bool_pi_row, "entry (False, 0) lies outside the 12x12 stored pi at degree 2"),
    "pi_entry_duplicated": (
        _duplicate_pi_entry, "entry (0, 0) appears twice in stored pi at degree 2"),
    "q_block_bool_rows": (
        _bool_q_rows, "stored q at degree 0 has shape Falsex4, expected 0x4"),
    "algebra_zero_denominator": (
        lambda pkg: _set_bracket_coefficient(pkg, "1/0"), "non-rational coefficient '1/0'"),
}


def written_layout(pkg):
    """pkg as `RuminPackage.write_json` lays out a package."""
    return json.dumps(pkg, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_PACKAGES))
def test_rumin_verify_malformed_package_exit2(case, h2_package, tmp_path, monkeypatch,
                                              capsys):
    pkg = copy.deepcopy(h2_package)
    mutate, message = MALFORMED_PACKAGES[case]
    mutate(pkg)
    pkg_path = tmp_path / "pkg.json"
    errors = []
    # compact, then the writer's layout, which the streamed reader reads first,
    # then that layout again in 128-character pieces, so that a faulty entry
    # lies past a piece edge, with the whole-file decoder unusable
    for text, size in ((json.dumps(pkg), None), (written_layout(pkg), None),
                       (written_layout(pkg), 128)):
        if size is not None:
            monkeypatch.setattr(_Chunks, "SIZE", size)
            _refuse_json_load(monkeypatch)
        pkg_path.write_text(text)
        assert main(["rumin", "verify", str(pkg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        errors.append(captured.err)
    assert errors == [f"error: {message}\n"] * 3


def _block_text(text, op, k):
    """The text of the degree-k block of op in the writer's layout, from its
    opening brace to its closing one."""
    start = text.index(f'\n      "{k}": {{\n', text.index(f'\n    "{op}": {{\n'))
    return text[text.index("{", start): text.index("\n      }", start) + len("\n      }")]


def test_block_faults_past_a_piece_edge_keep_the_whole_file_order(h2_package, tmp_path,
                                                                 monkeypatch, capsys):
    # "rows" follows "entries" in the writer's layout, so the streamed reader
    # meets a block's entries before its shape; a wrong shape is still the
    # fault reported, as the whole-file decoder checks the shape first
    size = 128
    pi2 = h2_package["operators"]["pi"]["2"]
    cases = {
        "entry past the edge": (
            lambda blob: blob["entries"][-1].__setitem__(2, "1/0"),
            "malformed entry [{i}, {j}, '1/0'] in stored pi at degree 2: "
            "zero denominator in '1/0'"),
        "duplicate past the edge": (
            lambda blob: blob["entries"].append(list(blob["entries"][0])),
            "entry ({i0}, {j0}) appears twice in stored pi at degree 2"),
        "shape and entry past the edge": (
            lambda blob: (blob["entries"][-1].__setitem__(2, "1/0"),
                          blob.__setitem__("rows", blob["rows"] + 1)),
            "stored pi at degree 2 has shape 13x12, expected 12x12"),
        "shape and outside entry past the edge": (
            lambda blob: (blob["entries"].append([10**6, 0, "1"]),
                          blob.__setitem__("cols", True)),
            "stored pi at degree 2 has shape 12xTrue, expected 12x12"),
    }
    path = tmp_path / "pkg.json"
    for case, (mutate, message) in cases.items():
        pkg = copy.deepcopy(h2_package)
        blob = pkg["operators"]["pi"]["2"]
        mutate(blob)
        (i0, j0, _), (i, j, _) = pi2["entries"][0], pi2["entries"][-1]
        message = message.format(i=i, j=j, i0=i0, j0=j0)
        text = written_layout(pkg)
        block = _block_text(text, "pi", 2)
        assert block.index('"1/0"' if "1/0" in block else '"rows"') > 2 * size, case
        errors = []
        for layout, piece in ((json.dumps(pkg), None), (text, size)):
            if piece is not None:
                monkeypatch.setattr(_Chunks, "SIZE", piece)
                _refuse_json_load(monkeypatch)
            path.write_text(layout)
            assert main(["rumin", "verify", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        monkeypatch.undo()
        assert errors == [f"error: {message}\n"] * 2, case


def test_first_fault_in_file_order_is_reported_in_both_layouts(h2_package, tmp_path, capsys):
    # D precedes q in the file, so D(0)'s fault is the one reported, whichever
    # reader finds it
    pkg = copy.deepcopy(h2_package)
    _grow_D_block(pkg)
    pkg["operators"]["q"]["1"]["rows"] += 1
    path = tmp_path / "pkg.json"
    for text in (json.dumps(pkg), written_layout(pkg)):
        path.write_text(text)
        assert main(["rumin", "verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: stored D at degree 0 has shape 9x4, expected 8x4\n"
        )


def test_faulty_written_package_is_parsed_once(h2_package, tmp_path, monkeypatch, capsys):
    # the streamed reader reports a fault in the writer's layout itself, so
    # the file is never read whole
    pkg = copy.deepcopy(h2_package)
    _set_q_entry(pkg, "1/0")
    path = tmp_path / "pkg.json"
    path.write_text(written_layout(pkg))
    _refuse_json_load(monkeypatch)
    assert main(["rumin", "verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {MALFORMED_PACKAGES['q_entry_zero_denominator'][1]}\n"


def test_malformed_written_package_is_counted_once_against_the_budget(h2_package, tmp_path,
                                                                     capsys):
    # without its last q block the file is off the writer's layout, so the
    # streamed read gives up there, after enumerating every spanning set;
    # the fallback's count starts afresh, so a cap that one load fits under
    # still reports the fault, not an exhausted budget
    budget = Budget(max_monomials=10**6)
    RuminPackage.from_json(h2_package, budget=budget)
    cap = str(budget._monomials * 3 // 2)
    pkg = copy.deepcopy(h2_package)
    last = max(pkg["operators"]["q"], key=int)
    del pkg["operators"]["q"][last]
    path = tmp_path / "pkg.json"
    path.write_text(written_layout(pkg))
    assert main(["rumin", "verify", str(path), "--max-monomials", cap]) == 2
    assert capsys.readouterr().err == f"error: package is missing q at degree {last}\n"


def test_written_layout_is_the_writers(h2_package, tmp_path, capsys):
    path = tmp_path / "pkg.json"
    assert run_cli(["rumin", "build", "heisenberg:2", "--max-poly-degree", "1",
                    "--out", str(path)], capsys)[0] == 0
    assert path.read_text() == written_layout(h2_package)


@pytest.fixture(scope="module")
def written_package(tmp_path_factory):
    """The text `rumin build --out` writes for quaternionic:2 at P=1."""
    path = tmp_path_factory.mktemp("written") / "pkg.json"
    args = ["rumin", "build", "quaternionic:2", "--max-poly-degree", "1", "--out", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
    return path.read_text()


def _refuse_json_load(monkeypatch):
    """Make the whole-file decoder unusable, so only the streamed reader can load."""

    def refuse(*args, **kwargs):
        raise AssertionError("json.load was called")

    monkeypatch.setattr(json, "load", refuse)


def test_rumin_verify_streams_the_written_package(written_package, tmp_path, monkeypatch,
                                                  capsys):
    path = tmp_path / "pkg.json"
    path.write_text(written_package)
    parsed = []
    loads = json.loads

    def recorded_loads(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    _refuse_json_load(monkeypatch)
    monkeypatch.setattr(json, "loads", recorded_loads)
    code, out = run_cli(["rumin", "verify", str(path)], capsys)
    monkeypatch.undo()
    assert code == 0
    report = json.loads(out)["report"]
    assert [r["identity"] for r in report] == SUITE_ROWS
    assert all(r["status"] == "ok" for r in report)
    # one parse of the head, then per degree block of q, pi (0..dim) and D
    # (0..dim-1) its declared cols, its entries a piece at a time and its
    # declared rows: no parse after the head sees more than one piece, and
    # none sees a block's keys
    dim = builtin("quaternionic", 2).dim
    blocks = 3 * dim + 2
    assert parsed[0].count('"entries"') == 0 and '"harmonic"' in parsed[0]
    rest = parsed[1:]
    assert not any('"' + key + '"' in t for t in rest for key in ("cols", "entries", "rows"))
    assert max(map(len, rest)) <= _Chunks.SIZE + 2
    pieces = [t for t in rest if t.startswith("[")]
    texts = [_block_text(written_package, op, k)
             for op, n in (("D", dim), ("pi", dim + 1), ("q", dim + 1)) for k in range(n)]
    assert len(texts) == blocks and len(rest) == len(pieces) + 2 * blocks
    # the largest blocks are longer than a piece, so some block is cut
    assert max(map(len, texts)) > _Chunks.SIZE
    assert len(pieces) > sum('"entries": []' not in t for t in texts)
    assert sum(map(len, parsed)) < len(written_package)


def test_streamed_load_holds_no_copy_of_a_block(written_package, tmp_path, monkeypatch):
    # each block is decoded a piece at a time, so the load's traced peak
    # before the pi comparison exceeds what it holds then, every block in, by
    # less than the text of the largest block.  That block is about two
    # default pieces long, so the pieces here are 4096 characters, to let
    # the bound tell one piece from a whole block
    dim = builtin("quaternionic", 2).dim
    largest = max(len(_block_text(written_package, op, k))
                  for op, n in (("D", dim), ("pi", dim + 1), ("q", dim + 1)) for k in range(n))
    monkeypatch.setattr(_Chunks, "SIZE", 4096)
    assert largest > 16 * _Chunks.SIZE
    path = tmp_path / "pkg.json"
    path.write_text(written_package)
    seen = []
    finish_load = RuminPackage._finish_load

    def watched(pkg, stored_pi):
        seen.append(tracemalloc.get_traced_memory())
        return finish_load(pkg, stored_pi)

    monkeypatch.setattr(RuminPackage, "_finish_load", watched)
    with open(path) as fh:
        tracemalloc.start()
        try:
            pkg = RuminPackage.read_json(fh)
        finally:
            tracemalloc.stop()
    assert pkg is not None and len(seen) == 1
    held, peak = seen[0]
    assert peak - held < largest, (peak, held, largest)


def test_rumin_verify_truncated_or_trailing_text_exit2(written_package, tmp_path, capsys):
    path = tmp_path / "pkg.json"
    truncated = written_package[: written_package.rstrip("\n").rindex("\n") + 1]
    for text in (truncated, written_package + "{}\n", written_package + "x"):
        path.write_text(text)
        assert main(["rumin", "verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid JSON in {path}")


def test_non_utf8_file_is_input_error(written_package, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": "\xff"}')
    # a byte that is not UTF-8 deep inside the operators of a written package
    at = written_package.rindex('"entries"')
    written = tmp_path / "written.json"
    written.write_bytes(
        written_package[:at].encode() + b"\xff" + written_package[at:].encode()
    )
    for argv in (["rumin", "verify", str(bad)], ["algebra", "validate", str(bad)],
                 ["rumin", "verify", str(written)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {argv[-1]} is not UTF-8 text")


def test_budget_trips_inside_the_streamed_decode_exit3(written_package, tmp_path,
                                                       monkeypatch, capsys):
    # every budget checkpoint of the streamed load stops the command with exit
    # 3; none of them turns into the fallback to the whole-file decoder
    path = tmp_path / "pkg.json"
    path.write_text(written_package)
    read_json = RuminPackage.read_json.__func__
    state = {"active": False, "calls": 0, "stop": None}

    def check(budget):
        if state["active"]:
            state["calls"] += 1
            if state["calls"] == state["stop"]:
                raise BudgetExceededError("wall-clock budget exhausted")

    def counted_read_json(cls, fh, budget=None):
        state.update(active=True, calls=0)
        try:
            return read_json(cls, fh, budget)
        finally:
            state["active"] = False

    _refuse_json_load(monkeypatch)
    monkeypatch.setattr(Budget, "check", check)
    monkeypatch.setattr(RuminPackage, "read_json", classmethod(counted_read_json))
    assert run_cli(["rumin", "verify", str(path)], capsys)[0] == 0
    total = state["calls"]
    # at least one checkpoint per operator degree block
    assert total >= 3 * builtin("quaternionic", 2).dim + 2
    for stop in range(1, total + 1):
        state["stop"] = stop
        code, out = run_cli(["rumin", "verify", str(path)], capsys)
        assert code == 3, stop
        payload = json.loads(out)
        assert payload["budget"]["exceeded"] and "partial" not in payload


def test_budget_trips_inside_the_pi_comparison_exit3(h2_package, tmp_path, monkeypatch,
                                                     capsys):
    # each reader compares the stored pi with d q + q d as the load finishes,
    # so a budget that runs out there stops the load, before any row
    finish_load = RuminPackage._finish_load
    state = {"active": False}

    def check(budget):
        if state["active"]:
            raise BudgetExceededError("wall-clock budget exhausted")

    def watched(pkg, stored_pi):
        state["active"] = True
        try:
            return finish_load(pkg, stored_pi)
        finally:
            state["active"] = False

    monkeypatch.setattr(Budget, "check", check)
    monkeypatch.setattr(RuminPackage, "_finish_load", watched)
    path = tmp_path / "pkg.json"
    for text in (json.dumps(h2_package), written_layout(h2_package)):
        path.write_text(text)
        code, out = run_cli(["rumin", "verify", str(path)], capsys)
        assert code == 3
        payload = json.loads(out)
        assert payload["budget"]["exceeded"] and "partial" not in payload


# sha256 of the CLI's bytes from when the package held V^k's key list and
# spanning index and the model's key list: `rumin build --out pkg.json`
# stdout, the package file, `rumin verify` stdout (either reader) and
# `calculus verify` stdout, at the given P
KEYLESS_DIGESTS = {
    ("heisenberg:2", "2"): {
        "build": "d5120938c6ac45ae5d8d6c0e079ce4d2e392484fcc5a4e6c9dbe2032c90df2c8",
        "package": "2f53b22b203a998eb2e7e852558b9e80fe619b41727cbe80a5cad059af743e30",
        "verify": "a650b1d96c5bb9a29ad262782c025cbaae6cc455079dd9a46e9daa68dc85840f",
        "calculus": "c22af2ffed3e66e510276de818cb676c376eb20aca45e8fabb2fe2d09069aa05",
    },
    ("quaternionic:2", "1"): {
        "build": "d561f5a9a66ba2243c9c570d5a9fbb5d84e59beec3d924423248a2af9f4f474a",
        "package": "6eecd9bdac4241a36e4b7bc9f071f12b011a079306243da22a287b654e8c5ee5",
        "verify": "87768c0161bdbce5d4a620c017acf1a803ba843b489efff8283e5f5369cfead1",
        "calculus": "636e2aade3bd46b8da2716922722e7907e7b9ed6f9215e29709d7c7f37aaac25",
    },
    ("weighted-h3.json", "2"): {
        "build": "b017f056babd2b749b32ddf54d74d6bfa12a31088d9508476d9afedff98e033a",
        "package": "40f8e19582f4adf2394227a22466d9eadd31cbae0f6efefe6e6238bd1a3330e0",
        "verify": "ef7bb2e6d7814597cbae83ec6e82839a4d0661a269d364fb05347bf40cb4e992",
        "calculus": "db6941e7142ba8c39ac6a30244ccbb1cae22f63e9842d08075739390cbd7bcf9",
    },
}
TRUNCATE_H3_DIGEST = "82f5a86ac05ab84e8f7e3178eba977bdcdb48ec006f1e57d11712b2a2337e399"


@pytest.fixture()
def keyless(tmp_path, monkeypatch, capsys):
    """A digest of a command's stdout, run with the V^k and model key lists
    and the spanning basis refused, in tmp_path, which holds weighted-h3.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weighted-h3.json").write_text(json.dumps(CUSTOM_INNER_PRODUCT))

    def refuse(*args, **kwargs):
        raise AssertionError("the program addresses V^k and the model by arithmetic")

    for owner, name in ((RuminPackage, "keys"), (RuminPackage, "model_keys"),
                        (GroupContext, "spanning_basis")):
        monkeypatch.setattr(owner, name, refuse)

    def digest(argv):
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        return hashlib.sha256(out.encode()).hexdigest()

    return digest


@pytest.mark.parametrize("algebra,P", sorted(KEYLESS_DIGESTS))
def test_commands_read_no_key_list(algebra, P, keyless, tmp_path):
    build = ["rumin", "build", algebra, "--max-poly-degree", P, "--out", "pkg.json"]
    got = {"build": keyless(build)}
    text = (tmp_path / "pkg.json").read_bytes()
    got["package"] = hashlib.sha256(text).hexdigest()
    # the writer's layout goes through the streamed reader, a compact copy through from_json
    (tmp_path / "compact.json").write_text(json.dumps(json.loads(text)))
    got["verify"] = keyless(["rumin", "verify", "pkg.json"])
    assert keyless(["rumin", "verify", "compact.json"]) == got["verify"]
    got["calculus"] = keyless(["calculus", "verify", algebra, "--max-poly-degree", P])
    assert got == KEYLESS_DIGESTS[(algebra, P)]


# sha256 of the package file and of `rumin verify` stdout for quaternionic:n
# with a non-standard inner product (`custom_quaternionic`) at the given P,
# from when each Gram entry was a dense minor determinant
CUSTOM_GRAM_DIGESTS = {
    (2, "2"): (
        "d4192142b8fb82efbe57c99f68d0249ec7242aef60ee82e80e38ff00ccf3c919",
        "fd2c2e246dd9c62a6b9647292d9fc2a771ca931e2cec3f54fd3d3fe5e1ed60e7",
    ),
    (3, "0"): (
        "209e5ce4d85b93c9bf1dfafd0df1b0a2e02ed02679f6b680352687675a330d46",
        "1bcc2de79a2ae9d2d1a1875d01b06844d4531bcd1f5e7a17762be517e069ea29",
    ),
}


@pytest.mark.parametrize("n,P", sorted(CUSTOM_GRAM_DIGESTS))
def test_custom_inner_product_packages_keep_their_bytes(n, P, tmp_path, capsys):
    algebra, package = tmp_path / "algebra.json", tmp_path / "pkg.json"
    algebra.write_text(json.dumps(custom_quaternionic(n)))
    build = ["rumin", "build", str(algebra), "--max-poly-degree", P, "--out", str(package)]
    assert run_cli(build, capsys)[0] == 0
    code, out = run_cli(["rumin", "verify", str(package)], capsys)
    assert code == 0
    got = tuple(hashlib.sha256(b).hexdigest() for b in (package.read_bytes(), out.encode()))
    assert got == CUSTOM_GRAM_DIGESTS[(n, P)]


def test_truncate_reads_no_key_list(keyless):
    assert keyless(["truncate", "heisenberg:3"]) == TRUNCATE_H3_DIGEST


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


@pytest.mark.parametrize("argv", [["bgg", "quaternionic:2"], ["strips", "heisenberg:3"]])
def test_budget_trips_between_the_components_of_a_block_exit3(argv, monkeypatch, capsys):
    # the rank kernel checks the budget before each connected component of a
    # d0 block; trip the first such check that follows a finished component
    state = {"frame": None, "tripped": False}

    def check(budget):
        frame = sys._getframe(1)
        if frame.f_code.co_name != "rank_sparse":
            return
        if frame is state["frame"]:
            state["tripped"] = True
            raise BudgetExceededError("wall-clock budget exhausted")
        state["frame"] = frame

    monkeypatch.setattr(Budget, "check", check)
    code, out = run_cli(argv, capsys)
    assert state["tripped"]
    assert code == 3
    assert json.loads(out)["budget"]["exceeded"]


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


def test_truncate_budget_overshoot_is_bounded(capsys):
    # the fiber blocks, their eliminators and q's L0 steps check the budget
    # often enough to stop truncate quaternionic:3 well within a second past 1 s
    start = time.monotonic()
    code, out = run_cli(["truncate", "quaternionic:3", "--budget-seconds", "1"], capsys)
    assert code == 3
    assert json.loads(out)["budget"]["exceeded"]
    assert time.monotonic() - start < 2.0


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


def test_calculus_budget_partial_report(monkeypatch, capsys):
    # budget exhaustion mid-verify is distinct from identity failure and
    # keeps the rows finished so far; the budget runs out at fixed
    # checkpoints: the first in each function that checks it, and the last
    argv = ["calculus", "verify", "quaternionic:2", "--max-poly-degree", "1"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    full = json.loads(out)["report"]
    state = {"callers": [], "stop": None}

    def check(budget):
        state["callers"].append(sys._getframe(1).f_code.co_name)
        if len(state["callers"]) == state["stop"]:
            raise BudgetExceededError("wall-clock budget exhausted")

    monkeypatch.setattr(Budget, "check", check)
    assert run_cli(argv, capsys)[0] == 0
    callers = state["callers"]
    assert {"kron", "combine", "check_identity"} <= set(callers)
    stops = sorted({callers.index(name) + 1 for name in callers} | {len(callers)})
    for stop in stops:
        state.update(callers=[], stop=stop)
        code, out = run_cli(argv, capsys)
        assert code == 3, stop
        payload = json.loads(out)
        assert payload["budget"]["exceeded"]
        assert "partial" in payload
        assert all(r["status"] == "ok" for r in payload["partial"])
        assert payload["partial"] == full[: len(payload["partial"])]


@pytest.mark.parametrize("command", ["build", "verify"])
def test_rumin_budget_partial_report(command, h2_package, tmp_path, monkeypatch, capsys):
    # the budget runs out at a fixed checkpoint inside the identity suite;
    # the exit-3 payload keeps the rows evaluated before it
    argv = ["rumin", "build", "heisenberg:2", "--max-poly-degree", "1"]
    if command == "verify":
        path = tmp_path / "pkg.json"
        path.write_text(json.dumps(h2_package))
        argv = ["rumin", "verify", str(path)]
    code, out = run_cli(argv, capsys)
    assert code == 0
    full = json.loads(out)["report"]
    verify = RuminPackage.verify
    # checks are counted, and the one at call number stop raises, inside verify only
    state = {"active": False, "calls": 0, "stop": None}

    def check(budget):
        if state["active"]:
            state["calls"] += 1
            if state["calls"] == state["stop"]:
                raise BudgetExceededError("wall-clock budget exhausted")

    def counted_verify(pkg):
        state.update(active=True, calls=0)
        try:
            return verify(pkg)
        finally:
            state["active"] = False

    monkeypatch.setattr(Budget, "check", check)
    monkeypatch.setattr(RuminPackage, "verify", counted_verify)
    assert run_cli(argv, capsys)[0] == 0
    total = state["calls"]
    assert total > len(full)
    partials = []
    for stop in range(1, total + 1):
        state["stop"] = stop
        code, out = run_cli(argv, capsys)
        assert code == 3, stop
        payload = json.loads(out)
        assert payload["budget"]["exceeded"]
        partials.append(payload["partial"])
    # the first checkpoint comes before the first row, the last before the last row
    assert partials[0] == [] and partials[-1] == full[:-1]
    for before, after in zip(partials, partials[1:]):
        assert after[: len(before)] == before and after == full[: len(after)]


def test_commands_import_only_what_they_run():
    # -X importtime lists every module the command imports on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ruminbgg.cli", "cohomology", "heisenberg:2"],
        capture_output=True,
        env=CLI_ENV,
    )
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()}
    assert "ruminbgg.fiber" in imported
    assert "ruminbgg.rumin" not in imported


def test_package_names_load_on_first_use():
    # in a fresh interpreter, so that `rumin` is loaded by the lazy names
    # themselves and not by an earlier import
    script = """
import sys
import ruminbgg
assert "ruminbgg.rumin" not in sys.modules
assert {"rumin", *ruminbgg._RUMIN_NAMES} <= set(dir(ruminbgg))
star = {}
exec("from ruminbgg import *", star)
star.pop("__builtins__")
assert set(star) == set(ruminbgg.__all__), set(ruminbgg.__all__) ^ set(star)
rumin = sys.modules["ruminbgg.rumin"]
assert star["rumin"] is ruminbgg.rumin is rumin
for name in ruminbgg._RUMIN_NAMES:
    assert star[name] is getattr(ruminbgg, name) is getattr(rumin, name)
assert star["strip_table"] is ruminbgg.tables.strip_table
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr.decode()


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
