"""`rumin verify` rejects a package whose stored q, pi or D was corrupted.

Each non-empty operator block of a heisenberg:2 P=2 package gets two
tampers at its first stored entry and two at its last: the entry is
perturbed, or every entry of its column is dropped.  A tampered package
must exit 1 with at least one failed row that names a counterexample;
which rows fail is not pinned for these.  Three more tampers add one
entry each, planting a fault that one row is there to see, and that row
must fail with a counterexample: q_squared, q_d_q and fiber_restriction.
Every tamper is written twice: compact, and in the layout `rumin build
--out` writes, so both the whole-file decoder and the streamed reader
load tampered packages.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

from ruminbgg.cli import main
from ruminbgg.rumin import RuminPackage

BLOCKS = [("q", "2"), ("pi", "1"), ("pi", "2"), ("D", "0"), ("D", "1"), ("D", "2")]

# D is pinned only by D_squared and fiber_restriction.  D(0) has no
# predecessor for D_squared to compose with, and the first entry of D(0)
# sits in a row that D(1) maps to zero, so both degree-0 tampers go unseen.
# Dropping the last column of any D block, or perturbing the last entry of
# D(2), also escapes both rows.
CHAIN_MAP_GAP = pytest.mark.xfail(
    strict=True,
    reason="no chain-map row d . iota^-1 = iota^-1 . D yet (ROADMAP item 3); "
    "D_squared and fiber_restriction do not see this change to D",
)
UNSEEN = {
    ("D", "0", "perturb_entry", "first"),
    ("D", "0", "drop_column", "first"),
    ("D", "2", "perturb_entry", "last"),
    ("D", "0", "drop_column", "last"),
    ("D", "1", "drop_column", "last"),
    ("D", "2", "drop_column", "last"),
}


# a tampered package is written compact, which only the whole-file decoder
# reads, and in the writer's layout, which the streamed reader reads
LAYOUTS = {
    "compact": json.dumps,
    "written": lambda blob: json.dumps(blob, indent=2, sort_keys=True) + "\n",
}


# (op, k, (row, column), the row that must fail, its counterexample): an
# entry 1 added where the stored block has none.  Column 0 of q(2) is
# nonzero, so the entry at (0, 0) of q(3) makes column 0 of q(2) q(3)
# nonzero.  d(0) kills the constant 0-form at V^0 position 0, so with the
# entry q(1) d(0) q(1) = 0 != q(1).  Model column 0 of D(0) is a constant
# one, where D must vanish.
ADDED = [
    ("q", "3", (0, 0), "q_squared", "1 . theta[1, 2, 3]"),
    ("q", "1", (0, 0), "q_d_q", "1 . theta[1]"),
    ("D", "0", (0, 0), "fiber_restriction", "constant model element (deg 0, weight 0, #0)"),
]


def _added_cases():
    for layout in LAYOUTS:
        for op, k, position, target, witness in ADDED:
            suffix = "" if layout == "compact" else f"-{layout}"
            yield pytest.param(
                op, k, position, target, witness, layout, id=f"{op}{k}-add_entry{suffix}"
            )


def _cases():
    for layout in LAYOUTS:
        for position in ("first", "last"):
            for op, k in BLOCKS:
                for kind in ("perturb_entry", "drop_column"):
                    marks = [CHAIN_MAP_GAP] if (op, k, kind, position) in UNSEEN else []
                    suffix = "" if position == "first" else "-last"
                    suffix += "" if layout == "compact" else f"-{layout}"
                    yield pytest.param(
                        op, k, kind, position, layout, marks=marks,
                        id=f"{op}{k}-{kind}{suffix}",
                    )


@pytest.fixture(scope="module")
def package_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("tamper") / "pkg.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["rumin", "build", "heisenberg:2", "--max-poly-degree", "2", "--out", str(path)]
        )
    assert code == 0
    return json.loads(path.read_text())


def test_blocks_are_every_nonempty_block(package_blob):
    nonempty = [
        (op, k)
        for op, blocks in package_blob["operators"].items()
        for k, blob in blocks.items()
        if blob["entries"]
    ]
    assert sorted(nonempty) == sorted(BLOCKS)


def _tampered(package_blob, op, k, kind, position):
    blob = copy.deepcopy(package_blob)
    entries = blob["operators"][op][k]["entries"]
    if kind == "add_entry":
        assert [e for e in entries if e[:2] == list(position)] == []
        entries.append([*position, "1"])
        return blob
    at = 0 if position == "first" else -1
    _, column, value = entries[at]
    if kind == "perturb_entry":
        entries[at][2] = str(Fraction(value) + 1)
    else:
        entries[:] = [e for e in entries if e[1] != column]
    return blob


@pytest.mark.parametrize("op,k,kind,position,layout", list(_cases()))
def test_tampered_package_fails_with_witness(
    package_blob, tmp_path, capsys, op, k, kind, position, layout
):
    path = tmp_path / "tampered.json"
    path.write_text(LAYOUTS[layout](_tampered(package_blob, op, k, kind, position)))
    code = main(["rumin", "verify", str(path)])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 1
    assert any(r["status"] == "fail" and r.get("counterexample") for r in report), report


def test_added_entries_meet_their_premises(package_blob):
    entries = {
        (op, int(k)): {(i, j) for i, j, _ in blob["entries"]}
        for op, blocks in package_blob["operators"].items()
        for k, blob in blocks.items()
    }
    assert any(j == 0 for _, j in entries[("q", 2)])
    assert entries[("q", 1)] == entries[("q", 3)] == set()
    assert not any(j == 0 for _, j in entries[("D", 0)])


@pytest.mark.parametrize("op,k,position,target,witness,layout", list(_added_cases()))
def test_added_entry_fails_its_row(
    package_blob, tmp_path, capsys, op, k, position, target, witness, layout
):
    path = tmp_path / "tampered.json"
    path.write_text(LAYOUTS[layout](_tampered(package_blob, op, k, "add_entry", position)))
    code = main(["rumin", "verify", str(path)])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 1
    row = next(r for r in report if r["identity"] == target)
    assert row == {"identity": target, "status": "fail", "counterexample": witness}, report


def test_written_tampers_load_through_the_streamed_reader(package_blob):
    # every tampered package in the writer's layout is read by the streamed
    # reader, not handed to the whole-file decoder
    cases = [p.values for p in _cases()]
    cases += [(op, k, "add_entry", position, None) for op, k, position, _, _ in ADDED]
    for op, k, kind, position, _ in cases:
        text = LAYOUTS["written"](_tampered(package_blob, op, k, kind, position))
        assert RuminPackage.read_json(io.StringIO(text)) is not None, (op, k, kind, position)
