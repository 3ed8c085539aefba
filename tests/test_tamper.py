"""`rumin verify` rejects a package whose stored q, pi or D was corrupted.

Each non-empty operator block of a heisenberg:2 P=2 package gets two
tampers at its first stored entry and two at its last: the entry is
perturbed, or every entry of its column is dropped.  A tampered package
must exit 1 with at least one failed row that names a counterexample.
Which rows fail is not pinned.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

from ruminbgg.cli import main

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


def _cases():
    for position in ("first", "last"):
        for op, k in BLOCKS:
            for kind in ("perturb_entry", "drop_column"):
                marks = [CHAIN_MAP_GAP] if (op, k, kind, position) in UNSEEN else []
                suffix = "" if position == "first" else "-last"
                yield pytest.param(
                    op, k, kind, position, marks=marks, id=f"{op}{k}-{kind}{suffix}"
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


@pytest.mark.parametrize("op,k,kind,position", list(_cases()))
def test_tampered_package_fails_with_witness(
    package_blob, tmp_path, capsys, op, k, kind, position
):
    blob = copy.deepcopy(package_blob)
    entries = blob["operators"][op][k]["entries"]
    at = 0 if position == "first" else -1
    _, column, value = entries[at]
    if kind == "perturb_entry":
        entries[at][2] = str(Fraction(value) + 1)
    else:
        entries[:] = [e for e in entries if e[1] != column]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(blob))
    code = main(["rumin", "verify", str(path)])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 1
    assert any(r["status"] == "fail" and r.get("counterexample") for r in report), report
