"""`rumin verify` rejects a package whose stored q, pi or D was corrupted.

Each non-empty operator block of a heisenberg:2 P=2 package gets two
tampers at its first stored entry: the entry is perturbed, or every entry
of its column is dropped.  A tampered package must exit 1 with at least one
failed row that names a counterexample.  Which rows fail is not pinned.
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
CHAIN_MAP_GAP = pytest.mark.xfail(
    strict=True,
    reason="no chain-map row d . iota^-1 = iota^-1 . D yet (ROADMAP item 3); "
    "D_squared and fiber_restriction do not see this change to D(0)",
)


def _cases():
    for op, k in BLOCKS:
        for kind in ("perturb_entry", "drop_column"):
            marks = [CHAIN_MAP_GAP] if (op, k) == ("D", "0") else []
            yield pytest.param(op, k, kind, marks=marks, id=f"{op}{k}-{kind}")


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


@pytest.mark.parametrize("op,k,kind", list(_cases()))
def test_tampered_package_fails_with_witness(package_blob, tmp_path, capsys, op, k, kind):
    blob = copy.deepcopy(package_blob)
    entries = blob["operators"][op][k]["entries"]
    _, column, value = entries[0]
    if kind == "perturb_entry":
        entries[0][2] = str(Fraction(value) + 1)
    else:
        entries[:] = [e for e in entries if e[1] != column]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(blob))
    code = main(["rumin", "verify", str(path)])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 1
    assert any(r["status"] == "fail" and r.get("counterexample") for r in report), report
