"""perfbench/tracer.py wraps library names from outside the program.

A traced run must behave like the untraced CLI: same exit code, same
stdout.  A renamed or removed wrapped name (a GroupContext or RuminPackage
method, a `from ... import` binding in cli or linalg, cli's `json.load`)
crashes the traced run, so each command runs in a subprocess, because
`install()` patches modules for the whole interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

BUILD = ["rumin", "build", "heisenberg:2", "--max-poly-degree", "1"]
# PACKAGE stands for a package that BUILD writes first.  `rumin verify` reads
# it with the streamed `RuminPackage.read_json`, so the tracer's from_json
# wrapper and its `json` stand-in are installed but not called; only a package
# outside the writer's layout goes through them
PACKAGE = "{package}"
COMMANDS = [
    ["bgg", "heisenberg:2"],
    ["calculus", "verify", "heisenberg:2", "--max-poly-degree", "1"],
    BUILD,
    ["rumin", "verify", PACKAGE],
]


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(args, capture_output=True, cwd=ROOT, env=env, timeout=120)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_traced_run_matches_untraced(tmp_path, command):
    if PACKAGE in command:
        package = tmp_path / "pkg.json"
        built = _run([sys.executable, "-m", "ruminbgg.cli", *BUILD, "--out", str(package)])
        assert built.returncode == 0, built.stderr.decode()
        command = [str(package) if arg == PACKAGE else arg for arg in command]
    plain = _run([sys.executable, "-m", "ruminbgg.cli", *command])
    traced = _run([sys.executable, str(TRACER), str(tmp_path / "trace"), "--", *command])
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    assert (tmp_path / "trace").stat().st_size > 0
