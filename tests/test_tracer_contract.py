"""perfbench/tracer.py wraps library names from outside the program.

A traced run must behave like the untraced CLI: same exit code, same
stdout.  A renamed or removed wrapped name (a GroupContext or RuminPackage
method, a `from ... import` binding in cli or linalg, cli's `json.load`)
crashes the traced run, so each command runs in a subprocess, because
`install()` patches modules for the whole interpreter.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

BUILD = ["rumin", "build", "heisenberg:2", "--max-poly-degree", "1"]
# PACKAGE stands for a package that BUILD writes first, and COMPACT for a
# compact copy of it.  `rumin verify` reads PACKAGE with the streamed
# `RuminPackage.read_json`; COMPACT is outside the writer's layout, so it goes
# through the tracer's `json` stand-in and from_json wrapper
PACKAGE = "{package}"
COMPACT = "{compact package}"
# OUT stands for a fresh --out path per run, so that the package written
# under the tracer can be compared with the untraced one
OUT = "{out}"
# truncate runs `truncation_ranks`' package and strips the wrapped
# `strip_table`, which the other commands reach by no path
COMMANDS = [
    ["bgg", "heisenberg:2"],
    ["strips", "heisenberg:2", "--format", "csv"],
    ["truncate", "heisenberg:2"],
    ["calculus", "verify", "heisenberg:2", "--max-poly-degree", "1"],
    BUILD,
    [*BUILD, "--out", OUT],
    ["rumin", "verify", PACKAGE],
    ["rumin", "verify", COMPACT],
]


def _command_id(command):
    suffix = " compact" if COMPACT in command else " out" if OUT in command else ""
    return " ".join(command[:2]) + suffix


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(args, capture_output=True, cwd=ROOT, env=env, timeout=120)


def _out(command, path):
    return [str(path) if arg == OUT else arg for arg in command]


@pytest.mark.parametrize("command", COMMANDS, ids=_command_id)
def test_traced_run_matches_untraced(tmp_path, command):
    whole_file = COMPACT in command
    if PACKAGE in command or whole_file:
        package = tmp_path / "pkg.json"
        built = _run([sys.executable, "-m", "ruminbgg.cli", *BUILD, "--out", str(package)])
        assert built.returncode == 0, built.stderr.decode()
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(json.loads(package.read_text())))
        paths = {PACKAGE: str(package), COMPACT: str(compact)}
        command = [paths.get(arg, arg) for arg in command]
    out = {run: tmp_path / f"{run}.json" for run in ("plain", "traced")}
    plain = _run([sys.executable, "-m", "ruminbgg.cli", *_out(command, out["plain"])])
    traced = _run(
        [sys.executable, str(TRACER), str(tmp_path / "trace"), "--", *_out(command, out["traced"])]
    )
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    if OUT in command:
        # the writer ran under the tracer and wrote the same package
        assert out["traced"].read_bytes() == out["plain"].read_bytes()
        assert traced.stdout == plain.stdout.replace(b"plain.json", b"traced.json")
    else:
        assert traced.stdout == plain.stdout
    assert (tmp_path / "trace").stat().st_size > 0
    if whole_file:
        # the fallback ran through the from_json wrapper and the json stand-in
        spec = importlib.util.spec_from_file_location("tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names, _, *spans = tracer.load(tmp_path / "trace")
        calls = {name: c for name, (_, c) in tracer.self_times(names, *spans).items()}
        assert calls["rumin.from_json"] == calls["cli.load_package"] == 1
