"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py             # everything, ~6 min
    python3 -m pytest perfbench/test_perfbench.py -k "not counts"   # seconds

The count-determinism test runs each workload traced three times: twice
with one seed and once with another. Every count must repeat exactly
across the first two; across seeds, every count except those that the
seeded calculus inputs feed (spec.SEED_DEPENDENT_COUNTS).
"""

import json
import re
import subprocess
import sys
from array import array

import pytest

import compare
import run
import spec
import tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_spec():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w["why"] for w in spec.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spec.per_layer_metrics()
    names = [m["name"] for m in bench["per_layer"] + bench["end_to_end"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_command_has_a_reference():
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    for workload in spec.WORKLOADS.values():
        for template in workload["setup"] + workload["commands"]:
            assert reference[template]["exit"] == 0


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] and b [5, 6]; the first b holds c [2, 3]
    names = ["a", "b", "c"]
    start = array("d", [0, 1, 2, 5])
    end = array("d", [10, 4, 3, 6])
    name = array("i", [0, 1, 2, 1])
    parent = array("i", [-1, 0, 1, 0])
    assert tracer.self_times(names, start, end, name, parent) == {
        "a": (6.0, 1),
        "b": (3.0, 2),
        "c": (1.0, 1),
    }


def test_trace_file_round_trips(tmp_path):
    rec = tracer.Recorder()
    outer = rec.wrap("outer", lambda f: f() + 1)
    inner = rec.wrap("inner", lambda: 41, lambda r, args, result: r.add("answers", result))
    assert outer(inner) == 42
    rec.dump(tmp_path / "t.trace")
    names, counters, *spans = tracer.load(tmp_path / "t.trace")
    assert counters == {"answers": 41}
    times = tracer.self_times(names, *spans)
    assert {k: calls for k, (_, calls) in times.items()} == {"outer": 1, "inner": 1}


def test_compare_refuses_other_backend(tmp_path, capsys):
    metrics = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "output_mb": 1.0, "setup_s": 1.0}
    for side, backend in (("base", "python"), ("new", "cython")):
        (tmp_path / side).mkdir()
        record = {"workload": "tables", "env": {"backend": backend}, "metrics": metrics}
        (tmp_path / side / "tables-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main(["compare.py", str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    assert compare.main(["compare.py", str(tmp_path / "base"), str(tmp_path / "base")]) == 0
    assert "refusing" in capsys.readouterr().err


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    return {name: metrics[name]["value"] for name in spec.count_metrics()}


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, 1)
    assert traced_counts(workload, 1) == first
    other = traced_counts(workload, 2)
    for name, value in first.items():
        if name not in spec.SEED_DEPENDENT_COUNTS:
            assert other[name] == value, name
