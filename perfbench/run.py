#!/usr/bin/env python3
"""End-to-end benchmark of the ruminbgg CLI.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every command of the workload runs as
`python -m ruminbgg.cli ...` with `src/` on PYTHONPATH, one child at a
time; passes over the workload repeat until --seconds have elapsed (at
least one). Each command's exit code and the SHA-256 of its stdout and
of its --out file must match perfbench/reference.json, or it counts as
failed.

--trace 0 reports the end-to-end metrics (medians over passes; setup_s is
the median of several setups). --trace 1 runs one untraced pass and one
pass under perfbench/tracer.py and reports the per-layer metrics from the
traced pass, with the tracing overhead as trace.overhead_s.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full record (environment, samples, per-command numbers)
goes to .perfbench_out/results/.
"""

import argparse
import hashlib
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COMMAND_TIMEOUT_S = 170


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in spec.UNSET_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = spec.PYTHONHASHSEED
    return env


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def out_path(args):
    return args[args.index("--out") + 1] if "--out" in args else None


class Runner:
    """Runs CLI commands one at a time and checks them against the reference.

    With `reference=None` nothing is checked; `record_reference.py` uses
    that to collect the digests.
    """

    def __init__(self, reference, cmd_seed):
        self.reference = reference
        self.cmd_seed = cmd_seed
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        (ROOT / spec.OUT_DIR).mkdir(exist_ok=True)
        self.stderr_path = ROOT / spec.OUT_DIR / "stderr.txt"

    def run(self, template, trace_path=None):
        args = shlex.split(template.format(seed=self.cmd_seed))
        target = out_path(args)
        if target:
            (ROOT / target).parent.mkdir(parents=True, exist_ok=True)
            (ROOT / target).unlink(missing_ok=True)
        if trace_path is None:
            argv = [sys.executable, "-m", "ruminbgg.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *args]
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        got = {
            "exit": proc.returncode,
            "stdout": hashlib.sha256(stdout).hexdigest(),
            "out": sha256_file(ROOT / target) if target and (ROOT / target).exists() else None,
        }
        out_bytes = len(stdout) + (os.path.getsize(ROOT / target) if got["out"] else 0)
        ok = self.reference is None or got == self.reference.get(template)
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            print(f"FAILED {template!r} (seed {self.cmd_seed}): got {got}, "
                  f"want {self.reference.get(template)}\n{tail}", file=sys.stderr)
        return {
            "command": template,
            "ok": ok,
            "digests": got,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "output_bytes": out_bytes,
        }

    def run_pass(self, templates, trace_dir=None):
        results = []
        for i, template in enumerate(templates):
            trace_path = None if trace_dir is None else trace_dir / f"{i}.trace"
            results.append(self.run(template, trace_path))
        return {
            "wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "output_mb": sum(r["output_bytes"] for r in results) / 1e6,
            "commands": results,
        }


def probe_environment(env):
    """Imports the package under test in a child; its backend, Python and CPUs."""
    code = (
        "import json, os, platform, ruminbgg; print(json.dumps({"
        "'backend': ruminbgg.KERNEL_BACKEND, 'python': platform.python_version(), "
        "'nproc': len(os.sched_getaffinity(0)), 'version': ruminbgg.__version__}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import ruminbgg from {ROOT / 'src'}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def setup(workload, runner, reps):
    """Probe the environment and build the workload's inputs, `reps` times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        env_info = probe_environment(runner.env)
        for template in workload["setup"]:
            runner.run(template)
        times.append(time.perf_counter() - t0)
    return env_info, times


def summary(values):
    """(median, q1, q3) of the samples; quartiles collapse below two samples."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def aggregate_traces(trace_dir, count):
    """Per-layer metrics summed over one traced pass of `count` commands."""
    metrics = {name: 0 for name, _ in spec.per_layer_metrics()}
    for i in range(count):
        names, counters, *spans = tracer.load(trace_dir / f"{i}.trace")
        for span, (seconds, calls) in tracer.self_times(names, *spans).items():
            metrics[f"{span}.s"] += seconds
            if f"{span}.calls" in metrics:
                metrics[f"{span}.calls"] += calls
        for counter, n in counters.items():
            if counter in tracer.MAX_COUNTERS:
                metrics[counter] = max(metrics[counter], n)
            else:
                metrics[counter] += n
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (ROOT / "src" / "ruminbgg" / "cli.py").is_file():
        sys.exit(f"error: no ruminbgg sources under {ROOT / 'src'}; run from a checkout")
    workload = spec.WORKLOADS[opts.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    rng = random.Random(opts.seed)
    runner = Runner(reference, cmd_seed=rng.randrange(1, 2**31))
    commands = list(workload["commands"])
    rng.shuffle(commands)
    (ROOT / spec.OUT_DIR / "results").mkdir(parents=True, exist_ok=True)

    env_info, setup_times = setup(workload, runner, 1 if opts.trace else workload["setup_reps"])
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
              "cmd_seed": runner.cmd_seed, "commands": commands, "env": env_info,
              "setup_s": setup_times}

    if opts.trace:
        trace_dir = ROOT / spec.OUT_DIR / "trace" / opts.workload
        trace_dir.mkdir(parents=True, exist_ok=True)
        plain = runner.run_pass(commands)
        traced = runner.run_pass(commands, trace_dir)
        metrics = aggregate_traces(trace_dir, len(commands))
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = dict(spec.per_layer_metrics())
        record["passes"] = [plain, traced]
        print(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s, "
              f"overhead {metrics['trace.overhead_s']:.3f} s")
        for name, value in metrics.items():
            print(f"{name:45s} {value:>14.6g} {units[name]}")
    else:
        passes = []
        deadline = time.perf_counter() + opts.seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(runner.run_pass(commands))
        record["passes"] = passes
        samples = {m: [p[m] for p in passes] for m in ("wall_s", "cpu_s", "peak_rss_mb", "output_mb")}
        samples["setup_s"] = setup_times
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB", "setup_s": "s"}
        metrics = {}
        for name, values in samples.items():
            med, q1, q3 = summary(values)
            metrics[name] = med
            print(f"{name:12s} median {med:12.6f} {units[name]:2s}  "
                  f"quartiles [{q1:.6f}, {q3:.6f}]  n={len(values)}")

    error_rate = runner.failed / runner.attempted
    print(f"{'error_rate':12s} {error_rate:.6f} ({runner.failed}/{runner.attempted} commands)")
    print(f"backend {env_info['backend']}, python {env_info['python']}, "
          f"nproc {env_info['nproc']}, command seed {runner.cmd_seed}")
    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  error_rate=error_rate)
    result_path = ROOT / spec.OUT_DIR / "results" / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
