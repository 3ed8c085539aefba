#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (copies of
.perfbench_out/results/ from two commits). For every workload and
end-to-end metric it prints the median and quartiles over runs on each
side and the change against the metric's bound in BENCHMARK.json.
Results made with different kernel backends are not comparable: the
script refuses them with exit code 2. It exits 1 if a median got worse
by more than its bound.
"""

import json
import sys
from pathlib import Path

from run import ROOT, summary


def load_runs(directory):
    """{workload: [metrics]} of the untraced runs, and the set of backends."""
    runs, backends = {}, set()
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record["metrics"])
        backends.add(record["env"]["backend"])
    return runs, backends


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: compare.py BASE_DIR NEW_DIR")
    base, base_backends = load_runs(argv[1])
    new, new_backends = load_runs(argv[2])
    if not base or not new:
        sys.exit("no *-trace0.json result files in one of the directories")
    if len(base_backends | new_backends) != 1:
        print(f"refusing to compare: kernel backends differ ({sorted(base_backends)} vs "
              f"{sorted(new_backends)})", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = False
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}  (runs: base {len(base[workload])}, new {len(new[workload])})")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = summary([m[name] for m in base[workload]])
            n = summary([m[name] for m in new[workload]])
            change = n[0] / b[0] - 1
            regressed = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
            worse |= regressed
            print(f"  {name:12s} base {b[0]:.4f} [{b[1]:.4f}, {b[2]:.4f}]  "
                  f"new {n[0]:.4f} [{n[1]:.4f}, {n[2]:.4f}]  {change:+.1%}"
                  f"{'  WORSE than bound ' + str(metric['bound']) if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
