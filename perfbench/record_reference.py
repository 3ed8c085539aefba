#!/usr/bin/env python3
"""Write perfbench/reference.json: exit code and SHA-256 digests per command.

    python3 perfbench/record_reference.py

Runs every setup and measured command of every workload once from the
current tree, twice for commands that take a seed (with two different
seeds, which must give the same bytes), and records for each command
template its exit code, the digest of its stdout and that of its --out
file. Record from a commit whose outputs are known good; the benchmark
counts any later difference as a failed command.
"""

import json
import sys

import run
import spec


def main():
    reference = {}
    for name, workload in spec.WORKLOADS.items():
        for template in workload["setup"] + workload["commands"]:
            seeds = (1, 2) if "{seed}" in template else (1,)
            digests = [run.Runner(None, seed).run(template)["digests"] for seed in seeds]
            if any(d != digests[0] for d in digests):
                sys.exit(f"{template!r} depends on its seed: {digests}")
            reference[template] = digests[0]
            print(f"{name}: {template} -> exit {digests[0]['exit']}", flush=True)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
