#!/usr/bin/env python3
"""Minor page faults and wall time per warm battery, workload by workload.

    python3 scripts/fault_count.py [--batteries K] [--seed S] [WORKLOAD ...]

A battery is a benchmark workload's list of ``schrogeo.cli.main`` calls
(read from ``WORKLOADS`` in ``perfbench/run.py``), each run with ``--seed
--format json`` and its report written to a temporary file; the batteries
take turns at the two ``--seed`` values that ``perfbench/run.py`` derives
from the workload seed S (``cli_seeds``).  Each workload runs in a fresh
interpreter with the benchmark's environment (``child_env``: BLAS threads
pinned to 1, ``src/`` of this checkout first on the path): one cold
battery, then K warm ones.  For each warm battery the child reads
``ru_minflt`` of ``getrusage(RUSAGE_SELF)`` and ``time.perf_counter``
before and after; the table gives their medians.  Unix only (``resource``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perfbench():
    """``perfbench/run.py`` as a module, for its workloads and seeds."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(calls: list, seeds: list[int], batteries: int) -> list[dict]:
    """The cold battery, then ``batteries`` warm ones, in this process."""
    from schrogeo import cli

    turn = 0

    def battery(out: str) -> dict:
        nonlocal turn
        seed = str(seeds[turn % len(seeds)])
        turn += 1
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        for call in calls:
            cli.main([*call, "--seed", seed, "--format", "json", "--out", out])
        seconds = time.perf_counter() - start
        return {
            "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
            "seconds": seconds,
        }

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        battery(out)
        return [battery(out) for _ in range(batteries)]


def measure(name: str, seed: int, batteries: int, env: dict) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", name, "--seed", str(seed),
         "--batteries", str(batteries)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    bench = perfbench()
    table = bench.WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="*", help=f"any of {', '.join(sorted(table))} (default: all)")
    parser.add_argument("--batteries", type=int, default=9, help="warm batteries per workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed, as perfbench's --seed")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(table))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}")

    if args.child:
        runs = run_child(table[args.child], bench.cli_seeds(args.seed), args.batteries)
        print(json.dumps(runs))
        return 0
    print(f"{'workload':<14} {'minor faults':>12} {'wall ms':>9}")
    for name in args.workload or sorted(table):
        runs = measure(name, args.seed, args.batteries, bench.child_env())
        faults = statistics.median(r["faults"] for r in runs)
        ms = 1e3 * statistics.median(r["seconds"] for r in runs)
        print(f"{name:<14} {faults:>12.0f} {ms:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
