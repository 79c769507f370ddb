"""Run the benchmark on two source trees, seed by seed, in alternating order.

    python3 tools/paired_bench.py PARENT_TREE CHANGE_TREE --seeds 0-9 --seconds 12
        [--workload NAME|all]

For each seed, ``benchmarks/run.py --workload W --seed SEED --seconds S --trace 0``
runs in each tree (its own ``benchmarks/`` and ``src/``, from the tree's
root), the parent first on even seeds and the change first on odd ones, so
that a drift of the machine's speed during the sweep falls on both sides
alike. Each run writes its result file to the tree's ``.bench_results/``,
where ``tools/bench_summary.py PARENT_TREE CHANGE_TREE --seeds ...`` reads it.
A line per run goes to standard output; the runs' own output is discarded.
The exit code is 1, and the sweep stops, when a run exits nonzero.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from report_drift import parse_seeds


def run_argv(workload, seed, seconds):
    """The benchmark call of one run, relative to a tree's root."""
    return [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", "0"]


def paired_order(parent, change, seed):
    """The two trees in the order they run at ``seed``: parent first when even."""
    return [("parent", parent), ("change", change)][:: 1 if seed % 2 == 0 else -1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="the paired seeds, as '0-9' or '1,3,5'")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length per workload (benchmarks/run.py --seconds)")
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for side, tree in paired_order(args.parent.resolve(), args.change.resolve(), seed):
            proc = subprocess.run(run_argv(args.workload, seed, args.seconds), cwd=tree,
                                  stdout=subprocess.DEVNULL)
            print(f"seed {seed} {side}: exit {proc.returncode}", flush=True)
            if proc.returncode != 0:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
