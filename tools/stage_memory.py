"""Where a workload's resident memory grows: one run, stage by stage.

    python3 tools/stage_memory.py [TREE] --workload NAME [--seed 0] [--size full]

TREE's ``benchmarks/workloads.py`` writes the workload's input, then one
``specscale`` run of it goes to a fresh interpreter with the environment of
``benchmarks/run.py``'s ``worker_env()`` (BLAS and OpenMP pinned to one thread,
the allocator pinned to keep freed memory). That worker wraps each call of
``benchmarks/tracing.TARGETS`` and the CLI's ``main`` as ``cli.main``, and
reads its own ``/proc/self/status`` before and after each call. One line per
stage gives the growth, in kB, of VmHWM (the peak resident set), RssAnon and
RssFile over the stage's own time: over its calls, less the calls of other
stages made within them. ``import`` is ``import specscale.cli``. The stages'
growths add up to the ``total`` line, from the worker's start to the end of
the run; the last line gives the worker's VmHWM then. The peak resident set
grows only while a stage holds more than ever before, so the stage with the
largest VmHWM growth is the one that sets the peak. TREE defaults to the tree
this script sits in; its ``benchmarks/`` is read, never written, and every file
goes to a temporary directory. The exit code is 1 when the run fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("VmHWM", "RssAnon", "RssFile")
WORKER = "--stage-worker"  # the first argument of the measured child process

# run with TREE/src and TREE/benchmarks on the path: writes the input and
# prints the run's argv
_WRITE_INPUT = """
import json, sys
from workloads import WORKLOADS
name, seed, size, data, out = json.loads(sys.argv[1])
WORKLOADS[name].write_input(data, seed, size)
print(json.dumps(WORKLOADS[name].argv(data, out, seed)))
"""


def read_status():
    """This process's VmHWM, RssAnon and RssFile in kB, from /proc/self/status."""
    found = {}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            key, _, value = line.partition(":")
            if key in FIELDS:
                found[key] = int(value.split()[0])
    return [found[key] for key in FIELDS]


def stage_worker(tree, argv):
    """Run the CLI on ``argv`` with every traced call measured; returns the
    exit code, {stage: [calls, growth per field]} and the status at the
    worker's start and at the run's end."""
    start = read_status()
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    stages = {}
    stack = []  # per open call: the growth its nested calls took

    def measured(stage, fn, *args, **kwargs):
        row = stages.setdefault(stage, [0] * (len(FIELDS) + 1))  # in order of first call
        before = read_status()
        stack.append([0] * len(FIELDS))
        try:
            return fn(*args, **kwargs)
        finally:
            grown = [b - a for a, b in zip(before, read_status())]
            nested = stack.pop()
            if stack:
                stack[-1] = [s + g for s, g in zip(stack[-1], grown)]
            row[0] += 1
            row[1:] = [r + g - n for r, g, n in zip(row[1:], grown, nested)]

    def wrap(stage, fn):
        return lambda *args, **kwargs: measured(stage, fn, *args, **kwargs)

    import_start = read_status()
    import specscale.cli

    stages["import"] = [1, *(b - a for a, b in zip(import_start, read_status()))]
    from tracing import ROOT_SPAN, TARGETS

    for module_name, attr, stage in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, wrap(stage, getattr(module, attr)))
    try:
        code = measured(ROOT_SPAN, specscale.cli.main, argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    end = read_status()
    stages["(other)"] = [0, *(e - s - sum(row[i + 1] for row in stages.values())
                              for i, (s, e) in enumerate(zip(start, end)))]
    return code, stages, start, end


def main(argv=None):
    # imported by the parent alone, so that the measured worker holds no module
    # before its import of specscale.cli that benchmarks/worker.py would not:
    # ladder imports report_drift and, through it, hashlib (3.6 MB of libcrypto)
    import subprocess

    from ladder import last_line, worker_env

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT,
                        help="source tree to run (default: this one)")
    parser.add_argument("--workload", required=True, help="a workload of benchmarks/workloads.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    env = worker_env(tree)
    with tempfile.TemporaryDirectory() as work:
        job = [args.workload, args.seed, args.size, str(Path(work) / "input.csv"),
               str(Path(work) / "out")]
        made = subprocess.run(
            [sys.executable, "-B", "-c", _WRITE_INPUT, json.dumps(job)],
            env=dict(env, PYTHONPATH=str(tree / "src")), cwd=tree / "benchmarks",
            capture_output=True, text=True,
        )
        if made.returncode != 0:
            print(f"writing the input failed: {last_line(made.stderr)}")
            return 1
        done = subprocess.run(
            [sys.executable, "-B", __file__, WORKER, str(tree), made.stdout],
            env=env, cwd=work, capture_output=True, text=True,
        )
    if done.returncode != 0:
        print(f"the run failed: {last_line(done.stderr)}")
        return 1
    code, stages, start, end = json.loads(done.stdout.splitlines()[-1])
    if code != 0:
        print(f"the CLI exited {code}: {last_line(done.stderr)}")
        return 1
    print(f"{'stage':<28} {'calls':>5} {'vmhwm_kb':>9} {'rssanon_kb':>10} {'rssfile_kb':>10}")
    for stage, (calls, *grown) in stages.items():
        print(f"{stage:<28} {calls:>5} {grown[0]:>9} {grown[1]:>10} {grown[2]:>10}")
    total = [e - s for s, e in zip(start, end)]
    print(f"{'total':<28} {'':>5} {total[0]:>9} {total[1]:>10} {total[2]:>10}")
    print(f"VmHWM {end[0]} kB ({end[0] / 1024:.2f} MB)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [WORKER]:
        tree, argv = Path(sys.argv[2]), json.loads(sys.argv[3])
        print(json.dumps(stage_worker(tree, argv)))
        sys.exit(0)
    sys.exit(main())
