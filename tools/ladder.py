"""Run the size ladder: one ``classify`` per rung, each in a fresh process.

    python3 tools/ladder.py [TREE] [--sizes 800,3200,12800,51200] [--seeds 0]

For each seed S and size n, TREE's CLI writes ``generate --seed S --samples n``
and TREE's ``benchmarks/worker.py`` runs ``classify --ell 2 --fiedler-negative
auto --sigma-grid 1.0 --repetitions 1 --seed S`` on it, in a fresh interpreter
with the environment of ``benchmarks/run.py``'s ``worker_env()`` (BLAS and
OpenMP pinned to one thread, the allocator pinned), so that the peak RSS is
the rung's own. One line per rung gives its ``wall_s`` (``cli.main`` from
argv to reports written), ``peak_rss_mb`` and ``ri``. TREE defaults to the
tree this script sits in; its ``benchmarks/`` is read, never written, and
every file goes to a temporary directory. The exit code is 1 when a rung
fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from report_drift import parse_seeds

ROOT = Path(__file__).resolve().parents[1]
COMMAND = ["classify", "--ell", "2", "--fiedler-negative", "auto", "--sigma-grid", "1.0",
           "--repetitions", "1"]
_RUN_CLI = "import sys; from specscale.cli import main; sys.exit(main(sys.argv[1:]))"
_WORKER_ENV = "import json, run; print(json.dumps(run.worker_env()))"


def worker_env(tree):
    """The environment ``benchmarks/run.py`` gives its workers, read from
    TREE's own copy without writing bytecode there."""
    proc = subprocess.run([sys.executable, "-B", "-c", _WORKER_ENV], cwd=tree / "benchmarks",
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_rung(tree, env, seed, n, work):
    """(wall_s, peak_rss_mb, ri) of one rung, or the text of its failure."""
    data, out, result = work / f"n{n}-seed{seed}.csv", work / "out", work / "result.json"
    made = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, "generate", "--samples", str(n), "--seed", str(seed),
         "--out", str(data)],
        env=dict(env, PYTHONPATH=str(tree / "src")), capture_output=True, text=True,
    )
    if made.returncode != 0:
        return f"generate exited {made.returncode}: {last_line(made.stderr)}"
    argv = [*COMMAND, "--seed", str(seed), "--data", str(data), "--output-dir", str(out)]
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "worker.py"), str(result), "0", "--", *argv],
        env=env, cwd=tree, capture_output=True, text=True,
    )
    run = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {}
    if run.get("exit_code") != 0:
        return f"classify exited {run.get('exit_code')}: {last_line(done.stderr)}"
    with open(out / "report.csv", encoding="utf-8", newline="") as handle:
        (row,) = csv.DictReader(handle)
    return run["wall_s"], run["peak_rss_mb"], float(row["ri"] or "nan")


def last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def parse_sizes(text):
    return [int(part) for part in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT,
                        help="source tree to run (default: this one)")
    parser.add_argument("--sizes", type=parse_sizes, default=[800, 3200, 12800, 51200],
                        help="the rungs' sample counts, as '800,3200'")
    parser.add_argument("--seeds", type=parse_seeds, default=[0],
                        help="the seeds, as '0-2' or '0,3' (default 0)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    env = worker_env(tree)
    print(f"{'seed':>4} {'n':>6} {'wall_s':>9} {'peak_rss_mb':>11} {'ri':>7}", flush=True)
    for seed in args.seeds:
        for n in args.sizes:
            with tempfile.TemporaryDirectory() as work:
                rung = run_rung(tree, env, seed, n, Path(work))
            if isinstance(rung, str):
                print(f"{seed:>4} {n:>6} failed: {rung}", flush=True)
                return 1
            wall_s, peak_rss_mb, ri = rung
            print(f"{seed:>4} {n:>6} {wall_s:>9.4f} {peak_rss_mb:>11.2f} {ri:>7.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
