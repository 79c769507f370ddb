"""Compare the reports two source trees write for the same CLI runs.

    python3 tools/report_drift.py BASE_TREE CHANGE_TREE [--size full|tiny]
        [--seeds 0-4] [--workload NAME|all|configs]

``all`` runs the three benchmark workloads, or NAME one of them; each input is
written by BASE_TREE's ``benchmarks/workloads.py``. ``configs`` runs the fixed
CLI configurations of ``CONFIGS``, paths the benchmark does not take, each on
the input that BASE_TREE's ``generate --samples N --seed SEED`` writes, and
then ``REFORMATTED_CONFIG`` on that input rewritten in each of the
``REFORMATS``, so that both of the loader's parsers run. Every input is
written once per seed, and both trees then run the same argv on that same
file, each in a fresh interpreter with BASE_TREE/src or CHANGE_TREE/src on
the path and BLAS/OpenMP pinned to one thread. For every report.csv column
the comparison prints "identical" or the largest absolute and relative
difference, and it lists the keys whose values differ between the two
manifest.json files. The exit code is 1 when a CLI exit code differs between
the trees or a run changed its input file, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
OUT = "<output-dir>"  # stands for each tree's own output directory in an argv

# run with BASE_TREE/src and BASE_TREE/benchmarks on the path: writes every
# requested input and prints [name, seed, input path, argv] for each
_WRITE_INPUTS = """
import json, sys
from pathlib import Path
from workloads import WORKLOADS
names, seeds, size, work = json.loads(sys.argv[1])
jobs = []
for name in (list(WORKLOADS) if names == ["all"] else names):
    for seed in seeds:
        path = Path(work) / f"{name}-seed{seed}.csv"
        WORKLOADS[name].write_input(path, seed, size)
        jobs.append([name, seed, str(path), WORKLOADS[name].argv(path, sys.argv[2], seed)])
print(json.dumps(jobs))
"""
_RUN_CLI = "import sys; from specscale.cli import main; sys.exit(main(sys.argv[1:]))"

# name -> (samples at size full and tiny, CLI argv without --data/--output-dir):
# the unscaled kernels, the "auto" target, 1-NN in three dimensions, a sweep
# through the near-square 5% pencil at three widths, and leave-one-out
CONFIGS = {
    "cluster-unscaled": ((800, 120), ["cluster", "--no-feature-scaling", "--repetitions", "4"]),
    "classify-unscaled": (
        (800, 120),
        ["classify", "--no-feature-scaling", "--ell", "2", "--repetitions", "3"],
    ),
    "cluster-auto": ((800, 120), ["cluster", "--fiedler-negative", "auto", "--repetitions", "3"]),
    "classify-auto": (
        (800, 120),
        ["classify", "--fiedler-negative", "auto", "--repetitions", "3"],
    ),
    "classify-ell3": ((800, 120), ["classify", "--ell", "3", "--repetitions", "3"]),
    "sweep": (
        (200, 80),
        ["sweep", "--task", "classify", "--fractions", "0.05,0.1,0.2", "--repetitions", "5",
         "--sigma-grid", "0.1,1,10"],
    ),
    "loocv-grid": ((60, 24), ["loocv", "--sigma-grid", "0.1,1,100"]),
    "loocv-auto": ((60, 24), ["loocv", "--fiedler-negative", "auto"]),
}


def _six_digits(text):
    header, *rows = text.splitlines()
    cells = (",".join("%.6g" % float(c) for c in row.split(",")) for row in rows)
    return "".join(line + "\n" for line in [header, *cells])


# name -> rewrite of a generated CSV's text. The decimal reader reads the
# tab-delimited copy, as it reads the CSV itself; CRLF line ends and cells of
# six digits go to np.loadtxt.
REFORMATS = {
    "tab": lambda text: text.replace(",", "\t"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "6g": _six_digits,
}
REFORMATTED_CONFIG = "classify-auto"


def _env(*paths):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def write_inputs(base, names, seeds, size, work):
    """Write every input with BASE_TREE's workloads; returns the jobs to run."""
    proc = subprocess.run(
        [sys.executable, "-c", _WRITE_INPUTS, json.dumps([names, seeds, size, str(work)]), OUT],
        env=_env(base / "src", base / "benchmarks"), cwd=work,
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def write_config_inputs(base, seeds, size, work):
    """Write each configuration's inputs with BASE_TREE's ``generate``, once per
    (samples, seed), and the reformatted copies; returns the jobs to run."""
    jobs = []
    for name, (samples, argv) in CONFIGS.items():
        n = samples[size == "tiny"]
        for seed in seeds:
            path = work / f"generate-{n}-seed{seed}.csv"
            if not path.exists():
                subprocess.run(
                    [sys.executable, "-c", _RUN_CLI, "generate", "--samples", str(n),
                     "--seed", str(seed), "--out", str(path)],
                    env=_env(base / "src"), cwd=work, capture_output=True, check=True,
                )
            jobs.append([name, seed, str(path), [*argv, "--data", str(path), "--output-dir", OUT]])
    samples, argv = CONFIGS[REFORMATTED_CONFIG]
    for fmt, rewrite in REFORMATS.items():
        for seed in seeds:
            path = work / f"generate-{samples[size == 'tiny']}-seed{seed}.csv"
            copy = path.with_suffix(f".{fmt}.txt")
            copy.write_bytes(rewrite(path.read_text(encoding="utf-8")).encode("utf-8"))
            jobs.append([f"{REFORMATTED_CONFIG}-{fmt}", seed, str(copy),
                         [*argv, "--data", str(copy), "--output-dir", OUT]])
    return jobs


def run_cli(tree, argv, out_dir):
    """Exit code, report.csv text and manifest.json text of one fresh-process run."""
    argv = [str(out_dir) if arg == OUT else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *argv], env=_env(tree / "src"), cwd=out_dir.parent,
        capture_output=True, text=True,
    )
    texts = [
        (out_dir / name).read_text(encoding="utf-8") if (out_dir / name).exists() else ""
        for name in ("report.csv", "manifest.json")
    ]
    return proc.returncode, *texts


def column_drift(base_text, change_text):
    """Per report.csv column: None when identical, (max abs, max rel) when the
    differing cells are numbers, else the count of differing cells."""
    base = list(csv.DictReader(io.StringIO(base_text)))
    change = list(csv.DictReader(io.StringIO(change_text)))
    columns = list(dict.fromkeys([*(base[0] if base else {}), *(change[0] if change else {})]))
    drift = {}
    for column in columns:
        cells = [(a.get(column, ""), b.get(column, "")) for a, b in zip(base, change)]
        differing = [(x, y) for x, y in cells if x != y]
        if not differing:
            drift[column] = None
            continue
        try:
            pairs = [(float(x), float(y)) for x, y in differing]
        except ValueError:
            drift[column] = len(differing)
            continue
        drift[column] = (
            max(abs(x - y) for x, y in pairs),
            max(abs(x - y) / (max(abs(x), abs(y)) or 1.0) for x, y in pairs),
        )
    return drift


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def manifest_drift(base_text, change_text):
    """Keys (dotted paths) whose values differ between two manifest.json texts."""
    base = dict(_flatten(json.loads(base_text))) if base_text else {}
    change = dict(_flatten(json.loads(change_text))) if change_text else {}
    missing = object()
    return sorted(
        key for key in {*base, *change} if base.get(key, missing) != change.get(key, missing)
    )


def format_drift(columns, manifest_keys, n_base_rows, n_change_rows):
    lines = []
    if n_base_rows != n_change_rows:
        lines.append(f"  report.csv rows: {n_base_rows} against {n_change_rows}")
    for column, drift in columns.items():
        if drift is None:
            text = "identical"
        elif isinstance(drift, tuple):
            text = f"max abs {drift[0]:.3g}, max rel {drift[1]:.3g}"
        else:
            text = f"{drift} cells differ"
        lines.append(f"  {column}: {text}")
    lines.append(
        "  manifest.json: "
        + ("identical" if not manifest_keys else "differs at " + ", ".join(manifest_keys))
    )
    return lines


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_seeds(text):
    """'0-4' or '0,2,5' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-4"))
    parser.add_argument(
        "--workload", default="all", help="a workload name, all (the three) or configs"
    )
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()

    failed = False
    with tempfile.TemporaryDirectory(prefix="report-drift-") as tmp:
        work = Path(tmp)
        if args.workload == "configs":
            jobs = write_config_inputs(base, args.seeds, args.size, work)
        else:
            jobs = write_inputs(base, [args.workload], args.seeds, args.size, work)
        for name, seed, data, cli_argv in jobs:
            digest = _digest(data)
            base_run = run_cli(base, cli_argv, work / f"{name}-{seed}-base")
            change_run = run_cli(change, cli_argv, work / f"{name}-{seed}-change")
            print(f"== {name} seed {seed}: exit {base_run[0]} (base), {change_run[0]} (change)")
            if base_run[0] != change_run[0]:
                failed = True
            if _digest(data) != digest:
                print("  the input file changed during the runs")
                failed = True
            rows = [len(r[1].splitlines()) - 1 for r in (base_run, change_run)]
            columns = column_drift(base_run[1], change_run[1])
            for line in format_drift(columns, manifest_drift(base_run[2], change_run[2]), *rows):
                print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
