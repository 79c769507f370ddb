"""specscale benchmark: one entry point for every workload and metric.

    python3 benchmarks/run.py --workload toy-cluster --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

Writes the workload's input file, then runs the ``specscale`` CLI in fresh
worker processes (BLAS and OpenMP pinned to one thread, the allocator pinned
to keep freed memory) until ``--seconds`` is used up, with at least two
workers. It checks every worker's outputs,
prints each metric by name and unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones in BENCHMARK.json; with ``--trace 1`` the
workers alternate untraced and traced runs and the metrics are the per-layer
ones. The exit code is 1 when an output check fails and 2 when the program
cannot be found. A detailed result file goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs, report_rows
from tracing import ROOT_SPAN, TARGETS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

THREADS = 1  # BLAS/OpenMP threads per worker; the worker is the only load
SETUP_PROBES = 3  # import-only workers before each measured one; set-up time is their median
TRACE_SUM_TOL = 1e-3  # share of the wall time (at least 1 ms) the self times may miss by: the root call's overhead
DEADLINE_S = 170.0  # every invocation of one workload ends well within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# glibc malloc: every allocation from the heap, and freed memory is kept. On the
# VM the baseline was measured on, a page fault took ~25 us, and with the default
# thresholds the wide pencil spent a quarter of its time faulting in memory it
# had just returned (sys 3.8 of 15.5 s); its wall time drifted by up to 27%
# between sweeps of the same code while the other workloads moved by 5 to 9%.
ALLOCATOR_VARS = {"MALLOC_MMAP_THRESHOLD_": str(1 << 32), "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}

# span name -> per-layer self-time metric, where it is not "<span>_s"
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "experiments.run_pipeline": "experiments.self_s",
}
# spans whose call count is reported as "<span>_calls"; the others run once per run
COUNTED_SPANS = (
    "similarity.pair_tensor", "similarity.graph", "scaling.assemble", "scaling.learn",
    "scaling.linviol", "eigensolvers.pencil", "eigensolvers.residual",
    "eigensolvers.symeig", "embedding.embed", "clustering.kmeans", "clustering.nn1",
    "metrics.score",
)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _summary(values):
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": _median(values), "q1": q1, "q3": q3, "n": len(values)}


def worker_env():
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env.update(ALLOCATOR_VARS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn_worker(result_path, traced, cli_argv, timeout):
    """Run worker.py in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(result_path), "1" if traced else "0",
           "--", *cli_argv]
    result_path.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=timeout)
        stderr = proc.stderr.decode("utf-8", "replace")
    except subprocess.TimeoutExpired:
        stderr = f"worker timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - started
    if result_path.exists():
        run = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        run = {"exit_code": None}
    run.update(traced=traced, elapsed_s=elapsed, stderr=stderr[-2000:])
    return run


def run_worker(argv, work, index, traced, timeout):
    """One fresh-process measurement; returns its timings and its outputs."""
    out_dir = work / f"out{index}"
    run = spawn_worker(work / f"worker{index}.json", traced, argv(out_dir), timeout)
    for name, file in (("report", "report.csv"), ("manifest", "manifest.json")):
        path = out_dir / file
        run[name] = path.read_bytes() if path.exists() else None
    shutil.rmtree(out_dir, ignore_errors=True)
    return run


def measure(workload, seed, seconds, trace, size, work, began):
    """Run rounds until the time is used up; at least two, alternating when traced.

    An untraced round is SETUP_PROBES import-only workers and then one measured
    worker, so the set-up samples are spread over the whole run.
    """
    data_path = work / "input.csv"
    workload.write_input(data_path, seed, size)

    def argv(out_dir):
        return workload.argv(data_path, out_dir, seed)

    start = time.perf_counter()
    setups, runs, rounds = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if len(runs) >= 2 and elapsed + _median(rounds) > seconds:
            break
        remaining = DEADLINE_S - (time.perf_counter() - began)
        if remaining <= 1.0:
            break
        round_start = time.perf_counter()
        for _ in range(0 if trace else SETUP_PROBES):
            probe = spawn_worker(work / "probe.json", False, [], remaining)
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
        traced = trace and len(runs) % 2 == 1
        remaining = DEADLINE_S - (time.perf_counter() - began)
        runs.append(run_worker(argv, work, len(runs), traced, remaining))
        rounds.append(time.perf_counter() - round_start)
    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    return runs, setups


def _selected(manifest):
    """The manifest's aggregate at the sigma the program selected (best mean RI)."""
    report = manifest["reports"][0]
    return next(a for a in report["aggregates"] if a["sigma"] == report["selected_sigma"])


def _failed_frac(rows):
    return sum(1 for r in rows if r["error"]) / len(rows)


def end_to_end_metrics(untraced, setups, rows, manifest):
    return {
        "wall_s": _summary([r["wall_s"] for r in untraced]),
        "setup_s": _summary(setups),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in untraced]),
        "ri": _summary([_selected(manifest)["ri_mean"]]),
        "ok_frac": _summary([1.0 - _failed_frac(rows)]),
    }


def _floats(rows, column):
    return [float(r[column]) for r in rows if r[column] != ""]


def per_layer_metrics(traced, untraced, rows, manifest):
    """Per-layer self times (median over traced workers) and counts."""
    span_names = {ROOT_SPAN} | {span for _, _, span in TARGETS}
    per_run = []
    for run in traced:
        totals, calls = self_times(run["spans"])
        layer = dict.fromkeys((SELF_METRIC.get(n, n + "_s") for n in span_names), 0.0)
        for name, value in totals.items():
            layer[SELF_METRIC.get(name, name + "_s")] += value
        per_run.append((layer, calls))
    out = {}
    for key in sorted(per_run[0][0]):
        out[key] = _summary([layer[key] for layer, _ in per_run])
    walls = [r["wall_s"] for r in traced]
    out["trace.wall_s"] = _summary(walls)
    out["trace.overhead_frac"] = _summary(
        [_median(walls) / _median([r["wall_s"] for r in untraced]) - 1.0]
    )

    spans = traced[0]["spans"]
    calls = per_run[0][1]
    for name in COUNTED_SPANS:
        out[name + "_calls"] = _summary([calls.get(name, 0)])

    def attrs(name, key):
        return [s[5][key] for s in spans if s[1] == name and s[5] and key in s[5]]

    pencils = {s[0] for s in spans if s[1] == "eigensolvers.pencil"}
    candidates = sum(1 for s in spans if s[1] == "eigensolvers.residual" and s[2] in pencils)
    pairs = sum(attrs("eigensolvers.pencil", "pairs"))
    out["similarity.pair_tensor_bytes"] = _summary([max(attrs("similarity.pair_tensor", "bytes"), default=0)])
    out["similarity.graph_edges"] = _summary([sum(attrs("similarity.graph", "edges"))])
    out["scaling.solves_per_learn"] = _summary(
        [calls.get("eigensolvers.pencil", 0) / max(calls.get("scaling.learn", 0), 1)]
    )
    out["eigensolvers.pencil_candidates"] = _summary([candidates])
    out["eigensolvers.pencil_yield"] = _summary([pairs / candidates if candidates else 0.0])
    eigenvalues = [v for vs in attrs("embedding.embed", "eigenvalues") for v in vs]
    out["embedding.eigenvalue_median"] = _summary([_median(eigenvalues)])

    n = len(rows)
    out["scaling.certified_frac"] = _summary([sum(r["certified"] == "true" for r in rows) / n])
    out["scaling.unscaled_frac"] = _summary([sum(r["scaled"] != "true" for r in rows) / n])
    out["scaling.mu_median"] = _summary([_median(_floats(rows, "mu"))])
    out["scaling.residual_median"] = _summary([_median(_floats(rows, "residual"))])
    linviol = _floats(rows, "linearization_violations")
    out["scaling.linviol_mean"] = _summary([statistics.fmean(linviol) if linviol else 0.0])

    out["metrics.ri"] = _summary([_selected(manifest)["ri_mean"]])
    out["metrics.failed_frac"] = _summary([_failed_frac(rows)])
    return out


def _trace_problems(traced, expected_spans):
    """Each traced worker's self times must add up to its own wall-clock
    measurement, and every layer the workload exercises must have been called."""
    problems = []
    for i, run in enumerate(traced):
        totals, calls = self_times(run["spans"])
        total = sum(totals.values())
        if abs(total - run["wall_s"]) > max(TRACE_SUM_TOL * run["wall_s"], 1e-3):
            problems.append(f"traced worker {i}: self times sum to {total!r}, wall {run['wall_s']!r}")
        missing = sorted(set(expected_spans) - set(calls))
        if missing:
            problems.append(f"traced worker {i}: no call recorded for {missing}")
    return problems


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_hash():
    """HEAD of the checkout, or None when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np
    import scipy

    return {
        "threads": THREADS,
        "thread_vars": list(THREAD_VARS),
        "allocator_vars": ALLOCATOR_VARS,
        "libc": " ".join(platform.libc_ver()),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "specscale").glob("*.py")))


def run_workload(workload, seed, seconds, trace, size, began):
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runs, setups = measure(workload, seed, seconds, trace, size, work, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    problems = check_outputs(runs, workload.expected_rows)
    problems += _trace_problems(traced, workload.spans)
    attempted = workload.expected_rows * len(runs)
    good = [r for r in runs if r["exit_code"] == 0 and r["report"] is not None]
    failed = workload.expected_rows * (len(runs) - len(good))
    summary, nmi = {}, None
    if good:
        failed += sum(sum(1 for row in report_rows(r["report"]) if row["error"]) for r in good)
    if not problems:
        rows = report_rows(good[0]["report"])
        manifest = json.loads(good[0]["manifest"])
        nmi = _selected(manifest)["nmi_mean"]  # informational; only cluster scores NMI
        if trace:
            summary = per_layer_metrics(traced, untraced, rows, manifest)
        else:
            summary = end_to_end_metrics(untraced, setups, rows, manifest)
        units = declared_metrics(trace)
        if set(summary) != set(units):
            problems.append(
                f"measured metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(units) - set(summary))}, extra {sorted(set(summary) - set(units))}"
            )
        for name, stats in summary.items():
            stats["unit"] = units.get(name, "?")
    for run in runs:
        if run["exit_code"] != 0 and run.get("stderr"):
            problems.append(f"worker stderr: {run['stderr'].strip()[-500:]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "argv": workload.argv("<data>", "<out>", seed),
        "result": result,
        "summary": summary,
        "problems": problems,
        "nmi": nmi,
        "workers": [
            {k: r.get(k) for k in ("traced", "exit_code", "setup_s", "wall_s", "user_s", "sys_s",
                                   "peak_rss_mb", "elapsed_s")}
            for r in runs
        ],
        "environment": environment(),
        "src_lines": src_lines(),
        "commit": commit_hash(),
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (RESULTS / name).write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return result, details


def print_table(details):
    print(f"== {details['workload']} seed={details['seed']} trace={details['trace']} "
          f"workers={len(details['workers'])}")
    for name, s in details["summary"].items():
        print(f"  {name:34s} {s['median']:<14.6g} {s['unit']:6s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    if details["nmi"] is not None:
        print(f"  {'nmi (not gated)':34s} {details['nmi']:<14.6g} 1")
    for problem in details["problems"]:
        print(f"  CHECK FAILED: {problem}")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code path on small inputs (self-tests)")
    return parser.parse_args(argv)


def main(argv=None):
    began = time.perf_counter()
    if not (SRC / "specscale" / "__init__.py").is_file():
        print(f"error: the specscale package is not at {SRC / 'specscale'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        result, details = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.size,
            began if len(chosen) == 1 else time.perf_counter(),
        )
        print_table(details)
        results[name] = result
    final = results[chosen[0]] if len(chosen) == 1 else results
    print(json.dumps(final, sort_keys=False))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
