"""Summarize paired benchmark runs of two source trees into one JSON file.

    python3 tools/bench_summary.py PARENT_TREE CHANGE_TREE --seeds 401-410
        [--out BENCH_<pr>.json]

Each tree holds the ``.bench_results/<workload>-seed<seed>-trace0.json`` files
that ``benchmarks/run.py --workload all --trace 0`` wrote there, one per seed,
for the same seeds and run length on both sides. A seed is one pair. For each
workload that CHANGE_TREE's ``BENCHMARK.json`` declares and each end-to-end
metric it gates, the summary holds each side's per-seed values with their
median and quartiles (the quartiles of ``benchmarks/run.py``), the pairs the
change won, lost and tied, and the two tests the benchmark applies:

- ``gain``: the change won at least nine tenths of the pairs, and the medians
  differ by more than the parent's interquartile range;
- ``within_bound``: the change's median is worse than the parent's by at most
  the metric's bound, as a share of the parent's median.

It also records ``src_lines`` and the commit of each side, as the result files
give them. Where both trees also hold ``<workload>-seed<seed>-trace1.json`` for
every workload at some of the seeds (``--trace 1`` runs), a ``layers`` section
gives each side's median over those seeds of every per-layer ``_s`` metric and
of ``similarity.graph_edges``; the summary fails if a seed's edge counts differ
between the sides, since a speed-up must not change the graphs. Without
``--out`` the JSON goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from report_drift import parse_seeds

EDGES = "similarity.graph_edges"


def quartiles(values):
    """Median and quartiles as ``benchmarks/run.py`` computes them."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": float(statistics.median(values)), "q1": q1, "q3": q3, "n": len(values)}


def result_path(tree, workload, seed, trace):
    return tree / ".bench_results" / f"{workload}-seed{seed}-trace{trace}.json"


def load_runs(tree, workload, seeds, trace=0):
    """The result file of each seed's run of ``workload`` in ``tree``."""
    runs = []
    for seed in seeds:
        path = result_path(tree, workload, seed, trace)
        if not path.exists():
            raise SystemExit(f"missing {path}")
        runs.append(json.loads(path.read_text(encoding="utf-8")))
    return runs


def side_fact(runs, key):
    """The one value of ``key`` that every result file of a side records."""
    values = {json.dumps(run[key]) for run in runs}
    if len(values) != 1:
        raise SystemExit(f"the runs of one side disagree on {key}: {sorted(values)}")
    return runs[0][key]


def compare(parent, change, better, bound):
    """Paired verdicts for one metric: per-seed values, lower or higher better."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base, new = quartiles(parent), quartiles(change)
    gap = sign * (base["median"] - new["median"])
    return {
        "better": better,
        "parent": {**base, "values": parent},
        "change": {**new, "values": change},
        "pairs": len(parent),
        "change_won": won,
        "change_lost": lost,
        "ties": len(parent) - won - lost,
        "median_change_frac": (new["median"] - base["median"]) / base["median"]
        if base["median"] else None,
        "gain": won >= 0.9 * len(parent) and gap > base["q3"] - base["q1"],
        "within_bound": -gap <= bound * abs(base["median"]),
    }


def layers(trees, names, metrics, seeds):
    """Each side's median per-layer metrics over the traced runs at ``seeds``."""
    runs = {side: {name: load_runs(tree, name, seeds, trace=1) for name in names}
            for side, tree in trees.items()}
    for name in names:
        for seed, parent, change in zip(seeds, runs["parent"][name], runs["change"][name]):
            edges = [run["result"]["metrics"][EDGES]["value"] for run in (parent, change)]
            if edges[0] != edges[1]:
                raise SystemExit(f"{name} seed {seed}: {EDGES} differ, {edges[0]} against {edges[1]}")
    return {
        "seeds": seeds,
        "workloads": {
            name: {
                metric: {
                    side: float(statistics.median(
                        run["result"]["metrics"][metric]["value"] for run in runs[side][name]
                    ))
                    for side in trees
                }
                for metric in metrics
            }
            for name in names
        },
    }


def summarize(parent_tree, change_tree, seeds):
    declared = json.loads((change_tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in declared["workloads"]]
    trees = {"parent": parent_tree, "change": change_tree}
    runs = {side: {name: load_runs(tree, name, seeds) for name in names}
            for side, tree in trees.items()}
    sides = {}
    for side, by_workload in runs.items():
        every = [run for workload_runs in by_workload.values() for run in workload_runs]
        sides[side] = {key: side_fact(every, key) for key in ("commit", "src_lines", "seconds")}
        sides[side]["correct"] = all(run["result"]["correct"] for run in every)

    def values(side, name, metric):
        return [run["result"]["metrics"][metric]["value"] for run in runs[side][name]]

    workloads = {
        name: {
            metric["name"]: compare(
                values("parent", name, metric["name"]), values("change", name, metric["name"]),
                metric["better"], metric["bound"],
            )
            for metric in declared["end_to_end"]
        }
        for name in names
    }
    summary = {"seeds": seeds, "sides": sides, "workloads": workloads}
    traced = [
        seed for seed in seeds
        if all(result_path(tree, name, seed, 1).exists() for tree in trees.values() for name in names)
    ]
    if traced:
        metrics = [metric["name"] for metric in declared["per_layer"]
                   if metric["name"].endswith("_s") or metric["name"] == EDGES]
        summary["layers"] = layers(trees, names, metrics, traced)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="the paired seeds, as '401-410' or '1,3,5'")
    parser.add_argument("--out", type=Path, help="file to write (default: standard output)")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(args.parent.resolve(), args.change.resolve(), args.seeds),
                      indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
