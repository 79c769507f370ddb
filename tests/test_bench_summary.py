"""The per-change benchmark summary of paired runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = {
    "workloads": [{"name": "toy"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ri", "unit": "1", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "similarity.graph_s", "unit": "s", "better": "lower"},
        {"name": "similarity.graph_calls", "unit": "count", "better": "lower"},
        {"name": "similarity.graph_edges", "unit": "count", "better": "lower"},
    ],
}


@pytest.fixture
def bench_summary(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_summary

    return bench_summary


def write_tree(root, commit, walls, ris, src_lines=100):
    """A tree whose toy runs at seeds 1.. read the given per-seed values."""
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    results = root / ".bench_results"
    results.mkdir()
    for seed, (wall, ri) in enumerate(zip(walls, ris), start=1):
        run = {
            "commit": commit, "src_lines": src_lines, "seconds": 8.0,
            "result": {"correct": True, "metrics": {"wall_s": {"value": wall},
                                                    "ri": {"value": ri}}},
        }
        (results / f"toy-seed{seed}-trace0.json").write_text(json.dumps(run))
    return root


def test_paired_verdicts(bench_summary, tmp_path):
    parent = write_tree(tmp_path / "parent", "aaa", [1.0, 1.1, 1.2, 0.9, 1.0], [0.9] * 5)
    change = write_tree(tmp_path / "change", "bbb", [0.8, 0.9, 0.8, 0.7, 1.1], [0.9] * 5, 90)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--seeds", "1-5", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["seeds"] == [1, 2, 3, 4, 5]
    assert summary["sides"]["parent"] == {
        "commit": "aaa", "src_lines": 100, "seconds": 8.0, "correct": True,
    }
    assert summary["sides"]["change"]["commit"] == "bbb"
    assert summary["sides"]["change"]["src_lines"] == 90
    wall = summary["workloads"]["toy"]["wall_s"]
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.8
    assert wall["parent"]["values"] == [1.0, 1.1, 1.2, 0.9, 1.0]
    assert (wall["change_won"], wall["change_lost"], wall["ties"]) == (4, 1, 0)
    assert not wall["gain"]  # 4 of 5 pairs is below nine tenths
    assert wall["within_bound"]
    assert wall["median_change_frac"] == pytest.approx(-0.2)
    ri = summary["workloads"]["toy"]["ri"]
    assert (ri["change_won"], ri["ties"]) == (0, 5) and not ri["gain"] and ri["within_bound"]


def test_gain_needs_the_medians_apart_by_more_than_the_parent_spread(bench_summary):
    parent = [1.0, 1.2, 1.4, 1.6, 1.8]  # quartiles 1.1 and 1.7
    assert bench_summary.compare(parent, [x - 0.1 for x in parent], "lower", 0.25)["gain"] is False
    assert bench_summary.compare(parent, [x - 0.7 for x in parent], "lower", 0.25)["gain"] is True
    higher = bench_summary.compare([0.5] * 4, [0.3] * 4, "higher", 0.25)
    assert higher["change_lost"] == 4 and not higher["within_bound"]


def test_missing_run_is_an_error(bench_summary, tmp_path):
    parent = write_tree(tmp_path / "parent", "aaa", [1.0], [0.9])
    change = write_tree(tmp_path / "change", "bbb", [1.0], [0.9])
    with pytest.raises(SystemExit, match="toy-seed2-trace0.json"):
        bench_summary.main([str(parent), str(change), "--seeds", "1-2"])


def write_traced(root, seed, graph_s, edges):
    """A traced toy run at ``seed`` in the result directory of a tree."""
    metrics = {"similarity.graph_s": graph_s, "similarity.graph_calls": 2.0,
               "similarity.graph_edges": edges}
    run = {"result": {"correct": True,
                      "metrics": {name: {"value": value} for name, value in metrics.items()}}}
    (root / ".bench_results" / f"toy-seed{seed}-trace1.json").write_text(json.dumps(run))


def test_layers_from_the_traced_runs_both_trees_hold(bench_summary, tmp_path):
    parent = write_tree(tmp_path / "parent", "aaa", [1.0] * 3, [0.9] * 3)
    change = write_tree(tmp_path / "change", "bbb", [0.9] * 3, [0.9] * 3)
    assert "layers" not in bench_summary.summarize(parent, change, [1, 2, 3])
    for seed, (p, c) in {1: (0.08, 0.07), 2: (0.10, 0.06), 3: (0.12, 0.05)}.items():
        write_traced(parent, seed, p, 100.0 + seed)
        if seed != 3:
            write_traced(change, seed, c, 100.0 + seed)
    layers = bench_summary.summarize(parent, change, [1, 2, 3])["layers"]
    # seed 3 has no traced change run, so the medians are over seeds 1 and 2
    assert layers["seeds"] == [1, 2]
    toy = layers["workloads"]["toy"]
    assert set(toy) == {"similarity.graph_s", "similarity.graph_edges"}  # no counts of calls
    assert toy["similarity.graph_s"]["parent"] == pytest.approx(0.09)
    assert toy["similarity.graph_s"]["change"] == pytest.approx(0.065)
    assert toy["similarity.graph_edges"] == {"parent": 101.5, "change": 101.5}


def test_edge_counts_that_differ_are_an_error(bench_summary, tmp_path):
    parent = write_tree(tmp_path / "parent", "aaa", [1.0], [0.9])
    change = write_tree(tmp_path / "change", "bbb", [1.0], [0.9])
    write_traced(parent, 1, 0.1, 100.0)
    write_traced(change, 1, 0.1, 98.0)
    with pytest.raises(SystemExit, match="toy seed 1: similarity.graph_edges differ"):
        bench_summary.summarize(parent, change, [1])
