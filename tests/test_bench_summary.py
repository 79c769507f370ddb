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
