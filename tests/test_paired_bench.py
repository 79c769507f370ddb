"""The paired benchmark sweep over two source trees."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def paired_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import paired_bench

    return paired_bench


@pytest.fixture
def runs(paired_bench, monkeypatch):
    """Every benchmark call as (argv, cwd), with the exit codes to return."""
    calls, codes = [], {}

    def fake_run(argv, cwd, stdout):
        assert stdout is subprocess.DEVNULL
        calls.append((argv, Path(cwd)))
        return SimpleNamespace(returncode=codes.get(len(calls), 0))

    monkeypatch.setattr(paired_bench.subprocess, "run", fake_run)
    return calls, codes


def test_parent_runs_first_on_even_seeds(paired_bench, runs, tmp_path, capsys):
    calls, _ = runs
    parent, change = tmp_path / "base", tmp_path / "chng"
    code = paired_bench.main([str(parent), str(change), "--seeds", "4-7", "--seconds", "12"])
    assert code == 0
    assert [cwd for _, cwd in calls] == [parent, change, change, parent,
                                         parent, change, change, parent]
    assert [argv[argv.index("--seed") + 1] for argv, _ in calls] == [
        "4", "4", "5", "5", "6", "6", "7", "7"]
    assert capsys.readouterr().out.splitlines()[:2] == [
        "seed 4 parent: exit 0", "seed 4 change: exit 0"]


def test_argv_runs_the_tree_benchmark_untraced(paired_bench, runs, tmp_path):
    calls, _ = runs
    paired_bench.main([str(tmp_path / "a"), str(tmp_path / "b"), "--seeds", "3",
                       "--seconds", "8", "--workload", "large-classify"])
    assert [argv for argv, _ in calls] == [
        [sys.executable, "benchmarks/run.py", "--workload", "large-classify",
         "--seed", "3", "--seconds", "8.0", "--trace", "0"]
    ] * 2


def test_all_workloads_by_default(paired_bench, runs, tmp_path):
    calls, _ = runs
    paired_bench.main([str(tmp_path / "a"), str(tmp_path / "b"), "--seeds", "0",
                       "--seconds", "1"])
    assert all(argv[argv.index("--workload") + 1] == "all" for argv, _ in calls)


def test_a_failed_run_stops_the_sweep(paired_bench, runs, tmp_path):
    calls, codes = runs
    codes[3] = 1  # the first run of seed 1, in the change tree
    code = paired_bench.main([str(tmp_path / "a"), str(tmp_path / "b"), "--seeds", "0-4",
                              "--seconds", "1"])
    assert code == 1 and len(calls) == 3
