"""The drift check between two source trees' reports."""

from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def drift(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import report_drift

    return report_drift


def test_tree_against_itself_is_identical(drift, capsys):
    code = drift.main(
        [str(ROOT), str(ROOT), "--size", "tiny", "--seeds", "0", "--workload", "toy-cluster"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "== toy-cluster seed 0: exit 0 (base), 0 (change)"
    assert "  residual: identical" in lines and "  ri: identical" in lines
    assert lines[-1] == "  manifest.json: identical"
    assert all(line.endswith(": identical") for line in lines[1:])


def test_configs_against_the_same_tree_are_identical(drift, capsys):
    code = drift.main(
        [str(ROOT), str(ROOT), "--size", "tiny", "--seeds", "0", "--workload", "configs"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    heads = [line for line in lines if line.startswith("== ")]
    names = [*drift.CONFIGS, *(f"{drift.REFORMATTED_CONFIG}-{fmt}" for fmt in drift.REFORMATS)]
    assert heads == [f"== {name} seed 0: exit 0 (base), 0 (change)" for name in names]
    assert lines.count("  manifest.json: identical") == len(names)
    assert all(line.endswith(": identical") for line in lines if not line.startswith("== "))


def test_reformatted_inputs_take_both_loader_paths(drift, tmp_path):
    # the tab-delimited copy is read by the decimal reader, as the generated
    # CSV is, and the CRLF and six-digit copies by np.loadtxt; each holds the
    # generated table, the last rounded to six digits
    from specscale import data, generate_toy, load_matrix, save_matrix

    path = tmp_path / "toy.csv"
    save_matrix(generate_toy(120, seed=0), path)
    original = load_matrix(path)
    read_by_reader = {}
    for fmt, rewrite in drift.REFORMATS.items():
        copy = tmp_path / f"toy.{fmt}.txt"
        copy.write_bytes(rewrite(path.read_text(encoding="utf-8")).encode("utf-8"))
        read_by_reader[fmt] = data._read_decimal(copy) is not None
        loaded = load_matrix(copy)
        expected = original.values
        if fmt == "6g":
            expected = np.array([[float("%.6g" % x) for x in row] for row in expected])
        assert loaded.values.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(loaded.labels, original.labels)
    assert read_by_reader == {"tab": data._read_decimal(path) is not None, "crlf": False,
                              "6g": False}


def test_residual_difference_is_reported(drift):
    header = "sigma,ri,residual,certified\n"
    base = header + "1.0,0.9,0.001,false\n100.0,0.5,2e-10,true\n"
    change = header + "1.0,0.9,0.001000000000001,false\n100.0,0.5,2e-10,true\n"
    columns = drift.column_drift(base, change)
    assert [c for c, d in columns.items() if d is not None] == ["residual"]
    largest_abs, largest_rel = columns["residual"]
    assert largest_abs == pytest.approx(1e-15, rel=1e-3)
    assert largest_rel == pytest.approx(1e-12, rel=1e-3)
    lines = drift.format_drift(columns, [], 2, 2)
    assert "  residual: max abs 1e-15, max rel 1e-12" in lines
    assert "  sigma: identical" in lines


def test_manifest_keys_that_differ(drift):
    base = '{"reports": [{"selected_sigma": 1.0, "ell": 1}], "versions": {"numpy": "2"}}'
    change = '{"reports": [{"selected_sigma": 10.0, "ell": 1}], "versions": {}}'
    assert drift.manifest_drift(base, change) == [
        "reports[0].selected_sigma",
        "versions.numpy",
    ]


def test_seed_ranges(drift):
    assert drift.parse_seeds("0-4") == [0, 1, 2, 3, 4]
    assert drift.parse_seeds("0,2,5-6") == [0, 2, 5, 6]
