"""Command-line interface tests (invoked in-process via main())."""

import csv
import json
import os

import numpy as np
import pytest

from specscale import (
    DataMatrix,
    ExperimentConfig,
    ScalingVector,
    SplitSpec,
    cli,
    experiments,
    generate_toy,
    load_matrix,
    run_pipeline,
    save_matrix,
    standardize,
)
from specscale.cli import main


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.csv"
    assert main(["generate", "--samples", "120", "--seed", "0", "--out", str(path)]) == 0
    return path


def test_generate_roundtrip(tmp_path):
    out = tmp_path / "data.csv"
    code = main(["generate", "--samples", "64", "--seed", "7", "--out", str(out)])
    assert code == 0
    dm = load_matrix(out)
    assert dm.values.shape == (64, 10)
    assert dm.labels is not None


def test_classify_writes_reports(toy_file, tmp_path, capsys):
    outdir = tmp_path / "run"
    code = main(
        [
            "classify",
            "--data", str(toy_file),
            "--output-dir", str(outdir),
            "--sigma-grid", "0.1,1",
            "--repetitions", "2",
            "--ell", "1",
        ]
    )
    assert code == 0
    assert (outdir / "report.csv").exists()
    assert (outdir / "manifest.json").exists()
    captured = capsys.readouterr()
    assert "sigma=" in captured.out
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["reports"][0]["task"] == "classify"
    assert "specscale" in manifest["versions"]


def test_cluster_runs(toy_file, tmp_path):
    outdir = tmp_path / "cl"
    code = main(
        [
            "cluster",
            "--data", str(toy_file),
            "--output-dir", str(outdir),
            "--sigma-grid", "1",
            "--repetitions", "1",
        ]
    )
    assert code == 0
    text = (outdir / "report.csv").read_text()
    assert "cluster" in text


def test_repeat_runs_byte_identical(toy_file, tmp_path):
    args = [
        "classify",
        "--data", str(toy_file),
        "--sigma-grid", "0.1,1",
        "--repetitions", "2",
        "--seed", "3",
    ]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output-dir", str(d1)]) == 0
    assert main(args + ["--output-dir", str(d2)]) == 0
    assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_config_file_overrides_flags(toy_file, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\nseed=11\nrepetitions=1\n")
    outdir = tmp_path / "cfg"
    code = main(
        [
            "classify",
            "--data", str(toy_file),
            "--output-dir", str(outdir),
            "--sigma-grid", "1",
            "--seed", "5",
            "--repetitions", "3",
            "--config", str(conf),
        ]
    )
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["reports"][0]["config"]["split"]["seed"] == 11
    assert manifest["reports"][0]["config"]["split"]["repetitions"] == 1


def test_sweep_command(toy_file, tmp_path):
    outdir = tmp_path / "sw"
    code = main(
        [
            "sweep",
            "--data", str(toy_file),
            "--output-dir", str(outdir),
            "--task", "classify",
            "--fractions", "0.3,0.5",
            "--sigma-grid", "1",
            "--repetitions", "1",
        ]
    )
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    fractions = [r["train_fraction"] for r in manifest["reports"]]
    assert fractions == [0.3, 0.5]


def test_loocv_command(tmp_path):
    data = tmp_path / "small.csv"
    assert main(["generate", "--samples", "48", "--seed", "1", "--out", str(data)]) == 0
    outdir = tmp_path / "lo"
    code = main(
        [
            "loocv",
            "--data", str(data),
            "--output-dir", str(outdir),
            "--sigma-grid", "1",
            "--ell", "1",
        ]
    )
    assert code == 0
    text = (outdir / "report.csv").read_text()
    assert text.count("\n") == 1 + 48  # header + one row per holdout


def test_inspect_scaling_table(toy_file, capsys):
    code = main(
        ["inspect-scaling", "--data", str(toy_file), "--sigma", "1", "--fraction", "0.5"]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "feature\tscaling_factor"
    assert len(lines) == 11  # header + ten features
    assert lines[1].startswith("f01\t")
    assert "mu=" in captured.err


def test_inspect_scaling_auto_target(toy_file, capsys):
    # "auto" takes its degrees from the training graph at --sigma
    code = main(
        ["inspect-scaling", "--data", str(toy_file), "--sigma", "1",
         "--fiedler-negative", "auto"]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "feature\tscaling_factor"
    assert len(lines) == 11
    assert "mu=" in captured.err


def test_inspect_scaling_to_file(toy_file, tmp_path):
    out = tmp_path / "factors.tsv"
    code = main(
        ["inspect-scaling", "--data", str(toy_file), "--sigma", "1", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("feature\tscaling_factor")


@pytest.mark.parametrize("target", ["-0.2", "auto"])
def test_inspect_scaling_prints_the_pipelines_row_factors(tmp_path, capsys, target):
    # the table is the factors s = 2 sigma^2 t that run_pipeline records on
    # its row at --sigma, from the same unit-width fit; a pencil solved at
    # sigma = 0.01 instead gives mu = 0.025 where the -0.2 row has 0.370
    path = tmp_path / "toy.csv"
    save_matrix(generate_toy(200, seed=0), str(path))
    grid = (0.01, 1.0, 100.0)
    config = ExperimentConfig(task="classify", sigma_grid=grid, fiedler_negative=target,
                              split=SplitSpec(0.5, seed=0, repetitions=1))
    records = run_pipeline(config, standardize(load_matrix(path))).records
    assert sum(r.ok for r in records) >= 2
    for record in records:
        code = main(["inspect-scaling", "--data", str(path), "--sigma", repr(record.sigma),
                     "--fraction", "0.5", "--seed", "0", "--fiedler-negative", target])
        captured = capsys.readouterr()
        if not record.ok:  # "auto" at 0.01: the training graph has an isolated sample
            assert code == 1 and record.error in captured.err
            continue
        assert code == 0
        factors = np.array([float(line.split("\t")[1])
                            for line in captured.out.strip().split("\n")[1:]])
        np.testing.assert_allclose(factors, record.factors, rtol=1e-12, atol=0)
        assert f"mu={record.mu!r} residual={record.residual!r}" in captured.err


@pytest.mark.parametrize("command", ["cluster", "classify", "sweep", "inspect-scaling"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # numpy's default_rng raised "expected non-negative integer" with a
    # traceback and exit code 1, once the first split was drawn
    path = tmp_path / "toy.csv"
    save_matrix(generate_toy(800, seed=0), str(path))
    argv = [command, "--data", str(path), "--seed", "-1"]
    if command != "inspect-scaling":
        argv += ["--output-dir", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"specscale {command}: error: seed must be non-negative, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def inspect_factors(capsys, argv):
    assert main(["inspect-scaling", *argv]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    return np.array([float(line.split("\t")[1]) for line in lines])


def test_inspect_scaling_auto_takes_the_classify_k_neighbors(tmp_path, capsys):
    # "auto" takes its degrees from the training graph of --k-neighbors
    # neighbours, as classify's fit does; at k = 7 the factors differ
    path = tmp_path / "toy.csv"
    save_matrix(generate_toy(200, seed=0), str(path))
    config = ExperimentConfig(task="classify", sigma_grid=(1.0,), fiedler_negative="auto",
                              k_neighbors=5, split=SplitSpec(0.5, seed=3, repetitions=1))
    (record,) = run_pipeline(config, standardize(load_matrix(path))).records
    assert record.ok
    argv = ["--data", str(path), "--sigma", "1", "--seed", "3", "--fiedler-negative", "auto"]
    factors = inspect_factors(capsys, [*argv, "--k-neighbors", "5"])
    np.testing.assert_allclose(factors, record.factors, rtol=1e-12, atol=0)
    assert not np.allclose(inspect_factors(capsys, argv), record.factors, rtol=1e-6, atol=0)


def test_inspect_scaling_takes_k_neighbors_from_a_config_file(tmp_path, capsys):
    path = tmp_path / "toy.csv"
    save_matrix(generate_toy(200, seed=0), str(path))
    conf = tmp_path / "c.cfg"
    conf.write_text("k_neighbors=5\nfiedler_negative=auto\n")
    from_file = inspect_factors(capsys, ["--data", str(path), "--config", str(conf)])
    from_flags = inspect_factors(capsys, ["--data", str(path), "--k-neighbors", "5",
                                          "--fiedler-negative", "auto"])
    np.testing.assert_array_equal(from_file, from_flags)


def test_missing_label_column_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "nolabel.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    code = main(["classify", "--data", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_fails(toy_file, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus=1\n")
    code = main(["classify", "--data", str(toy_file), "--config", str(conf)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


# the argv each subcommand needs before any option is parsed
REQUIRED = {
    "generate": ["--out", "toy.csv"],
    "cluster": ["--data", "toy.csv"],
    "classify": ["--data", "toy.csv"],
    "sweep": ["--data", "toy.csv"],
    "loocv": ["--data", "toy.csv"],
    "inspect-scaling": ["--data", "toy.csv"],
}

# a value other than the default for every option a subcommand declares;
# None marks a flag that takes no value
NON_DEFAULT = {
    "data": "other.csv", "output_dir": "elsewhere", "sigma_grid": "0.5,2",
    "k_neighbors": "3", "fiedler_negative": "auto", "fraction": "0.25", "repetitions": "3",
    "seed": "4", "ell": "2", "task": "cluster",
    "fractions": "0.2,0.4", "samples": "64", "out": "other-out.csv", "delimiter": "\t",
    "sigma": "2.5", "no_standardize": None, "no_feature_scaling": None,
}


@pytest.mark.parametrize("command", list(REQUIRED))
def test_config_entries_parse_as_their_flags(tmp_path, command):
    parser = cli._build_parser()
    defaults = parser.parse_args([command, *REQUIRED[command]])
    assert sorted(set(defaults.options) - set(NON_DEFAULT)) == []
    assert "config" not in defaults.options and "help" not in defaults.options
    for dest, action in defaults.options.items():
        (flag,) = action.option_strings
        value = NON_DEFAULT[dest]
        by_flag = parser.parse_args([command, *REQUIRED[command], flag]
                                    + ([] if value is None else [value]))
        assert getattr(by_flag, dest) != getattr(defaults, dest), flag
        for key in (flag[2:], dest):  # dashes or underscores
            conf = tmp_path / "entry.conf"
            conf.write_text(f"{key}={'yes' if value is None else value}\n")
            by_config = parser.parse_args([command, *REQUIRED[command], "--config", str(conf)])
            cli._apply_config_file(by_config)
            assert getattr(by_config, dest) == getattr(by_flag, dest), key


@pytest.mark.parametrize(
    "command, entry",
    [("cluster", "ell=2"), ("classify", "samples=5"), ("loocv", "seed=1"),
     ("sweep", "fraction=0.3"), ("classify", "config=other.conf"), ("classify", "help=yes")],
)
def test_config_key_the_subcommand_does_not_declare_fails(toy_file, tmp_path, capsys,
                                                          command, entry):
    conf = tmp_path / "run.conf"
    conf.write_text(entry + "\n")
    argv = [command, "--data", str(toy_file), "--output-dir", str(tmp_path), "--config", str(conf)]
    assert main(argv) == 1
    key = entry.partition("=")[0].replace("-", "_")
    assert capsys.readouterr().err == (
        f"error: SpecScaleError: {conf}:1: unknown key '{key}' for {command}\n"
    )
    assert not (tmp_path / "report.csv").exists()


def test_sweep_config_task_runs_that_task(toy_file, tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("task=cluster\n")
    outdir = tmp_path / "sw"
    argv = ["sweep", "--data", str(toy_file), "--output-dir", str(outdir), "--fractions", "0.5",
            "--sigma-grid", "1", "--repetitions", "1", "--config", str(conf)]
    assert main(argv) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [r["task"] for r in manifest["reports"]] == ["cluster"]


@pytest.mark.parametrize(
    "command, flag",
    [("classify", "--samples"), ("loocv", "--seed"), ("loocv", "--fraction"),
     ("loocv", "--repetitions"), ("loocv", "--task"), ("sweep", "--fraction")],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(toy_file, tmp_path, capsys,
                                                            command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(toy_file), "--output-dir", str(tmp_path), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_label_column_without_two_classes_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "one-class.csv"
    data.write_text("a,b,label\n1,2,1\n3,4,1\n5,7,1\n")
    code = main(["classify", "--data", str(data), "--output-dir", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: MatrixParseError: {data}: the label column needs 2 classes, found 1\n"
    )


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing --data
    assert exc.value.code == 2


def test_config_file_supplies_data_and_output_dir(toy_file, tmp_path):
    outdir = tmp_path / "cfg"
    conf = tmp_path / "run.conf"
    conf.write_text(f"data={toy_file}\noutput-dir={outdir}\n")
    argv = ["cluster", "--sigma-grid", "1", "--repetitions", "1", "--config", str(conf)]
    assert main(argv) == 0
    assert "cluster" in (outdir / "report.csv").read_text()


def test_config_file_supplies_generate_out(tmp_path):
    out = tmp_path / "toy.csv"
    conf = tmp_path / "gen.conf"
    conf.write_text(f"out={out}\nsamples=64\n")
    assert main(["generate", "--config", str(conf)]) == 0
    assert load_matrix(out).values.shape == (64, 10)


@pytest.mark.parametrize("command, key", [(c, "out" if c == "generate" else "data")
                                          for c in REQUIRED])
def test_required_option_missing_from_flags_and_config(tmp_path, capsys, command, key):
    conf = tmp_path / "run.conf"
    conf.write_text(f"# no {key}= entry\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(conf)])
    assert exc.value.code == 2
    assert f"--{key} is required, as a flag or as '{key}=' in the --config file" in (
        capsys.readouterr().err
    )
    assert list(tmp_path.iterdir()) == [conf]


@pytest.mark.parametrize(
    "command, entry",
    [(c, f"# no {'out' if c == 'generate' else 'data'}= entry") for c in REQUIRED]
    + [("cluster", "k_neighbors=x"), ("sweep", "fractions=0,0.5")],
)
def test_usage_error_after_parsing_prints_the_subcommand_usage(tmp_path, capsys, command,
                                                                entry):
    # a missing required option, a bad config value and a rejected value all
    # name the subcommand's usage, as argparse's own errors do
    conf = tmp_path / "run.conf"
    conf.write_text(entry + "\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(conf)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: specscale {command} [-h]")
    assert f"specscale {command}: error: " in err


@pytest.mark.parametrize("flags", [[], ["--no-standardize"]])
def test_table_without_feature_columns_fails_cleanly(tmp_path, capsys, flags):
    data = tmp_path / "labels.csv"
    data.write_text("label\n" + "".join(f"{1 + i % 2}\n" for i in range(12)))
    argv = ["cluster", "--data", str(data), "--output-dir", str(tmp_path / "run"),
            "--k-neighbors", "3", "--sigma-grid", "1", "--repetitions", "1", *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: MatrixParseError: {data}: no feature columns\n"
    )


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("classify", ["--repetitions", "0"], None),
        ("classify", ["--fraction", "0"], None),
        ("classify", ["--k-neighbors", "0"], None),
        ("sweep", ["--task", "cluster", "--ell", "2"], None),
        ("classify", ["--sigma-grid", "0"], None),
        ("classify", [], "ell=4"),
        ("classify", [], "k_neighbors=x"),
        ("classify", [], "no_standardize=maybe"),
        ("sweep", ["--fractions", "0,0.5"], None),
        ("inspect-scaling", ["--fraction", "0"], None),
        ("inspect-scaling", ["--sigma", "0"], None),
        ("inspect-scaling", ["--sigma", "nan"], None),
        ("classify", ["--sigma-grid", "nan"], None),
        ("cluster", ["--sigma-grid", "nan", "--no-feature-scaling"], None),
        ("classify", ["--sigma-grid", "1,inf"], None),
        ("classify", ["--sigma-grid", "1,1"], None),
        ("inspect-scaling", ["--sigma", "inf"], None),
        ("classify", [], "fiedler_negative=-inf"),
        ("classify", [], "fiedler_negative=0"),
        ("generate", ["--samples", "7"], None),
        ("generate", ["--samples", "6"], None),
        ("classify", ["--seed", "-1"], None),
        ("inspect-scaling", ["--seed", "-1"], None),
        ("inspect-scaling", ["--k-neighbors", "0"], None),
    ],
    ids=[
        "repetitions", "fraction", "k-neighbors", "sweep-cluster-ell", "sigma-grid",
        "config-ell", "config-k-neighbors", "config-bool", "sweep-fractions",
        "inspect-fraction", "inspect-sigma-zero", "inspect-sigma-nan", "sigma-grid-nan",
        "sigma-grid-nan-baseline", "sigma-grid-inf", "sigma-grid-repeated", "inspect-sigma-inf",
        "config-fiedler-inf", "config-fiedler-zero", "generate-odd-samples",
        "generate-too-few-samples", "seed", "inspect-seed", "inspect-k-neighbors",
    ],
)
def test_bad_option_value_is_a_usage_error(
    toy_file, tmp_path, capsys, monkeypatch, command, flags, config
):
    # the option is rejected before the data file is read
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "load_matrix", no_read)
    if command == "generate":
        argv = [command, "--out", str(tmp_path / "out.csv"), *flags]
    else:
        argv = [command, "--data", str(toy_file), *flags]
    if command not in ("generate", "inspect-scaling"):
        argv += ["--output-dir", str(tmp_path)]
    if config is not None:
        conf = tmp_path / "bad.conf"
        conf.write_text(config + "\n")
        argv += ["--config", str(conf)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        line for line in err.splitlines() if line.startswith(f"specscale {command}: error:")
    ]
    assert err.count("error:") == 1
    if config is not None:
        assert f"specscale {command}: error: {conf}:1: " in err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "classify", "inspect-scaling"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_fiedler_negative_is_a_usage_error(toy_file, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(toy_file), f"--fiedler-negative={value}"])
    assert exc.value.code == 2
    assert "fiedler-negative must be a finite number or 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "inspect-scaling"])
@pytest.mark.parametrize("value", ["1", "0", "-0.0"])
def test_nonnegative_fiedler_negative_is_a_usage_error(toy_file, capsys, command, value):
    # 1 makes the target the constant vector, 0 one class's indicator
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(toy_file), f"--fiedler-negative={value}"])
    assert exc.value.code == 2
    assert "a number below 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [(["--delimiter", ";"], None), ([], "delimiter=;")],
                         ids=["flag", "config"])
def test_generate_rejects_a_delimiter_the_loader_cannot_read(tmp_path, capsys, flags, config):
    out = tmp_path / "toy.csv"
    argv = ["generate", "--samples", "60", "--out", str(out), *flags]
    if config is not None:
        conf = tmp_path / "gen.conf"
        conf.write_text(config + "\n")
        argv += ["--config", str(conf)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "delimiter must be ',' or a tab" in capsys.readouterr().err
    assert not out.exists()


def test_generate_tab_delimited_file_loads(tmp_path):
    conf = tmp_path / "gen.conf"
    conf.write_text("delimiter=\t\n")  # a config value that is a tab
    cases = [("flag.tsv", ["--delimiter", "\t"]), ("config.tsv", ["--config", str(conf)])]
    for name, flags in cases:
        out = tmp_path / name
        assert main(["generate", "--samples", "60", "--out", str(out), *flags]) == 0
        assert "\t" in out.read_text().splitlines()[0]
        assert load_matrix(out).values.shape == (60, 10)


@pytest.mark.parametrize(
    "command, flags, n",
    [
        ("cluster", ["--k-neighbors", "100"], 60),
        # "auto" builds its target's graph on the 30 training rows
        ("classify", ["--k-neighbors", "40", "--fiedler-negative", "auto"], 30),
    ],
    ids=["cluster", "classify-auto"],
)
def test_k_neighbors_beyond_the_samples_is_a_recorded_error(tmp_path, capsys, command, flags, n):
    data = tmp_path / "toy.csv"
    assert main(["generate", "--samples", "60", "--out", str(data)]) == 0
    outdir = tmp_path / "run"
    argv = [command, "--data", str(data), "--output-dir", str(outdir),
            "--sigma-grid", "1,10", "--repetitions", "2", *flags]
    assert main(argv) == 1
    assert "error: SpecScaleError: every run failed" in capsys.readouterr().err
    k = flags[1]
    with open(outdir / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert {row["error"] for row in rows} == {
        f"InsufficientSamplesError: k_neighbors={k} needs more than {n} samples"
    }


def test_lanczos_failure_is_a_recorded_row(tmp_path, monkeypatch, capsys):
    from specscale import eigensolvers

    # two basis vectors leave the wanted Ritz pair far from converged
    monkeypatch.setattr(eigensolvers, "_LANCZOS_MAX_STEPS", 2)
    data = tmp_path / "toy.csv"
    assert main(["generate", "--samples", "420", "--seed", "0", "--out", str(data)]) == 0
    outdir = tmp_path / "run"
    code = main(
        [
            "classify",
            "--data", str(data),
            "--output-dir", str(outdir),
            "--sigma-grid", "1",
            "--repetitions", "1",
        ]
    )
    assert code == 1
    assert "every run failed" in capsys.readouterr().err
    rows = (outdir / "report.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].endswith(",EigenConvergenceError: Lanczos converged on 0 of 1 eigenpairs "
                            "of a 420-vertex graph")


def test_overflowing_factors_fall_back_to_unscaled_graph(tmp_path, monkeypatch):
    # the fit returns factors of -1e3 on a 24 x 100 input: every pair's scaled
    # squared distance is below -1e4 (N(0, 1) rows lie ~14 apart), far past
    # where exp(-s^T x / 2 sigma^2) overflows at sigma = 1
    def overflowing_fit(pencil):
        return ScalingVector(
            factors=np.full(pencil.A.shape[1], -1e3),
            eigenvalue=1.0,
            residual=0.5,
            constraint_violation=0.0,
            certified=False,
        )

    monkeypatch.setattr(experiments, "learn_scaling", overflowing_fit)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((24, 100))
    values[:10, :3] += 1.5
    labels = np.repeat([1, 2], [10, 14])
    data = tmp_path / "wide.csv"
    save_matrix(DataMatrix(values, [f"g{j:03d}" for j in range(100)], labels), str(data))
    outdir = tmp_path / "run"
    code = main(
        [
            "classify",
            "--data", str(data),
            "--output-dir", str(outdir),
            "--sigma-grid", "1",
            "--repetitions", "1",
            "--seed", "0",
        ]
    )
    assert code == 0
    with open(outdir / "report.csv", newline="") as f:
        (row,) = list(csv.DictReader(f))
    assert row["error"] == ""
    assert row["scaled"] == "false"
    assert row["mu"] != ""
    assert row["residual"] != "" and row["certified"] != ""
    assert 0.0 <= float(row["ri"]) <= 1.0


def test_non_utf8_data_is_a_parse_error(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"a,b,label\n1,2,1\n3,4\xe9,2\n")
    code = main(["classify", "--data", str(data), "--output-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: MatrixParseError: {data}:3: bytes that are not UTF-8\n"
    assert not (tmp_path / "run" / "report.csv").exists()
