"""Harness tests: pipeline mechanics, determinism, reporting."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from specscale import (
    DataMatrix,
    ExperimentConfig,
    SplitSpec,
    generate_toy,
    loocv,
    reports_to_csv,
    reports_to_manifest,
    run_pipeline,
    standardize,
    sweep,
)
from specscale import experiments
from specscale.errors import (
    InsufficientSpectrumError,
    NoScalingError,
    NumericalOverflowError,
)


def separated_clusters(n_per=6, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [
            rng.normal(0, 0.2, (n_per, 2)) + [gap, gap],
            rng.normal(0, 0.2, (n_per, 2)) - [gap, gap],
        ]
    )
    labels = np.array([1] * n_per + [2] * n_per)
    return DataMatrix(values=pts, feature_names=["x", "y"], labels=labels)


def toy_config(task, **kw):
    defaults = dict(
        task=task,
        sigma_grid=(0.1, 1.0),
        split=SplitSpec(0.5, seed=0, repetitions=2),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunPipeline:
    def test_separated_clusters_reach_perfect_scores(self):
        data = separated_clusters()
        cfg = ExperimentConfig(
            task="cluster",
            sigma_grid=(1.0, 10.0),
            k_neighbors=6,
            fiedler_negative=-1.0,
            split=SplitSpec(1.0, repetitions=1),
            feature_scaling=False,
        )
        report = run_pipeline(cfg, data)
        best = max(s.ri_mean for s in report.summaries() if s.ri_mean is not None)
        best_nmi = max(s.nmi_mean for s in report.summaries() if s.nmi_mean is not None)
        assert best == 1.0
        assert best_nmi == 1.0

    def test_classification_report(self):
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("classify", ell=2), data)
        assert report.task == "classify"
        assert report.ell == 2
        good = [r for r in report.records if r.ok]
        assert good
        for r in good:
            assert 0.0 <= r.ri <= 1.0
            assert r.nmi is None

    def test_scaling_diagnostics_recorded(self):
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("classify"), data)
        scaled = [r for r in report.records if r.ok and r.scaled]
        assert scaled
        for r in scaled:
            assert r.mu is not None and np.isfinite(r.mu)
            assert r.residual is not None and r.residual >= 0.0
            assert r.constraint_violation is not None
            assert 0.0 <= r.linearization_violations <= 1.0
            assert r.factors is not None and np.all(np.isfinite(r.factors))

    def test_failed_runs_recorded_not_fatal(self):
        data = standardize(generate_toy(120, seed=0))
        cfg = toy_config("cluster", sigma_grid=(1e-8, 1.0), feature_scaling=False)
        report = run_pipeline(cfg, data)
        tiny = [r for r in report.records if r.sigma == 1e-8]
        assert tiny and all(not r.ok for r in tiny)
        assert all("IsolatedSampleError" in r.error for r in tiny)
        assert report.selected_sigma == 1.0

    def test_mean_std_recomputable(self):
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("cluster"), data)
        for summary in report.summaries():
            runs = [
                r.ri for r in report.records if r.sigma == summary.sigma and r.ok
            ]
            if not runs:
                assert summary.ri_mean is None
                continue
            assert summary.ri_mean == pytest.approx(np.mean(runs), abs=1e-12)
            assert summary.ri_std == pytest.approx(np.std(runs), abs=1e-12)

    def test_deterministic_reports(self):
        data = standardize(generate_toy(120, seed=0))
        cfg = toy_config("cluster")
        a = run_pipeline(cfg, data)
        b = run_pipeline(cfg, data)
        assert reports_to_csv([a]) == reports_to_csv([b])
        assert reports_to_manifest([a]) == reports_to_manifest([b])

    def test_auto_fiedler_value(self):
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("classify", fiedler_negative="auto"), data)
        assert any(r.ok for r in report.records)

    def test_baseline_has_no_scaling_diagnostics(self):
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("cluster", feature_scaling=False), data)
        for r in report.records:
            assert not r.scaled
            assert r.mu is None

    def test_classification_needs_test_rows(self):
        data = separated_clusters()
        cfg = ExperimentConfig(
            task="classify",
            sigma_grid=(1.0,),
            k_neighbors=4,
            fiedler_negative=-1.0,
            split=SplitSpec(1.0, repetitions=1),
        )
        report = run_pipeline(cfg, data)
        assert all(not r.ok for r in report.records)

    def test_requires_labels(self):
        dm = DataMatrix(values=np.zeros((10, 2)), feature_names=["a", "b"])
        with pytest.raises(ValueError):
            run_pipeline(toy_config("cluster"), dm)

    def test_zero_sum_target_learns_nontrivial_factors(self):
        # 240 = 12 * 20: the classes are 40 and 200, each training half keeps
        # 1:5, so the -0.2 target sums to zero and s = 0 is an exact pencil
        # pair; selecting it would leave the unscaled graph at every width
        data = standardize(generate_toy(240, seed=0))
        cfg = toy_config("cluster", sigma_grid=(1.0,), split=SplitSpec(0.5, seed=0, repetitions=4))
        report = run_pipeline(cfg, data)
        assert len(report.records) == 4
        for r in report.records:
            assert r.scaled and np.linalg.norm(r.factors) > 1e-3
            assert r.ri >= 0.95

    @pytest.mark.parametrize("feature_scaling, expected", [(True, 2), (False, 0)])
    def test_pair_tensor_built_only_for_a_fit(self, monkeypatch, feature_scaling, expected):
        calls = []
        build = experiments.pairwise_sqdiff

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "pairwise_sqdiff", counting)
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("cluster", feature_scaling=feature_scaling), data)
        assert all(r.ok for r in report.records)
        assert len(calls) == expected


COUNTED = (
    "assemble_pencil",
    "has_full_column_rank",
    "learn_scaling",
    "build_similarity",
    "embed",
    "kmeans",
    "nn1_classify",
)


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls from the harness into each layer it orchestrates."""
    counts = Counter()
    for name in COUNTED:
        fn = getattr(experiments, name)

        def counting(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counting)
    return counts


def wide_data(n_per=12, n_features=100, seed=0):
    """More features than training rows: the pencil is rank-deficient."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2 * n_per, n_features))
    values[:n_per, :3] += 1.5
    labels = np.array([1] * n_per + [2] * n_per)
    names = [f"g{j}" for j in range(n_features)]
    return standardize(DataMatrix(values=values, feature_names=names, labels=labels))


class TestSharedSplit:
    """With a fixed target and a full-column-rank pencil, every sigma row of a
    split copies one unit-width kernel: solve, graph, embedding and assignment."""

    def config(self, task="cluster", grid=(0.01, 0.1, 1.0), **kw):
        return toy_config(task, sigma_grid=grid, **kw)

    def test_one_solve_graph_and_embedding_per_split(self, calls):
        report = run_pipeline(self.config(), standardize(generate_toy(200, seed=0)))
        assert len(report.records) == 6 and all(r.ok and r.scaled for r in report.records)
        assert calls["assemble_pencil"] == 2
        assert calls["has_full_column_rank"] == 2
        assert calls["learn_scaling"] == 2
        assert calls["build_similarity"] == 2
        assert calls["embed"] == 2
        assert calls["kmeans"] == 2  # one assignment per kernel, copied by every row
        for rep in (0, 1):
            rows = [r for r in report.records if r.repetition == rep]
            assert len({r.ri for r in rows}) == 1 and len({r.nmi for r in rows}) == 1

    def test_classify_runs_one_nn1_per_split(self, calls):
        report = run_pipeline(self.config("classify"), standardize(generate_toy(200, seed=0)))
        assert calls["nn1_classify"] == 2 and calls["embed"] == 2
        for rep in (0, 1):
            ris = {r.ri for r in report.records if r.repetition == rep}
            assert len(ris) == 1

    def test_rows_share_mu_and_residual_and_scale_factors(self):
        report = run_pipeline(self.config(), standardize(generate_toy(200, seed=0)))
        rows = {r.sigma: r for r in report.records if r.repetition == 0}
        small, unit = rows[0.01], rows[1.0]
        assert small.mu == unit.mu and small.residual == unit.residual
        assert small.certified == unit.certified
        assert small.linearization_violations == unit.linearization_violations
        ratio = (2 * 0.01**2) / (2 * 1.0**2)
        np.testing.assert_allclose(small.factors, ratio * unit.factors, rtol=1e-12, atol=0)

    def test_wide_pencil_runs_per_sigma_without_rank_test(self, calls):
        report = run_pipeline(self.config("classify", grid=(1.0, 10.0, 100.0)), wide_data())
        assert len(report.records) == 6 and all(r.ok for r in report.records)
        assert calls["has_full_column_rank"] == 0  # 2 n_train + 1 < m + 1
        assert calls["assemble_pencil"] == 6
        assert calls["learn_scaling"] == 6
        assert calls["embed"] == 6

    def test_auto_target_runs_per_sigma(self, calls):
        report = run_pipeline(
            self.config("classify", grid=(1.0, 10.0, 100.0), fiedler_negative="auto"),
            standardize(generate_toy(200, seed=0)),
        )
        assert len(report.records) == 6 and all(r.ok for r in report.records)
        assert calls["has_full_column_rank"] == 0
        assert calls["learn_scaling"] == 6
        assert calls["build_similarity"] == 12  # training graph and full graph
        assert calls["embed"] == 6

    def test_rank_deficient_tall_pencil_runs_per_sigma(self, calls):
        toy = standardize(generate_toy(200, seed=0))
        values = np.column_stack([toy.values, toy.values[:, 0]])
        data = dataclasses.replace(
            toy, values=values, feature_names=[*toy.feature_names, "copy"]
        )
        report = run_pipeline(self.config(grid=(1.0, 10.0, 100.0)), data)
        assert len(report.records) == 6 and all(r.ok for r in report.records)
        assert calls["has_full_column_rank"] == 2
        assert calls["assemble_pencil"] == 2 + 6  # the unit-width test, then per sigma
        assert calls["learn_scaling"] == 6
        assert calls["build_similarity"] == 6
        assert calls["embed"] == 6
        assert calls["kmeans"] == 6

    def run_one_split(self, monkeypatch):
        """One toy split, recording the (sigma, scaled) of every graph built."""
        graphs = []
        build = experiments.build_similarity

        def recording(X, params):
            graphs.append((params.sigma, params.scaling is not None))
            return build(X, params)

        monkeypatch.setattr(experiments, "build_similarity", recording)
        cfg = self.config(split=SplitSpec(0.5, seed=0, repetitions=1))
        return run_pipeline(cfg, standardize(generate_toy(200, seed=0))), graphs

    def assert_per_sigma_fallback(self, calls, report, graphs):
        assert len(report.records) == 3 and all(r.ok and r.scaled for r in report.records)
        assert calls["assemble_pencil"] == 1 + 3  # the unit-width attempt, then per sigma
        assert calls["has_full_column_rank"] == 1
        assert calls["embed"] == 3
        assert calls["kmeans"] == 3
        assert (np.sqrt(0.5), False) not in graphs  # no unscaled graph at unit width
        assert graphs[-3:] == [(0.01, True), (0.1, True), (1.0, True)]

    def test_unit_width_fit_failure_runs_per_sigma(self, calls, monkeypatch):
        learn = experiments.learn_scaling
        seen = []

        def failing_first(pencil, *args):
            seen.append(pencil)
            if len(seen) == 1:
                raise NoScalingError("no candidates at unit width")
            return learn(pencil, *args)

        monkeypatch.setattr(experiments, "learn_scaling", failing_first)
        report, graphs = self.run_one_split(monkeypatch)
        self.assert_per_sigma_fallback(calls, report, graphs)
        assert len(seen) == 1 + 3 and calls["learn_scaling"] == 3  # the stub raised once
        assert calls["build_similarity"] == 3

    def test_unit_width_overflow_runs_per_sigma(self, calls, monkeypatch):
        build = experiments.build_similarity

        def overflowing(X, params):
            if params.sigma == np.sqrt(0.5) and params.scaling is not None:
                raise NumericalOverflowError("scaled weights overflow")
            return build(X, params)

        monkeypatch.setattr(experiments, "build_similarity", overflowing)
        report, graphs = self.run_one_split(monkeypatch)
        self.assert_per_sigma_fallback(calls, report, graphs)
        assert graphs == [(np.sqrt(0.5), True), (0.01, True), (0.1, True), (1.0, True)]
        assert calls["learn_scaling"] == 1 + 3
        assert calls["build_similarity"] == 3  # the stub raised for the unit-width graph

    def test_shared_failure_recorded_on_every_row(self, monkeypatch):
        def failing(graph, ell):
            raise InsufficientSpectrumError("no spectrum")

        monkeypatch.setattr(experiments, "embed", failing)
        report = run_pipeline(self.config(), standardize(generate_toy(200, seed=0)))
        assert len(report.records) == 6
        assert all("InsufficientSpectrumError" in r.error for r in report.records)


def spread_signal_data(seed, n_per=(24, 48), n_features=500, n_informative=100, gap=0.7):
    """Wide data whose class signal is spread over many features: class 1 is
    shifted by ``gap`` on the first ``n_informative`` of them. Unscaled 1-NN
    already separates it (median RI 0.944 over seeds 0-4 at sigma = 100)."""
    n1, n2 = n_per
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n1 + n2, n_features))
    values[:n1, :n_informative] += gap
    labels = np.array([1] * n1 + [2] * n2)
    perm = rng.permutation(n1 + n2)
    names = [f"g{j}" for j in range(n_features)]
    return standardize(DataMatrix(values=values[perm], feature_names=names, labels=labels[perm]))


class TestWideDoNoHarm:
    """A wide pencil (n_train = 36 < m = 500) must not make 1-NN worse than the
    unscaled graph where the unscaled graph already works."""

    def median_ri(self, feature_scaling):
        ris = []
        for seed in range(5):
            cfg = ExperimentConfig(
                task="classify",
                sigma_grid=(100.0,),
                split=SplitSpec(0.5, seed=seed, repetitions=1),
                seed=seed,
                feature_scaling=feature_scaling,
            )
            (record,) = run_pipeline(cfg, spread_signal_data(seed)).records
            assert record.ok and record.scaled == feature_scaling
            ris.append(record.ri)
        return float(np.median(ris))

    def test_scaled_ri_not_below_unscaled(self):
        unscaled = self.median_ri(False)
        assert unscaled >= 0.9
        assert self.median_ri(True) >= unscaled - 0.02


class TestSweep:
    def test_empty_fraction_list(self):
        data = standardize(generate_toy(120, seed=0))
        assert sweep(toy_config("classify"), [], data) == []

    def test_fraction_bookkeeping(self):
        data = standardize(generate_toy(120, seed=0))
        cfg = toy_config("classify", sigma_grid=(1.0,), split=SplitSpec(0.5, repetitions=1))
        reports = sweep(cfg, [0.1, 0.3, 0.5], data)
        assert [r.train_fraction for r in reports] == [0.1, 0.3, 0.5]
        csv_text = reports_to_csv(reports)
        assert csv_text.count("\n") == 1 + 3  # header + one row per report

    def test_csv_carries_fraction_column(self):
        data = standardize(generate_toy(120, seed=0))
        cfg = toy_config("classify", sigma_grid=(1.0,), split=SplitSpec(0.5, repetitions=1))
        reports = sweep(cfg, [0.25], data)
        assert "0.25" in reports_to_csv(reports)


class TestLoocv:
    def test_small_loocv(self):
        data = standardize(generate_toy(60, seed=0))
        cfg = ExperimentConfig(task="classify", sigma_grid=(1.0,))
        report = loocv(cfg, data)
        assert len(report.records) == 60
        ris = [r.ri for r in report.records if r.ok]
        assert ris and all(ri in (0.0, 1.0) for ri in ris)
        assert report.train_fraction == pytest.approx(59 / 60)

    def test_cluster_task_rejected(self):
        data = standardize(generate_toy(60, seed=0))
        with pytest.raises(ValueError):
            loocv(ExperimentConfig(task="cluster"), data)


class TestConfigValidation:
    def test_bad_task(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="regress")

    def test_bad_ell(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="classify", ell=4)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="cluster", sigma_grid=(0.0, 1.0))

    def test_bad_k_neighbors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="cluster", k_neighbors=0)

    def test_config_dict_roundtrip(self):
        cfg = toy_config("cluster")
        d = cfg.to_dict()
        assert d["task"] == "cluster"
        assert d["split"]["train_fraction"] == 0.5
        assert isinstance(d["sigma_grid"], list)
