"""Harness tests: pipeline mechanics, determinism, reporting."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from specscale import (
    DataMatrix,
    ExperimentConfig,
    ScalingVector,
    SplitSpec,
    assemble_pencil,
    build_similarity,
    estimate_fiedler,
    generate_toy,
    learn_scaling,
    loocv,
    reports_to_csv,
    reports_to_manifest,
    run_pipeline,
    split,
    standardize,
    sweep,
)
from specscale import experiments
from specscale.errors import (
    DegenerateSupervisionError,
    InsufficientSpectrumError,
    NoScalingError,
    NumericalOverflowError,
)
from specscale.similarity import sqdist_blocks


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


def feature_permuted_runs(config):
    """Record pairs of ``config`` run on the standardized 800-sample toy at
    seeds 0-3 and on the same data with its 10 feature columns in a seeded
    random order."""
    pairs = []
    for seed in range(4):
        data = standardize(generate_toy(800, seed=seed))
        perm = np.random.default_rng(seed).permutation(data.values.shape[1])
        permuted = DataMatrix(
            values=data.values[:, perm],
            feature_names=[data.feature_names[j] for j in perm],
            labels=data.labels,
        )
        pairs += zip(run_pipeline(config, data).records, run_pipeline(config, permuted).records)
    for a, b in pairs:
        assert (a.sigma, a.repetition) == (b.sigma, b.repetition)
    return pairs


THREE_SPLITS = SplitSpec(0.5, repetitions=3)


class TestFeaturePermutation:
    """Permuting the feature columns permutes the factors, so every row whose
    embedding the data determine keeps its scores."""

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(task="cluster", split=THREE_SPLITS),
            ExperimentConfig(task="classify", ell=2, split=THREE_SPLITS),
        ],
        ids=["cluster", "classify-ell2"],
    )
    def test_scaled_rows_keep_their_scores(self, config):
        scaled = [(a, b) for a, b in feature_permuted_runs(config) if a.scaled]
        assert scaled
        for a, b in scaled:
            assert b.scaled and (a.ri, a.nmi) == (b.ri, b.nmi)
            assert abs(a.mu - b.mu) <= 1e-12 * abs(a.mu)

    def test_unscaled_rows_keep_their_scores(self):
        config = ExperimentConfig(task="classify", ell=2, sigma_grid=(1.0, 10.0, 100.0),
                                  feature_scaling=False, split=THREE_SPLITS)
        for a, b in feature_permuted_runs(config):
            assert (a.ri, a.nmi) == (b.ri, b.nmi)

    @pytest.mark.xfail(strict=True, reason="the unscaled sigma = 0.1 graph is near-degenerate "
                       "(minimum degree 7e-196 on seed 0), so rounding picks its embedding")
    def test_unscaled_rows_at_sigma_0_1_keep_their_scores(self):
        config = ExperimentConfig(task="classify", ell=2, sigma_grid=(0.1,),
                                  feature_scaling=False, split=THREE_SPLITS)
        moved = [a.ri != b.ri for a, b in feature_permuted_runs(config)]
        assert not any(moved), f"{sum(moved)} of {len(moved)} rows moved"


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
        # at sigma = 0.1 the degree ratio b of the auto target is 2.8e-71 and
        # 7.9e-69: the -b entries are rounding noise next to 1, a typed error
        data = standardize(generate_toy(120, seed=0))
        report = run_pipeline(toy_config("classify", fiedler_negative="auto"), data)
        assert [r.sigma for r in report.records] == [0.1, 1.0, 0.1, 1.0]
        for r in report.records:
            if r.sigma == 0.1:
                assert r.error.startswith("DegenerateSupervisionError: ")
            else:
                assert r.ok and r.scaled

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
        for protocol in (run_pipeline, loocv):
            with pytest.raises(ValueError, match="labeled"):
                protocol(toy_config("classify"), dm)

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

    # one set of pair moments per fit: per split for a fixed target, per split
    # and width (two here) for "auto", none without feature scaling
    @pytest.mark.parametrize(
        "feature_scaling, fiedler_negative, expected",
        [
            pytest.param(True, -0.2, 2, id="True-2"),
            pytest.param(True, "auto", 4, id="auto-4"),
            pytest.param(False, -0.2, 0, id="False-0"),
        ],
    )
    def test_pair_tensor_built_only_for_a_fit(
        self, monkeypatch, feature_scaling, fiedler_negative, expected
    ):
        calls = []
        build = experiments.pairwise_sqdiff

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "pairwise_sqdiff", counting)
        data = standardize(generate_toy(120, seed=0))
        config = toy_config(  # at 0.1 the "auto" target of these splits collapses
            "cluster", sigma_grid=(1.0, 10.0), feature_scaling=feature_scaling,
            fiedler_negative=fiedler_negative,
        )
        report = run_pipeline(config, data)
        assert all(r.ok for r in report.records)
        assert len(calls) == expected


COUNTED = (
    "assemble_pencil",
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


def kernel_of(factors, grid):
    """The grid width whose unscaled kernel has the unit-width ``factors`` (all
    0.5 / sigma^2), or "scaled" for any other factors."""
    widths = [s for s in grid if np.array_equal(factors, np.full(factors.size, 0.5 / s**2))]
    return widths[0] if widths else "scaled"


def duplicated_column_toy():
    """The 200-sample toy with its first column repeated: a tall pencil
    without full column rank."""
    toy = standardize(generate_toy(200, seed=0))
    values = np.column_stack([toy.values, toy.values[:, 0]])
    return dataclasses.replace(toy, values=values, feature_names=[*toy.feature_names, "copy"])


class TestSharedSplit:
    """With a fixed target every sigma row of a split copies one unit-width
    kernel, whatever the pencil shape: fit, graph, embedding and assignment."""

    GRID = (0.01, 0.1, 1.0)

    def config(self, task="cluster", grid=GRID, **kw):
        return toy_config(task, sigma_grid=grid, **kw)

    def test_one_solve_graph_and_embedding_per_split(self, calls):
        report = run_pipeline(self.config(), standardize(generate_toy(200, seed=0)))
        assert len(report.records) == 6 and all(r.ok and r.scaled for r in report.records)
        assert calls["assemble_pencil"] == 2
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
        # full-rank tall, rank-deficient tall and wide pencils alike, down to
        # sigma = 0.01, where a pencil solved at that width loses its mu
        inputs = [standardize(generate_toy(200, seed=0)), duplicated_column_toy(), wide_data()]
        for data in inputs:
            report = run_pipeline(self.config(grid=(0.01, 1.0, 100.0)), data)
            assert len(report.records) == 6
            for rep in (0, 1):
                rows = [r for r in report.records if r.repetition == rep]
                unit = rows[1]
                assert unit.sigma == 1.0 and unit.ok and unit.scaled
                for r in rows:
                    assert r.mu == unit.mu and r.residual == unit.residual
                    assert r.ri == unit.ri and r.nmi == unit.nmi
                    assert r.certified == unit.certified
                    assert r.linearization_violations == unit.linearization_violations
                    np.testing.assert_allclose(
                        r.factors, r.sigma**2 * unit.factors, rtol=1e-12, atol=0
                    )

    def test_auto_rows_record_the_unit_width_fit_of_their_target(self):
        data = standardize(generate_toy(200, seed=0))
        cfg = self.config("classify", grid=(0.1, 1.0, 100.0), fiedler_negative="auto")
        report = run_pipeline(cfg, data)
        for rep in (0, 1):
            train, _ = split(data, cfg.split, rep)
            X, labels = data.values[train], data.labels[train]
            for r in (r for r in report.records if r.repetition == rep):
                t = np.full(X.shape[1], 0.5 / r.sigma**2)  # the unscaled kernel at r.sigma
                degrees = build_similarity(X, t, cfg.k_neighbors).degrees
                if r.sigma == 0.1:  # the target collapses to one class's indicator
                    assert r.error.startswith("DegenerateSupervisionError: ")
                    with pytest.raises(DegenerateSupervisionError):
                        estimate_fiedler(labels, "auto", degrees)
                    continue
                assert r.ok and r.scaled
                v = estimate_fiedler(labels, "auto", degrees)
                t = learn_scaling(assemble_pencil(X, v))
                assert r.mu == t.eigenvalue
                np.testing.assert_allclose(
                    r.factors, 2 * r.sigma**2 * t.factors, rtol=1e-12, atol=0
                )

    def test_wide_split_fits_once_for_every_sigma(self, calls):
        report = run_pipeline(self.config("classify", grid=(1.0, 10.0, 100.0)), wide_data())
        assert len(report.records) == 6 and all(r.ok and r.scaled for r in report.records)
        assert calls["assemble_pencil"] == 2
        assert calls["learn_scaling"] == 2
        assert calls["build_similarity"] == 2
        assert calls["embed"] == 2

    def test_auto_target_runs_per_sigma(self, calls):
        report = run_pipeline(
            self.config("classify", grid=(1.0, 10.0, 100.0), fiedler_negative="auto"),
            standardize(generate_toy(200, seed=0)),
        )
        assert len(report.records) == 6 and all(r.ok for r in report.records)
        assert calls["learn_scaling"] == 6
        assert calls["build_similarity"] == 12  # training graph and full graph
        assert calls["embed"] == 6

    def test_rank_deficient_tall_split_fits_once_for_every_sigma(self, calls):
        report = run_pipeline(self.config(grid=(1.0, 10.0, 100.0)), duplicated_column_toy())
        assert len(report.records) == 6 and all(r.ok and r.scaled for r in report.records)
        assert calls["assemble_pencil"] == 2
        assert calls["learn_scaling"] == 2
        assert calls["build_similarity"] == 2
        assert calls["embed"] == 2
        assert calls["kmeans"] == 2

    def run_one_split(self, monkeypatch):
        """One toy split, recording the kernel of every graph built: the width
        of an unscaled one, or "scaled"."""
        graphs = []
        build = experiments.build_similarity

        def recording(X, factors, k):
            graphs.append(kernel_of(factors, self.GRID))
            return build(X, factors, k)

        monkeypatch.setattr(experiments, "build_similarity", recording)
        cfg = self.config(split=SplitSpec(0.5, seed=0, repetitions=1))
        return run_pipeline(cfg, standardize(generate_toy(200, seed=0))), graphs

    def assert_unscaled_fallback(self, calls, report, graphs):
        # one fit, then the unscaled graph at each width; at sigma = 0.01 that
        # graph has an isolated sample, as the unscaled baseline's does
        assert calls["assemble_pencil"] == 1
        assert graphs[-3:] == [0.01, 0.1, 1.0]
        assert calls["embed"] == 2
        assert calls["kmeans"] == 2
        small, *rest = report.records
        assert "IsolatedSampleError" in small.error
        assert [r.sigma for r in rest] == [0.1, 1.0]
        assert all(r.ok and not r.scaled for r in rest)
        return rest

    def test_unit_width_fit_failure_falls_back_to_unscaled_graphs(self, calls, monkeypatch):
        seen = []

        def failing(pencil, *args):
            seen.append(pencil)
            raise NoScalingError("no candidates at unit width")

        monkeypatch.setattr(experiments, "learn_scaling", failing)
        report, graphs = self.run_one_split(monkeypatch)
        rest = self.assert_unscaled_fallback(calls, report, graphs)
        assert len(seen) == 1  # no re-fit at any width
        assert len(graphs) == 3 and calls["build_similarity"] == 3
        assert all(r.mu is None and r.factors is None for r in rest)

    def test_unit_width_overflow_falls_back_to_unscaled_graphs(self, calls, monkeypatch):
        build = experiments.build_similarity

        def overflowing(X, factors, k):
            if kernel_of(factors, self.GRID) == "scaled":
                raise NumericalOverflowError("scaled weights overflow")
            return build(X, factors, k)

        monkeypatch.setattr(experiments, "build_similarity", overflowing)
        report, graphs = self.run_one_split(monkeypatch)
        rest = self.assert_unscaled_fallback(calls, report, graphs)
        assert graphs[0] == "scaled" and len(graphs) == 4
        assert calls["learn_scaling"] == 1  # no re-fit at any width
        assert calls["build_similarity"] == 3  # the stub raised for the unit-width graph
        # the pencil diagnostics of the unit-width fit stay on the unscaled rows
        a, b = rest
        assert a.mu is not None and a.mu == b.mu and a.residual == b.residual
        np.testing.assert_allclose(b.factors, (1.0 / 0.1) ** 2 * a.factors, rtol=1e-12, atol=0)

    def test_scaled_graph_is_exactly_unit_width(self, monkeypatch):
        # k = n - 1 keeps every pair, so with t >= 0 each off-diagonal weight
        # is (e_ij + e_ji) / 2 with e = exp(-max(delta_t, 0)), to the bit
        data = standardize(generate_toy(40, seed=0))
        t = np.random.default_rng(0).uniform(0.1, 1.0, data.n_features)
        monkeypatch.setattr(
            experiments, "learn_scaling", lambda ps: ScalingVector(t, 1.0, 0.0, 0.0)
        )
        scaled = []
        build = experiments.build_similarity

        def recording(X, factors, k):
            graph = build(X, factors, k)
            if kernel_of(factors, (0.1,)) == "scaled":
                scaled.append(graph)
            return graph

        monkeypatch.setattr(experiments, "build_similarity", recording)
        n = data.n_samples
        cfg = self.config(grid=(0.1,), k_neighbors=n - 1,
                          split=SplitSpec(0.5, seed=0, repetitions=1))
        assert run_pipeline(cfg, data).records[0].scaled
        e = np.exp(-np.maximum(sqdist_blocks(data.values, t)(slice(None)), 0.0))
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_array_equal(scaled[0].weights.toarray()[off], ((e + e.T) / 2)[off])

    def test_shared_failure_recorded_on_every_row(self, monkeypatch):
        def failing(graph, ell):
            raise InsufficientSpectrumError("no spectrum")

        monkeypatch.setattr(experiments, "embed", failing)
        report = run_pipeline(self.config(), standardize(generate_toy(200, seed=0)))
        assert len(report.records) == 6
        assert all("InsufficientSpectrumError" in r.error for r in report.records)


class TestUnscaledKernels:
    """The unscaled graph over all samples, its embedding and, for cluster, its
    two-means scores hold no split: a run builds one per width."""

    def config(self, task, **kw):
        return ExperimentConfig(task=task, split=SplitSpec(0.5, seed=0, repetitions=4), **kw)

    @pytest.mark.parametrize("task", ["cluster", "classify"])
    def test_one_graph_per_width(self, calls, task):
        data = standardize(generate_toy(800, seed=0))
        report = run_pipeline(self.config(task, feature_scaling=False), data)
        assert len(report.records) == 20
        assert calls["build_similarity"] == 5  # one per split and width before
        assert calls["embed"] == 4  # the sigma = 0.01 graph has an isolated sample
        assert calls["kmeans"] == (4 if task == "cluster" else 0)
        assert calls["nn1_classify"] == (16 if task == "classify" else 0)
        small = [r for r in report.records if r.sigma == 0.01]
        assert len({r.error for r in small}) == 1 and "IsolatedSampleError" in small[0].error

    def test_fallback_rows_share_the_run_graphs(self, calls, monkeypatch):
        def failing(pencil, *args):
            raise NoScalingError("no candidates at unit width")

        monkeypatch.setattr(experiments, "learn_scaling", failing)
        cfg = self.config("cluster", sigma_grid=(0.1, 1.0, 10.0))
        report = run_pipeline(cfg, standardize(generate_toy(200, seed=0)))
        assert calls["assemble_pencil"] == 4 and calls["build_similarity"] == 3
        assert all(r.ok and not r.scaled for r in report.records)
        for sigma in cfg.sigma_grid:
            assert len({r.ri for r in report.records if r.sigma == sigma}) == 1

    def test_loocv_builds_one_graph_per_width(self, calls):
        data = separated_clusters(n_per=5)
        cfg = ExperimentConfig(task="classify", sigma_grid=(1.0, 10.0), k_neighbors=3,
                               feature_scaling=False)
        report = loocv(cfg, data)
        assert len(report.records) == 20 and all(r.ok for r in report.records)
        assert calls["build_similarity"] == 2 and calls["nn1_classify"] == 20


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


def test_csv_rows_exact_bytes():
    Row = experiments.RunRecord
    cluster = experiments.EvalReport(
        task="cluster", ell=1, train_fraction=0.5, config={}, records=[
            Row(sigma=1.0, repetition=0, ri=0.75, nmi=0.5, mu=1.25, residual=1e-12,
                constraint_violation=-3e-17, linearization_violations=0.375,
                certified=False, scaled=True, factors=np.ones(2)),
            Row(sigma=0.01, repetition=1, error="NoScalingError: no factors, at unit width"),
        ],
    )
    classify = experiments.EvalReport(
        task="classify", ell=2, train_fraction=59 / 60, config={}, records=[
            Row(sigma=100.0, repetition=3, ri=1.0, mu=0.1, residual=0.0,
                constraint_violation=0.0, linearization_violations=0.0, certified=True),
        ],
    )
    assert reports_to_csv([cluster, classify]) == (
        "task,ell,train_fraction,sigma,repetition,ri,nmi,mu,residual,constraint_violation,"
        "linearization_violations,certified,scaled,error\n"
        "cluster,1,0.5,1.0,0,0.75,0.5,1.25,1e-12,-3e-17,0.375,false,true,\n"
        'cluster,1,0.5,0.01,1,,,,,,,,false,"NoScalingError: no factors, at unit width"\n'
        "classify,2,0.9833333333333333,100.0,3,1.0,,0.1,0.0,0.0,0.0,true,false,\n"
    )


class TestPaperClaim:
    """The paper's toy claim: more supervision helps, and the learned scaling
    beats the unscaled graph.

    On the benchmark's toy (n = 800, seed 0, standardized), with sigma = 1,
    2 splits (split seed 0) and every other default, the mean RI at training
    fraction 0.5 exceeds that at 0.05, and at 0.5 the scaled pipeline's exceeds
    the unscaled one's, each by at least 0.1. Measured: cluster 0.997 (0.5),
    0.699 (0.05), 0.578 (unscaled); classify 0.996,
    0.747, 0.723.
    """

    @pytest.mark.parametrize("task", ["cluster", "classify"])
    def test_supervision_and_scaling_raise_ri(self, task):
        data = standardize(generate_toy(800, seed=0))
        cfg = ExperimentConfig(task=task, sigma_grid=(1.0,), split=SplitSpec(0.5, repetitions=2))
        sparse, rich = (r.summaries()[0].ri_mean for r in sweep(cfg, [0.05, 0.5], data))
        unscaled = run_pipeline(dataclasses.replace(cfg, feature_scaling=False), data)
        assert rich >= sparse + 0.1
        assert rich >= unscaled.summaries()[0].ri_mean + 0.1


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
        for grid in [(0.0, 1.0), (), (np.nan,), (1.0, np.inf), (1.0, 1.0), (0.1, 1, 1.0)]:
            with pytest.raises(ValueError, match="sigma_grid"):
                ExperimentConfig(task="cluster", sigma_grid=grid)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, "nan"], ids=["nan", "inf", "-inf", "text-nan"]
    )
    def test_non_finite_fiedler_negative(self, value):
        with pytest.raises(ValueError, match="fiedler_negative"):
            ExperimentConfig(task="classify", fiedler_negative=value)

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.5, 1.0, "1"])
    def test_nonnegative_fiedler_negative(self, value):
        # 0 makes the target one class's indicator and 1 the constant vector
        with pytest.raises(ValueError, match="below 0"):
            ExperimentConfig(task="classify", fiedler_negative=value)

    def test_bad_k_neighbors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="cluster", k_neighbors=0)

    def test_config_dict_roundtrip(self):
        cfg = toy_config("cluster")
        d = cfg.to_dict()
        assert d["task"] == "cluster"
        assert d["split"]["train_fraction"] == 0.5
        assert isinstance(d["sigma_grid"], list)
