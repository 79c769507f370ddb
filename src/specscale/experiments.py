"""Experiment harness: kernel-width grids, repeated splits, result tables.

``run_pipeline`` runs the supervised-scaling pipeline over repeated splits and
a kernel-width grid, ``sweep`` varies the training fraction and ``loocv`` runs
leave-one-out classification. This is the one layer that knows the width: the
graph layer builds exp(-delta_t) for unit-width factors t, and the kernel
exp(-delta / (2 sigma^2)) at width sigma is that of t = e / (2 sigma^2). Every
(repetition, sigma) row looks up what serves it in one memo, ``_kept``, keyed
on what that part depends on: the fit of its split (one per split for a fixed
target, one per sigma for "auto"), which holds the pencil diagnostics, the
unit-width factors t and the scores of their scaled kernel, or else the
unscaled kernel at its width, one per run. A kernel is one graph, one
embedding and, for cluster, one exact two-means; 1-NN runs per split. A memo
keeps a typed error as it keeps a result, so every row the failed part would
serve records it. A fit holds its training-sized arrays only while it reads
them: ``fit_unit_scaling`` makes the pair moments of the training rows, drops
its copy of the rows once the moments are made and the moments once the
pencil is assembled, so neither lives through the solve; the linearization
share takes a fresh copy of the rows, gone before the kernel over all samples
is built. A row is its fit's record at its own sigma, with factors
s = 2 sigma^2 t, and the report aggregates per-sigma statistics. Reports
serialize to a tidy CSV plus a JSON manifest and are byte-identical across
reruns with the same configuration and data.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .clustering import kmeans, nn1_classify
from .data import DataMatrix, SplitSpec, split
from .embedding import embed
from .errors import (
    NonNormalizableError,
    NoScalingError,
    NumericalOverflowError,
    SpecScaleError,
)
from .metrics import nmi as nmi_score
from .metrics import rand_index
from .scaling import (
    assemble_pencil,
    estimate_fiedler,
    learn_scaling,
    linearization_violation_fraction,
)
from .similarity import build_similarity, pairwise_sqdiff

DEFAULT_SIGMA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

TASKS = ("cluster", "classify")


@dataclass
class ExperimentConfig:
    task: str
    ell: int = 1
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    k_neighbors: int = 7
    fiedler_negative: object = -0.2  # float or "auto"
    split: SplitSpec = field(default_factory=lambda: SplitSpec(train_fraction=0.5))
    feature_scaling: bool = True  # False runs the unsupervised baseline (s = e)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if not 1 <= self.ell <= 3:
            raise ValueError("ell must be between 1 and 3")
        if self.task == "cluster" and self.ell != 1:
            raise ValueError("cluster embeds in one dimension: ell must be 1")
        if len(self.sigma_grid) == 0 or not all(0 < s < np.inf for s in self.sigma_grid):
            raise ValueError("sigma_grid must hold positive finite values")
        if len(set(self.sigma_grid)) != len(self.sigma_grid):
            raise ValueError("sigma_grid must not repeat a value")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.fiedler_negative != "auto":
            self.fiedler_negative = float(self.fiedler_negative)
            if not -np.inf < self.fiedler_negative < 0.0:
                raise ValueError("fiedler_negative must be a finite number below 0 or 'auto'")

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["sigma_grid"] = [float(s) for s in self.sigma_grid]
        return out


@dataclass
class RunRecord:
    sigma: float
    repetition: int
    ri: Optional[float] = None
    nmi: Optional[float] = None
    mu: Optional[float] = None
    residual: Optional[float] = None
    constraint_violation: Optional[float] = None
    linearization_violations: Optional[float] = None
    certified: Optional[bool] = None
    scaled: bool = False
    error: Optional[str] = None
    factors: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def ok(self):
        return self.error is None


@dataclass
class SigmaSummary:
    sigma: float
    n_runs: int
    n_failed: int
    ri_mean: Optional[float]
    ri_std: Optional[float]
    nmi_mean: Optional[float]
    nmi_std: Optional[float]


def _mean_std(values):
    """(mean, population std) of ``values``, or (None, None) when empty."""
    values = np.array(values, dtype=float)
    return (float(values.mean()), float(values.std())) if values.size else (None, None)


@dataclass
class EvalReport:
    task: str
    ell: int
    train_fraction: float
    config: dict
    records: list

    def summaries(self):
        """Per-sigma mean/std over successful runs (population std)."""
        out = []
        for sigma in self.config["sigma_grid"]:
            runs = [r for r in self.records if r.sigma == sigma]
            good = [r for r in runs if r.ok]
            out.append(
                SigmaSummary(
                    sigma,
                    len(runs),
                    len(runs) - len(good),
                    *_mean_std([r.ri for r in good]),
                    *_mean_std([r.nmi for r in good if r.nmi is not None]),
                )
            )
        return out

    @property
    def selected_sigma(self):
        """Grid value with the best mean RI; ties go to the smaller sigma."""
        best = None
        for s in self.summaries():
            if s.ri_mean is None:
                continue
            key = (-s.ri_mean, s.sigma)
            if best is None or key < best[0]:
                best = (key, s.sigma)
        return None if best is None else best[1]

    def format_table(self):
        lines = [f"task={self.task} ell={self.ell} train_fraction={self.train_fraction:g}"]
        chosen = self.selected_sigma
        for s in self.summaries():
            mark = "*" if s.sigma == chosen else " "
            if s.ri_mean is None:
                lines.append(f" {mark} sigma={s.sigma:<8g} all {s.n_runs} runs failed")
                continue
            msg = f" {mark} sigma={s.sigma:<8g} RI={s.ri_mean:.4f}+-{s.ri_std:.4f}"
            if s.nmi_mean is not None:
                msg += f" NMI={s.nmi_mean:.4f}+-{s.nmi_std:.4f}"
            msg += f" runs={s.n_runs - s.n_failed}/{s.n_runs}"
            lines.append(msg)
        return "\n".join(lines)


# the report's three columns, then a RunRecord attribute per column
_CSV_COLUMNS = [
    "task", "ell", "train_fraction", "sigma", "repetition", "ri", "nmi", "mu",
    "residual", "constraint_violation", "linearization_violations", "certified",
    "scaled", "error",
]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_to_csv(reports) -> str:
    """Tidy per-run rows for one or more reports, stable byte-for-byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for report in reports:
        head = [report.task, report.ell, _fmt(float(report.train_fraction))]
        for r in report.records:
            writer.writerow(head + [_fmt(getattr(r, name)) for name in _CSV_COLUMNS[3:]])
    return buf.getvalue()


def reports_to_manifest(reports) -> str:
    """JSON manifest: configuration, versions and per-sigma aggregates."""
    payload = {
        "versions": {
            "specscale": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "reports": [
            {
                "task": rep.task,
                "ell": rep.ell,
                "train_fraction": rep.train_fraction,
                "config": rep.config,
                "selected_sigma": rep.selected_sigma,
                "aggregates": [dataclasses.asdict(s) for s in rep.summaries()],
            }
            for rep in reports
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def fit_unit_scaling(X, labels, negative_value, sigma, k_neighbors=7):
    """Learn the unit-width factors t of the rows at width ``sigma``.

    Builds the label target of the training rows X, assembles the pencil of
    the unit-width kernel exp(-delta_t) and solves it; the row at width sigma
    records s = 2 sigma^2 t, and the scaled kernel is exp(-delta_t) at every
    width. Only ``negative_value="auto"`` reads sigma: it takes its degrees
    from the unscaled k-NN graph of the training rows at that width.
    The pencil is assembled from the pair moments of X, made here and dropped
    as soon as it is; X is not read past them, and its pencil is that of its
    centered rows, so a caller that keeps no name for X frees it for assembly.
    """
    degrees = None
    if negative_value == "auto":  # the unscaled kernel at sigma: t = e / (2 sigma^2)
        degrees = build_similarity(X, np.full(X.shape[1], 0.5 / sigma**2), k_neighbors).degrees
    v = estimate_fiedler(labels, negative_value, degrees)
    diffs = pairwise_sqdiff(X)
    del X  # the moments carry all that assembly reads of it
    pencil = assemble_pencil(diffs.centered, v, diffs=diffs)
    del diffs  # two n_train x m arrays the solve does not read
    return learn_scaling(pencil)


def _kept(cache, key, build):
    """``cache[key]``, from ``build()`` on the first lookup. A typed error that
    ``build()`` raised is kept in its place and raised on every lookup."""
    if key not in cache:
        try:
            cache[key] = build()
        except SpecScaleError as exc:
            cache[key] = exc
    if isinstance(cache[key], SpecScaleError):
        raise cache[key].with_traceback(None)
    return cache[key]


def _kernel(config, data, factors):
    """Embed the graph exp(-delta_t) of unit-width ``factors`` t over all
    samples. For cluster, its two-means (RI, NMI), which hold no split either."""
    graph = build_similarity(data.values, factors, config.k_neighbors)
    vectors = embed(graph, config.ell).vectors
    if config.task == "classify":
        return vectors
    labels = kmeans(vectors[:, 0])
    return rand_index(data.labels, labels, align=True), nmi_score(data.labels, labels)


def _scores(config, data, kernel, train, test):
    """(RI, NMI) of a cluster kernel, or (RI, None) of 1-NN on the test rows
    of a classify kernel's embedding."""
    if config.task == "cluster":
        return kernel
    if test.size == 0:
        raise SpecScaleError("classification needs a nonempty test set")
    predicted = nn1_classify(kernel, train, data.labels[train], test)
    return rand_index(data.labels[test], predicted, align=False), None


def _fit(config, data, train, test, sigma, repetition):
    """The record of the fit for the rows at width ``sigma``: its pencil
    diagnostics, unit-width factors t and the scores of their kernel
    exp(-delta_t), or ``scaled=False`` when feature scaling is off, the pencil
    yields no factors or the factors overflow the kernel (the diagnostics then
    stay). No copy of the training rows is kept across the solve: the fit
    gets one that it drops once the pair moments are made, and the
    linearization share another that is gone before the kernel over all
    samples is built."""
    record = RunRecord(sigma=float(sigma), repetition=repetition)
    if not config.feature_scaling:
        return record
    try:
        scaling = fit_unit_scaling(
            data.values[train], data.labels[train], config.fiedler_negative, sigma,
            config.k_neighbors,
        )
    except (NoScalingError, NonNormalizableError):
        return record
    record.mu = float(scaling.eigenvalue)
    record.residual = float(scaling.residual)
    record.constraint_violation = float(scaling.constraint_violation)
    record.certified = bool(scaling.certified)
    record.factors = scaling.factors
    record.linearization_violations = linearization_violation_fraction(
        data.values[train], record.factors
    )
    try:
        kernel = _kernel(config, data, record.factors)
    except NumericalOverflowError:  # only negative learned factors can overflow
        return record
    record.scaled = True
    record.ri, record.nmi = _scores(config, data, kernel, train, test)
    return record


def _split_rows(config, data, train, test, repetition, unscaled):
    """The rows of one split, one per grid width; ``unscaled`` keeps the run's
    unscaled kernels by width."""
    fits, rows = {}, []
    for sigma in config.sigma_grid:
        # a fixed target's fit and scaled kernel hold no width: one serves every
        # row. Each fit makes the pair moments of its split and drops them once
        # its pencil is assembled, so an "auto" split makes them once per sigma.
        key = sigma if config.fiedler_negative == "auto" else None
        try:
            fit = _kept(fits, key, lambda: _fit(config, data, train, test, sigma, repetition))
            factors = None if fit.factors is None else 2.0 * sigma**2 * fit.factors
            row = dataclasses.replace(fit, sigma=float(sigma), factors=factors)
            if not row.scaled:
                t = np.full(data.n_features, 0.5 / sigma**2)  # exp(-delta / (2 sigma^2))
                kernel = _kept(unscaled, sigma, lambda: _kernel(config, data, t))
                row.ri, row.nmi = _scores(config, data, kernel, train, test)
        except SpecScaleError as exc:
            row = RunRecord(float(sigma), repetition, error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


def _report(config, data, pairs, train_fraction):
    """The report of ``config`` over the (train, test) index ``pairs``."""
    if data.labels is None:
        raise ValueError("the experiments require labeled data")
    records, unscaled = [], {}
    for repetition, (train, test) in enumerate(pairs):
        records.extend(_split_rows(config, data, train, test, repetition, unscaled))
    return EvalReport(config.task, config.ell, train_fraction, config.to_dict(), records)


def run_pipeline(config: ExperimentConfig, data: DataMatrix) -> EvalReport:
    """Execute the supervised-scaling pipeline over repeated splits and a
    kernel-width grid.

    The fit of a split estimates the target vector on its training rows (the
    "auto" target from their unscaled graph at sigma), then assembles and
    solves the scaling pencil at unit width for factors t. Its scaled kernel
    builds the graph exp(-delta_t) over all samples, which is
    exp(-delta_s / (2 sigma^2)) at every width, embeds it and assigns once:
    exact two-means of the one-dimensional embedding (RI/NMI over all samples)
    or transductive 1-NN (RI over the test rows). The memo keys a fixed
    target's fit on the split alone, so one fit and one scaled kernel serve
    every row, and an "auto" fit on its sigma as well. Without feature
    scaling, or when the pencil yields no usable factors or the factors
    overflow the kernel weights, the row looks up the unscaled kernel at its
    own sigma, the graph of t = e / (2 sigma^2), which the memo keys on sigma
    alone, once per run; the row has ``scaled=False`` and nothing is
    re-fitted, and after an overflow the pencil diagnostics stay.
    Each row is its fit's record at its sigma (RI, NMI, mu, ``residual``,
    ``certified``, ``constraint_violation`` and linearization share) with
    factors s = 2 sigma^2 t. A typed error while a fit or kernel is built is
    kept by the memo and recorded, not fatal, on every row it would serve.
    """
    pairs = (split(data, config.split, rep) for rep in range(config.split.repetitions))
    return _report(config, data, pairs, config.split.train_fraction)


def sweep(config: ExperimentConfig, fractions, data: DataMatrix):
    """One report per training fraction (shared split seed and repetitions)."""
    reports = []
    for fraction in fractions:
        cfg = dataclasses.replace(
            config,
            split=dataclasses.replace(config.split, train_fraction=float(fraction)),
        )
        reports.append(run_pipeline(cfg, data))
    return reports


def loocv(config: ExperimentConfig, data: DataMatrix) -> EvalReport:
    """Leave-one-out classification: every sample is held out once.

    Each holdout is a repetition whose RI is 0 or 1, so the per-sigma mean RI
    is the leave-one-out accuracy.
    """
    if config.task != "classify":
        raise ValueError("loocv is a classification protocol")
    n = data.n_samples
    everything = np.arange(n)
    pairs = ((np.delete(everything, i), np.array([i], dtype=int)) for i in range(n))
    return _report(config, data, pairs, (n - 1) / n)
