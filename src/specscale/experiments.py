"""Experiment harness: kernel-width grids, repeated splits, result tables.

``run_pipeline`` runs the supervised-scaling pipeline over repeated splits and
a kernel-width grid. Every pencil is solved, and every scaled graph built, at
unit width (2 sigma^2 = 1); the row at width sigma records the factors
s = 2 sigma^2 t. A kernel is one graph, one embedding and one assignment
(exact two-means or 1-NN); every (repetition, sigma) row copies the scores and
pencil diagnostics of the kernel that serves it, and the report aggregates
per-sigma statistics. ``sweep`` varies the training fraction and ``loocv`` runs
leave-one-out classification. Reports serialize to a tidy CSV plus a JSON
manifest and are byte-identical across reruns with the same configuration and
data.
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
from .similarity import KernelParams, build_similarity, pairwise_sqdiff

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
        if len(self.sigma_grid) == 0 or any(s <= 0 for s in self.sigma_grid):
            raise ValueError("sigma_grid must hold positive values")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.fiedler_negative != "auto":
            self.fiedler_negative = float(self.fiedler_negative)

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
            ris = np.array([r.ri for r in good], dtype=float) if good else None
            nmis = (
                np.array([r.nmi for r in good if r.nmi is not None], dtype=float)
                if good
                else None
            )
            out.append(
                SigmaSummary(
                    sigma=sigma,
                    n_runs=len(runs),
                    n_failed=len(runs) - len(good),
                    ri_mean=float(ris.mean()) if ris is not None and ris.size else None,
                    ri_std=float(ris.std()) if ris is not None and ris.size else None,
                    nmi_mean=float(nmis.mean()) if nmis is not None and nmis.size else None,
                    nmi_std=float(nmis.std()) if nmis is not None and nmis.size else None,
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
        for r in report.records:
            writer.writerow(
                [
                    report.task,
                    report.ell,
                    _fmt(float(report.train_fraction)),
                    _fmt(float(r.sigma)),
                    r.repetition,
                    _fmt(r.ri),
                    _fmt(r.nmi),
                    _fmt(r.mu),
                    _fmt(r.residual),
                    _fmt(r.constraint_violation),
                    _fmt(r.linearization_violations),
                    _fmt(r.certified),
                    _fmt(r.scaled),
                    r.error or "",
                ]
            )
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


def _scores(config, data, vectors, train, test):
    """(RI, NMI) of two-means over all samples, or (RI, None) of 1-NN on the
    test rows, from the embedded samples ``vectors``."""
    if config.task == "cluster":
        labels = kmeans(vectors[:, 0]).labels
        return rand_index(data.labels, labels, align=True), nmi_score(data.labels, labels)
    if test.size == 0:
        raise SpecScaleError("classification needs a nonempty test set")
    predicted = nn1_classify(vectors, train, data.labels[train], test)
    return rand_index(data.labels[test], predicted, align=False), None


# 2 sigma^2 = 1 (to rounding): the width of every pencil and every scaled graph
_UNIT_SIGMA = np.sqrt(0.5)


def fit_unit_scaling(X, labels, negative_value, sigma, k_neighbors=7, diffs=None):
    """Learn the unit-width factors t of the rows at width ``sigma``.

    Builds the label target of the training rows X, assembles the pencil at
    unit width (2 sigma^2 = 1) and solves it. The row at width sigma records
    s = 2 sigma^2 t. Only ``negative_value="auto"`` reads sigma: it takes its
    degrees from the unscaled k-NN graph of the training rows at that width.
    ``diffs`` may carry ``pairwise_sqdiff(X)``.
    """
    degrees = None
    if negative_value == "auto":
        degrees = build_similarity(X, KernelParams(sigma, k_neighbors)).degrees
    v = estimate_fiedler(labels, negative_value, degrees)
    return learn_scaling(assemble_pencil(X, v, _UNIT_SIGMA, diffs=diffs))


def _fit(config, X, labels, diffs, sigma, repetition):
    """The kernel record of the fit for the rows at width ``sigma``: its pencil
    diagnostics and unit-width factors t, or ``scaled=False`` and none when
    feature scaling is off or the pencil yields no factors."""
    record = RunRecord(sigma=float(_UNIT_SIGMA), repetition=repetition)
    if not config.feature_scaling:
        return record
    try:
        scaling = fit_unit_scaling(
            X, labels, config.fiedler_negative, sigma, config.k_neighbors, diffs
        )
    except (NoScalingError, NonNormalizableError):
        return record
    record.scaled = True
    record.mu = float(scaling.eigenvalue)
    record.residual = float(scaling.residual)
    record.constraint_violation = float(scaling.constraint_violation)
    record.certified = bool(scaling.certified)
    record.factors = scaling.factors
    record.linearization_violations = linearization_violation_fraction(
        X, record.factors, _UNIT_SIGMA
    )
    return record


def _assign(config, data, train, test, record, sigma, kernels):
    """Build the graph at width ``sigma``, with ``record.factors`` when the
    record is scaled, embed and assign it, and write the scores to ``record``.
    ``kernels`` keeps by width each graph's embedding (for cluster its scores,
    which hold no split either) or typed error, so no graph is built twice."""
    if sigma not in kernels:
        try:
            factors = record.factors if record.scaled else None
            graph = build_similarity(data.values, KernelParams(sigma, config.k_neighbors, factors))
            kernels[sigma] = embed(graph, config.ell).vectors
            if config.task == "cluster":
                kernels[sigma] = _scores(config, data, kernels[sigma], train, test)
        except SpecScaleError as exc:
            kernels[sigma] = exc
    kept = kernels[sigma]
    if isinstance(kept, SpecScaleError):
        raise kept.with_traceback(None)
    cluster = config.task == "cluster"
    record.ri, record.nmi = kept if cluster else _scores(config, data, kept, train, test)


def _row(kernel, sigma):
    """The row of width ``sigma`` that ``kernel`` serves: its scores and pencil
    diagnostics, with factors s = 2 sigma^2 t."""
    factors = None if kernel.factors is None else 2.0 * sigma**2 * kernel.factors
    return dataclasses.replace(kernel, sigma=float(sigma), factors=factors)


def _failed_run(sigma, repetition, exc):
    return RunRecord(
        sigma=float(sigma), repetition=repetition, error=f"{type(exc).__name__}: {exc}"
    )


def _split_rows(config, data, train, test, repetition, unscaled):
    """The rows of one split, one per grid width (``unscaled``: see ``_assign``)."""
    X, labels = data.values[train], data.labels[train]
    # only a fit reads the pair moments; they hold no width, so one serves every fit
    diffs = pairwise_sqdiff(X) if config.feature_scaling else None
    # a fixed target's fit and scaled kernel hold no width: one serves every row
    fixed = config.feature_scaling and config.fiedler_negative != "auto"
    groups = [config.sigma_grid] if fixed else [[sigma] for sigma in config.sigma_grid]
    rows = []
    for group in groups:
        try:
            kernel = _fit(config, X, labels, diffs, group[0], repetition)
            if kernel.scaled:
                try:
                    _assign(config, data, train, test, kernel, _UNIT_SIGMA, {})
                except NumericalOverflowError:
                    # only negative learned factors can overflow the kernel
                    kernel.scaled = False
        except SpecScaleError as exc:
            rows.extend(_failed_run(s, repetition, exc) for s in group)
            continue
        for sigma in group:
            row = _row(kernel, sigma)
            if not row.scaled:  # the unscaled graph at this width
                try:
                    _assign(config, data, train, test, row, sigma, unscaled)
                except SpecScaleError as exc:
                    row = _failed_run(sigma, repetition, exc)
            rows.append(row)
    return rows


def _run_over_splits(config, data, index_pairs):
    records, unscaled = [], {}
    for repetition, (train, test) in enumerate(index_pairs):
        records.extend(_split_rows(config, data, train, test, repetition, unscaled))
    return records


def run_pipeline(config: ExperimentConfig, data: DataMatrix) -> EvalReport:
    """Execute the supervised-scaling pipeline over repeated splits and a
    kernel-width grid.

    For the rows at width sigma, the fit estimates the target vector on the
    training rows (the "auto" target from their unscaled graph at sigma), then
    assembles and solves the scaling pencil at unit width for factors t. The
    scaled kernel builds the graph exp(-t^T x) over all samples, which is
    exp(-s^T x / 2 sigma^2) at every width, embeds it and assigns once: exact
    two-means of the one-dimensional embedding (RI/NMI over all samples) or
    transductive 1-NN (RI over the test rows). A fixed target is fitted
    once per split and its one scaled kernel serves every row; the "auto"
    target is fitted once per sigma. Without feature scaling, or when the
    pencil yields no usable factors or the factors overflow the kernel
    weights, each row gets the unscaled graph at its own sigma, built once per
    run, with ``scaled=False``, and nothing is re-fitted; after an overflow the
    pencil diagnostics stay. Each row copies its kernel's RI, NMI, mu, ``residual``,
    ``certified``, ``constraint_violation`` and linearization share, and
    records the factors s = 2 sigma^2 t. A typed error while a kernel is built
    is recorded, not fatal, on every row that kernel would serve.
    """
    if data.labels is None:
        raise ValueError("run_pipeline requires labeled data")
    pairs = [
        split(data, config.split, rep) for rep in range(config.split.repetitions)
    ]
    records = _run_over_splits(config, data, pairs)
    return EvalReport(
        task=config.task,
        ell=config.ell,
        train_fraction=config.split.train_fraction,
        config=config.to_dict(),
        records=records,
    )


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
    if data.labels is None:
        raise ValueError("loocv requires labeled data")
    n = data.n_samples
    everything = np.arange(n)
    pairs = [
        (np.delete(everything, i), np.array([i], dtype=int)) for i in range(n)
    ]
    records = _run_over_splits(config, data, pairs)
    return EvalReport(
        task="classify",
        ell=config.ell,
        train_fraction=(n - 1) / n,
        config=config.to_dict(),
        records=records,
    )
