"""Experiment harness: kernel-width grids, repeated splits, result tables.

``run_pipeline`` runs the supervised-scaling pipeline over repeated splits and
a kernel-width grid. A kernel is one fit, one graph, one embedding and one
assignment (k-means or 1-NN). Each split builds one kernel at unit width when
its scaled pipeline does not depend on sigma, and one kernel per sigma
otherwise; every (repetition, sigma) row copies the scores and pencil
diagnostics of the kernel that serves it, and the report aggregates per-sigma
statistics. ``sweep`` varies the training fraction and ``loocv`` runs
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
import scipy

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
    has_full_column_rank,
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
    kmeans_restarts: int = 20
    seed: int = 0
    feature_scaling: bool = True  # False runs the unsupervised baseline (s = e)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if not 1 <= self.ell <= 3:
            raise ValueError("ell must be between 1 and 3")
        if len(self.sigma_grid) == 0 or any(s <= 0 for s in self.sigma_grid):
            raise ValueError("sigma_grid must hold positive values")
        if self.fiedler_negative != "auto":
            self.fiedler_negative = float(self.fiedler_negative)
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be at least 1")

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

    def selected_records(self):
        chosen = self.selected_sigma
        return [r for r in self.records if r.sigma == chosen and r.ok]

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
            "scipy": scipy.__version__,
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


def _kmeans_seed(config_seed, repetition, sigma_index):
    ss = np.random.SeedSequence([int(config_seed), int(repetition), int(sigma_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def training_target(X_train, labels_train, negative_value, sigma, k_neighbors=7):
    """The label target of the training rows, as ``estimate_fiedler`` builds it.

    ``negative_value="auto"`` takes its degrees from the unscaled k-NN graph
    of the training rows at width ``sigma``.
    """
    degrees = None
    if negative_value == "auto":
        degrees = build_similarity(X_train, KernelParams(sigma, k_neighbors)).degrees
    return estimate_fiedler(labels_train, negative_value, degrees)


def _scores(config, data, embedding, train, test, repetition, sigma_index):
    """(RI, NMI) of k-means over all samples, or (RI, None) of 1-NN on the test rows."""
    if config.task == "cluster":
        labels = kmeans(
            embedding.vectors,
            k=2,
            restarts=config.kmeans_restarts,
            seed=_kmeans_seed(config.seed, repetition, sigma_index),
        ).labels
        return rand_index(data.labels, labels, align=True), nmi_score(data.labels, labels)
    if test.size == 0:
        raise SpecScaleError("classification needs a nonempty test set")
    predicted = nn1_classify(embedding, train, data.labels[train], test)
    return rand_index(data.labels[test], predicted, align=False), None


# 2 sigma^2 = 1 (to rounding): the width of a split's one shared kernel
_UNIT_SIGMA = np.sqrt(0.5)


def _kernel(config, data, train, test, repetition, diffs, sigma, sigma_index, shared=False):
    """Fit, build, embed and assign one kernel at width ``sigma``.

    Returns the kernel as the RunRecord of that width; ``sigma_index`` is the
    first grid row it serves and seeds its k-means. A failed fit, or learned
    factors that overflow the kernel weights, fall back to the unscaled graph
    with ``scaled=False``; after an overflow the pencil diagnostics stay.

    ``shared=True`` asks for the one kernel of every sigma row of the split,
    and returns None before any unscaled graph is built when the split has
    none: no feature scaling, the "auto" target (its degrees come from a
    sigma-dependent training graph), a rank-deficient pencil (always when
    2 n_train + 1 < m + 1, which needs no SVD to tell), or a fit that would
    take one of the unscaled fallbacks.
    """
    X = data.values[train]
    if shared and (
        not config.feature_scaling
        or config.fiedler_negative == "auto"
        or 2 * X.shape[0] < X.shape[1]
    ):
        return None
    scaling = None
    if config.feature_scaling:
        fiedler = training_target(
            X, data.labels[train], config.fiedler_negative, sigma, config.k_neighbors
        )
        pencil = assemble_pencil(X, fiedler, sigma, diffs=diffs)
        if shared and not has_full_column_rank(pencil):
            return None
        try:
            scaling = learn_scaling(pencil)
        except (NoScalingError, NonNormalizableError):
            if shared:
                return None
    record = RunRecord(sigma=float(sigma), repetition=repetition)
    if scaling is not None:
        record.scaled = True
        record.mu = float(scaling.eigenvalue)
        record.residual = float(scaling.residual)
        record.constraint_violation = float(scaling.constraint_violation)
        record.certified = bool(scaling.certified)
        record.factors = scaling.factors
        record.linearization_violations = linearization_violation_fraction(X, scaling, sigma)
    try:
        graph = build_similarity(data.values, KernelParams(sigma, config.k_neighbors, scaling))
    except NumericalOverflowError:
        # only negative learned factors can overflow the kernel
        if shared:
            return None
        record.scaled = False
        graph = build_similarity(data.values, KernelParams(sigma, config.k_neighbors))
    embedding = embed(graph, config.ell)
    record.ri, record.nmi = _scores(
        config, data, embedding, train, test, repetition, sigma_index
    )
    return record


def _row(kernel, sigma):
    """The row of width ``sigma`` that ``kernel`` serves: its scores and pencil
    diagnostics, with factors s = (sigma / sigma_kernel)^2 t."""
    factors = kernel.factors
    if factors is not None:
        factors = (sigma / kernel.sigma) ** 2 * factors
    return dataclasses.replace(kernel, sigma=float(sigma), factors=factors)


def _failed_run(sigma, repetition, exc):
    return RunRecord(
        sigma=float(sigma), repetition=repetition, error=f"{type(exc).__name__}: {exc}"
    )


def _run_over_splits(config, data, index_pairs):
    records = []
    for repetition, (train, test) in enumerate(index_pairs):
        diffs = pairwise_sqdiff(data.values[train], 1.0)
        split_args = (config, data, train, test, repetition, diffs)
        try:
            shared = _kernel(*split_args, _UNIT_SIGMA, 0, shared=True)
        except SpecScaleError as exc:
            records.extend(_failed_run(s, repetition, exc) for s in config.sigma_grid)
            continue
        for sigma_index, sigma in enumerate(config.sigma_grid):
            try:
                kernel = shared or _kernel(*split_args, sigma, sigma_index)
            except SpecScaleError as exc:
                records.append(_failed_run(sigma, repetition, exc))
                continue
            records.append(_row(kernel, sigma))
    return records


def run_pipeline(config: ExperimentConfig, data: DataMatrix) -> EvalReport:
    """Execute the supervised-scaling pipeline over repeated splits and a
    kernel-width grid.

    A kernel at width sigma estimates the target vector on the training rows,
    assembles and solves the scaling pencil, builds the similarity graph over
    all samples with the learned factors and embeds it. It then assigns once:
    k-means (RI/NMI over all samples, seeded by the first grid row the kernel
    serves) or transductive 1-NN (RI over the test rows). When the pencil
    yields no usable factors, or when the learned factors overflow the kernel
    weights, the kernel falls back to the unscaled graph with
    ``scaled=False``; in the overflow case the pencil diagnostics stay.

    A split has one kernel when feature scaling is on, the target is fixed
    (not ``"auto"``), the pencil has full column rank, rank([F; G]) = m + 1,
    and the unit-width fit takes neither unscaled fallback. That kernel is
    built at unit width (2 sigma^2 = 1) for factors t, and its scaled kernel
    exp(-t^T x) is sigma-free. Every other split has one kernel per sigma.
    Each row copies its kernel's RI, NMI, mu, ``residual``, ``certified``,
    ``constraint_violation`` and linearization share, and records the factors
    s = (sigma / sigma_kernel)^2 t. A typed error while a kernel is built is
    recorded, not fatal, on every row that kernel would serve.
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
    """One report per training fraction (shared seed and repetitions)."""
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
