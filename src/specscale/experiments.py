"""Experiment harness: kernel-width grids, repeated splits, result tables.

``run_pipeline`` executes the full supervised-scaling pipeline for every
(repetition, sigma) pair, sharing the sigma-invariant solve, graph and
embedding of a split where the pencil allows it, and aggregates per-sigma
statistics; ``sweep`` varies the training fraction and ``loocv`` runs
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
from .embedding import Embedding, embed
from .errors import (
    NonNormalizableError,
    NoScalingError,
    NumericalOverflowError,
    SpecScaleError,
)
from .metrics import nmi as nmi_score
from .metrics import rand_index
from .scaling import (
    ScalingVector,
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
    residual_tol: float = 1e-6

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


def _scaling_fields(scaling, linearization_violations, factors):
    """The pencil diagnostics a scaled row records."""
    return dict(
        mu=float(scaling.eigenvalue),
        residual=float(scaling.residual),
        constraint_violation=float(scaling.constraint_violation),
        certified=bool(scaling.certified),
        linearization_violations=linearization_violations,
        factors=factors,
    )


def _cluster_scores(config, data, embedding, repetition, sigma_index):
    assignment = kmeans(
        embedding.vectors,
        k=2,
        restarts=config.kmeans_restarts,
        seed=_kmeans_seed(config.seed, repetition, sigma_index),
    )
    return (
        rand_index(data.labels, assignment.labels, align=True),
        nmi_score(data.labels, assignment.labels),
    )


def _classify_ri(data, embedding, train, test):
    if test.size == 0:
        raise SpecScaleError("classification needs a nonempty test set")
    predicted = nn1_classify(embedding, train, data.labels[train], test)
    return rand_index(data.labels[test], predicted, align=False)


def training_target(X_train, labels_train, negative_value, sigma, k_neighbors=7):
    """The label target of the training rows, as ``estimate_fiedler`` builds it.

    ``negative_value="auto"`` takes its degrees from the unscaled k-NN graph
    of the training rows at width ``sigma``.
    """
    degrees = None
    if negative_value == "auto":
        degrees = build_similarity(X_train, KernelParams(sigma, k_neighbors)).degrees
    return estimate_fiedler(labels_train, negative_value, degrees)


def _single_run(config, data, train, test, sigma, sigma_index, repetition, diffs):
    scaling = None
    fields = {}
    if config.feature_scaling:
        fiedler = training_target(
            data.values[train], data.labels[train], config.fiedler_negative, sigma,
            config.k_neighbors,
        )
        pencil = assemble_pencil(data.values[train], fiedler, sigma, diffs=diffs)
        try:
            scaling = learn_scaling(pencil, config.residual_tol)
        except (NoScalingError, NonNormalizableError):
            pass  # fall back to the unscaled pipeline, flagged
        if scaling is not None:
            fields = _scaling_fields(
                scaling,
                linearization_violation_fraction(data.values[train], scaling, sigma),
                scaling.factors,
            )

    scaled = scaling is not None
    try:
        graph = build_similarity(data.values, KernelParams(sigma, config.k_neighbors, scaling))
    except NumericalOverflowError:
        # only negative learned factors can overflow the kernel: fall back to
        # the unscaled graph, flagged, and keep the pencil diagnostics
        scaled = False
        graph = build_similarity(data.values, KernelParams(sigma, config.k_neighbors))
    record = RunRecord(sigma=float(sigma), repetition=repetition, scaled=scaled, **fields)
    embedding = embed(graph, config.ell)

    if config.task == "cluster":
        record.ri, record.nmi = _cluster_scores(
            config, data, embedding, repetition, sigma_index
        )
    else:
        record.ri = _classify_ri(data, embedding, train, test)
    return record


# 2 sigma^2 = 1 (to rounding): the width at which a shared split is solved
_UNIT_SIGMA = np.sqrt(0.5)


@dataclass(frozen=True)
class _SharedSplit:
    """The sigma-invariant part of one split's scaled pipeline, at unit width."""

    scaling: ScalingVector
    linearization_violations: float
    embedding: Embedding
    ri: Optional[float]  # classify: one 1-NN result serves every sigma


def _shared_split(config, data, train, test, diffs):
    """Solve, build and embed a split once for every sigma, or return None.

    With a fixed target and a full-column-rank pencil, the factors are
    s = 2 sigma^2 t for the unit-width factors t, so neither the k-NN ranking
    on delta_s nor the kernel exp(-t^T x) depends on sigma. None means the
    split takes the per-sigma runs: no feature scaling, the "auto" target
    (its degrees come from a sigma-dependent training graph), a rank-deficient
    pencil (always when 2 n_train + 1 < m + 1, which needs no SVD to tell),
    and the unscaled-graph fallbacks of the per-sigma runs.
    """
    X = data.values[train]
    n_train, m = X.shape
    if (
        not config.feature_scaling
        or config.fiedler_negative == "auto"
        or 2 * n_train + 1 < m + 1
    ):
        return None
    fiedler = estimate_fiedler(data.labels[train], config.fiedler_negative)
    pencil = assemble_pencil(X, fiedler, _UNIT_SIGMA, diffs=diffs)
    if not has_full_column_rank(pencil):
        return None
    try:
        scaling = learn_scaling(pencil, config.residual_tol)
        graph = build_similarity(
            data.values, KernelParams(_UNIT_SIGMA, config.k_neighbors, scaling)
        )
    except (NoScalingError, NonNormalizableError, NumericalOverflowError):
        return None  # the per-sigma runs record these unscaled fallbacks
    embedding = embed(graph, config.ell)
    return _SharedSplit(
        scaling=scaling,
        linearization_violations=linearization_violation_fraction(X, scaling, _UNIT_SIGMA),
        embedding=embedding,
        ri=_classify_ri(data, embedding, train, test) if config.task == "classify" else None,
    )


def _shared_run(config, data, shared, sigma, sigma_index, repetition):
    scaling = shared.scaling
    record = RunRecord(
        sigma=float(sigma),
        repetition=repetition,
        ri=shared.ri,
        scaled=True,
        **_scaling_fields(
            scaling, shared.linearization_violations, 2.0 * sigma**2 * scaling.factors
        ),
    )
    if config.task == "cluster":
        record.ri, record.nmi = _cluster_scores(
            config, data, shared.embedding, repetition, sigma_index
        )
    return record


def _failed_run(sigma, repetition, exc):
    return RunRecord(
        sigma=float(sigma), repetition=repetition, error=f"{type(exc).__name__}: {exc}"
    )


def _run_over_splits(config, data, index_pairs):
    records = []
    for repetition, (train, test) in enumerate(index_pairs):
        diffs = pairwise_sqdiff(data.values[train], 1.0)
        try:
            shared = _shared_split(config, data, train, test, diffs)
        except SpecScaleError as exc:
            records.extend(_failed_run(s, repetition, exc) for s in config.sigma_grid)
            continue
        for sigma_index, sigma in enumerate(config.sigma_grid):
            try:
                if shared is None:
                    record = _single_run(
                        config, data, train, test, sigma, sigma_index, repetition, diffs
                    )
                else:
                    record = _shared_run(config, data, shared, sigma, sigma_index, repetition)
            except SpecScaleError as exc:
                record = _failed_run(sigma, repetition, exc)
            records.append(record)
    return records


def run_pipeline(config: ExperimentConfig, data: DataMatrix) -> EvalReport:
    """Execute the supervised-scaling pipeline over repeated splits and a
    kernel-width grid.

    Per repetition and sigma: estimate the target vector on the training rows,
    assemble and solve the scaling pencil, build the similarity graph over all
    samples with the learned factors, embed, then cluster (k-means, RI/NMI over
    all samples) or classify (transductive 1-NN, RI over the test rows). A
    failed run is recorded, not fatal. When the pencil yields no usable factors,
    or when the learned factors overflow the kernel weights, the run falls back
    to the unscaled graph with ``scaled=False``; in the overflow case the
    pencil diagnostics stay in the record.

    The sigma rows of one split share one solve, graph and embedding when
    feature scaling is on, the target is fixed (not ``"auto"``) and the pencil
    has full column rank, rank([F; G]) = m + 1. The pencil is then solved at
    unit width (2 sigma^2 = 1) for factors t, and each row records
    s = 2 sigma^2 t; mu, ``residual``, ``certified``, ``constraint_violation``
    and the linearization share are the unit-width values on every row, and
    the scaled kernel exp(-t^T x) is sigma-free. Each cluster row still runs
    k-means with its own seed; classify rows share one 1-NN result. A typed
    error in the shared stage is recorded on every row of the split. Splits
    that do not qualify, or whose unit-width fit would take one of the
    unscaled fallbacks, run per sigma as above.
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
