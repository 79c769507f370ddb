"""Binary agreement metrics: sample-level RI and normalized mutual information.

RI here is (TP + TN) / (TP + TN + FP + FN), i.e. per-sample accuracy. For
clustering output, whose cluster ids carry no class identity, ``align=True``
maximizes over the two possible cluster-to-class identifications.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEntropyWarning


def _encode_binary(labels, name):
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError(f"{name} is empty")
    classes = np.unique(labels)
    if classes.size > 2:
        raise ValueError(f"{name} has {classes.size} distinct values; need binary labels")
    return np.searchsorted(classes, labels), classes


@dataclass
class Contingency:
    """2x2 cross-counts of two binary labelings with their margins."""

    counts: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    total: int

    @classmethod
    def from_labels(cls, truth, predicted) -> "Contingency":
        t, _ = _encode_binary(truth, "truth")
        p, _ = _encode_binary(predicted, "predicted")
        if t.shape != p.shape:
            raise ValueError("labelings have different lengths")
        counts = np.zeros((2, 2), dtype=int)
        for i in range(2):
            for j in range(2):
                counts[i, j] = int(np.count_nonzero((t == i) & (p == j)))
        return cls(
            counts=counts,
            row_sums=counts.sum(axis=1),
            col_sums=counts.sum(axis=0),
            total=int(counts.sum()),
        )


def rand_index(truth, predicted, align=False) -> float:
    """Fraction of samples assigned to the right class.

    With ``align=False`` labels are compared literally (classification). With
    ``align=True`` the prediction is a clustering, and the better of the two
    cluster-to-class assignments is scored.
    """
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape:
        raise ValueError("labelings have different lengths")
    if not align:
        _encode_binary(truth, "truth")
        _encode_binary(predicted, "predicted")
        return float(np.mean(truth == predicted))
    c = Contingency.from_labels(truth, predicted)
    direct = c.counts[0, 0] + c.counts[1, 1]
    swapped = c.counts[0, 1] + c.counts[1, 0]
    return float(max(direct, swapped) / c.total)


def nmi(truth, predicted) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Evaluated from the 2x2 contingency with the 0 * log(.) = 0 convention.
    The entropy and mutual-information terms are summed with ``math.fsum``,
    whose correctly rounded sum does not depend on the order of the terms, so
    swapping the two cluster ids gives the same bits. Returns 0 (with a DegenerateEntropyWarning) when either labeling is
    constant.
    """
    c = Contingency.from_labels(truth, predicted)
    n = c.total

    def neg_entropy(margins):
        # sum of n_i * log(n_i / n); zero counts contribute nothing
        return math.fsum(m * np.log(m / n) for m in margins if m > 0)

    h_truth = neg_entropy(c.row_sums)
    h_pred = neg_entropy(c.col_sums)
    if h_truth == 0.0 or h_pred == 0.0:
        warnings.warn(
            "a labeling is constant; NMI reported as 0", DegenerateEntropyWarning
        )
        return 0.0
    numer = math.fsum(
        nij * np.log(n * nij / (c.row_sums[i] * c.col_sums[j]))
        for (i, j), nij in np.ndenumerate(c.counts)
        if nij > 0
    )
    value = numer / np.sqrt(h_truth * h_pred)
    return float(min(max(value, 0.0), 1.0))
