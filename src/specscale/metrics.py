"""Binary agreement metrics: sample-level RI and normalized mutual information.

RI here is (TP + TN) / (TP + TN + FP + FN), i.e. per-sample accuracy. For
clustering output, whose cluster ids carry no class identity, ``align=True``
maximizes over the two possible cluster-to-class identifications.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .data import sorted_classes
from .errors import DegenerateEntropyWarning


def _encode_binary(labels, name):
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError(f"{name} is empty")
    classes = sorted_classes(labels)
    if classes.size > 2:
        raise ValueError(f"{name} has {classes.size} distinct values; need binary labels")
    return np.searchsorted(classes, labels), classes


def _contingency(truth, predicted):
    """2x2 cross-counts of two binary labelings: entry (i, j) counts the
    samples of truth class i predicted as class j."""
    t, _ = _encode_binary(truth, "truth")
    p, _ = _encode_binary(predicted, "predicted")
    if t.shape != p.shape:
        raise ValueError("labelings have different lengths")
    return np.bincount(2 * t + p, minlength=4).reshape(2, 2)


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
    counts = _contingency(truth, predicted)
    direct = counts[0, 0] + counts[1, 1]
    swapped = counts[0, 1] + counts[1, 0]
    return float(max(direct, swapped) / counts.sum())


def nmi(truth, predicted) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Evaluated from the 2x2 contingency with the 0 * log(.) = 0 convention.
    The entropy and mutual-information terms are summed with ``math.fsum``,
    whose correctly rounded sum does not depend on the order of the terms, so
    swapping the two cluster ids gives the same bits. Returns 0 (with a DegenerateEntropyWarning) when either labeling is
    constant.
    """
    counts = _contingency(truth, predicted)
    n = counts.sum()
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)

    def neg_entropy(margins):
        # sum of n_i * log(n_i / n); zero counts contribute nothing
        return math.fsum(m * np.log(m / n) for m in margins if m > 0)

    h_truth = neg_entropy(row_sums)
    h_pred = neg_entropy(col_sums)
    if h_truth == 0.0 or h_pred == 0.0:
        warnings.warn(
            "a labeling is constant; NMI reported as 0", DegenerateEntropyWarning
        )
        return 0.0
    numer = math.fsum(
        nij * np.log(n * nij / (row_sums[i] * col_sums[j]))
        for (i, j), nij in np.ndenumerate(counts)
        if nij > 0
    )
    value = numer / np.sqrt(h_truth * h_pred)
    return float(min(max(value, 0.0), 1.0))
