"""Label assignment on embedded samples: exact two-means on a line, and 1-NN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .similarity import row_blocks


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    inertia: float


def kmeans(values) -> ClusterAssignment:
    """Exact two-means of the 1-D array ``values``.

    The optimal two clusters of points on a line are split by one cut of the
    sorted values (Gronlund et al., "Fast exact k-means, k-medians and Bregman
    divergence clustering in 1D", 2017), so one sort and one prefix sum find
    it. The cut taken has the least within-cluster sum of squares, that is the
    largest n_L n_R (mean_L - mean_R)^2, among the cuts between distinct
    values; a tie goes to the lower cut. The cluster holding the smallest value
    is labelled 0. Values that are all equal admit no cut: every label is 0 and
    the inertia is 0. Everything is computed from the sorted, centered values,
    so the result does not depend on the order of the input.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("two-means needs a 1-D array of at least two values")
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        return ClusterAssignment(labels=np.zeros(x.size, dtype=np.intp), inertia=0.0)
    c = xs - xs.mean()
    n = c.size
    left = np.arange(1, n)
    sums = np.cumsum(c[:-1])
    between = left * (n - left) * (sums / left - (c.sum() - sums) / (n - left)) ** 2
    between[xs[1:] == xs[:-1]] = -np.inf
    cut = int(np.argmax(between)) + 1
    inertia = sum(float(np.square(part - part.mean()).sum()) for part in (c[:cut], c[cut:]))
    return ClusterAssignment(labels=(x > xs[cut - 1]).astype(np.intp), inertia=inertia)


def nn1_classify(embedded, train_indices, train_labels, test_indices) -> np.ndarray:
    """Nearest-neighbor labels for test rows of a joint embedding, the 2-D
    array ``embedded`` (one row per sample).

    The embedding covers training and test samples together (it was computed
    once over all rows), so classification is transductive. Ties go to the
    smaller training index. Squared distances are summed one embedding dimension
    at a time in row blocks whose two arrays fill about 4 MB together, so no
    n_test x n_train (or n_test x n_train x ell) array is held.
    """
    points = np.asarray(embedded, dtype=float)
    train_indices = np.asarray(train_indices, dtype=int)
    test_indices = np.asarray(test_indices, dtype=int)
    train_labels = np.asarray(train_labels)
    if train_indices.size == 0:
        raise ValueError("training set is empty")
    if train_labels.shape[0] != train_indices.shape[0]:
        raise ValueError("train_labels must align with train_indices")
    combined = np.concatenate([train_indices, test_indices])
    if np.unique(combined).size != combined.size:
        raise ValueError("train and test indices overlap")
    if not np.array_equal(np.sort(combined), np.arange(points.shape[0])):
        raise ValueError("train and test indices must partition the embedding rows")

    order = np.argsort(train_indices, kind="stable")
    train_points = points[train_indices[order]]
    test_points = points[test_indices]
    nearest = np.empty(test_indices.size, dtype=np.intp)
    for rows in row_blocks(test_indices.size, 2 * train_indices.size):
        block = test_points[rows]
        # (t_j - r_j)^2 summed one dimension at a time from the first: for ell
        # <= 3 the same order, and so the same bits, as .sum(axis=2) over them
        d2 = np.square(np.subtract.outer(block[:, 0], train_points[:, 0]))
        for t, r in zip(block.T[1:], train_points.T[1:]):
            sq = np.subtract.outer(t, r)
            d2 += np.square(sq, out=sq)
        nearest[rows] = d2.argmin(axis=1)
    return train_labels[order][nearest]
