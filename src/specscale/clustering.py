"""Label assignment on embedded samples: k-means with restarts and 1-NN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .similarity import row_blocks

# Lloyd iterations per restart; each stops earlier once its labels repeat
_MAX_ITER = 300


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    inertia: float


def _lloyd(points, k, rng):
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    labels = None
    prev_inertia = np.inf
    for _ in range(_MAX_ITER):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        # empty-cluster policy: reseed at the point farthest from its centroid
        for c in range(k):
            if not np.any(new_labels == c):
                own = d2[np.arange(n), new_labels]
                p = int(np.argmax(own))
                centroids[c] = points[p]
                new_labels[p] = c
                d2[:, c] = ((points - centroids[c]) ** 2).sum(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if inertia > prev_inertia + 1e-9 * (1.0 + abs(prev_inertia)):
            raise InternalConsistencyError(
                f"inertia increased across a Lloyd iteration: {prev_inertia} -> {inertia}"
            )
        prev_inertia = inertia
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def kmeans(points, k, restarts=20, seed=0) -> ClusterAssignment:
    """Lloyd's algorithm on the rows of the 2-D array ``points`` from random
    point initializations, best of ``restarts``.

    Each restart seeds its own generator from (seed, restart index), so the
    winner is independent of evaluation order; ties go to the earlier restart.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        labels, inertia = _lloyd(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return ClusterAssignment(labels=best_labels, inertia=best_inertia)


def nn1_classify(embedded, train_indices, train_labels, test_indices) -> np.ndarray:
    """Nearest-neighbor labels for test rows of a joint embedding, the 2-D
    array ``embedded`` (one row per sample).

    The embedding covers training and test samples together (it was computed
    once over all rows), so classification is transductive. Ties go to the
    smaller training index. Test rows are handled in blocks of about 4 MB of
    squared distances, accumulated one embedding dimension at a time, so no
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
    for rows in row_blocks(test_indices.size, train_indices.size):
        block = test_points[rows]
        # (t_j - r_j)^2 summed one dimension at a time from the first: for
        # ell <= 3 the same order, and so the same bits, as .sum(axis=2) over
        # the dimensions
        d2 = np.subtract.outer(block[:, 0], train_points[:, 0])
        np.square(d2, out=d2)
        for t, r in zip(block.T[1:], train_points.T[1:]):
            sq = np.subtract.outer(t, r)
            d2 += np.square(sq, out=sq)
        nearest[rows] = d2.argmin(axis=1)
    return train_labels[order][nearest]
