"""Label assignment on embedded samples: exact two-means on a line, and 1-NN."""

from __future__ import annotations

import numpy as np

from .similarity import row_blocks


# Half the training rows in ``nn1_classify``'s first window: 1 to 32 were within
# 20% on large-classify's embedding, and 8 and 16 the fastest.
_FIRST_WIDTH = 8


def kmeans(values) -> np.ndarray:
    """Exact two-means of the 1-D array ``values``: the cluster label, 0 or 1,
    of each value.

    The optimal two clusters of points on a line are split by one cut of the
    sorted values (Gronlund et al., "Fast exact k-means, k-medians and Bregman
    divergence clustering in 1D", 2017), so one sort and one prefix sum find
    it. The cut taken has the least within-cluster sum of squares, that is the
    largest n_L n_R (mean_L - mean_R)^2, among the cuts between distinct
    values; a tie goes to the lower cut. The cluster holding the smallest value
    is labelled 0. Values that are all equal admit no cut: every label is 0.
    Everything is computed from the sorted, centered values, so the result
    does not depend on the order of the input.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("two-means needs a 1-D array of at least two values")
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        return np.zeros(x.size, dtype=np.intp)
    c = xs - xs.mean()
    n = c.size
    left = np.arange(1, n)
    sums = np.cumsum(c[:-1])
    between = left * (n - left) * (sums / left - (c.sum() - sums) / (n - left)) ** 2
    between[xs[1:] == xs[:-1]] = -np.inf
    cut = int(np.argmax(between)) + 1
    return (x > xs[cut - 1]).astype(np.intp)


def nn1_classify(embedded, train_indices, train_labels, test_indices) -> np.ndarray:
    """Nearest-neighbor labels for test rows of a joint embedding, the 2-D
    array ``embedded`` (one row per sample).

    The embedding covers training and test samples together (it was computed
    once over all rows), so classification is transductive. Ties go to the
    smaller training index. A squared distance is summed one embedding dimension
    at a time from the first, so it has the bits of ``.sum(axis=1)`` for ell <= 3.

    A projection sweep finds it (Friedman, Baskett & Shustek, "An algorithm for
    finding nearest neighbors", IEEE Trans. Computers, 1975). The training rows
    are sorted by the coordinate of widest spread. Each round scans, for every
    test row still open, the 2 ``width`` rows of that order around its place in
    it (all rows if fewer), ``width`` being 8 and then doubling. A row closes
    once the next unscanned row on each side is farther in that coordinate,
    squared, than the best squared distance in the window, of which it is a
    term; an equal distance keeps the side open. On large-classify (n_train =
    1600, ell = 2, seeds 0 and 1) 76-78% of the rows close in the first two
    rounds, which scan 48 rows. If most rows tie in that coordinate (at
    worst, all points are equal), every row scans all n_train, up to three
    times over. Rounds work on blocks of test rows, ``row_blocks`` of the 2
    ``width`` candidates per row: about 512 KB per array, and at least 40 rows,
    so no n_test x n_train array is held.

    Raises ValueError for a non-finite embedding, which the sweep cannot order.
    """
    points = np.asarray(embedded, dtype=float)
    train_indices = np.asarray(train_indices, dtype=int)
    test_indices = np.asarray(test_indices, dtype=int)
    train_labels = np.asarray(train_labels)
    if train_indices.size == 0:
        raise ValueError("training set is empty")
    if train_labels.shape[0] != train_indices.shape[0]:
        raise ValueError("train_labels must align with train_indices")
    combined = np.sort(np.concatenate([train_indices, test_indices]))
    if np.any(combined[1:] == combined[:-1]):  # one sort; numpy's unique takes 20x that
        raise ValueError("train and test indices overlap")
    if not np.array_equal(combined, np.arange(points.shape[0])):
        raise ValueError("train and test indices must partition the embedding rows")
    if not np.all(np.isfinite(points)):
        raise ValueError("embedding contains non-finite entries")

    order = np.argsort(train_indices, kind="stable")
    train_points = points[train_indices[order]]  # position here is the tie rank
    axis = int(np.argmax(np.ptp(train_points, axis=0)))
    rank = np.argsort(train_points[:, axis], kind="stable")
    coords = train_points[rank].T.copy()  # one row per dimension, in sweep order
    key, n = coords[axis], rank.size
    nearest = np.empty(test_indices.size, dtype=np.intp)
    queries = points[test_indices]
    place = np.searchsorted(key, queries[:, axis])
    live = np.arange(test_indices.size)  # the test rows still open
    width = _FIRST_WIDTH
    while live.size:
        span = min(2 * width, n)
        still = np.empty(live.size, dtype=bool)
        for part in row_blocks(live.size, 2 * width):
            rows = live[part]
            x = queries[rows]
            hi = np.minimum(np.maximum(place[rows] + width, span), n)
            lo = hi - span
            cand = lo[:, None] + np.arange(span)
            d2 = np.square(x[:, :1] - coords[0][cand])
            for t, r in zip(x.T[1:], coords[1:]):
                sq = t[:, None] - r[cand]
                d2 += np.square(sq, out=sq)
            best = d2.min(axis=1)
            nearest[rows] = np.where(d2 == best[:, None], rank[cand], n).min(axis=1)
            gap = x[:, axis] - key[np.maximum(lo - 1, 0)]
            still[part] = (lo > 0) & ~(gap * gap > best)
            gap = key[np.minimum(hi, n - 1)] - x[:, axis]
            still[part] |= (hi < n) & ~(gap * gap > best)
        live = live[still]
        width *= 2
    return train_labels[order][nearest]
