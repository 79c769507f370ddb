"""Label assignment on embedded samples: exact two-means on a line, and 1-NN."""

from __future__ import annotations

import numpy as np

from .similarity import row_blocks


# Training rows per side in the first round of ``nn1_classify``'s sweep: 1 to
# 32 were within 20% on large-classify's embedding, and 8 and 16 the fastest.
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
    are sorted by the coordinate of widest spread, and each test row scans
    outward from its place in that order, 8 rows per side in the first round
    and twice as many in each after, all on one side once the other closes. A
    side closes once its next gap in that coordinate, squared, exceeds the best
    squared distance, of which it is a term; equal distances are still scanned.
    On large-classify (n_train = 1600, ell = 2, seeds 0 and 1) 85-87% of the
    rows stop within 48 rows. If most rows tie in that coordinate (at worst,
    all points are equal), every row scans all n_train, up to twice over.
    Rounds work on blocks of test rows, ``row_blocks`` of the 2 ``width``
    candidates per row: about 512 KB per array, and at least 40 rows, so no
    n_test x n_train array is held.

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
    nearest = np.empty(test_indices.size, dtype=np.intp)
    # the rows still scanning: their test row and point, the range lo .. hi - 1
    # of the sweep order scanned so far, which of its sides are still open, and
    # the best squared distance and its tie rank
    live = np.arange(test_indices.size)
    block = points[test_indices]
    lo = np.searchsorted(coords[axis], block[:, axis])
    hi = lo.copy()
    left, right = lo > 0, hi < rank.size
    best = np.full(live.size, np.inf)
    near = np.full(live.size, rank.size)
    width = _FIRST_WIDTH
    while live.size:
        for part in row_blocks(live.size, 2 * width):
            _scan_round(block[part], coords, rank, axis, width, lo[part], hi[part],
                        left[part], right[part], best[part], near[part])
        still = left | right
        nearest[live[~still]] = near[~still]
        live, block, lo, hi, left, right, best, near = (
            a[still] for a in (live, block, lo, hi, left, right, best, near)
        )
        width *= 2
    return train_labels[order][nearest]


def _scan_round(block, coords, rank, axis, width, lo, hi, left, right, best, near):
    """One sweep round of ``nn1_classify`` for the test points ``block``: scan
    2 ``width`` more training rows next to lo .. hi - 1 and update, in place,
    the range, which sides are open, the best squared distance and its tie
    rank ``near``."""
    n = rank.size
    # rows taken on the left; if fewer than 2 width rows are left in all, the
    # right ones run past the end and repeat its last row, which is harmless
    take = np.where(left, np.where(right, width, 2 * width), 0)
    take = np.minimum(np.maximum(take, 2 * width - (n - hi)), lo)
    lo -= take
    cand = lo[:, None] + np.arange(2 * width)
    cand += (hi - lo - take)[:, None] * (cand >= (lo + take)[:, None])
    np.minimum(cand, n - 1, out=cand)
    hi += np.minimum(n - hi, 2 * width - take)
    d2 = np.square(block[:, :1] - coords[0][cand])
    for t, r in zip(block.T[1:], coords[1:]):
        sq = t[:, None] - r[cand]
        d2 += np.square(sq, out=sq)
    low = d2.min(axis=1)
    tie = np.where(d2 == low[:, None], rank[cand], n).min(axis=1)
    better = (low < best) | ((low == best) & (tie < near))
    np.copyto(best, low, where=better)
    np.copyto(near, tie, where=better)
    x, key = block[:, axis], coords[axis]
    gap = x - key[np.maximum(lo - 1, 0)]
    np.logical_and(lo > 0, ~(gap * gap > best), out=left)
    gap = key[np.minimum(hi, n - 1)] - x
    np.logical_and(hi < n, ~(gap * gap > best), out=right)
