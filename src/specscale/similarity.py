"""Similarity graphs: Gaussian kernel weights, k-NN sparsification, Laplacians.

Weights follow w_ij = exp(-delta_t(i, j)), where delta_t is the squared
Euclidean distance weighted per feature by the unit-width factors t; the
kernel of factors s at width sigma is that of t = s / (2 sigma^2), so the
graph takes no width. Negative factors make delta_t indefinite (weights can
then exceed 1). It is made in row blocks of about 512 KB and at least 40 rows
(``row_blocks``), one GEMM of lifted rows each, whose entry for a row's own
sample is rounding noise that each caller drops; it is not clamped at 0.
Each row keeps its k nearest other samples: only the groups of columns whose
minimum is at or below the row's k-th smallest group minimum are compared,
and only their entries up to it are sorted. The result is symmetrized as
(W + W^T) / 2 in a ``SymmetricCSR`` by one argsort of one int64 key per stored
entry, with at most three arrays of the 2nk + n stored entries alive at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolvers import SymmetricCSR
from .errors import (
    InsufficientSamplesError,
    IsolatedSampleError,
    NumericalOverflowError,
)

@dataclass
class PairwiseDifferences:
    """Per-sample moments of the squared feature differences over all pairs.

    Pair differences do not see the column means, so X is centered once:
    ``centered`` is x~ = X minus its column means, and ``sqdiff[i, k]`` is
    sum_j (x_ik - x_jk)^2 = n x~_ik^2 + sum_j x~_jk^2. Both are n x m and free
    of the kernel width; the n x n x m tensor of the pairs is never formed.
    """

    centered: np.ndarray
    sqdiff: np.ndarray


def pairwise_sqdiff(X) -> PairwiseDifferences:
    """Sums over all pairs of the squared feature differences of the rows of the
    array X."""
    values = np.asarray(X, dtype=float)
    if values.ndim != 2:
        raise ValueError("X must be 2-D")
    if values.shape[0] < 2:
        raise InsufficientSamplesError("need at least two samples")
    if not np.all(np.isfinite(values)):
        raise ValueError("X contains non-finite entries")
    centered = values - values.mean(axis=0)
    sqdiff = np.square(centered)
    total = sqdiff.sum(axis=0)
    sqdiff *= values.shape[0]  # n x~^2 + sum_j x~_j^2, in the buffer of x~^2
    sqdiff += total
    return PairwiseDifferences(centered, sqdiff)


# float64 entries (512 KB) per row block of an n x n pairwise array, so that
# no layer holds O(n^2) memory: 81 rows at n = 800, the floor's 40 from 1600.
# On the toy these blocks set the heap top: 4 MB blocks (655 rows at n = 800)
# grew a toy-cluster run's peak RSS by 4.3 MB in the graph, and 1 MB blocks
# left its peak 0.5 MB above this size's. The graph at n = 800 took 4.4 ms with
# these, 4.2 ms with 1 MB and 5.1 ms with 256 KB blocks (one BLAS thread).
_BLOCK_ENTRIES = 1 << 16
# Rows per block at least, as a block's cost is mostly per numpy call: 1 MB
# blocks of 10 rows took the n = 12.8k ladder rung 0.58-0.78 s, against
# 0.53-0.58 s with this floor's 40 (three runs each). 51.2k gets 40 rows too.
_BLOCK_MIN_ROWS = 40
# Columns per group of the bound in ``_nearest``: 16 was within 3% of the
# fastest of 8, 16 and 32 at n = 800, 3200 and 12.8k in two runs (same graphs).
_GROUP_SIZE = 16


def row_blocks(n_rows, n_cols):
    """Consecutive slices covering range(n_rows), each a row block of an
    (n_rows, n_cols) array with about 512 KB of float64 entries, or 40 rows
    where such a block would have fewer.

    A block of ``sqdist_blocks`` over n samples of m features is the product of
    a block of lifted rows, m + 2 wide, with up to n columns. The graph passes
    n_cols = max(n, m + 2), so that neither the block nor its left operand
    passes 512 KB (beyond the 40-row floor) when the features outnumber the
    samples. The linearization share passes n: its n_train rows, half the
    samples, did not set the peak of a wide fit with the smaller blocks or
    without them."""
    step = max(_BLOCK_MIN_ROWS, _BLOCK_ENTRIES // n_cols)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def sqdist_blocks(Y, factors):
    """delta_s of the rows of the array Y (``factors`` s: one weight per
    feature) as a function of a row and a column slice that returns that block.

    With q = (Y o Y) s, the rows [-2 s o y_i, q_i, 1] and [y_j, 1, q_j] have the
    inner product q_i + q_j - 2 (s o y_i)^T y_j: one GEMM per block. Entries are
    not clamped, so even for nonnegative factors one can fall below 0 by
    rounding; a row's own entry is such noise, not 0, and the callers drop it.
    """
    values = np.asarray(Y, dtype=float)
    n, m = values.shape
    if factors.shape != (m,):
        raise ValueError(f"scaling has {factors.size} factors for {m} features")
    q = np.einsum("ij,ij,j->i", values, values, factors)
    right = np.column_stack([values, np.ones(n), q])

    def block(rows, cols=slice(None)):
        left = np.empty((q[rows].size, m + 2))  # per block: one O(n m) array lives on
        np.multiply(values[rows], -2.0 * factors, out=left[:, :m])
        left[:, m], left[:, m + 1] = q[rows], 1.0
        return left @ right[cols].T

    return block


@dataclass
class SimilarityGraph:
    """Sparse symmetric weight matrix W (zero diagonal) and its degrees."""

    weights: SymmetricCSR
    degrees: np.ndarray

    @property
    def laplacian(self) -> SymmetricCSR:
        """L = D - W, stored at W's entries."""
        data = -self.weights.data
        data[self.weights.indptr[:-1]] = self.degrees
        return SymmetricCSR(self.weights.indptr, self.weights.indices, data)


def _nearest(d2, k, floor=-np.inf):
    """Each row's k smallest entries of a row block d2, clamped at ``floor``,
    ties to the smaller column.

    Neither sorts nor partitions whole rows. With c = min(16, n // k) and
    G = n // c >= k, column j < G c is in group j mod G (the tail is in none).
    k groups each hold an entry at most tau, the k-th smallest group minimum
    (NaN skipped), so the row does too. Only the members of the groups whose
    minimum is not above b = max(tau, floor), and the tail, are compared with
    b; those not above it, NaN included, are clamped at ``floor`` and stably
    ordered by (row, value). Returns (rows, k) columns and values, nearest
    first: the first k of a stable row argsort of max(d2, floor), NaN last.
    """
    r, n = d2.shape
    c = min(_GROUP_SIZE, n // k)
    G = n // c
    groups = d2[:, : G * c].reshape(r, c, G)  # a view: [:, i, g] is column g + G i
    lowest = np.fmin.reduce(groups, axis=1)
    bound = np.maximum(np.partition(lowest, k - 1, axis=1)[:, k - 1], floor)
    live_rows, live = np.divmod(np.flatnonzero(~(lowest > bound[:, None])), G)
    # member i of each live group, member-major: a row's candidates in column order
    members = groups.transpose(1, 0, 2)[:, live_rows, live]
    i, at = np.divmod(np.flatnonzero(~(members > bound[live_rows])), live.size)
    tail_rows, tail = np.nonzero(~(d2[:, G * c :] > bound[:, None]))
    rows = np.concatenate([live_rows[at], tail_rows])
    cols = np.concatenate([live[at] + G * i, G * c + tail])
    vals = np.maximum(np.concatenate([members[i, at], d2[tail_rows, G * c + tail]]), floor)
    order = np.lexsort((vals, rows))
    counts = np.bincount(rows, minlength=r)
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return cols[take], vals[take]


def _symmetrized(cols, weights) -> SymmetricCSR:
    """(M + M^T) / 2 for the n x n matrix M whose row i holds ``weights[i]`` at
    the columns ``cols[i]`` (n x k arrays, no diagonal), without its zeros.

    Each of the 2nk + n stored entries (M's, M^T's and the diagonal's) gets one
    int64 key, written from ``cols``: i (n + 1) + j + 1 at (i, j) off the
    diagonal and i (n + 1) on it, so that one argsort orders the entries row by
    row, each diagonal entry first, then the others by column. A pair kept by
    both its samples is a run of two equal keys, summed by ``reduceat`` over
    the weights gathered in that order; rows and columns are decoded from the
    runs' keys. At most three arrays of 2nk + n entries live at once (6.6
    floats per kept pair at n = 3000 and k = 7), as each is freed once read.
    """
    n, k = cols.shape
    nk, own = n * k, np.arange(n)
    key = np.empty(2 * nk + n, dtype=np.int64)
    key[:nk] = (cols + (own * (n + 1) + 1)[:, None]).ravel()
    key[nk : 2 * nk] = (cols * (n + 1) + (own + 1)[:, None]).ravel()
    key[2 * nk :] = own * (n + 1)
    order = np.argsort(key)
    key = key[order]
    # the weights in key order: stored entry p has weight p mod nk (on the
    # diagonal, p >= 2nk, it is set to 0 at the end)
    gathered = np.take(weights.ravel(), order, mode="wrap")
    del order
    new = np.concatenate(([True], key[1:] != key[:-1]))  # where a run starts
    key = key[new]
    first = np.flatnonzero(new)
    del new
    data = np.add.reduceat(gathered, first)
    del gathered, first
    data /= 2.0
    rows, columns = np.divmod(key, n + 1)  # columns: 0 on the diagonal, else j + 1
    del key
    keep = (data != 0.0) | (columns == 0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
    del rows
    columns, data = columns[keep] - 1, data[keep]
    columns[indptr[:-1]], data[indptr[:-1]] = own, 0.0  # each row's diagonal, first
    return SymmetricCSR(indptr, columns, data)


def build_similarity(Y, factors, k_neighbors) -> SimilarityGraph:
    """k-NN graph of the kernel exp(-delta_t) over the rows of the array Y,
    with ``factors`` the unit-width factors t, one per feature.

    Each row keeps its ``k_neighbors`` nearest other samples in delta_t (ties
    go to the smaller sample index), selected below a bound (``_nearest``), not
    by sort, in row blocks of about 512 KB, one alive at a time: memory stays
    O(n (k + m)) plus one block. A block's rows are counted by the wider of
    its n columns and its left operand's m + 2 lifted ones, so wide data
    (m > n) get smaller blocks rather than an n x (m + 2) left operand. For
    nonnegative factors, delta_t is clamped at 0 (rounding can take it below),
    as the selection's floor. The weights
    exp(-delta_t) are evaluated on the n*k kept pairs only, and the kept matrix
    M is symmetrized as (M + M^T) / 2 by one argsort of an int64 key per stored
    entry of M, M^T and the diagonal (row by row, the diagonal first), written
    from the kept columns; at most three arrays of those 2nk + n entries live
    at once (``_symmetrized``).

    Raises
    ------
    ValueError
        If ``k_neighbors`` is below 1.
    InsufficientSamplesError
        If there are not more samples than ``k_neighbors``.
    NumericalOverflowError
        If a kept weight overflows; each row keeps its most negative delta_t.
    IsolatedSampleError
        If some row ends up with zero degree (all kept weights underflowed).
        The message names the most isolated sample, the one whose nearest
        other sample is farthest in delta_t, and gives the count of isolated
        samples; the error's ``samples`` attribute holds every isolated index,
        most isolated first. At large factors every weight can underflow, so
        many samples (possibly all) are isolated at once.
    """
    values = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("Y contains non-finite entries")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    n, k = values.shape[0], k_neighbors
    if n < 2:
        raise InsufficientSamplesError("need at least two samples")
    if k >= n:
        raise InsufficientSamplesError(f"k_neighbors={k} needs more than {n} samples")

    sqdist = sqdist_blocks(values, factors)
    # delta_t of nonnegative factors is clamped at 0, in the kept values only
    floor = 0.0 if np.all(factors >= 0.0) else -np.inf
    cols, near = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    for rows in row_blocks(n, max(n, values.shape[1] + 2)):
        d2 = sqdist(rows)
        np.fill_diagonal(d2[:, rows], np.inf)  # a view: each row's own sample
        cols[rows], near[rows] = _nearest(d2, k, floor)
        del d2  # freed before the next block's GEMM: one block lives at a time
    del sqdist  # the lifted rows, O(n m), are not needed past the blocks
    with np.errstate(over="ignore", under="ignore"):
        weights = np.exp(-near)
    if not np.all(np.isfinite(weights)):
        raise NumericalOverflowError(
            "kernel weights overflowed; negative scaled distances are too large"
        )
    W = _symmetrized(cols, weights)
    degrees = W @ np.ones(n)
    isolated = np.flatnonzero(degrees == 0.0)
    if isolated.size:
        # most isolated first: farthest from its nearest other sample (stable)
        isolated = isolated[np.argsort(-near[isolated, 0], kind="stable")]
        raise IsolatedSampleError(
            f"sample {isolated[0]} has zero degree "
            f"({isolated.size} isolated in total)",
            samples=isolated,
        )
    return SimilarityGraph(weights=W, degrees=degrees)
