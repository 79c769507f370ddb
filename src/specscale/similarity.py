"""Similarity graphs: Gaussian kernel weights, k-NN sparsification, Laplacians.

Weights follow w_ij = exp(-delta_s(i, j) / (2 sigma^2)) where delta_s is the
squared Euclidean distance, per-feature weighted by scaling factors when
present. Factors may be negative, in which case delta_s is evaluated directly
(weights can then exceed 1). Each row keeps its k largest off-diagonal weights
and the result is symmetrized as (W + W^T) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np
import scipy.sparse

from .errors import (
    InsufficientSamplesError,
    IsolatedSampleError,
    NumericalOverflowError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .data import DataMatrix
    from .scaling import ScalingVector


def as_values(X) -> np.ndarray:
    """Accept a DataMatrix or a plain array; return the float matrix."""
    values = getattr(X, "values", X)
    return np.asarray(values, dtype=float)


def _as_factors(scaling) -> Optional[np.ndarray]:
    if scaling is None:
        return None
    factors = getattr(scaling, "factors", scaling)
    return np.asarray(factors, dtype=float)


@dataclass
class KernelParams:
    """Gaussian kernel width, neighborhood size and optional learned factors."""

    sigma: float
    k_neighbors: int = 7
    scaling: Union["ScalingVector", np.ndarray, None] = None

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")


@dataclass
class PairwiseDifferences:
    """Per-pair squared feature differences and their kernel-scaled aggregates.

    ``sqdiff[i, j, k]`` is (x_ik - x_jk)^2 (unscaled); ``xhat[i]`` is the
    1/(2 sigma^2)-scaled sum of sqdiff[i, j] over j.
    """

    sqdiff: np.ndarray
    sigma: float
    scale: float = field(init=False)
    xhat: np.ndarray = field(init=False)

    def __post_init__(self):
        self.scale = 1.0 / (2.0 * self.sigma**2)
        self.xhat = self.sqdiff.sum(axis=1) * self.scale

    @property
    def n_samples(self):
        return self.sqdiff.shape[0]

    def rescaled(self, sigma):
        """Same pair tensor under a different kernel width (tensor shared)."""
        return PairwiseDifferences(self.sqdiff, sigma)


def pairwise_sqdiff(X, sigma) -> PairwiseDifferences:
    """All pairwise squared feature differences of the rows of X."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    values = as_values(X)
    if values.ndim != 2:
        raise ValueError("X must be 2-D")
    if values.shape[0] < 2:
        raise InsufficientSamplesError("need at least two samples")
    if not np.all(np.isfinite(values)):
        raise ValueError("X contains non-finite entries")
    diff = values[:, None, :] - values[None, :, :]
    return PairwiseDifferences(diff**2, float(sigma))


def scaled_sqdist(Y, factors=None) -> np.ndarray:
    """N x N matrix of (optionally per-feature weighted) squared distances."""
    values = as_values(Y)
    factors = _as_factors(factors)
    if factors is None:
        sq = values**2
        norms = sq.sum(axis=1)
        cross = values @ values.T
    else:
        if factors.shape != (values.shape[1],):
            raise ValueError(
                f"scaling has {factors.shape[0]} factors for {values.shape[1]} features"
            )
        norms = (values**2) @ factors
        cross = (values * factors) @ values.T
    d2 = norms[:, None] + norms[None, :] - 2.0 * cross
    if factors is None or np.all(factors >= 0.0):
        np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


@dataclass
class SimilarityGraph:
    """Sparse symmetric weight matrix with degrees and Laplacian L = D - W."""

    weights: scipy.sparse.csr_matrix
    degrees: np.ndarray
    laplacian: scipy.sparse.csr_matrix

    @property
    def n_samples(self):
        return self.weights.shape[0]

    def dense_weights(self):
        return self.weights.toarray()

    def dense_laplacian(self):
        return self.laplacian.toarray()


def _finish_graph(W, d2=None) -> SimilarityGraph:
    """Degrees and Laplacian of a symmetric weight matrix, as a graph.

    Raises IsolatedSampleError if some degree is zero. The isolated samples are
    ranked most isolated first: by the squared distance in ``d2`` to their
    nearest other sample (descending, ties to the smaller index), or by index
    when no distances are given. The ranking runs only on this failure path.
    """
    degrees = W.sum(axis=1)
    isolated = np.flatnonzero(degrees == 0.0)
    if isolated.size:
        if d2 is not None:
            rows = d2[isolated]
            rows[np.arange(isolated.size), isolated] = np.inf
            nearest = rows.min(axis=1)
            isolated = isolated[np.argsort(-nearest, kind="stable")]
        raise IsolatedSampleError(
            f"sample {isolated[0]} has zero degree "
            f"({isolated.size} isolated in total)",
            samples=isolated,
        )
    laplacian = np.diag(degrees) - W
    return SimilarityGraph(
        weights=scipy.sparse.csr_matrix(W),
        degrees=degrees,
        laplacian=scipy.sparse.csr_matrix(laplacian),
    )


def graph_from_weights(W) -> SimilarityGraph:
    """Wrap an explicit symmetric weight matrix (zero diagonal) as a graph."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.array_equal(W, W.T):
        raise ValueError("weight matrix must be exactly symmetric")
    if np.any(np.diag(W) != 0.0):
        raise ValueError("weight matrix must have a zero diagonal")
    return _finish_graph(W)


def build_similarity(Y, params: KernelParams) -> SimilarityGraph:
    """k-NN Gaussian similarity graph of the rows of Y.

    Raw weights are exp(-delta_s / 2 sigma^2) with a forced zero diagonal; each
    row keeps its k largest off-diagonal weights (ties at the cutoff go to the
    smaller sample index) and the kept matrix is symmetrized as (M + M^T) / 2.

    Raises
    ------
    IsolatedSampleError
        If some row ends up with zero degree (all kept weights underflowed).
        The message names the most isolated sample, the one whose nearest
        other sample is farthest in delta_s, and gives the count of isolated
        samples; the error's ``samples`` attribute holds every isolated index,
        most isolated first. At small sigma every weight can underflow, so
        many samples (possibly all) are isolated at once.
    """
    values = as_values(Y)
    if not np.all(np.isfinite(values)):
        raise ValueError("Y contains non-finite entries")
    n = values.shape[0]
    if n < 2:
        raise InsufficientSamplesError("need at least two samples")
    if params.k_neighbors >= n:
        raise ValueError(f"k_neighbors={params.k_neighbors} must be < {n} samples")

    d2 = scaled_sqdist(values, params.scaling)
    with np.errstate(over="ignore", under="ignore"):
        raw = np.exp(-d2 / (2.0 * params.sigma**2))
    if not np.all(np.isfinite(raw)):
        raise NumericalOverflowError(
            "kernel weights overflowed; negative scaled distances are too large "
            f"for sigma={params.sigma}"
        )
    np.fill_diagonal(raw, 0.0)

    kept = np.zeros_like(raw)
    k = params.k_neighbors
    cols = np.arange(n)
    for i in range(n):
        row = raw[i].copy()
        row[i] = -np.inf
        order = np.lexsort((cols, -row))[:k]
        kept[i, order] = raw[i, order]

    W = (kept + kept.T) / 2.0
    return _finish_graph(W, d2)
