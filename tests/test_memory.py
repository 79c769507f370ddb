"""Peak memory of the pairwise layers: none may hold an n x n array.

The k-NN graph, the linearization share and 1-NN each touch all n^2 pairs
but keep only O(n k) results, so they work in row blocks. A dense n x n float64
array is n^2 * 8 bytes; each layer's traced peak must stay below a quarter of
that. Measured at n = 3000: 3.0 of it for the graph and the linearization
share and 0.75 for 1-NN with whole arrays, 0.18 for each in 4 MB row blocks.
"""

import tracemalloc

import numpy as np
import pytest

from specscale import (
    KernelParams,
    build_similarity,
    generate_toy,
    linearization_violation_fraction,
    nn1_classify,
    standardize,
)

N = 3000
LIMIT = N * N * 8 / 4


@pytest.fixture(scope="module")
def toy():
    data = standardize(generate_toy(N, seed=0))  # m = 10
    factors = np.random.default_rng(0).uniform(0.0, 1.0, size=data.n_features)
    return data, factors


def traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_holds_no_dense_distance_matrix(toy):
    data, factors = toy
    params = KernelParams(sigma=1.0, k_neighbors=7, scaling=factors)
    assert traced_peak(build_similarity, data.values, params) < LIMIT


def test_linearization_share_holds_no_dense_distance_matrix(toy):
    data, factors = toy
    assert traced_peak(linearization_violation_fraction, data.values, factors, 1.0) < LIMIT


def test_nn1_holds_no_dense_distance_matrix(toy):
    data, _ = toy
    embedded = np.random.default_rng(1).normal(size=(N, 2))  # ell = 2
    train, test = np.arange(0, N, 2), np.arange(1, N, 2)
    peak = traced_peak(nn1_classify, embedded, train, data.labels[train], test)
    assert peak < LIMIT
