"""Peak memory of the pairwise layers: none may hold an n x n array.

The k-NN graph and the linearization share touch all n^2 pairs but keep only
O(n k) results, so they work in row blocks of 2^16 float64 entries (512 KB)
and at least 40 rows, freeing each block before the next one is made. At
n = 3000 a block is the floor's 40 rows (0.96 MB). The share's traced peak
must stay below 1.5 such blocks plus 2 n (k + m) floats. The graph then
symmetrizes its n k kept pairs, so its limit takes the larger of 1.5 blocks
and 12 floats per kept pair, plus the same 2 n (k + m) floats: 2.83 MB.
Measured at n = 3000 (k = 7, m = 10), with 1 MB blocks (43 rows): the share
peaked at 1.53 MB. The graph peaked at 1.76 MB while it made blocks. Overall
it peaked at 3.41 MB while the symmetrization held the rows, columns and
values of its 2nk + n stored entries side by side (17.3 floats per kept pair
in the symmetrization alone), and at 1.84 MB with one int64 key per entry and
at most three such arrays alive (6.6). With 4 MB blocks both took 1.28 and
1.32 blocks (5.1 and 5.3 MB), and 2.15 and 2.14 while a block was still alive
when the next one was made. With 512 KB blocks the share peaked at 1.39 MB and
the graph at 1.76 MB.

At n = 800 the blocks are sized by their entries, above the floor, and they
set both peaks. The graph must stay below 2^20 bytes and the share of 400
rows below 0.75 times that:
with 1 MB blocks (163 and 327 rows) they peaked at 1.55 and 1.23 MB, with
512 KB blocks (81 and 163 rows) at 0.89 and 0.63 MB.

The Lanczos basis of ``sym_gen_eig`` starts at 64 rows and doubles when a
solve needs more, so a graph that converges within 64 steps must solve below
4 MB: at n = 3000, with factors like a fit's, two pairs take 40 steps and
peaked at 2.48 MB. A basis of the 500-step limit peaked at 12.94 MB.

The 1-NN sweep scans, per test row, a window of training rows that starts at
16 (8 per side) and doubles while a nearer row can remain. Its peak must stay
below 8 n floats per row of that first window on a random ell = 2 embedding,
where few rows widen much, and below 1.5 times 4 MB plus 16 n floats when
every point is equal and each row scans all n_train. Measured at n = 3000:
1.8 MB (80 floats per sample) and 5.3 MB; the dense blocks of 2 n_train
columns before the sweep took 8.4 MB on both.

Pencil assembly sums over all n_train^2 training pairs in closed form, from
per-sample moments, so its peak must stay below 32 float64 arrays of the
training rows' size (n_train * m). Measured at n_train = 1500 and m = 10:
180.6 MB with the n_train x n_train x m pair tensor, 0.87 MB in closed form.

A wide fit, ``learn_scaling(assemble_pencil(X, v))`` at n_train = 72 and
m = 2000 (the gene-data shape), must peak below 5.5 float64 copies of X.
It measured 6.09 copies while the pencil kept its six blocks and learning
rebuilt F and G and stacked [A; B], and 5.21 with F and G allocated once and
the blocks read as views into them.

The wide split, ``run_pipeline`` of classify at sigma = 100 with 2
repetitions on standardized 144 x 2000 data (classes 48:96, allocated before
tracing), must peak below 2.5 copies of the data. It measured 3.60 copies
(8.30 MB) while the split's pair moments lived through every fit and its
copy of the training rows through the kernel. Dropping the moments once the
pencil is assembled, forming K = F - mu G in one buffer, dropping the rows
before the kernel, sizing the graph's blocks by m + 2 and writing x~^2 into
G's storage during assembly took it to 2.62. Dropping the fit's copy of the
rows once the moments are made took it to 2.55, and making ``sqdiff`` in the
buffer of x~^2 to 2.12 (4.88 MB). The solve now sets the peak: F, G, K and
lstsq's copy of K, about one training-sized array each.

The loader parses every data row with the decimal reader (long cells, as
here) or numpy's C reader, neither of which makes a Python string per cell,
so its peak must stay below 6 float64 copies of the table. Measured on a
144 x 2000 file with a label column: 5.1 MB with either reader (the decimal
reader's 64 KB blocks of lines peak below 1 MB), against a limit of 13.8 MB.
A csv reader with one float parse per chunk of 2^13 cell strings peaked at
7.5 MB, and one parse of every cell string at once at 29.2 MB.
"""

import tracemalloc

import numpy as np
import pytest

from specscale import (
    DataMatrix,
    ExperimentConfig,
    SplitSpec,
    assemble_pencil,
    build_similarity,
    estimate_fiedler,
    generate_toy,
    learn_scaling,
    linearization_violation_fraction,
    load_matrix,
    nn1_classify,
    run_pipeline,
    save_matrix,
    standardize,
    sym_gen_eig,
)
from specscale import eigensolvers

N = 3000
BLOCK_BYTES = 40 * N * 8  # a row block of the graph and the share at N: the floor
NN1_BYTES = 2**19 * 8  # the base of the 1-NN sweep's limit
K, M = 7, 10  # neighbors, features of the toy
FIRST_WINDOW = 16  # training rows in the first round of the 1-NN sweep


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
    peak = traced_peak(build_similarity, data.values, factors, K)
    assert peak < max(1.5 * BLOCK_BYTES, 12 * N * K * 8) + 2 * N * (K + M) * 8


def test_linearization_share_holds_no_dense_distance_matrix(toy):
    data, factors = toy
    peak = traced_peak(linearization_violation_fraction, data.values, factors)
    assert peak < 1.5 * BLOCK_BYTES + 2 * N * (K + M) * 8


@pytest.fixture(scope="module")
def small_toy():
    data = standardize(generate_toy(800, seed=0))
    factors = np.random.default_rng(0).uniform(0.0, 1.0, size=data.n_features)
    return data, factors


def test_small_graph_peak_is_set_by_half_megabyte_blocks(small_toy):
    data, factors = small_toy
    assert traced_peak(build_similarity, data.values, factors, K) < 2**20


def test_small_share_peak_is_set_by_half_megabyte_blocks(small_toy):
    data, factors = small_toy
    rows = data.values[:400]  # a training half
    assert traced_peak(linearization_violation_fraction, rows, factors) < 0.75 * 2**20


def test_lanczos_basis_grows_with_the_steps_a_solve_takes(toy):
    data, _ = toy
    factors = np.array([0.15, 0.15, -0.2] + [0.0] * 7)  # like a fit's factors
    laplacian = build_similarity(data.values, factors, K).laplacian
    assert laplacian.shape[0] > eigensolvers._DENSE_MAX_N
    assert traced_peak(sym_gen_eig, laplacian, 2) < 4 * 2**20


def test_nn1_holds_no_dense_distance_matrix(toy):
    data, _ = toy
    embedded = np.random.default_rng(1).normal(size=(N, 2))  # ell = 2
    train, test = np.arange(0, N, 2), np.arange(1, N, 2)
    peak = traced_peak(nn1_classify, embedded, train, data.labels[train], test)
    assert peak < 8 * N * FIRST_WINDOW * 8


def test_nn1_scanning_everything_stays_in_blocks(toy):
    data, _ = toy
    train, test = np.arange(0, N, 2), np.arange(1, N, 2)
    peak = traced_peak(nn1_classify, np.zeros((N, 2)), train, data.labels[train], test)
    assert peak < 1.5 * NN1_BYTES + 16 * N * 8


def test_pencil_assembly_holds_no_pair_tensor(toy):
    data, _ = toy
    train = np.arange(0, N, 2)  # n_train = 1500, m = 10
    X = data.values[train]
    fiedler = estimate_fiedler(data.labels[train], negative_value=-0.2)
    assert traced_peak(assemble_pencil, X, fiedler) < 32 * X.size * 8


def test_wide_fit_holds_the_pencil_once():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(72, 2000))
    fiedler = estimate_fiedler(np.repeat([1, 2], [24, 48]), negative_value=-0.2)
    peak = traced_peak(lambda: learn_scaling(assemble_pencil(X, fiedler)))
    assert peak < 5.5 * X.size * 8


def wide_matrix():
    rng = np.random.default_rng(0)
    return DataMatrix(  # the wide-pencil shape: 144 x 2000 and a label column
        values=rng.normal(size=(144, 2000)),
        feature_names=[f"g{i:04d}" for i in range(2000)],
        labels=np.repeat([1, 2], [48, 96]),
    )


def test_wide_split_holds_its_arrays_once():
    data = standardize(wide_matrix())  # allocated before tracing
    config = ExperimentConfig(task="classify", sigma_grid=(100.0,),
                              split=SplitSpec(0.5, seed=0, repetitions=2))
    copies = traced_peak(run_pipeline, config, data) / data.values.nbytes
    assert copies < 2.5


def test_loader_peak_stays_below_six_table_copies(tmp_path):
    path = tmp_path / "wide.csv"
    save_matrix(wide_matrix(), path)
    assert traced_peak(load_matrix, path) < 6 * 144 * 2001 * 8
