"""Similarity graph construction tests."""

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specscale import (
    similarity,
    build_similarity,
    pairwise_sqdiff,
)
from specscale.similarity import sqdist_blocks
from specscale.errors import (
    InsufficientSamplesError,
    IsolatedSampleError,
    NumericalOverflowError,
)


def unscaled(m, sigma=1.0):
    """The unit-width factors of the unscaled kernel at width sigma."""
    return np.full(m, 0.5 / sigma**2)


@st.composite
def knn_problems(draw):
    """Small integer samples (ties are common), a k and unit-width factors: the
    unscaled kernel or signed factors, at one of three widths. Each width's
    1 / (2 sigma^2) is a power of two, so every delta_t is exact and any row or
    column block of it rounds as the whole matrix does."""
    n = draw(st.integers(3, 12))
    m = draw(st.integers(1, 3))
    Y = np.array(
        draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                      min_size=n, max_size=n)),
        dtype=float,
    )
    k = draw(st.integers(1, n - 1))
    factors = draw(
        st.just(np.ones(m))
        | st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                   min_size=m, max_size=m).map(np.array)
    )
    sigma = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return Y, k, factors / (2.0 * sigma**2)


def reference_knn_weights(Y, k, factors):
    """Dense k-NN rule: each row keeps its k smallest delta_t, clamped at 0 for
    nonnegative factors, ties to the smaller index, weighs them exp(-delta_t),
    then (M + M^T) / 2. None if a weight overflows."""
    d2 = sqdist_blocks(Y, factors)(slice(None))
    if np.all(factors >= 0.0):
        d2 = np.maximum(d2, 0.0)
    with np.errstate(over="ignore", under="ignore"):
        raw = np.exp(-d2)
    if not np.all(np.isfinite(raw)):
        return None
    n = Y.shape[0]
    index = np.arange(n)
    M = np.zeros((n, n))
    for i in range(n):
        row = d2[i].copy()
        row[i] = np.inf
        order = np.lexsort((index, row))[:k]
        M[i, order] = raw[i, order]
    return (M + M.T) / 2.0


def direct_sqdist(Y, factors, rows=slice(None), cols=slice(None)):
    """delta_s summed term by term, sum_k s_k (y_ik - y_jk)^2, in extended
    precision: an oracle independent of the package's kernel."""
    Y = np.asarray(Y, dtype=np.longdouble)
    d2 = np.zeros((Y[rows].shape[0], Y[cols].shape[0]), dtype=np.longdouble)
    for column, weight in zip(Y.T, factors.astype(np.longdouble)):
        d2 += weight * np.square(np.subtract.outer(column[rows], column[cols]))
    return d2


def rounding_bound(Y, factors, rows=slice(None), cols=slice(None)):
    """c (m + 2) eps sum_k |s_k| (y_ik^2 + y_jk^2), with c = 4: what a sum of
    m + 2 lifted terms may lose to rounding. It scales with the data."""
    size = np.square(Y) @ np.abs(factors)
    return 4 * (Y.shape[1] + 2) * np.finfo(float).eps * np.add.outer(size[rows], size[cols])


@st.composite
def selection_blocks(draw):
    """A row block of a pairwise array and a k. Few distinct integer values make
    ties common, at the k-th value and across group edges; entries may be
    negative, as from signed factors; the width n runs from k + 1 to 20 k, so
    it is often no multiple of the group size; each row may hold +inf at its
    own column; and some blocks hold NaN entries."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, 20 * k))
    r = draw(st.integers(1, min(n, 5)))
    top = draw(st.integers(-3, 2 * n))
    d2 = draw(arrays(np.int64, (r, n), elements=st.integers(-3, top))).astype(float)
    if draw(st.booleans()):
        own = draw(st.integers(0, n - r)) + np.arange(r)
        d2[np.arange(r), own] = np.inf
    if draw(st.booleans()):
        d2[draw(arrays(np.bool_, (r, n)))] = np.nan
    return d2, k


class TestNearest:
    @settings(max_examples=600)
    @given(selection_blocks())
    def test_matches_stable_row_argsort(self, block):
        # the first k columns of a stable row argsort, which ranks NaN after
        # every number: a row with fewer than k numbers (where fewer than k
        # groups hold one) keeps all its numbers, then NaN columns in order
        d2, k = block
        cols, vals = similarity._nearest(d2, k)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(cols, expected)
        np.testing.assert_array_equal(vals, np.take_along_axis(d2, expected, axis=1))

    @settings(max_examples=300)
    @given(selection_blocks())
    def test_floor_matches_clamp_then_stable_argsort(self, block):
        # with floor 0, entries below it rank as 0 (ties among them to the
        # smaller column), as if the block had been clamped first
        d2, k = block
        clamped = np.maximum(d2, 0.0)
        cols, vals = similarity._nearest(d2, k, 0.0)
        expected = np.argsort(clamped, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(cols, expected)
        np.testing.assert_array_equal(vals, np.take_along_axis(clamped, expected, axis=1))

    @settings(max_examples=300)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 15), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_nan_in_a_group_above_the_bound_is_not_compared(self, k, extra, tail, r, seed):
        # G = k + extra groups of 16 columns (j mod G) and a tail, holding
        # integers with ties. NaN put into groups whose minimum is above the
        # bound (each keeps the member that holds it) is never a candidate: the
        # result is still the first k of a stable argsort, which ranks NaN last
        rng = np.random.default_rng(seed)
        G = k + extra
        n = 16 * G + tail
        d2 = rng.integers(0, 4 * n, size=(r, n)).astype(float)
        groups = d2[:, : 16 * G].reshape(r, 16, G)
        lowest = groups.min(axis=1)
        above = lowest > np.sort(lowest, axis=1)[:, k - 1 : k]
        nan = (rng.random(groups.shape) < 0.5) & above[:, None, :]
        nan[np.arange(r)[:, None], np.argmin(groups, axis=1), np.arange(G)] = False
        assume(np.any(nan))
        groups[nan] = np.nan
        sizes = []
        lexsort = np.lexsort

        def recording(keys):
            sizes.append(np.count_nonzero(np.isnan(keys[0])))
            return lexsort(keys)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity.np, "lexsort", recording)
            cols, vals = similarity._nearest(d2, k)
        assert sizes == [0]
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(cols, expected)
        np.testing.assert_array_equal(vals, np.take_along_axis(d2, expected, axis=1))

    def test_tail_columns_are_candidates(self):
        # n = 35, k = 2: groups of 16 columns cover 0-31, and the nearest
        # entries sit in the tail 32-34, outside every group
        d2 = np.full((1, 35), 5.0)
        d2[0, 32:] = [1.0, 0.0, 1.0]
        cols, vals = similarity._nearest(d2, 2)
        np.testing.assert_array_equal(cols, [[33, 32]])
        np.testing.assert_array_equal(vals, [[0.0, 1.0]])

    def test_nan_in_every_group_does_not_widen_the_bound(self, monkeypatch):
        # k = 4, n = 64: columns 0-3 open the 4 groups of 16. Each group's
        # minimum is its smallest number, so only the entries up to the 4th
        # smallest number and the NaN themselves are ordered
        d2 = np.arange(64.0)[None, :]
        d2[0, :4] = np.nan
        ordered = []
        lexsort = np.lexsort

        def recording(keys):
            ordered.append(keys[0].size)
            return lexsort(keys)

        monkeypatch.setattr(similarity.np, "lexsort", recording)
        cols, vals = similarity._nearest(d2, 4)
        assert ordered == [8]
        np.testing.assert_array_equal(cols, [[4, 5, 6, 7]])


class TestPairwiseSqdiff:
    def test_two_point_hand_values(self):
        d = pairwise_sqdiff(np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(d.centered, [[-0.5], [0.5]])
        np.testing.assert_array_equal(d.sqdiff, [[1.0], [1.0]])

    def test_identical_rows_give_zero(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        d = pairwise_sqdiff(X)
        np.testing.assert_array_equal(d.sqdiff[0], d.sqdiff[1])
        same = pairwise_sqdiff(np.tile([1.0, 2.0], (3, 1)))
        np.testing.assert_array_equal(same.sqdiff, np.zeros((3, 2)))

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 3))
        a = pairwise_sqdiff(X)
        b = pairwise_sqdiff(3.0 * X)
        np.testing.assert_allclose(b.sqdiff, 9.0 * a.sqdiff, rtol=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            pairwise_sqdiff(np.array([[1.0, 2.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pairwise_sqdiff(np.array([[1.0, 2.0], [np.nan, 0.0]]))


class TestBuildSimilarity:
    def test_three_point_knn_hand_values(self):
        Y = np.array([[0.0], [1.0], [10.0]])
        g = build_similarity(Y, unscaled(1), 1)
        W = g.weights.toarray()
        assert W[0, 1] == np.exp(-0.5)  # kept by both rows, symmetric mean exact
        assert W[0, 2] == 0.0  # dropped by the k-NN rule
        assert W[1, 2] == np.exp(-81.0 / 2.0) / 2.0  # kept by row 3 only
        np.testing.assert_array_equal(W, W.T)

    def test_identical_samples_weight_one(self):
        Y = np.array([[0.0], [0.0], [5.0]])
        g = build_similarity(Y, unscaled(1), 1)
        assert g.weights.toarray()[0, 1] == 1.0

    def test_negative_factor_weight_above_one(self):
        Y = np.array([[0.0], [1.0]])
        g = build_similarity(Y, np.array([-1.0]), 1)
        # delta_t = -1 at unit width, so w = exp(1) exactly
        w = g.weights.toarray()[0, 1]
        assert w > 1.0
        assert w == np.exp(1.0)

    def test_unscaled_weights_in_unit_interval(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(20, 4))
        g = build_similarity(Y, unscaled(4), 5)
        W = g.weights.toarray()
        assert np.all(W >= 0.0) and np.all(W <= 1.0)
        assert np.all(np.diag(W) == 0.0)

    def test_laplacian_psd_and_row_sums(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(15, 3))
        g = build_similarity(Y, unscaled(3), 4)
        L = g.laplacian.toarray()
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(g.degrees, g.weights.toarray().sum(axis=1))
        for _ in range(10):
            x = rng.normal(size=15)
            assert x @ L @ x >= -1e-10 * (x @ x)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        g = build_similarity(Y, unscaled(3), 4)
        gp = build_similarity(Y[perm], unscaled(3), 4)
        W = g.weights.toarray()
        np.testing.assert_allclose(gp.weights.toarray(), W[np.ix_(perm, perm)], atol=1e-14)
        np.testing.assert_allclose(gp.degrees, g.degrees[perm], atol=1e-14)

    def test_nonnegative_scaling_matches_prescaled_data(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(14, 5))
        s = rng.uniform(0.1, 2.0, 5)
        g1 = build_similarity(Y, s / 2.0, 4)
        g2 = build_similarity(Y * np.sqrt(s), unscaled(5), 4)
        np.testing.assert_allclose(g1.weights.toarray(), g2.weights.toarray(), atol=1e-12)

    def test_isolated_vertex_error_names_sample(self):
        Y = np.array([[0.0], [1.0], [1e6]])
        with pytest.raises(IsolatedSampleError, match="sample 2") as info:
            build_similarity(Y, unscaled(1, sigma=0.01), 1)
        # every weight underflows; the outlier is most isolated, 0 and 1 tie
        np.testing.assert_array_equal(info.value.samples, [2, 0, 1])

    def test_isolated_outlier_only(self):
        Y = np.array([[0.0], [1.0], [1e6]])
        with pytest.raises(IsolatedSampleError, match="sample 2 has zero degree") as info:
            build_similarity(Y, unscaled(1), 1)
        np.testing.assert_array_equal(info.value.samples, [2])

    def test_overflowing_negative_metric_raises(self):
        Y = np.array([[0.0], [100.0]])
        with pytest.raises(NumericalOverflowError):
            build_similarity(Y, np.array([-1.0]) / (2.0 * 0.1**2), 1)

    def test_knn_tie_goes_to_smaller_index(self):
        # points 1 and 2 are equidistant from point 0; k=1 must keep index 1
        Y = np.array([[0.0], [1.0], [-1.0]])
        g = build_similarity(Y, unscaled(1), 1)
        W = g.weights.toarray()
        assert W[0, 1] == np.exp(-0.5)  # kept by rows 0 and 1
        assert W[0, 2] == np.exp(-0.5) / 2.0  # kept by row 2 only
        assert W[1, 2] == 0.0  # kept by neither row

    @settings(max_examples=300)
    @given(knn_problems(), st.integers(1, 12))
    def test_knn_matches_dense_reference(self, problem, block_rows):
        # rows are evaluated in blocks of block_rows (one block when >= n), so
        # the result must not depend on where the block edges fall
        Y, k, factors = problem
        expected = reference_knn_weights(Y, k, factors)
        assume(expected is not None and np.all(expected.sum(axis=1) > 0.0))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "_BLOCK_ENTRIES", block_rows * Y.shape[0])
            patch.setattr(similarity, "_BLOCK_MIN_ROWS", 1)
            g = build_similarity(Y, factors, k)
        np.testing.assert_array_equal(g.weights.toarray(), expected)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 5), st.integers(1, 4),
           st.integers(1, 6))
    def test_duplicate_rows_clamp_like_the_dense_rule(self, seed, distinct, copies, m, k):
        # each of a few continuous rows appears 2 to 5 times: delta_s between
        # copies is rounding noise of either sign, which nonnegative factors
        # clamp at 0, so copies tie at 0 (the smaller index first) and weigh
        # exactly 1. One row block: GEMMs of other shapes round differently
        n = distinct * copies
        assume(k < n)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(distinct, m)) * 10.0 ** rng.integers(-2, 4)
        Y = rows[rng.permutation(np.repeat(np.arange(distinct), copies))]
        factors = rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.8)
        expected = reference_knn_weights(Y, k, factors / 2.0)
        assume(expected is not None)
        g = build_similarity(Y, factors / 2.0, k)
        np.testing.assert_array_equal(g.weights.toarray(), expected)

    # no shrinking: a smaller seed is no simpler example, and each one builds an
    # 800-sample graph, so shrinking a failure would take minutes
    @settings(max_examples=20, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 10),
        st.sampled_from(["unscaled", "nonnegative", "signed"]),
    )
    def test_knn_matches_direct_differences(self, seed, m, k, kind):
        # an oracle that does not use sqdist_blocks: rank every row by direct
        # differences in extended precision, on continuous data where the k-th
        # and (k+1)-th values are further apart than rounding can move them.
        # n = 800 spans two row blocks (655 and 145 rows)
        rng = np.random.default_rng(seed)
        n, sigma = 800, 3.0
        Y = rng.normal(size=(n, m))
        factors = {
            "unscaled": np.ones(m),
            "nonnegative": rng.uniform(0.0, 2.0, m),
            "signed": rng.normal(size=m),
        }[kind] / (2.0 * sigma**2)
        d2 = direct_sqdist(Y, factors)
        np.fill_diagonal(d2, np.inf)
        nearest = np.argsort(d2, axis=1)[:, : k + 1]
        ranked = np.take_along_axis(d2, nearest, axis=1)
        slack = rounding_bound(Y, factors).max(axis=1)
        assume(np.all(ranked[:, k] - ranked[:, k - 1] > 2 * slack))
        M = np.zeros((n, n))
        rows = np.arange(n)[:, None]
        M[rows, nearest[:, :k]] = np.exp(-ranked[:, :k].astype(float))
        expected = (M + M.T) / 2.0
        g = build_similarity(Y, factors, k)
        W = g.weights.toarray()
        np.testing.assert_array_equal(W != 0.0, expected != 0.0)
        np.testing.assert_allclose(W, expected, rtol=1e-9)

    def test_k_too_large_rejected(self):
        # a typed error, so a pipeline run records it on the row instead of crashing
        with pytest.raises(InsufficientSamplesError, match="k_neighbors=3 needs more than 3"):
            build_similarity(np.zeros((3, 1)), unscaled(1), 3)

    def test_k_neighbors_below_one_rejected(self):
        with pytest.raises(ValueError, match="k_neighbors must be at least 1"):
            build_similarity(np.zeros((3, 1)), unscaled(1), 0)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 4), st.integers(-4, 4),
           st.booleans())
    def test_graph_takes_no_width(self, seed, n, m, a, signed):
        # the graph of lambda Y with factors t / lambda^2 is the graph of Y with
        # t, bit for bit, for lambda = 2^a: scaling by a power of two is exact,
        # so every delta_t is the same number. |y| stays below ~6 and t in
        # [-0.5, 1], so no weight overflows and no nearest one underflows
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(n, m))
        t = rng.uniform(-0.5 if signed else 0.0, 1.0, m)
        k = int(rng.integers(1, n))
        lam = 2.0**a
        g = build_similarity(Y, t, k)
        h = build_similarity(lam * Y, t / lam**2, k)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(h.weights, part), getattr(g.weights, part))
        np.testing.assert_array_equal(h.degrees, g.degrees)


class TestScaledSqdist:
    @given(knn_problems())
    def test_row_block_matches_full_matrix(self, problem):
        Y, _, factors = problem
        n = Y.shape[0]
        sqdist = sqdist_blocks(Y, factors)
        full = sqdist(slice(None))
        for start in range(n):
            for stop in range(start + 1, n + 1):
                block = sqdist(slice(start, stop))
                np.testing.assert_array_equal(block, full[start:stop])
                # a column range too: the upper-triangle block of the
                # linearization share, and the one left of it
                for cols in (slice(start, n), slice(0, stop)):
                    block = sqdist(slice(start, stop), cols)
                    np.testing.assert_array_equal(block, full[start:stop, cols])
                block = sqdist(slice(None), slice(start, stop))
                np.testing.assert_array_equal(block, full[:, start:stop])

    def test_blocks_cover_rows_in_order(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "_BLOCK_ENTRIES", 20)
            patch.setattr(similarity, "_BLOCK_MIN_ROWS", 1)
            blocks = list(similarity.row_blocks(7, 10))
            assert blocks == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]
            # a row wider than a block still makes a block of one row
            assert list(similarity.row_blocks(2, 50)) == [slice(0, 1), slice(1, 2)]
        # rows wider than 1/40 of a block make blocks of 40 rows
        blocks = list(similarity.row_blocks(100, 10**6))
        assert blocks == [slice(0, 40), slice(40, 80), slice(80, 100)]

    def test_matches_pair_tensor(self, pair_tensor):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(9, 4))
        s = rng.normal(size=4)
        direct = pair_tensor(Y) @ s
        np.testing.assert_allclose(sqdist_blocks(Y, s)(slice(None)), direct, atol=1e-12)

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(1, 6),
        st.integers(-3, 3),
        st.booleans(),
        st.data(),
    )
    def test_error_scales_with_the_data(self, seed, n, m, exponent, duplicate, data):
        # signed factors on inputs scaled by 10^-3 to 10^3: against the direct
        # sum, every entry of the full matrix and of a row and column block is
        # within a bound proportional to the size of its terms. A duplicated
        # row puts an exact 0 among entries of that size
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(n, m)) * 10.0**exponent
        if duplicate:
            Y[-1] = Y[0]
        factors = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        for rows, cols in [
            (slice(None), slice(None)),
            (slice(start, stop), slice(None)),
            (slice(start, stop), slice(start, n)),
            (slice(None), slice(start, stop)),
        ]:
            block = sqdist_blocks(Y, factors)(rows, cols)
            error = np.abs(block - direct_sqdist(Y, factors, rows, cols))
            assert np.all(error <= rounding_bound(Y, factors, rows, cols))
