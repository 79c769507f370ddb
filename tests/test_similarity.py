"""Similarity graph construction tests."""

import numpy as np
import pytest

from specscale import (
    KernelParams,
    build_similarity,
    graph_from_weights,
    pairwise_sqdiff,
    scaled_sqdist,
)
from specscale.errors import (
    InsufficientSamplesError,
    IsolatedSampleError,
    NumericalOverflowError,
)

SIGMA_UNIT = np.sqrt(0.5)  # 2 sigma^2 = 1


class TestPairwiseSqdiff:
    def test_two_point_hand_values(self):
        d = pairwise_sqdiff(np.array([[0.0], [1.0]]), SIGMA_UNIT)
        np.testing.assert_array_equal(d.sqdiff[0, 1], [1.0])
        np.testing.assert_allclose(d.xhat[0], [1.0])

    def test_identical_rows_give_zero(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        d = pairwise_sqdiff(X, 1.0)
        np.testing.assert_array_equal(d.sqdiff[0, 1], np.zeros(2))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 4))
        d = pairwise_sqdiff(X, 1.3)
        np.testing.assert_array_equal(d.sqdiff, np.swapaxes(d.sqdiff, 0, 1))

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 3))
        a = pairwise_sqdiff(X, 1.0)
        b = pairwise_sqdiff(3.0 * X, 1.0)
        np.testing.assert_allclose(b.sqdiff, 9.0 * a.sqdiff, rtol=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            pairwise_sqdiff(np.array([[1.0, 2.0]]), 1.0)

    def test_rescaled_shares_tensor(self):
        X = np.random.default_rng(2).normal(size=(4, 2))
        d1 = pairwise_sqdiff(X, 1.0)
        d2 = d1.rescaled(2.0)
        assert d2.sqdiff is d1.sqdiff
        np.testing.assert_allclose(d2.xhat, d1.xhat / 4.0)


class TestBuildSimilarity:
    def test_three_point_knn_hand_values(self):
        Y = np.array([[0.0], [1.0], [10.0]])
        g = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=1))
        W = g.dense_weights()
        assert W[0, 1] == np.exp(-0.5)  # kept by both rows, symmetric mean exact
        assert W[0, 2] == 0.0  # dropped by the k-NN rule
        assert W[1, 2] == np.exp(-81.0 / 2.0) / 2.0  # kept by row 3 only
        np.testing.assert_array_equal(W, W.T)

    def test_identical_samples_weight_one(self):
        Y = np.array([[0.0], [0.0], [5.0]])
        g = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=1))
        assert g.dense_weights()[0, 1] == 1.0

    def test_negative_factor_weight_above_one(self):
        Y = np.array([[0.0], [1.0]])
        g = build_similarity(
            Y, KernelParams(sigma=SIGMA_UNIT, k_neighbors=1, scaling=np.array([-1.0]))
        )
        # delta_s = -1 and 2 sigma^2 = 1, so w = exp(1); 2 sigma^2 carries one
        # rounding error, hence a relative tolerance far below any kernel mistake
        w = g.dense_weights()[0, 1]
        assert w > 1.0
        assert w == pytest.approx(np.exp(1.0), rel=1e-14)

    def test_unscaled_weights_in_unit_interval(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(20, 4))
        g = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=5))
        W = g.dense_weights()
        assert np.all(W >= 0.0) and np.all(W <= 1.0)
        assert np.all(np.diag(W) == 0.0)

    def test_laplacian_psd_and_row_sums(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(15, 3))
        g = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=4))
        L = g.dense_laplacian()
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(g.degrees, g.dense_weights().sum(axis=1))
        for _ in range(10):
            x = rng.normal(size=15)
            assert x @ L @ x >= -1e-10 * (x @ x)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        g = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=4))
        gp = build_similarity(Y[perm], KernelParams(sigma=1.0, k_neighbors=4))
        W = g.dense_weights()
        np.testing.assert_allclose(gp.dense_weights(), W[np.ix_(perm, perm)], atol=1e-14)
        np.testing.assert_allclose(gp.degrees, g.degrees[perm], atol=1e-14)

    def test_nonnegative_scaling_matches_prescaled_data(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(14, 5))
        s = rng.uniform(0.1, 2.0, 5)
        g1 = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=4, scaling=s))
        g2 = build_similarity(Y * np.sqrt(s), KernelParams(sigma=1.0, k_neighbors=4))
        np.testing.assert_allclose(g1.dense_weights(), g2.dense_weights(), atol=1e-12)

    def test_isolated_vertex_error_names_sample(self):
        Y = np.array([[0.0], [1.0], [1e6]])
        with pytest.raises(IsolatedSampleError, match="sample 2") as info:
            build_similarity(Y, KernelParams(sigma=0.01, k_neighbors=1))
        # every weight underflows; the outlier is most isolated, 0 and 1 tie
        np.testing.assert_array_equal(info.value.samples, [2, 0, 1])

    def test_isolated_outlier_only(self):
        Y = np.array([[0.0], [1.0], [1e6]])
        with pytest.raises(IsolatedSampleError, match="sample 2 has zero degree") as info:
            build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=1))
        np.testing.assert_array_equal(info.value.samples, [2])

    def test_overflowing_negative_metric_raises(self):
        Y = np.array([[0.0], [100.0]])
        with pytest.raises(NumericalOverflowError):
            build_similarity(
                Y, KernelParams(sigma=0.1, k_neighbors=1, scaling=np.array([-1.0]))
            )

    def test_knn_tie_goes_to_smaller_index(self):
        # points 1 and 2 are equidistant from point 0; k=1 must keep index 1
        Y = np.array([[0.0], [1.0], [-1.0]])
        g = build_similarity(Y, KernelParams(sigma=1.0, k_neighbors=1))
        W = g.dense_weights()
        assert W[0, 1] == np.exp(-0.5)  # kept by rows 0 and 1
        assert W[0, 2] == np.exp(-0.5) / 2.0  # kept by row 2 only
        assert W[1, 2] == 0.0  # kept by neither row

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            build_similarity(np.zeros((3, 1)), KernelParams(sigma=1.0, k_neighbors=3))


class TestScaledSqdist:
    def test_matches_pair_tensor(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(9, 4))
        s = rng.normal(size=4)
        d = pairwise_sqdiff(Y, 1.0)
        direct = d.sqdiff @ s
        np.testing.assert_allclose(scaled_sqdist(Y, s), direct, atol=1e-12)

    def test_kernel_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=0.0)
        with pytest.raises(ValueError):
            KernelParams(sigma=1.0, k_neighbors=0)


class TestGraphFromWeights:
    def test_wraps_explicit_graph(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = graph_from_weights(W)
        np.testing.assert_array_equal(g.degrees, [1.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            graph_from_weights(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_isolated(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(IsolatedSampleError, match="sample 2") as info:
            graph_from_weights(W)
        np.testing.assert_array_equal(info.value.samples, [2])
