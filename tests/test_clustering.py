"""k-means and nearest-neighbor assignment tests."""

import itertools

import numpy as np
import pytest

from specscale import kmeans, nn1_classify, similarity


def exhaustive_two_means(points):
    """Global optimum over all nonempty bipartitions (oracle for small n)."""
    n = len(points)
    best = np.inf
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for part in (points[mask], points[~mask]):
            if len(part):
                inertia += ((part - part.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


class TestKmeans:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(0)
        pts = np.vstack(
            [rng.normal(10.0, 0.1, size=(4, 2)), rng.normal(-10.0, 0.1, size=(4, 2))]
        )
        got = kmeans(pts, k=2, restarts=10, seed=0)
        labels = got.labels
        assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
        assert labels[0] != labels[4]
        assert got.inertia == pytest.approx(exhaustive_two_means(pts), rel=1e-12)

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 3))
        got = kmeans(pts, k=1, restarts=3, seed=0)
        scatter = ((pts - pts.mean(axis=0)) ** 2).sum()
        assert got.inertia == pytest.approx(scatter, rel=1e-12)
        assert np.all(got.labels == 0)

    def test_identical_points(self):
        pts = np.ones((6, 2))
        a = kmeans(pts, k=2, restarts=5, seed=42)
        b = kmeans(pts, k=2, restarts=5, seed=42)
        assert a.inertia == 0.0
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 2))
        a = kmeans(pts, k=2, restarts=7, seed=5)
        b = kmeans(pts, k=2, restarts=7, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_matches_exhaustive_optimum_small(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            pts = rng.normal(size=(n, 2))
            got = kmeans(pts, k=2, restarts=60, seed=0)
            assert got.inertia == pytest.approx(exhaustive_two_means(pts), rel=1e-9)

    def test_one_dimensional_input(self):
        pts = np.array([[0.0], [0.1], [5.0], [5.1]])
        got = kmeans(pts, k=2, restarts=5, seed=0)
        assert got.labels[0] == got.labels[1]
        assert got.labels[2] == got.labels[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), k=4)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), k=1, restarts=0)


class TestNN1Classify:
    def test_coincident_point_takes_its_label(self):
        emb = np.array([[0.0], [1.0], [1.0]])
        pred = nn1_classify(emb, [0, 1], np.array([5, 7]), [2])
        assert pred[0] == 7

    def test_tie_goes_to_smaller_training_index(self):
        emb = np.array([[-1.0], [1.0], [0.0]])
        pred = nn1_classify(emb, [0, 1], np.array(["a", "b"]), [2])
        assert pred[0] == "a"

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(5, 2))
        train, test = np.array([0, 2, 4]), np.array([1, 3])
        labels = np.array([10, 20, 30])
        pred = nn1_classify(emb, train, labels, test)
        for row, t in enumerate(test):
            dists = [np.sum((emb[t] - emb[i]) ** 2) for i in train]
            assert pred[row] == labels[int(np.argmin(dists))]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(20, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        train = np.arange(12)
        test = np.arange(12, 20)
        labels = rng.integers(0, 2, size=12)
        a = nn1_classify(emb, train, labels, test)
        b = nn1_classify(emb @ q, train, labels, test)
        np.testing.assert_array_equal(a, b)

    def test_unsorted_training_indices(self):
        emb = np.array([[0.0], [10.0], [0.2]])
        pred = nn1_classify(emb, [1, 0], np.array([99, 11]), [2])
        assert pred[0] == 11  # label travels with the index, not the position

    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_blocks_keep_ties_and_match_dense_formula(self, n_rows):
        rng = np.random.default_rng(6)
        # integer points make ties common; the training indices come unsorted
        # and the test rows reversed, and the smaller training index must win
        emb = rng.integers(-4, 5, size=(30, 2)).astype(float)
        train = rng.permutation(30)[:18]
        test = np.setdiff1d(np.arange(30), train)[::-1]
        labels = rng.integers(0, 3, size=18)
        order = np.argsort(train, kind="stable")
        d2 = ((emb[test][:, None, :] - emb[train[order]][None, :, :]) ** 2).sum(axis=2)
        expected = labels[order][d2.argmin(axis=1)]
        assert np.any((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "_BLOCK_ENTRIES", n_rows * train.size)
            np.testing.assert_array_equal(nn1_classify(emb, train, labels, test), expected)

    def test_partition_validation(self):
        emb = np.zeros((4, 1))
        with pytest.raises(ValueError):
            nn1_classify(emb, [], np.array([]), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            nn1_classify(emb, [0, 1], np.array([1, 2]), [1, 2, 3])
        with pytest.raises(ValueError):
            nn1_classify(emb, [0, 1], np.array([1, 2]), [2])
