"""Two-means and nearest-neighbor assignment tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specscale import clustering, kmeans, nn1_classify, similarity


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


def labelled_inertia(values, labels):
    """Within-cluster sum of squares of the partition ``labels`` of ``values``."""
    return sum(((part - part.mean()) ** 2).sum()
               for part in (values[labels == c] for c in np.unique(labels)))


def cut_inertias(values):
    """Within-cluster sum of squares of every cut between distinct sorted values."""
    xs = np.sort(values)
    return [
        sum(((part - part.mean()) ** 2).sum() for part in (xs[:i], xs[i:]))
        for i in range(1, xs.size)
        if xs[i - 1] < xs[i]
    ]


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def sweep_problems(draw):
    """An embedding of 2 to 40 rows and ell = 1 to 3, split into unsorted
    training and test indices. Small integers make ties common; the first
    coordinate may be constant, and training rows may repeat each other."""
    n = draw(st.integers(2, 40))
    ell = draw(st.integers(1, 3))
    values = draw(st.sampled_from([st.integers(-3, 3).map(float), finite]))
    emb = np.array(draw(st.lists(st.lists(values, min_size=ell, max_size=ell),
                                 min_size=n, max_size=n)))
    if draw(st.booleans()):
        emb[:, 0] = emb[0, 0]
    perm = np.array(draw(st.permutations(range(n))))
    n_train = draw(st.integers(1, n - 1))
    train, test = perm[:n_train], perm[n_train:]
    copies = draw(st.lists(st.tuples(st.integers(0, n_train - 1), st.integers(0, n_train - 1)),
                           max_size=n_train))
    for src, dst in copies:
        emb[train[dst]] = emb[train[src]]
    return emb, train, test


class TestKmeans:
    """Exact two-means on a line: the best cut of the sorted values."""

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(10.0, 0.1, 4), rng.normal(-10.0, 0.1, 4)])
        got = kmeans(pts)
        # the cluster holding the smallest value is labelled 0
        np.testing.assert_array_equal(got, [1, 1, 1, 1, 0, 0, 0, 0])
        best = exhaustive_two_means(pts[:, None])
        assert labelled_inertia(pts, got) == pytest.approx(best, rel=1e-12)

    def test_identical_points(self):
        # no cut lies between distinct values: one cluster, stated as all 0
        got = kmeans(np.ones(6))
        np.testing.assert_array_equal(got, np.zeros(6))
        assert labelled_inertia(np.ones(6), got) == 0.0

    def test_one_dimensional_input(self):
        got = kmeans(np.array([5.1, 0.0, 5.0, 0.1]))
        np.testing.assert_array_equal(got, [1, 0, 1, 0])

    def test_tie_goes_to_the_lower_cut(self):
        # {0} | {1, 1, 2} and {0, 1, 1} | {2} both leave 2/3
        x = np.array([2.0, 1.0, 0.0, 1.0])
        got = kmeans(x)
        np.testing.assert_array_equal(got, [1, 1, 0, 1])
        assert labelled_inertia(x, got) == pytest.approx(2 / 3, rel=1e-15)

    def test_validation(self):
        for bad in (np.zeros((3, 2)), np.zeros((3, 1)), np.array([1.0]), np.array([])):
            with pytest.raises(ValueError):
                kmeans(bad)

    @settings(max_examples=100)
    # small integers make duplicates common
    @given(values=st.lists(st.one_of(st.integers(-3, 3).map(float), finite),
                           min_size=2, max_size=10))
    def test_matches_exhaustive_optimum_small(self, values):
        x = np.array(values)
        best = exhaustive_two_means(x[:, None])
        scatter = ((x - x.mean()) ** 2).sum()
        got = kmeans(x)
        # the floor absorbs rounding when the optimum is 0
        assert labelled_inertia(x, got) == pytest.approx(best, rel=1e-9, abs=1e-12 * scatter)

    @settings(max_examples=100)
    @given(values=st.lists(st.one_of(st.integers(-5, 5).map(float), finite),
                           min_size=2, max_size=30),
           perm_seed=st.integers(0, 2**32 - 1))
    def test_partition_does_not_depend_on_input_order(self, values, perm_seed):
        x = np.array(values)
        perm = np.random.default_rng(perm_seed).permutation(x.size)
        got = kmeans(x)
        moved = kmeans(x[perm])
        np.testing.assert_array_equal(moved, got[perm])

    @settings(max_examples=100)
    @given(
        values=st.one_of(
            st.lists(st.integers(-1000, 1000).map(float), min_size=2, max_size=30),
            # m zeros, m twos and a middle value 1 + delta: the two cuts next to
            # it differ by about 4 |delta|, which an uncentered sum of squares
            # over a large shift cannot resolve
            st.builds(lambda m, delta: [0.0] * m + [1.0 + delta] + [2.0] * m,
                      st.integers(100, 500), st.sampled_from([-1e-8, -3e-9, 3e-9, 1e-8])),
        ),
        shift=st.floats(-1e3, 1e3, allow_nan=False),
    )
    def test_partition_does_not_depend_on_a_shift(self, values, shift):
        x = np.array(values)
        spread = np.ptp(x)
        inertias = sorted(cut_inertias(x))
        # a partition is pinned only where no other cut is within rounding of it
        assume(spread > 0)
        assume(len(inertias) == 1 or inertias[1] - inertias[0] > 1e-9 * inertias[1])
        got = kmeans(x + shift * spread)
        np.testing.assert_array_equal(got, kmeans(x))


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
            # sweep rounds of 1, 2, 4, ... training rows per side; the first runs
            # on blocks of n_rows test rows and each wider one on fewer
            patch.setattr(clustering, "_FIRST_WIDTH", 1)
            patch.setattr(similarity, "_BLOCK_ENTRIES", 2 * n_rows)
            patch.setattr(similarity, "_BLOCK_MIN_ROWS", 1)
            np.testing.assert_array_equal(nn1_classify(emb, train, labels, test), expected)

    @settings(max_examples=300)
    @given(sweep_problems(), st.integers(1, 4), st.sampled_from([1, 8]))
    def test_sweep_matches_dense_argmin(self, problem, block_rows, first_width):
        # rows of every block size, sweeps from 1 or 8 rows per side: the
        # labels are those of a dense argmin over the index-sorted training rows
        emb, train, test = problem
        labels = np.arange(train.size) * 10  # one label per training row
        order = np.argsort(train, kind="stable")
        d2 = np.zeros((test.size, train.size))
        for column in emb.T:  # one dimension at a time, as nn1_classify sums
            d2 += np.square(np.subtract.outer(column[test], column[train[order]]))
        expected = labels[order][d2.argmin(axis=1)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clustering, "_FIRST_WIDTH", first_width)
            patch.setattr(similarity, "_BLOCK_ENTRIES", 2 * first_width * block_rows)
            patch.setattr(similarity, "_BLOCK_MIN_ROWS", 1)
            np.testing.assert_array_equal(nn1_classify(emb, train, labels, test), expected)

    def test_all_ties_take_training_index_zero(self):
        # every point equal: each test row scans all 1500 training rows, and
        # every distance ties, so every row takes the label of index 0
        even, odd = np.arange(0, 3000, 2), np.arange(1, 3000, 2)
        labels = np.arange(even.size)[::-1]  # index 0 holds the largest label
        pred = nn1_classify(np.zeros((3000, 2)), even, labels, odd)
        np.testing.assert_array_equal(pred, np.full(odd.size, labels[0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_rejected(self, bad):
        # the sweep orders rows by a coordinate, which a NaN has not
        emb = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        emb[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            nn1_classify(emb, [0, 1], np.array([5, 7]), [2])

    def test_partition_validation(self):
        emb = np.zeros((4, 1))
        with pytest.raises(ValueError):
            nn1_classify(emb, [], np.array([]), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            nn1_classify(emb, [0, 1], np.array([1, 2]), [1, 2, 3])
        with pytest.raises(ValueError):
            nn1_classify(emb, [0, 1], np.array([1, 2]), [2])
