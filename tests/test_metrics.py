"""Agreement metric tests with independent brute-force oracles."""

import numpy as np
import pytest

from specscale import Contingency, nmi, rand_index
from specscale.errors import DegenerateEntropyWarning


def nmi_oracle(truth, predicted):
    """Direct re-evaluation via entropy identities on plain Python loops."""
    truth = list(truth)
    predicted = list(predicted)
    n = len(truth)
    t_classes = sorted(set(truth))
    p_classes = sorted(set(predicted))
    joint = {}
    for t, p in zip(truth, predicted):
        joint[(t, p)] = joint.get((t, p), 0) + 1
    h_t = -sum(
        (truth.count(c) / n) * np.log(truth.count(c) / n) for c in t_classes
    )
    h_p = -sum(
        (predicted.count(c) / n) * np.log(predicted.count(c) / n) for c in p_classes
    )
    if h_t == 0 or h_p == 0:
        return 0.0
    mi = 0.0
    for (t, p), count in joint.items():
        pij = count / n
        mi += pij * np.log(pij / ((truth.count(t) / n) * (predicted.count(p) / n)))
    return mi / np.sqrt(h_t * h_p)


def ri_oracle(truth, predicted, align):
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if not align:
        return float(np.mean(truth == predicted))
    t_classes = sorted(set(truth.tolist()))
    p_classes = sorted(set(predicted.tolist()))
    best = 0.0
    for mapping in ([0, 1], [1, 0]):
        hits = 0
        for t, p in zip(truth, predicted):
            ti = t_classes.index(t)
            pi = p_classes.index(p) if len(p_classes) == 2 else 0
            if mapping[pi] == ti:
                hits += 1
        best = max(best, hits / len(truth))
    return best


class TestRandIndex:
    def test_perfect_agreement(self):
        assert rand_index([1, 2, 1, 2], [1, 2, 1, 2]) == 1.0

    def test_equal_quarters(self):
        truth = [1, 1, 2, 2]
        predicted = [1, 2, 1, 2]
        assert rand_index(truth, predicted) == 0.5

    def test_cluster_label_swap(self):
        assert rand_index([1, 1, 2, 2], [2, 2, 1, 1], align=True) == 1.0

    def test_align_off_is_literal(self):
        assert rand_index([1, 1, 2, 2], [2, 2, 1, 1], align=False) == 0.0

    def test_single_cluster_prediction(self):
        assert rand_index([1, 1, 1, 2], [5, 5, 5, 5], align=True) == 0.75

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            rand_index([1, 2, 3], [1, 2, 3])

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            truth = rng.integers(1, 3, size=n)
            truth[:2] = [1, 2]
            predicted = rng.integers(0, 2, size=n)
            assert rand_index(truth, predicted, align=True) == ri_oracle(
                truth, predicted, True
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 2, size=30)
        predicted = rng.integers(0, 2, size=30)
        a = rand_index(truth, predicted, align=True)
        b = rand_index(truth + 10, predicted + 7, align=True)
        assert a == b


class TestNmi:
    def test_perfect_balanced(self):
        assert nmi([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_independent_quarters(self):
        assert nmi([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_contingency(self):
        truth = [1] * 4 + [2] * 4
        predicted = [1, 1, 1, 2, 1, 2, 2, 2]  # contingency [[3,1],[1,3]]
        c = Contingency.from_labels(truth, predicted)
        np.testing.assert_array_equal(c.counts, [[3, 1], [1, 3]])
        assert nmi(truth, predicted) == pytest.approx(
            nmi_oracle(truth, predicted), abs=1e-12
        )

    def test_constant_labeling_warns_and_returns_zero(self):
        with pytest.warns(DegenerateEntropyWarning):
            assert nmi([1, 1, 1, 1], [1, 2, 1, 2]) == 0.0

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            truth = rng.integers(1, 3, size=n)
            predicted = rng.integers(1, 3, size=n)
            truth[:2] = [1, 2]
            predicted[:2] = [1, 2]
            assert nmi(truth, predicted) == pytest.approx(
                nmi_oracle(truth, predicted), abs=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            truth = rng.integers(1, 3, size=n)
            predicted = rng.integers(1, 3, size=n)
            truth[:2] = [1, 2]
            predicted[:2] = [1, 2]
            assert 0.0 <= nmi(truth, predicted) <= 1.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 2, size=40)
        predicted = rng.integers(0, 2, size=40)
        truth[:2] = [0, 1]
        predicted[:2] = [0, 1]
        assert nmi(truth, predicted) == nmi(truth * 3 + 1, 5 - predicted)

    def test_swapped_cluster_ids_give_the_same_bits(self):
        # a left-to-right sum of the terms gives 0.11870910076930732 and ...731
        truth = np.array([0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1])
        predicted = np.array([1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1])
        assert nmi(truth, predicted) == nmi(truth, 1 - predicted)


class TestContingency:
    def test_margins_consistent(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(1, 3, size=25)
        predicted = rng.integers(1, 3, size=25)
        truth[:2] = [1, 2]
        predicted[:2] = [1, 2]
        c = Contingency.from_labels(truth, predicted)
        assert c.total == 25
        np.testing.assert_array_equal(c.counts.sum(axis=1), c.row_sums)
        np.testing.assert_array_equal(c.counts.sum(axis=0), c.col_sums)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Contingency.from_labels([1, 2], [1, 2, 1])
