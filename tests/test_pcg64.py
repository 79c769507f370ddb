"""The package's PCG64 stream against numpy's ``default_rng``, which a run no
longer loads: the same permutations and uniform draws, bit for bit, for the
entropy a run passes (``[seed, repetition]`` for a split, 1805 for the
Lanczos start vector) and for entropy of more than four 32-bit words."""

import numpy as np
import pytest

from specscale.pcg64 import Stream

SEEDS = [*range(12), 2**32 - 1, 2**32, 2**40 + 5, 12345678901234567890]
SIZES = [0, 1, 2, 133, 667, 3200, 100_000]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_permutations_are_numpys(seed):
    # drawn as ``split`` draws them, one permutation after another from one
    # stream, so a 32-bit half left over by one is the next one's first draw
    for repetition in range(4):
        ours, numpys = Stream(seed, repetition), np.random.default_rng([seed, repetition])
        for n in SIZES:
            a = np.arange(n, dtype=np.int64) * 3 - 5
            got = ours.permutation(a)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, numpys.permutation(a))
            np.testing.assert_array_equal(a, np.arange(n) * 3 - 5)  # a copy


@pytest.mark.parametrize("n", [1, 800, 3200])
def test_uniform_is_numpys(n):
    numpys = np.random.default_rng(1805).uniform(-1.0, 1.0, n)
    np.testing.assert_array_equal(bits(Stream(1805).uniform(-1.0, 1.0, n)), bits(numpys))


@pytest.mark.parametrize("entropy", [(2**200 + 3,), (1, 2, 3, 4, 5), (0,) * 9, (0,), ()],
                         ids=["seven-words", "five-words", "nine-zeros", "zero", "empty"])
def test_entropy_of_any_length_is_numpys(entropy):
    # past four words, each further word is mixed into every pool word
    ours, numpys = Stream(*entropy), np.random.default_rng(list(entropy))
    np.testing.assert_array_equal(ours.permutation(np.arange(50)), numpys.permutation(50))
    np.testing.assert_array_equal(bits(ours.uniform(0.0, 1.0, 9)),
                                  bits(numpys.uniform(0.0, 1.0, 9)))


def test_a_left_over_half_waits_through_64_bit_draws():
    ours, numpys = Stream(7, 1), np.random.default_rng([7, 1])
    # a permutation may leave the high half of its last 64-bit draw unused;
    # the uniform draws after it take fresh 64-bit draws and leave it waiting
    for n in (5, 9, 2):
        np.testing.assert_array_equal(ours.permutation(np.arange(n)), numpys.permutation(n))
        np.testing.assert_array_equal(bits(ours.uniform(-2.0, 3.0, 3)),
                                      bits(numpys.uniform(-2.0, 3.0, 3)))


def test_pinned_draws():
    # the stream's own values, as numpy 2.4.6 drew them: a numpy whose
    # Generator draws others fails the oracle tests, and this test keeps the
    # splits and the start vector where they are
    assert Stream(0, 0).permutation(np.arange(12)).tolist() == [
        9, 2, 7, 4, 5, 11, 0, 3, 6, 10, 8, 1]
    assert Stream(12345678901234567890, 3).permutation(np.arange(12)).tolist() == [
        0, 9, 2, 8, 3, 6, 11, 7, 1, 5, 10, 4]
    assert Stream(1805).uniform(-1.0, 1.0, 3).tolist() == [
        -0.31220887606239844, 0.0538555797720599, -0.9090134111471504]


@pytest.mark.parametrize("entropy", [(-1,), (3, -1), (-(2**40),)])
def test_negative_entropy_is_rejected_as_numpy_rejects_it(entropy):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        Stream(*entropy)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(list(entropy))


def test_entropy_that_is_not_an_integer_is_rejected():
    with pytest.raises(TypeError):
        Stream(1.5)
    assert Stream(np.int64(3), np.uint8(1)).permutation(np.arange(20)).tolist() == (
        Stream(3, 1).permutation(np.arange(20)).tolist())
