"""Eigensolver tests against independent dense oracles."""

import itertools

import numpy as np
import pytest
import scipy.sparse

from specscale import EigenPair, pencil_residual, rect_pencil_eig, sym_gen_eig
from specscale.errors import (
    DegenerateDegreeError,
    DegeneratePencilError,
    InsufficientSpectrumError,
    NoEigenpairError,
)


def whitened_spectrum(L, d):
    """Full-spectrum oracle via the D^{-1/2} L D^{-1/2} symmetrization."""
    root = np.sqrt(d)
    M = L / root[:, None] / root[None, :]
    M = (M + M.T) / 2
    vals, vecs = np.linalg.eigh(M)
    return vals, vecs / root[:, None]


def charpoly_roots(F, G):
    """Roots of det(F - mu G) by brute-force permutation expansion."""
    q = F.shape[0]
    total = np.zeros(q + 1)
    for perm in itertools.permutations(range(q)):
        sign = 1
        seen = list(perm)
        # permutation parity by counting inversions
        inv = sum(
            1 for i in range(q) for j in range(i + 1, q) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        poly = np.array([1.0])
        for i in range(q):
            poly = np.convolve(poly, [F[i, perm[i]], -G[i, perm[i]]])
        total[: poly.size] += sign * poly
    coeffs = np.trim_zeros(total[::-1], "f")  # descending, drop leading zeros
    if coeffs.size <= 1:
        return np.array([])
    return np.roots(coeffs)


class TestSymGenEig:
    def test_path_graph(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        pairs = sym_gen_eig(L, np.ones(2), k=1)
        assert len(pairs) == 1
        np.testing.assert_allclose(pairs[0].value, 2.0, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(pairs[0].vector), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12
        )
        assert pairs[0].vector[0] > 0  # sign convention

    def test_zero_matrix_has_no_spectrum(self):
        with pytest.raises(InsufficientSpectrumError):
            sym_gen_eig(np.zeros((3, 3)), np.ones(3), k=1)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_matches_whitened_oracle(self, blocks):
        # Laplacians of random graphs with `blocks` connected components
        rng = np.random.default_rng(7)
        component = np.arange(6) * blocks // 6
        same = component[:, None] == component[None, :]
        for _ in range(20):
            W = rng.uniform(0.1, 1.0, size=(6, 6))
            W = (W + W.T) * same
            np.fill_diagonal(W, 0.0)
            d = W.sum(axis=1)
            L = np.diag(d) - W
            vals_oracle, _ = whitened_spectrum(L, d)
            lam_max = vals_oracle[-1]
            keep = vals_oracle[vals_oracle > 1e-9 * lam_max]
            assert keep.size == 6 - blocks
            k = min(3, keep.size)
            pairs = sym_gen_eig(L, d, k=k)
            got = np.array([p.value for p in pairs])
            np.testing.assert_allclose(got, keep[:k], atol=1e-8)
            # CSR storing all 36 entries: the zeros between components are explicit
            stored = scipy.sparse.csr_matrix(np.ones((6, 6)))
            stored.data = L.ravel().copy()
            sparse_pairs = sym_gen_eig(stored, d, k=k)
            for a, b in zip(pairs, sparse_pairs):
                assert a.value == b.value
                np.testing.assert_array_equal(a.vector, b.vector)
            with pytest.raises(InsufficientSpectrumError):
                sym_gen_eig(L, d, k=7 - blocks)  # one more than 6 - blocks

    def test_vectors_are_degree_orthonormal(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 8))
        L = A @ A.T
        d = rng.uniform(0.5, 2.0, 8)
        pairs = sym_gen_eig(L, d, k=4)
        V = np.column_stack([p.vector for p in pairs])
        gram = V.T @ (d[:, None] * V)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_residual_is_reassertable(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(7, 7))
        L = (A + A.T) / 2
        d = rng.uniform(0.5, 2.0, 7)
        for p in sym_gen_eig(L, d, k=3):
            unit = p.vector / np.linalg.norm(p.vector)
            num = np.linalg.norm(L @ unit - p.value * d * unit)
            res = num / (np.linalg.norm(L) + abs(p.value) * np.linalg.norm(d))
            assert res == pytest.approx(p.residual, abs=1e-14)
            assert p.residual <= 1e-8

    def test_nonpositive_degree_rejected(self):
        L = np.eye(3)
        with pytest.raises(DegenerateDegreeError):
            sym_gen_eig(L, np.array([1.0, 0.0, 1.0]), k=1)

    def test_asymmetric_rejected(self):
        L = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            sym_gen_eig(L, np.ones(2), k=1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sym_gen_eig(np.eye(2), np.ones(2), k=3)

    def test_rejects_degree_matrix(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            sym_gen_eig(L, np.diag([1.0, 1.0]), k=1)


class TestRectPencilEig:
    def test_diagonal_square_pencil(self):
        pairs = rect_pencil_eig(np.diag([2.0, 3.0]), np.eye(2))
        values = sorted(np.real(p.value) for p in pairs)
        np.testing.assert_allclose(values, [2.0, 3.0], atol=1e-10)
        for p in pairs:
            peak = np.argmax(np.abs(p.vector))
            np.testing.assert_allclose(abs(p.vector[peak]), 1.0, atol=1e-10)

    def test_two_sample_like_rectangular_system(self):
        # hand algebra: rows impose (1 + mu) s = 1 - mu on [s; -1], so the
        # certified pairs obey mu = (1 - s) / (1 + s); s = 0 gives mu = 1
        F = np.array([[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]])
        G = np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]])
        pairs = rect_pencil_eig(F, G)
        found_mu_one = False
        for p in pairs:
            w = p.vector
            if abs(w[-1]) < 1e-12:
                continue
            s = float(np.real(-(w[0] / w[-1])))
            mu = float(np.real(p.value))
            assert mu == pytest.approx((1 - s) / (1 + s), abs=1e-8)
            if abs(mu - 1.0) < 1e-10 and abs(s) < 1e-10:
                found_mu_one = True
        assert found_mu_one

    def test_zero_G_is_degenerate(self):
        with pytest.raises(DegeneratePencilError):
            rect_pencil_eig(np.eye(2), np.zeros((2, 2)))

    def test_both_zero_invalid(self):
        with pytest.raises(ValueError):
            rect_pencil_eig(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = rng.integers(2, 6)
            F = rng.normal(size=(q, q))
            G = rng.normal(size=(q, q))
            roots = charpoly_roots(F, G)
            pairs = rect_pencil_eig(F, G)
            got = np.array([p.value for p in pairs])
            for mu in got:
                assert np.min(np.abs(roots - mu)) < 1e-6
            for root in roots:
                assert np.min(np.abs(got - root)) < 1e-6

    def test_complex_pairs_come_with_conjugates(self):
        theta = 0.7
        F = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pairs = rect_pencil_eig(F, np.eye(2))
        values = np.array([p.value for p in pairs])
        assert np.iscomplexobj(values)
        np.testing.assert_allclose(sorted(values.imag), [-np.sin(theta), np.sin(theta)], atol=1e-10)

    def test_wide_pencil_certificates(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(3, 8))
        G = rng.normal(size=(3, 8))
        pairs = rect_pencil_eig(F, G)
        assert pairs
        for p in pairs:
            assert p.residual <= 1e-6
            assert pencil_residual(F, G, p.value, p.vector) == pytest.approx(
                p.residual, abs=1e-12
            )
            np.testing.assert_allclose(np.linalg.norm(p.vector), 1.0, atol=1e-12)

    def test_mildly_wide_pencil_certificates(self):
        # more columns than rows but no joint nullspace
        rng = np.random.default_rng(4)
        F = rng.normal(size=(5, 7))
        G = rng.normal(size=(5, 7))
        pairs = rect_pencil_eig(F, G)
        assert pairs
        assert all(p.residual <= 1e-6 for p in pairs)

    def test_duplicate_columns_get_equal_components(self):
        # duplicate a column: e_0 - e_3 is annihilated by both matrices, so a
        # minimal-norm vector weighs the two copies equally
        rng = np.random.default_rng(9)
        F = rng.normal(size=(4, 3))
        G = rng.normal(size=(4, 3))
        F = np.column_stack([F, F[:, 0]])
        G = np.column_stack([G, G[:, 0]])
        pairs = rect_pencil_eig(F, G)
        assert pairs
        for p in pairs:
            assert abs(p.vector[0] - p.vector[3]) <= 1e-10

    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_candidates_are_minimal_norm(self, shape):
        # no vector has a component in the joint nullspace N of F and G
        rng = np.random.default_rng(19)
        if shape == "tall":
            F = rng.normal(size=(6, 3))
            G = rng.normal(size=(6, 3))
            F = np.column_stack([F, F[:, 0]])
            G = np.column_stack([G, G[:, 0]])
        else:
            F = rng.normal(size=(3, 8))
            G = rng.normal(size=(3, 8))
        _, sv, vt = np.linalg.svd(np.vstack([F, G]))
        rank = int(np.count_nonzero(sv > 1e-10 * sv[0]))
        N = vt[rank:].T
        assert N.shape[1] == (1 if shape == "tall" else 2)
        pairs = rect_pencil_eig(F, G)
        assert pairs
        for p in pairs:
            assert np.linalg.norm(N.T @ p.vector) <= 1e-10

    def test_deterministic_output(self):
        rng = np.random.default_rng(13)
        F = rng.normal(size=(6, 4))
        G = rng.normal(size=(6, 4))
        a = rect_pencil_eig(F, G)
        b = rect_pencil_eig(F, G)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.value == y.value
            np.testing.assert_array_equal(x.vector, y.vector)

    def test_no_finite_eigenvalue_raises(self):
        # the reduction of [[1, 0]] - mu [[0, 1]] has beta = 0 for both pairs
        with pytest.raises(NoEigenpairError):
            rect_pencil_eig(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
