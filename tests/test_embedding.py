"""Spectral embedding and Ncut objective tests."""

import numpy as np
import pytest
import scipy.linalg

from specscale import SimilarityGraph, SymmetricCSR, embed, ncut_objective
from specscale.errors import DegenerateVectorError, InsufficientSpectrumError


def graph_from_weights(W):
    """A hand graph: the dense weights W in CSR, with their row sums as degrees."""
    return SimilarityGraph(weights=SymmetricCSR.from_dense(W), degrees=W.sum(axis=1))


def two_cliques(eps=0.0):
    """Two 3-cliques, optionally bridged by weak edges of weight eps."""
    W = np.zeros((6, 6))
    for block in (range(3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    W[i, j] = 1.0
    if eps > 0.0:
        W[2, 3] = W[3, 2] = eps
        W[0, 5] = W[5, 0] = eps
    return W


class TestEmbed:
    @pytest.mark.parametrize("eps", [1e-6, 1e-10])
    def test_weakly_bridged_cliques_separate_by_sign(self, eps):
        # at eps=1e-10 the Fiedler value (~6.7e-11) is far below 1e-9 * lambda_max,
        # yet the graph is connected, so only the constant vector is deflated
        g = graph_from_weights(two_cliques(eps=eps))
        emb = embed(g, ell=1)
        u = emb.vectors[:, 0]
        assert np.all(np.sign(u[:3]) == np.sign(u[0]))
        assert np.all(np.sign(u[3:]) == -np.sign(u[0]))
        assert emb.eigenvalues[0] > 0

    def test_disjoint_cliques_match_full_decomposition(self):
        # with no bridge the zero eigenvalue has multiplicity two; both copies
        # are deflated and the first kept pair comes from within a clique
        g = graph_from_weights(two_cliques())
        emb = embed(g, ell=1)
        d = g.degrees
        root = np.sqrt(d)
        M = g.laplacian.toarray() / root[:, None] / root[None, :]
        vals = np.linalg.eigh((M + M.T) / 2)[0]
        nonzero = vals[vals > 1e-9 * vals[-1]]
        assert emb.eigenvalues[0] == pytest.approx(nonzero[0], abs=1e-8)
        assert emb.eigenvalues[0] == pytest.approx(1.5, abs=1e-10)

    def test_complete_graph_eigenvalue(self):
        n = 5
        W = np.ones((n, n)) - np.eye(n)
        g = graph_from_weights(W)
        emb = embed(g, ell=1)
        assert emb.eigenvalues[0] == pytest.approx(n / (n - 1), abs=1e-8)
        # returned vector is orthogonal to the constant vector under D
        assert abs(g.degrees @ emb.vectors[:, 0]) < 1e-8

    def test_ell_equal_n_is_insufficient(self):
        g = graph_from_weights(two_cliques(eps=0.1))
        with pytest.raises(InsufficientSpectrumError):
            embed(g, ell=6)

    def test_columns_degree_orthonormal(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.1, 1.0, size=(8, 8))
        W = (A + A.T) / 2
        np.fill_diagonal(W, 0.0)
        g = graph_from_weights(W)
        emb = embed(g, ell=3)
        V = emb.vectors
        gram = V.T @ (g.degrees[:, None] * V)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)
        assert np.all(np.diff(emb.eigenvalues) >= -1e-12)

    def test_sign_convention(self):
        g = graph_from_weights(two_cliques(eps=1e-3))
        emb = embed(g, ell=2)
        for col in emb.vectors.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
            assert lead > 0

    def test_invalid_ell(self):
        g = graph_from_weights(two_cliques(eps=0.1))
        with pytest.raises(ValueError):
            embed(g, ell=0)


class TestNcutObjective:
    def test_constant_vector_gives_zero(self):
        g = graph_from_weights(two_cliques(eps=0.5))
        value = ncut_objective(g, np.ones(6))
        assert value.value == pytest.approx(0.0, abs=1e-14)
        assert value.constraint_residual == pytest.approx(g.degrees.sum())

    def test_rayleigh_identity_with_embedding(self):
        g = graph_from_weights(two_cliques(eps=1e-3))
        emb = embed(g, ell=2)
        for j in range(2):
            value = ncut_objective(g, emb.vectors[:, j])
            assert value.value == pytest.approx(emb.eigenvalues[j], abs=1e-8)
            assert abs(value.constraint_residual) < 1e-8

    def test_clique_indicator_has_no_cut(self):
        g = graph_from_weights(two_cliques())
        v = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        assert ncut_objective(g, v).value == pytest.approx(0.0, abs=1e-14)

    def test_scale_invariance(self):
        g = graph_from_weights(two_cliques(eps=0.2))
        rng = np.random.default_rng(1)
        v = rng.normal(size=6)
        base = ncut_objective(g, v).value
        for c in (-3.0, 0.5, 100.0):
            assert ncut_objective(g, c * v).value == pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self):
        g = graph_from_weights(two_cliques(eps=0.2))
        with pytest.raises(DegenerateVectorError):
            ncut_objective(g, np.zeros(6))
