"""Spectral embedding tests."""

import numpy as np
import pytest
import scipy.linalg

from specscale import SimilarityGraph, embed
from specscale.errors import InsufficientSpectrumError


@pytest.fixture
def graph_from_weights(csr_from_dense):
    """A hand graph: the dense weights W in CSR, with their row sums as degrees."""
    return lambda W: SimilarityGraph(weights=csr_from_dense(W), degrees=W.sum(axis=1))


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
    def test_weakly_bridged_cliques_separate_by_sign(self, graph_from_weights, eps):
        # at eps=1e-10 the Fiedler value (~6.7e-11) is far below 1e-9 * lambda_max,
        # yet the graph is connected, so only the constant vector is deflated
        g = graph_from_weights(two_cliques(eps=eps))
        emb = embed(g, ell=1)
        u = emb.vectors[:, 0]
        assert np.all(np.sign(u[:3]) == np.sign(u[0]))
        assert np.all(np.sign(u[3:]) == -np.sign(u[0]))
        assert emb.eigenvalues[0] > 0

    def test_disjoint_cliques_match_full_decomposition(self, graph_from_weights):
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

    def test_complete_graph_eigenvalue(self, graph_from_weights):
        n = 5
        W = np.ones((n, n)) - np.eye(n)
        g = graph_from_weights(W)
        emb = embed(g, ell=1)
        assert emb.eigenvalues[0] == pytest.approx(n / (n - 1), abs=1e-8)
        # returned vector is orthogonal to the constant vector under D
        assert abs(g.degrees @ emb.vectors[:, 0]) < 1e-8

    def test_ell_equal_n_is_insufficient(self, graph_from_weights):
        g = graph_from_weights(two_cliques(eps=0.1))
        with pytest.raises(InsufficientSpectrumError):
            embed(g, ell=6)

    def test_columns_degree_orthonormal(self, graph_from_weights):
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

    def test_sign_convention(self, graph_from_weights):
        g = graph_from_weights(two_cliques(eps=1e-3))
        emb = embed(g, ell=2)
        for col in emb.vectors.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
            assert lead > 0

    def test_rayleigh_quotient_is_the_eigenvalue(self, graph_from_weights):
        # u^T L u / u^T D u of each vector is its eigenvalue, and e^T D u = 0
        g = graph_from_weights(two_cliques(eps=1e-3))
        emb = embed(g, ell=2)
        for u, value in zip(emb.vectors.T, emb.eigenvalues):
            du = g.degrees * u
            assert (u @ (g.laplacian @ u)) / (u @ du) == pytest.approx(value, abs=1e-8)
            assert abs(du.sum()) < 1e-8

    def test_invalid_ell(self, graph_from_weights):
        g = graph_from_weights(two_cliques(eps=0.1))
        with pytest.raises(ValueError):
            embed(g, ell=0)

