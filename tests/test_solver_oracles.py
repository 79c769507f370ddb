"""The numpy solver stack against scipy, which the package does not import.

Each test states its tolerance relative to the scale of the quantity compared:
eigenvalues of the whitened graph matrix relative to its spectral radius (at
most 2), pencil eigenvalues relative to max(1, |mu|), vectors through
1 - |cos| of the angle to the oracle's vector, and graph weights exactly.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

from specscale import (
    build_similarity,
    eigensolvers,
    generate_toy,
    rect_pencil_eig,
    standardize,
    sym_gen_eig,
)
from specscale.similarity import _symmetrized, sqdist_blocks


def random_graph(sizes, seed, density):
    """Dense weights of disjoint random graphs, one per entry of ``sizes``: each
    a path (so that it is connected) plus random edges, all weights in
    [0.1, 1.1)."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for size in sizes:
        edges = rng.random((size, size)) < density
        block = np.where(edges, rng.uniform(0.1, 1.1, (size, size)), 0.0)
        block[np.arange(size - 1), np.arange(1, size)] = rng.uniform(0.1, 1.1, size - 1)
        block = np.triu(block, 1)
        W[start : start + size, start : start + size] = block + block.T
        start += size
    return W


def oracle_pairs(L, d, k):
    """Pairs c .. c+k-1 of L x = lambda D x from scipy: dense eigh of the
    whitened matrix, and ARPACK eigsh on the shifted operator the package uses."""
    n = d.size
    c, component = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(L - np.diag(np.diag(L))), directed=False
    )
    root = np.sqrt(d)
    N = L / root[:, None] / root[None, :]
    dense_vals, dense_vecs = scipy.linalg.eigh((N + N.T) / 2, subset_by_index=[c, c + k - 1])
    Y = np.zeros((n, c))
    Y[np.arange(n), component] = root
    Y /= np.linalg.norm(Y, axis=0)
    shifted = LinearOperator(
        (n, n), matvec=lambda x: x - N @ x - 3.0 * (Y @ (Y.T @ x)), dtype=float
    )
    mu, y = eigsh(shifted, k=k, which="LA", tol=0, v0=np.ones(n))
    order = np.argsort(-mu)
    dense = (dense_vals, dense_vecs / root[:, None])
    return c, dense, (1.0 - mu[order], y[:, order] / root[:, None])


def assert_agree(pairs, d, vals, vecs, value_tol, angle_tol):
    got = np.array([p.value for p in pairs])
    np.testing.assert_allclose(got, vals, rtol=0, atol=value_tol * 2.0)
    for p, ref in zip(pairs, vecs.T):
        cos = abs(p.vector @ (d * ref)) / np.sqrt((p.vector @ (d * p.vector)) * (ref @ (d * ref)))
        assert 1.0 - cos <= angle_tol


def spectral_gap(vals_all, c, k):
    """Smallest distance from a wanted eigenvalue to any other eigenvalue."""
    wanted = vals_all[c : c + k]
    others = np.delete(vals_all, np.arange(c, c + k))
    gaps = [np.min(np.abs(others - v)) for v in wanted]
    gaps += [np.min(np.abs(np.delete(wanted, i) - v)) for i, v in enumerate(wanted) if k > 1]
    return min(gaps)


class TestLanczosOracle:
    @given(
        sizes=st.lists(st.integers(6, 40), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.05, 0.6),
        k=st.integers(1, 3),
    )
    def test_multi_component_graphs(self, csr_from_dense, sizes, seed, density, k):
        W = random_graph(sizes, seed, density)
        d = W.sum(axis=1)
        L = np.diag(d) - W
        n = d.size
        k = min(k, n - len(sizes))
        c, (dense_vals, dense_vecs), (arpack_vals, arpack_vecs) = oracle_pairs(L, d, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eigensolvers, "_DENSE_MAX_N", 0)  # Lanczos at every size
            pairs = sym_gen_eig(csr_from_dense(L), k)
        # eigenvalues to 1e-10 of the spectral radius; vectors only where the
        # wanted eigenvalues stand apart, as the angle bound is residual / gap
        root = np.sqrt(d)
        all_vals = np.linalg.eigvalsh(L / root[:, None] / root[None, :])
        angle_tol = 1e-10 if spectral_gap(all_vals, c, k) > 1e-3 else 1.0
        assert_agree(pairs, d, dense_vals, dense_vecs, 1e-10, angle_tol)
        assert_agree(pairs, d, arpack_vals, arpack_vecs, 1e-10, angle_tol)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_signed_hub_graph(self, seed):
        # negative factors make delta_s negative and every kernel weight
        # exceed 1 (up to e^2); each row keeps its most negative delta_s, so a
        # few samples become hubs
        values = standardize(generate_toy(440, seed=seed)).values
        delta = sqdist_blocks(values, np.ones(values.shape[1]))(slice(None))
        graph = build_similarity(values, np.full(values.shape[1], -2.0 / delta.max()), 7)
        W = graph.weights.toarray()
        assert W.max() > 2.0
        assert np.max(np.count_nonzero(W, axis=1)) > 50  # a hub
        L, d = graph.laplacian.toarray(), graph.degrees
        assert d.size > eigensolvers._DENSE_MAX_N
        c, (dense_vals, dense_vecs), (arpack_vals, arpack_vecs) = oracle_pairs(L, d, 2)
        pairs = sym_gen_eig(graph.laplacian, 2)
        assert_agree(pairs, d, dense_vals, dense_vecs, 1e-12, 1e-12)
        assert_agree(pairs, d, arpack_vals, arpack_vecs, 1e-12, 1e-12)


@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 0.5),
)
def test_component_labels_match_csgraph(csr_from_dense, sizes, seed, density):
    # sizes of 1 are isolated vertices; shuffling mixes the components' vertices
    W = random_graph(sizes, seed, density)
    perm = np.random.default_rng(seed).permutation(W.shape[0])
    W = W[np.ix_(perm, perm)]
    count, labels = eigensolvers._components(csr_from_dense(W))
    oracle_count, oracle_labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(W), directed=False
    )
    assert count == oracle_count
    np.testing.assert_array_equal(labels, oracle_labels)


def qz_pairs(F, G):
    """Finite eigenpairs of the square pencil (F, G) by scipy's QZ."""
    (alphas, betas), vecs = scipy.linalg.eig(F, G, homogeneous_eigvals=True)
    finite = np.abs(betas) > 1e-12 * np.abs(alphas)
    return alphas[finite] / betas[finite], vecs[:, finite]


def assert_pairs_match(pairs, mus, vecs):
    """Every pair matches one QZ pair: mu to 1e-9 relative to max(1, |mu|),
    its vector to 1 - |cos| <= 1e-9."""
    assert len(pairs) == mus.size
    for p in pairs:
        i = np.argmin(np.abs(mus - p.value))
        assert abs(mus[i] - p.value) <= 1e-9 * max(1.0, abs(mus[i]))
        ref = vecs[:, i] / np.linalg.norm(vecs[:, i])
        assert 1.0 - abs(np.vdot(ref, p.vector)) <= 1e-9


class TestTallPencilOracle:
    @pytest.mark.parametrize("rows", [9, 14, 30])
    def test_full_rank_pairs_match_qz(self, rows):
        # the Galerkin pencil (G^T F, G^T G) of a tall pencil, with complex pairs
        rng = np.random.default_rng(rows)
        F, G = rng.normal(size=(rows, 9)), rng.normal(size=(rows, 9))
        pairs = rect_pencil_eig(F, G)
        mus, vecs = qz_pairs(G.T @ F, G.T @ G)
        assert np.any(np.abs(mus.imag) > 1e-3)
        assert_pairs_match(pairs, mus, vecs)
        complex_pairs = [p for p in pairs if np.iscomplexobj(p.value)]
        for p in complex_pairs:
            twin = min(complex_pairs, key=lambda q: abs(q.value - np.conj(p.value)))
            assert abs(twin.value - np.conj(p.value)) <= 1e-12 * abs(p.value)

    @pytest.mark.parametrize("shape", [(9, 9), (20, 9)], ids=["square", "tall"])
    @pytest.mark.parametrize("nullity", [1, 2])
    def test_rank_deficient_G_matches_petrov_galerkin_qz(self, shape, nullity):
        # G annihilates `nullity` directions that F does not. The pencil's
        # pairs then solve Z^T (F - mu G) w = 0 for the test space Z of G's range
        # and (I - U U^T) F N, a square pencil with `nullity` infinite
        # eigenvalues that QZ drops; for a square pencil that is F w = mu G w
        rng = np.random.default_rng(7 * shape[0] + nullity)
        F = rng.normal(size=shape)
        N = np.linalg.qr(rng.normal(size=(shape[1], nullity)))[0]
        G = rng.normal(size=shape) @ (np.eye(shape[1]) - N @ N.T)
        U = np.linalg.svd(G, full_matrices=False)[0][:, : shape[1] - nullity]
        Z = np.column_stack([U, F @ N - U @ (U.T @ (F @ N))])
        pairs = rect_pencil_eig(F, G)
        mus, vecs = qz_pairs(Z.T @ F, Z.T @ G)
        assert mus.size == shape[1] - nullity
        assert_pairs_match(pairs, mus, vecs)
        if shape[0] == shape[1]:
            scale = np.linalg.norm(F) + np.linalg.norm(G)
            for p in pairs:
                residual = F @ p.vector - p.value * (G @ p.vector)
                assert np.linalg.norm(residual) <= 1e-12 * scale * max(1.0, abs(p.value))


@given(
    n=st.integers(2, 30),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
)
def test_symmetrized_graph_matches_sparse_sum(symmetrized_oracle, n, k, seed, zeros):
    # random k-NN lists, with mutual pairs, and some weights zero (underflowed),
    # up to rows whose every kept weight is zero and that keep the diagonal only
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    cols = np.array([rng.permutation(np.delete(np.arange(n), i))[:k] for i in range(n)])
    weights = np.where(rng.random((n, k)) < zeros, 0.0, rng.uniform(0.0, 3.0, (n, k)))
    kept = scipy.sparse.csr_matrix(
        (weights.ravel(), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n)
    )
    old = (kept + kept.T) / 2.0
    old.eliminate_zeros()
    W = _symmetrized(cols, weights)
    np.testing.assert_array_equal(W.toarray(), old.toarray())
    assert W.nnz == old.nnz
    assert np.all(W.indices[W.indptr[:-1]] == np.arange(n))  # diagonal first
    x = rng.normal(size=n)
    np.testing.assert_allclose(W @ x, old @ x, rtol=1e-14, atol=1e-14 * np.abs(weights).sum())
    oracle = symmetrized_oracle(cols, weights)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(W, name), getattr(oracle, name), strict=True)
