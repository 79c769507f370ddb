"""Eigensolver tests against independent dense oracles."""

import functools
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse
import scipy.sparse.csgraph

from specscale import (
    EigenPair,
    SymmetricCSR,
    assemble_pencil,
    build_similarity,
    eigensolvers,
    generate_toy,
    learn_scaling,
    pencil_residual,
    rect_pencil_eig,
    scaling,
    standardize,
    sym_gen_eig,
)
from specscale.similarity import sqdist_blocks
from specscale.errors import (
    DegenerateDegreeError,
    DegeneratePencilError,
    EigenConvergenceError,
    InternalConsistencyError,
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


def graph_laplacian(rng, n):
    """The dense Laplacian diag(W 1) - W of a complete graph on n vertices
    with random weights in [0.1, 1)."""
    W = np.triu(rng.uniform(0.1, 1.0, size=(n, n)), 1)
    W += W.T
    return np.diag(W.sum(axis=1)) - W


class TestSymGenEig:
    def test_path_graph(self, csr_from_dense):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        pairs = sym_gen_eig(csr_from_dense(L), k=1)
        assert len(pairs) == 1
        np.testing.assert_allclose(pairs[0].value, 2.0, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(pairs[0].vector), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12
        )
        assert pairs[0].vector[0] > 0  # sign convention

    def test_two_disjoint_edges_have_no_third_pair(self, csr_from_dense):
        # two components leave 4 - 2 nontrivial eigenvalues
        edge = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InsufficientSpectrumError):
            sym_gen_eig(csr_from_dense(scipy.linalg.block_diag(edge, edge)), k=3)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_matches_whitened_oracle(self, csr_from_dense, blocks):
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
            pairs = sym_gen_eig(csr_from_dense(L), k=k)
            got = np.array([p.value for p in pairs])
            np.testing.assert_allclose(got, keep[:k], atol=1e-8)
            # CSR storing all 36 entries, diagonal first: the zeros between
            # components are explicit
            first = np.argsort(~np.eye(6, dtype=bool), axis=1, kind="stable")
            stored = SymmetricCSR(
                np.arange(0, 37, 6), first.ravel(), np.take_along_axis(L, first, 1).ravel()
            )
            sparse_pairs = sym_gen_eig(stored, k=k)
            for a, b in zip(pairs, sparse_pairs):
                assert a.value == b.value
                np.testing.assert_array_equal(a.vector, b.vector)
            with pytest.raises(InsufficientSpectrumError):
                sym_gen_eig(stored, k=7 - blocks)  # one more than 6 - blocks

    def test_vectors_are_degree_orthonormal(self, csr_from_dense):
        L = graph_laplacian(np.random.default_rng(3), 8)
        d = np.diag(L)
        pairs = sym_gen_eig(csr_from_dense(L), k=4)
        V = np.column_stack([p.vector for p in pairs])
        gram = V.T @ (d[:, None] * V)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_residual_is_reassertable(self, csr_from_dense):
        L = graph_laplacian(np.random.default_rng(5), 7)
        d = np.diag(L)
        for p in sym_gen_eig(csr_from_dense(L), k=3):
            unit = p.vector / np.linalg.norm(p.vector)
            num = np.linalg.norm(L @ unit - p.value * d * unit)
            res = num / (np.linalg.norm(L) + abs(p.value) * np.linalg.norm(d))
            assert res == pytest.approx(p.residual, abs=1e-14)
            assert p.residual <= 1e-8

    def test_nonpositive_degree_rejected(self, csr_from_dense):
        # an edge and an isolated vertex, whose degree is 0
        L = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateDegreeError):
            sym_gen_eig(csr_from_dense(L), k=1)

    def test_k_out_of_range(self, csr_from_dense):
        with pytest.raises(ValueError):
            sym_gen_eig(csr_from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]])), k=3)


@functools.lru_cache(maxsize=None)
def knn_blocks(c, csr_from_dense):
    """Laplacian and degrees of c disjoint toy k-NN graphs, 420 vertices in all,
    with the full-spectrum dense oracle of the whitened matrix."""
    graphs = [
        build_similarity(standardize(generate_toy(420 // c, seed=s)).values, np.full(10, 0.5), 7)
        for s in range(c)
    ]
    L = scipy.linalg.block_diag(*[g.laplacian.toarray() for g in graphs])
    d = np.concatenate([g.degrees for g in graphs])
    vals, vecs = whitened_spectrum(L, d)
    return csr_from_dense(L), d, vals, vecs


class TestComponents:
    @settings(max_examples=200)
    @given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                                       max_size=40))
    def test_numbered_as_numpys_unique_of_the_smallest_vertices(self, csr_from_dense, n, edges):
        # random graphs, isolated vertices too; csgraph is the oracle of which
        # vertices share a component, and np.unique numbers each component's
        # smallest vertex
        A = np.zeros((n, n))
        for i, j in edges:
            if i < n and j < n and i != j:
                A[i, j] = A[j, i] = -1.0
        L = A - np.diag(A.sum(axis=1))
        _, oracle = scipy.sparse.csgraph.connected_components(
            scipy.sparse.csr_matrix(A), directed=False
        )
        smallest = np.array([np.flatnonzero(oracle == c)[0] for c in oracle])
        roots, inverse = np.unique(smallest, return_inverse=True)
        count, component = eigensolvers._components(csr_from_dense(L))
        assert count == roots.size
        assert component.dtype == inverse.dtype
        np.testing.assert_array_equal(component, inverse)


class TestLanczosPath:
    """Graphs above the dense size limit go to Lanczos; dense eigh is the oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_agrees_with_dense_oracle(self, csr_from_dense, c, k):
        L, d, vals, vecs = knn_blocks(c, csr_from_dense)
        n = L.shape[0]
        assert n > eigensolvers._DENSE_MAX_N
        oracle = scipy.sparse.csr_matrix(L.toarray())
        assert scipy.sparse.csgraph.connected_components(oracle, directed=False)[0] == c
        pairs = sym_gen_eig(L, k)
        got = np.array([p.value for p in pairs])
        np.testing.assert_allclose(got, vals[c : c + k], rtol=0, atol=1e-12)
        V = np.column_stack([p.vector for p in pairs])
        root = np.sqrt(d)[:, None]
        angles = scipy.linalg.subspace_angles(root * V, root * vecs[:, c : c + k])
        assert np.max(angles) <= 1e-8
        assert max(p.residual for p in pairs) <= 1e-8
        np.testing.assert_allclose(V.T @ (d[:, None] * V), np.eye(k), atol=1e-10)
        again = sym_gen_eig(L, k)
        for a, b in zip(pairs, again):
            assert a.value == b.value and a.residual == b.residual
            np.testing.assert_array_equal(a.vector, b.vector)

    @pytest.mark.parametrize("first_rows", [1, 3])
    def test_growing_basis_repeats_the_solve(self, monkeypatch, csr_from_dense, first_rows):
        # a basis that starts small and doubles holds the same rows as one
        # allocated for every step at once, so the solve repeats bit for bit
        L, _, _, _ = knn_blocks(2, csr_from_dense)
        monkeypatch.setattr(eigensolvers, "_LANCZOS_FIRST_ROWS", eigensolvers._LANCZOS_MAX_STEPS)
        whole = sym_gen_eig(L, 2)
        monkeypatch.setattr(eigensolvers, "_LANCZOS_FIRST_ROWS", first_rows)
        for a, b in zip(whole, sym_gen_eig(L, 2)):
            assert a.value == b.value and a.residual == b.residual
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_no_convergence_is_typed(self, monkeypatch, csr_from_dense):
        # three basis vectors leave both wanted Ritz pairs far from converged
        monkeypatch.setattr(eigensolvers, "_LANCZOS_MAX_STEPS", 3)
        L, _, _, _ = knn_blocks(1, csr_from_dense)
        with pytest.raises(EigenConvergenceError, match="0 of 2 eigenpairs") as info:
            sym_gen_eig(L, 2)
        assert not isinstance(info.value, InternalConsistencyError)


class TestSymCertificateScale:
    """The residual certificate is homogeneous in L, whose diagonal is d, and
    must not overflow."""

    @pytest.mark.parametrize("n", [60, 500])  # dense eigh and Lanczos
    def test_scaled_pair_gives_same_pairs(self, n):
        graph = build_similarity(standardize(generate_toy(n, seed=0)).values, np.full(10, 0.5), 7)
        L = graph.laplacian
        ref = sym_gen_eig(L, k=2)
        # powers of two scale every entry exactly, so the whole solve repeats
        # bit for bit; decimal factors perturb the whitened matrix by rounding,
        # which moves residuals of ~1e-16 by O(1) relative
        for c in (2.0**-664, 2.0**664, 1e-200, 1e200):  # 2^+-664 ~ 1e+-200
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pairs = sym_gen_eig(SymmetricCSR(L.indptr, L.indices, c * L.data), k=2)
            for a, b in zip(ref, pairs):
                assert b.value == pytest.approx(a.value, rel=1e-12)
                if c in (2.0**-664, 2.0**664):
                    assert b.residual == pytest.approx(a.residual, rel=1e-12)
                else:
                    assert 0.0 < b.residual <= 1e-13

    def test_huge_weights_run_without_overflow(self):
        # equal negative factors sized so that the farthest pair has
        # delta_t = -500 and weight exp(500) ~ 1e217 at unit width: each
        # row keeps its most negative delta_t, so that pair is an edge, and the
        # sum of squares of L's entries overflows
        values = np.random.default_rng(3).standard_normal((16, 40))
        factors = np.full(40, -500.0 / sqdist_blocks(values, np.ones(40))(slice(None)).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = build_similarity(values, factors, 7)
            pairs = sym_gen_eig(graph.laplacian, k=2)
        assert np.max(np.abs(graph.laplacian.data)) > 1e200
        for pair in pairs:
            assert np.isfinite(pair.value)
            assert 0.0 < pair.residual <= 1e-8


class TestRectPencilEig:
    def test_diagonal_square_pencil(self):
        pairs = rect_pencil_eig(np.diag([2.0, 3.0]), np.eye(2))
        values = sorted(np.real(p.value) for p in pairs)
        np.testing.assert_allclose(values, [2.0, 3.0], atol=1e-10)
        for p in pairs:
            peak = np.argmax(np.abs(p.vector))
            np.testing.assert_allclose(abs(p.vector[peak]), 1.0, atol=1e-10)

    def test_two_sample_like_rectangular_system(self):
        # hand algebra: rows impose (1 + mu) s = 1 - mu on [s; -1], so every mu
        # has an exact pair and the pencil determines no eigenvalue. G annihilates
        # e_0 + e_1 and F maps it into G's range, so the Galerkin reduction is
        # singular; QZ on it returns alpha = beta = 9.5e-17, a ratio of rounding
        # residues, as the pair mu = 1
        F = np.array([[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]])
        G = np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]])
        for mu in (-0.5, 0.0, 1.0, 3.0):
            w = np.array([mu - 1.0, 1.0 + mu])
            assert np.linalg.norm(F @ w - mu * (G @ w)) <= 1e-15
        with pytest.raises(NoEigenpairError, match="singular"):
            rect_pencil_eig(F, G)

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
        assert [p.value for p in pairs] == [1.0]
        for p in pairs:
            assert p.residual is None
            assert dense_residual(F, G, p.value, p.vector) <= 1e-6
            np.testing.assert_allclose(np.linalg.norm(p.vector), 1.0, atol=1e-12)

    def test_pairs_come_nearest_target_first(self):
        # key (|Re mu - 1|, Re mu, Im mu): 0 and 2 tie at distance 1 from 1
        F = np.diag([3.0, 2.0, 0.0, 1.0, -3.0])
        pairs = rect_pencil_eig(F, np.eye(5))
        np.testing.assert_allclose([p.value for p in pairs], [1.0, 0.0, 2.0, 3.0, -3.0])

    def test_mildly_wide_pencil_certificates(self):
        # more columns than rows but no joint nullspace
        rng = np.random.default_rng(4)
        F = rng.normal(size=(5, 7))
        G = rng.normal(size=(5, 7))
        pairs = rect_pencil_eig(F, G)
        assert pairs
        assert all(dense_residual(F, G, p.value, p.vector) <= 1e-6 for p in pairs)

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
        rng = np.random.default_rng(19)
        if shape == "tall":
            # no vector has a component in the joint nullspace N of F and G
            F = rng.normal(size=(6, 3))
            G = rng.normal(size=(6, 3))
            F = np.column_stack([F, F[:, 0]])
            G = np.column_stack([G, G[:, 0]])
            _, sv, vt = np.linalg.svd(np.vstack([F, G]))
            rank = int(np.count_nonzero(sv > 1e-10 * sv[0]))
            N = vt[rank:].T
            assert N.shape[1] == 1
            pairs = rect_pencil_eig(F, G)
            assert pairs
            for p in pairs:
                assert np.linalg.norm(N.T @ p.vector) <= 1e-10
        else:
            # one pair at mu = 1: w = [s; -1] with K[:, :-1] s = K[:, -1]
            # for K = F - G, and s free of the nullspace of K[:, :-1]
            F = rng.normal(size=(3, 8))
            G = rng.normal(size=(3, 8))
            (pair,) = rect_pencil_eig(F, G)
            assert pair.value == 1.0
            K = F - G
            s = -pair.vector[:-1] / pair.vector[-1]
            lhs = K[:, :-1] @ s
            assert np.linalg.norm(lhs - K[:, -1]) <= 1e-12 * np.linalg.norm(K[:, -1])
            _, _, vt = np.linalg.svd(K[:, :-1])
            N = vt[3:].T
            assert N.shape[1] == 4
            assert np.linalg.norm(N.T @ s) <= 1e-12 * np.linalg.norm(s)

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
        # F - mu G = [[1, -mu], [0, 0]]: G annihilates e_0, which F maps into
        # G's range, so the Galerkin reduction is singular
        with pytest.raises(NoEigenpairError):
            rect_pencil_eig(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))


def dense_residual(F, G, mu, w):
    """||(F - mu G) w|| / (||F||_F + |mu| ||G||_F) in complex arithmetic."""
    M = F.astype(complex) - mu * G.astype(complex)
    unit = np.asarray(w, dtype=complex) / np.linalg.norm(w)
    return np.linalg.norm(M @ unit) / (np.linalg.norm(F) + abs(mu) * np.linalg.norm(G))


class TestPencilCertificates:
    """One lift, and a real-arithmetic residual checked against dense complex algebra."""

    @pytest.mark.parametrize("shape", [(15, 15), (15, 6)], ids=["square", "tall"])
    def test_residuals_match_dense_complex_evaluation(self, shape):
        rng = np.random.default_rng(23)
        F = rng.normal(size=shape)
        G = rng.normal(size=shape)
        pairs = rect_pencil_eig(F, G)
        complex_pairs = [p for p in pairs if np.iscomplexobj(p.value)]
        assert complex_pairs and len(complex_pairs) < len(pairs)
        for p in pairs:
            assert np.linalg.norm(p.vector) == pytest.approx(1.0, abs=1e-14)
            assert np.iscomplexobj(p.vector) == np.iscomplexobj(p.value)
            if not np.iscomplexobj(p.value):
                assert pencil_residual(F, G, p.value, p.vector) == pytest.approx(
                    dense_residual(F, G, p.value, p.vector), rel=1e-12, abs=1e-15
                )
        for p in complex_pairs:
            twin = min(complex_pairs, key=lambda q: abs(q.value - np.conj(p.value)))
            assert twin is not p
            assert abs(twin.value - np.conj(p.value)) <= 1e-12 * abs(p.value)
            np.testing.assert_allclose(twin.vector, np.conj(p.vector), rtol=0, atol=1e-15)
        # the residual is taken at w as given, not at a unit copy
        for _ in range(5):
            mu = float(rng.normal())
            w = rng.normal(size=shape[1]) * 3.0
            assert pencil_residual(F, G, mu, w) == pytest.approx(
                dense_residual(F, G, mu, w) * np.linalg.norm(w), rel=1e-12, abs=1e-15
            )

    def test_one_certificate_per_fit(self, monkeypatch):
        # rect_pencil_eig certifies nothing; learn_scaling certifies only the
        # candidate it returns, the first that survives its filters
        seen = []

        def counted(F, G, value, vector):
            seen.append((value, pencil_residual(F, G, value, vector)))
            return seen[-1][1]

        monkeypatch.setattr(eigensolvers, "pencil_residual", counted)
        monkeypatch.setattr(scaling, "pencil_residual", counted)
        rng = np.random.default_rng(31)
        for n_samples, n_features, wide in [(60, 4, False), (6, 8, True)]:
            X = rng.normal(size=(n_samples, n_features))
            v = np.where(rng.random(n_samples) < 0.3, 1.0, -0.2)
            v[:2] = [1.0, -0.2]
            ps = assemble_pencil(X, v)
            seen.clear()
            pairs = rect_pencil_eig(ps.F, ps.G)
            assert seen == []
            sv = learn_scaling(ps)
            assert len(seen) == 1 and seen[0] == (sv.eigenvalue, sv.residual)
            assert sv.certified == wide
            # the first pair survives the filters here, so it is the one certified
            first = pairs[0]
            assert abs(first.vector[-1]) >= 1e-12
            assert sv.eigenvalue == float(np.real(first.value))
            np.testing.assert_array_equal(
                sv.factors, np.real(-(first.vector[:-1] / first.vector[-1]))
            )
            # the tall pencil offers more candidates than the one certified
            assert len(pairs) > 1 or wide
