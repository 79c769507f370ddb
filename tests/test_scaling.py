"""Tests for the scaling-factor learner and its pencil assembly."""

import numpy as np
import pytest

from specscale import (
    EigenPair,
    assemble_pencil,
    estimate_fiedler,
    generate_toy,
    learn_scaling,
    linearization_violation_fraction,
    pairwise_sqdiff,
    scaling,
    scaling_table,
    split,
    standardize,
    SplitSpec,
)
from specscale.errors import (
    DegenerateSupervisionError,
    NoEigenpairError,
    NonNormalizableError,
    NoScalingError,
)

SIGMA_UNIT = np.sqrt(0.5)  # 2 sigma^2 = 1


def wide_pencil(n_features=8):
    """More features than samples: exact eigenpairs exist."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, n_features))
    v = np.where(rng.random(6) < 0.5, 1.0, -0.2)
    v[:2] = [1.0, -0.2]
    return assemble_pencil(X, v, 1.0)


def tall_pencil():
    """Many more samples than features: no candidate certifies."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 4))
    labels = np.where(rng.random(60) < 0.3, 1, 2)
    labels[:2] = [1, 2]
    fv = estimate_fiedler(labels, negative_value=-0.2)
    return assemble_pencil(X, fv, 1.0)


class TestEstimateFiedler:
    def test_plus_minus_one(self):
        fv = estimate_fiedler([1, 1, 2, 2], negative_value=-1.0)
        np.testing.assert_array_equal(fv.values, [1.0, 1.0, -1.0, -1.0])

    def test_auto_balanced_degrees(self):
        fv = estimate_fiedler([1, 2], "auto", degrees=np.array([3.0, 3.0]))
        np.testing.assert_array_equal(fv.values, [1.0, -1.0])
        assert fv.negative_value == -1.0

    def test_default_negative_value(self):
        fv = estimate_fiedler([1, 1, 2], negative_value=-0.2)
        np.testing.assert_array_equal(fv.values, [1.0, 1.0, -0.2])

    def test_auto_weighted_degrees(self):
        fv = estimate_fiedler([1, 2, 2], "auto", degrees=np.array([2.0, 1.0, 3.0]))
        assert fv.negative_value == pytest.approx(-0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateSupervisionError):
            estimate_fiedler([1, 1, 1], -0.2)

    def test_auto_requires_degrees(self):
        with pytest.raises(ValueError):
            estimate_fiedler([1, 2], "auto")


class TestAssemblePencil:
    def test_two_sample_hand_values(self):
        fv = estimate_fiedler([1, 2], negative_value=-1.0)
        ps = assemble_pencil(np.array([[0.0], [1.0]]), fv, SIGMA_UNIT)
        np.testing.assert_allclose(ps.A, [[-1.0], [1.0]])
        np.testing.assert_allclose(ps.B, [[1.0], [-1.0]])
        np.testing.assert_allclose(ps.alpha, [-1.0, 1.0])
        np.testing.assert_allclose(ps.beta, [1.0, -1.0])
        np.testing.assert_allclose(ps.gamma, [0.0])
        assert ps.rho == 0.0

    def test_all_ones_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        ps = assemble_pencil(X, np.ones(5), 1.0)
        np.testing.assert_allclose(ps.alpha, 4.0 * np.ones(5))
        np.testing.assert_allclose(ps.beta, ps.alpha)

    def test_zero_data(self):
        v = np.array([1.0, 1.0, -0.2])
        ps = assemble_pencil(np.zeros((3, 2)), v, 1.0)
        np.testing.assert_array_equal(ps.A, np.zeros((3, 2)))
        np.testing.assert_array_equal(ps.B, np.zeros((3, 2)))
        np.testing.assert_array_equal(ps.gamma, np.zeros(2))
        assert ps.rho == pytest.approx(2 * v.sum())

    def test_column_sum_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            m = int(rng.integers(1, 8))
            X = rng.normal(size=(n, m))
            v = np.where(rng.random(n) < 0.5, 1.0, -0.2)
            v[0], v[1] = 1.0, -0.2
            ps = assemble_pencil(X, v, float(rng.uniform(0.3, 3.0)))
            drift = np.abs((ps.A - ps.B).sum(axis=0)).max()
            assert drift <= 1e-10 * np.linalg.norm(ps.A)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        v = np.array([1.0, 1.0, -0.2, -0.2, -0.2, 1.0])
        perm = rng.permutation(6)
        a = assemble_pencil(X, v, 1.0)
        b = assemble_pencil(X[perm], v[perm], 1.0)
        np.testing.assert_allclose(b.A, a.A[perm], atol=1e-12)
        np.testing.assert_allclose(b.B, a.B[perm], atol=1e-12)
        np.testing.assert_allclose(b.alpha, a.alpha[perm], atol=1e-12)
        np.testing.assert_allclose(b.beta, a.beta[perm], atol=1e-12)
        np.testing.assert_allclose(b.gamma, a.gamma, atol=1e-10)
        assert b.rho == pytest.approx(a.rho)

    def test_precomputed_differences_match(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 4))
        v = np.where(rng.random(7) < 0.5, 1.0, -1.0)
        v[:2] = [1.0, -1.0]
        diffs = pairwise_sqdiff(X, 1.0)
        a = assemble_pencil(X, v, 2.5)
        b = assemble_pencil(X, v, 2.5, diffs=diffs)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.gamma, b.gamma)

    def test_blocks_assemble_into_pencil_matrices(self):
        fv = estimate_fiedler([1, 2], negative_value=-1.0)
        ps = assemble_pencil(np.array([[0.0], [1.0]]), fv, SIGMA_UNIT)
        np.testing.assert_allclose(
            ps.F(), np.array([[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]), atol=1e-15
        )
        np.testing.assert_allclose(
            ps.G(), np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]]), atol=1e-15
        )


class TestLearnScaling:
    def test_degenerate_two_sample_system(self):
        # here G = -F, so the only pair the pencil determines is mu = -1 on the
        # row space [1, 1]/sqrt(2), giving s = -1; mu = -1 = 1 - lambda_2 since
        # lambda_2 = 2 on every two-vertex graph (mu = 1 would be the trivial
        # lambda = 0, reached only by the joint-null direction [1, -1])
        fv = estimate_fiedler([1, 2], negative_value=-1.0)
        ps = assemble_pencil(np.array([[0.0], [1.0]]), fv, SIGMA_UNIT)
        sv = learn_scaling(ps)
        assert sv.eigenvalue == pytest.approx(-1.0)
        np.testing.assert_allclose(sv.factors, [-1.0], atol=1e-10)
        assert sv.residual <= 1e-6
        assert sv.certified

    def test_balanced_labels_admit_exact_certificate(self):
        # with a degree-balanced target the pencil always has the exact pair
        # (mu = -1/(n-1), s = 0), so tall systems still certify
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        labels = np.array([1] * 10 + [2] * 10)
        fv = estimate_fiedler(labels, "auto", degrees=np.ones(20))
        ps = assemble_pencil(X, fv, 1.0)
        sv = learn_scaling(ps)
        assert sv.certified
        assert sv.residual <= 1e-6
        assert sv.constraint_violation <= 1e-6 * (np.linalg.norm(ps.gamma) + abs(ps.rho))

    def test_certificate_definitions(self):
        ps = wide_pencil()
        sv = learn_scaling(ps)
        F, G = ps.F(), ps.G()
        vec = np.concatenate([sv.factors, [-1.0]])
        num = np.linalg.norm((F - sv.eigenvalue * G) @ vec)
        den = np.linalg.norm(F) + abs(sv.eigenvalue) * np.linalg.norm(G)
        assert num / (den * np.linalg.norm(vec)) == pytest.approx(sv.residual, abs=1e-12)
        assert abs(ps.gamma @ sv.factors - ps.rho) == pytest.approx(
            sv.constraint_violation, abs=1e-12
        )

    def test_wide_factors_avoid_joint_nullspace(self):
        # s is defined only up to the joint nullspace N of F and G; the
        # selected [s; -1] must be its minimal-norm representative
        ps = wide_pencil(n_features=20)
        F, G = ps.F(), ps.G()
        _, singular, vt = np.linalg.svd(np.vstack([F, G]))
        rank = int(np.count_nonzero(singular > 1e-10 * singular[0]))
        N = vt[rank:].T
        assert N.shape[1] == 11
        sv = learn_scaling(ps)
        vec = np.concatenate([sv.factors, [-1.0]])
        assert np.linalg.norm(N.T @ vec) <= 1e-10 * np.linalg.norm(vec)
        assert sv.certified

    def test_tall_system_reports_approximate_solution(self):
        sv = learn_scaling(tall_pencil())
        assert np.all(np.isfinite(sv.factors))
        assert sv.residual > 1e-6  # overdetermined: only approximate solutions
        assert not sv.certified

    @pytest.mark.parametrize("make_pencil", [tall_pencil, wide_pencil], ids=["tall", "wide"])
    def test_one_solve_per_fit(self, monkeypatch, make_pencil):
        # certified or not, a fit solves the pencil once and filters the result
        solve = scaling.rect_pencil_eig
        calls = []

        def counting(F, G):
            calls.append(F.shape)
            return solve(F, G)

        monkeypatch.setattr(scaling, "rect_pencil_eig", counting)
        learn_scaling(make_pencil())
        assert len(calls) == 1

    def test_no_finite_candidate_raises_no_scaling(self, monkeypatch):
        def no_pairs(F, G):
            raise NoEigenpairError("no finite candidate")

        monkeypatch.setattr(scaling, "rect_pencil_eig", no_pairs)
        with pytest.raises(NoScalingError):
            learn_scaling(wide_pencil())

    def test_vanishing_last_components_raise_non_normalizable(self, monkeypatch):
        ps = wide_pencil()
        dims = ps.n_features + 1
        pairs = [EigenPair(mu, np.eye(dims)[i], 0.0) for i, mu in enumerate([1.0, 0.5])]
        monkeypatch.setattr(scaling, "rect_pencil_eig", lambda F, G: pairs)
        with pytest.raises(NonNormalizableError):
            learn_scaling(ps)

    def test_duplicate_feature_columns_get_equal_factors(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(30, 2))
        X = np.column_stack([base, base[:, 0]])  # column 3 duplicates column 1
        labels = np.where(rng.random(30) < 0.4, 1, 2)
        labels[:2] = [1, 2]
        fv = estimate_fiedler(labels, negative_value=-0.2)
        sv1 = learn_scaling(assemble_pencil(X, fv, 1.0))
        sv2 = learn_scaling(assemble_pencil(X, fv, 1.0))
        np.testing.assert_array_equal(sv1.factors, sv2.factors)  # deterministic
        assert sv1.factors[0] == pytest.approx(sv1.factors[2], abs=1e-8)

    def test_toy_noise_features_attenuated(self):
        data = standardize(generate_toy(400, seed=1))
        train, _ = split(data, SplitSpec(0.5, seed=1), repetition=0)
        fv = estimate_fiedler(data.labels[train], negative_value=-0.2)
        sv = learn_scaling(assemble_pencil(data.values[train], fv, 1.0))
        assert np.abs(sv.factors[3:]).mean() < 0.5 * np.abs(sv.factors[:3]).mean()


class TestDiagnostics:
    def test_violation_fraction_bounds(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 4))
        s = np.ones(4)
        frac_small = linearization_violation_fraction(X, s, sigma=100.0)
        frac_large = linearization_violation_fraction(X, s, sigma=0.01)
        assert frac_small <= 1.0 and frac_large == 1.0
        # huge sigma puts every pair inside the validity region
        assert frac_small == 0.0

    def test_scaling_table_format(self):
        from specscale import ScalingVector

        sv = ScalingVector(
            factors=np.array([0.5, -0.25]),
            eigenvalue=0.9,
            residual=1e-8,
            constraint_violation=0.0,
        )
        table = scaling_table(sv, ["height", "width"])
        lines = table.strip().split("\n")
        assert lines[0] == "feature\tscaling_factor"
        assert lines[1] == "height\t0.5"
        assert lines[2] == "width\t-0.25"
