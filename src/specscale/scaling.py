"""Learning per-feature scaling factors from partial labels.

A label-derived target vector is declared to be the Fiedler vector of the
similarity graph of the (scaled) training data. Under a first-order expansion
of the Gaussian kernel the unknown factors appear linearly, which turns the
constrained Laplacian eigenproblem into an eigenproblem of a rectangular
matrix pencil

    [A alpha; gamma^T rho] [s; -1]  =  mu [B beta; 0^T 0] [s; -1],

whose eigenvector carries the factors s and whose eigenvalue mu equals one
minus the targeted Laplacian eigenvalue. ``learn_scaling`` solves that pencil
and selects the candidate with mu closest to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolvers import numerical_rank, pencil_residual, rect_pencil_eig
from .errors import (
    DegenerateSupervisionError,
    InternalConsistencyError,
    NoEigenpairError,
    NonNormalizableError,
    NoScalingError,
)
from .similarity import (
    PairwiseDifferences,
    as_values,
    pairwise_sqdiff,
    row_blocks,
    scaled_sqdist,
)

DEFAULT_RESIDUAL_TOL = 1e-6
_LAST_COMPONENT_TOL = 1e-12


@dataclass(frozen=True)
class FiedlerEstimate:
    """Two-valued stand-in for the Fiedler vector, one value per label group."""

    values: np.ndarray
    negative_value: float
    positive_value: float = 1.0


def estimate_fiedler(labels, negative_value=-0.2, degrees=None) -> FiedlerEstimate:
    """Build the target vector: positive class maps to 1, the other to a fixed
    negative value.

    ``negative_value="auto"`` computes -b with b the ratio of degree sums of
    the two groups, which makes the zero-mean constraint e^T D v = 0 hold
    exactly for the supplied degrees. The positive class is the smaller label
    value.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size != 2:
        raise DegenerateSupervisionError(
            f"need exactly two classes in the training labels, got {classes.size}"
        )
    positive_mask = labels == classes[0]
    if negative_value == "auto":
        if degrees is None:
            raise ValueError("negative_value='auto' requires degrees")
        degrees = np.asarray(degrees, dtype=float)
        if degrees.shape != labels.shape or np.any(degrees <= 0):
            raise ValueError("degrees must be positive and match the labels")
        b = degrees[positive_mask].sum() / degrees[~positive_mask].sum()
        neg = -float(b)
    else:
        neg = float(negative_value)
    v = np.where(positive_mask, 1.0, neg)
    return FiedlerEstimate(values=v, negative_value=neg)


@dataclass(frozen=True)
class PencilSystem:
    """The blocks of F = [A alpha; gamma^T rho] and G = [B beta; 0^T 0].

    A, B and gamma carry the kernel scale 1/(2 sigma^2); alpha, beta and rho
    do not depend on the width.
    """

    A: np.ndarray
    B: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    rho: float

    @property
    def n_samples(self):
        return self.A.shape[0]

    @property
    def n_features(self):
        return self.A.shape[1]

    def F(self):
        n, m = self.A.shape
        out = np.empty((n + 1, m + 1))
        out[:n, :m] = self.A
        out[:n, m] = self.alpha
        out[n, :m] = self.gamma
        out[n, m] = self.rho
        return out

    def G(self):
        n, m = self.B.shape
        out = np.zeros((n + 1, m + 1))
        out[:n, :m] = self.B
        out[:n, m] = self.beta
        return out


def assemble_pencil(X, fiedler, sigma, diffs: PairwiseDifferences | None = None) -> PencilSystem:
    """Assemble the pencil blocks from training data and the target vector.

    ``diffs`` may carry precomputed pairwise squared differences for the same
    X (any kernel width); they are rescaled to ``sigma`` without summing the
    tensor again.
    """
    values = as_values(X)
    v = fiedler.values if isinstance(fiedler, FiedlerEstimate) else np.asarray(fiedler, float)
    n, m = values.shape
    if v.shape != (n,):
        raise ValueError(f"target vector length {v.shape} does not match {n} samples")
    if diffs is None:
        diffs = pairwise_sqdiff(values, sigma)
    elif diffs.sigma != sigma:
        diffs = diffs.rescaled(sigma)
    if diffs.n_samples != n:
        raise ValueError("precomputed differences do not match X")

    xhat = diffs.xhat
    A = np.einsum("ijk,j->ik", diffs.sqdiff, v) * diffs.scale
    B = v[:, None] * xhat
    alpha = v.sum() - v
    beta = (n - 1) * v
    gamma = xhat.T @ v
    rho = (n - 1) * v.sum()

    # column sums of A and B agree by the symmetry of the pair tensor; a
    # violation can only come from a bug upstream
    drift = np.max(np.abs((A - B).sum(axis=0)))
    if drift > 1e-10 * max(np.linalg.norm(A), 1e-300):
        raise InternalConsistencyError(
            f"(A - B)^T e = {drift:.3e} exceeds the assembly tolerance"
        )
    return PencilSystem(A=A, B=B, alpha=alpha, beta=beta, gamma=gamma, rho=float(rho))


def has_full_column_rank(ps: PencilSystem) -> bool:
    """Whether rank([F; G]) = m + 1 under ``rect_pencil_eig``'s rank rule.

    A, B and gamma carry c = 1/(2 sigma^2) and alpha, beta and rho do not, so
    the pencil at width sigma is the unit-width (2 sigma^2 = 1) pencil times
    diag(c I, 1) on the right. With full column rank the row-space reduction
    spans every column, its pairs are those of the normal equations, and a
    column scaling maps them onto each other: mu is the same at every width
    and s = 2 sigma^2 t, with t the unit-width factors. A rank-deficient
    pencil's minimal-norm representatives depend on that scaling, and so on
    sigma.
    """
    stacked = np.vstack([ps.F(), ps.G()])
    singular_values = np.linalg.svd(stacked, compute_uv=False)
    return numerical_rank(singular_values, stacked.shape) == ps.n_features + 1


@dataclass(frozen=True)
class ScalingVector:
    """Learned factors with the selected eigenvalue and its certificates.

    ``residual`` is the relative pencil residual evaluated at [factors; -1];
    ``certified`` records whether it met the requested tolerance (for tall
    systems with many more samples than features the pencil is overdetermined
    and only an approximate, minimal-perturbation style solution exists).
    """

    factors: np.ndarray
    eigenvalue: float
    residual: float
    constraint_violation: float
    certified: bool = True

    @property
    def n_features(self):
        return self.factors.shape[0]


def learn_scaling(ps: PencilSystem, residual_tol=DEFAULT_RESIDUAL_TOL) -> ScalingVector:
    """Solve the assembled pencil for scaling factors.

    The pencil is solved once, keeping every finite candidate. Each candidate
    vector is rescaled so its last component is -1, and the candidates are
    ranked by the distance of the real part of mu to one (ties by smaller
    residual, then the solver's deterministic order). Complex selections are
    repaired by taking real parts.

    The first ranked candidate whose own residual and whose repaired residual
    both meet ``residual_tol`` is returned with ``certified=True``. When none
    does, which is the generic situation for overdetermined systems (more
    training samples than features), the best-ranked candidate is returned with
    the residual it achieves, and ``certified`` records whether that meets the
    tolerance.
    """
    F, G = ps.F(), ps.G()
    try:
        pairs = rect_pencil_eig(F, G)
    except NoEigenpairError as exc:
        raise NoScalingError("the pencil produced no usable candidates") from exc
    candidates = [
        (pair, -(pair.vector[:-1] / pair.vector[-1]))
        for pair in pairs
        if abs(pair.vector[-1]) >= _LAST_COMPONENT_TOL
    ]
    if not candidates:
        raise NonNormalizableError(
            "every candidate eigenvector has a vanishing last component"
        )
    # stable sort: equal keys keep the solver's order
    ranked = sorted(
        candidates, key=lambda c: (abs(np.real(c[0].value) - 1.0), c[0].residual)
    )

    def finish(pair, s):
        mu = float(np.real(pair.value))
        s_real = np.ascontiguousarray(np.real(s), dtype=float)
        vec = np.concatenate([s_real, [-1.0]])
        res = pencil_residual(F, G, mu, vec)
        return ScalingVector(
            factors=s_real,
            eigenvalue=mu,
            residual=res,
            constraint_violation=abs(float(ps.gamma @ s_real - ps.rho)),
            certified=bool(res <= residual_tol),
        )

    for pair, s in ranked:
        if pair.residual <= residual_tol:
            result = finish(pair, s)
            if result.certified:
                return result
    return finish(*ranked[0])


def scaling_table(scaling, feature_names) -> str:
    """Two-column text table (feature name, factor), one line per feature."""
    factors = np.asarray(getattr(scaling, "factors", scaling), dtype=float)
    if len(feature_names) != factors.shape[0]:
        raise ValueError("feature_names length does not match the factors")
    lines = ["feature\tscaling_factor"]
    lines.extend(f"{name}\t{repr(float(f))}" for name, f in zip(feature_names, factors))
    return "\n".join(lines) + "\n"


def linearization_violation_fraction(X, scaling, sigma) -> float:
    """Fraction of training pairs outside the expansion's validity region.

    The first-order form of the kernel assumes 0 < s^T x_ij / (2 sigma^2) < 1
    for each pair; this reports how often that fails (over unordered pairs).
    The violations are counted over the upper triangle of delta_s in row
    blocks, so no n x n array is held.
    """
    factors = np.asarray(getattr(scaling, "factors", scaling), dtype=float)
    values = as_values(X)
    n = values.shape[0]
    violations = 0
    for rows in row_blocks(n, n):
        t = scaled_sqdist(values, factors, rows) / (2.0 * sigma**2)
        outside = (t <= 0.0) | (t >= 1.0)
        violations += np.count_nonzero(np.triu(outside, k=rows.start + 1))
    return float(violations / (n * (n - 1) // 2))
