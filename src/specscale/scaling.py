"""Learning per-feature scaling factors from partial labels.

A label-derived target vector is declared to be the Fiedler vector of the
similarity graph of the (scaled) training data. Under a first-order expansion
of the Gaussian kernel the unknown factors appear linearly, which turns the
constrained Laplacian eigenproblem into an eigenproblem of a rectangular
matrix pencil

    F w = [A alpha; gamma^T rho] [s; -1]  =  mu [B beta; 0^T 0] [s; -1] = mu G w,

whose eigenvector carries the factors s and whose eigenvalue mu equals one
minus the targeted Laplacian eigenvalue. ``learn_scaling`` solves that pencil
and selects the candidate with mu closest to one.

F and G have n_train + 1 rows and m + 1 columns. A wide pencil (more features
than training samples) has an exact pair at every mu, so the candidate closest
to one is mu = 1 itself, where the pairs form an affine family of dimension
m - n_train. The one taken is the least-norm member: with K = F - G, the
equations K [s; -1] = 0 read [A - B; gamma^T] s = [alpha - beta; rho], and s is
their minimum-norm least-squares solution (Golub & Van Loan, Matrix
Computations, underdetermined systems). The constraint row is enforced, and the
solution is stable under rounding-level changes of the blocks.

A pencil with full column rank, rank([F; G]) = m + 1, such as the tall toy
pencils, has no exact pair in general; it is solved as its least-squares
(Galerkin) reduction eig(G^T F, G^T G) (Das & Neumaier, SISC 2013). G's last
row is zero, so the constraint row (gamma^T, rho) does not enter G^T F: it is
reported as ``constraint_violation`` and not enforced.

The pencil is that of the unit-width kernel exp(-delta_t), whose factors are t.
The unit pencil of X / (sqrt(2) sigma) is the pencil of X at width sigma, so
s = 2 sigma^2 t. There is no width argument: pencils solved at sigma = 0.01
missed mu by 0.35 to 0.53 (``experiments.fit_unit_scaling``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import sorted_classes
from .eigensolvers import pencil_residual, rect_pencil_eig
from .errors import (
    DegenerateSupervisionError,
    InternalConsistencyError,
    NoEigenpairError,
    NonNormalizableError,
    NoScalingError,
)
from .similarity import PairwiseDifferences, pairwise_sqdiff, row_blocks, sqdist_blocks

# Certifies a residual, and tells factors from s = 0 (see ``learn_scaling``):
# on toy splits at widths 0.01 to 100, s = 0 reads <= 2.6e-9, other pairs >= 0.029.
_RESIDUAL_TOL = 1e-6
_LAST_COMPONENT_TOL = 1e-12


def estimate_fiedler(labels, negative_value=-0.2, degrees=None) -> np.ndarray:
    """The target vector, a two-valued stand-in for the Fiedler vector: the
    positive class maps to 1, the other to a fixed negative value.

    ``negative_value="auto"`` computes -b with b the ratio of degree sums of
    the two groups, which makes the zero-mean constraint e^T D v = 0 hold
    exactly for the supplied degrees. A b at or below machine epsilon raises
    DegenerateSupervisionError: the -b entries are then rounding noise next to
    the 1 entries, and the target is one class's indicator. A fixed value at
    or above 0 (-0.0 too) raises ValueError: 0 gives that indicator and 1 the
    constant vector, which is not a Fiedler vector. The positive class is the
    smaller label value.
    """
    labels = np.asarray(labels)
    classes = sorted_classes(labels)
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
        b = float(degrees[positive_mask].sum() / degrees[~positive_mask].sum())
        if b <= np.finfo(float).eps:
            raise DegenerateSupervisionError(
                f"the auto target collapsed: degree ratio {b:.3e} is below machine epsilon"
            )
        neg = -b
    else:
        neg = float(negative_value)
        if not neg < 0.0:
            raise ValueError(f"a fixed negative_value must be below 0, got {neg!r}")
    return np.where(positive_mask, 1.0, neg)


@dataclass(frozen=True)
class PencilSystem:
    """F = [A alpha; gamma^T rho] and G = [B beta; 0^T 0] at unit width, one
    read-only allocation each. The blocks are views into them (rho a float),
    so the pencil is never rebuilt or stacked; alpha, beta and rho depend on
    the target vector alone."""

    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.F.flags.writeable = self.G.flags.writeable = False

    A = property(lambda self: self.F[:-1, :-1])
    B = property(lambda self: self.G[:-1, :-1])
    alpha = property(lambda self: self.F[:-1, -1])
    beta = property(lambda self: self.G[:-1, -1])
    gamma = property(lambda self: self.F[-1, :-1])
    rho = property(lambda self: float(self.F[-1, -1]))


def assemble_pencil(X, v, diffs: PairwiseDifferences | None = None) -> PencilSystem:
    """Assemble the unit-width pencil blocks from the training rows X and the
    target vector v, both arrays.

    A_ik = sum_j v_j (x_ik - x_jk)^2 and x^_ik = sum_j (x_ik - x_jk)^2.
    Expanding the square on the column-centered x~ gives
    A = x~^2 (e^T v) - x~ o (2 v^T x~) + v^T x~^2 and x^ = ``diffs.sqdiff``,
    in O(n m) memory. F and G are allocated once and every block is written in
    place: G's storage holds x~^2 until A is started, and B's block then
    serves as scratch for the middle term of A, so no n x m temporary is made.
    ``diffs`` may carry ``pairwise_sqdiff(X)``.
    """
    values = np.asarray(X, dtype=float)
    v = np.asarray(v, dtype=float)
    n, m = values.shape
    if v.shape != (n,):
        raise ValueError(f"target vector length {v.shape} does not match {n} samples")
    if diffs is None:
        diffs = pairwise_sqdiff(values)
    if diffs.sqdiff.shape != (n, m):
        raise ValueError("precomputed differences do not match X")

    centered, xhat = diffs.centered, diffs.sqdiff
    F, G = np.empty((n + 1, m + 1)), np.zeros((n + 1, m + 1))
    A, B = F[:n, :m], G[:n, :m]
    # x~^2 in G's first n m entries, contiguous, as a product with the strided
    # block rounds differently at m <= 3; G's last row stays zero
    squares = G.reshape(-1)[: n * m].reshape(n, m)
    np.square(centered, out=squares)
    weighted = v @ squares
    np.multiply(squares, v.sum(), out=A)
    A -= np.multiply(centered, 2.0 * (v @ centered), out=B)  # B's block as scratch
    A += weighted
    np.multiply(v[:, None], xhat, out=B)
    F[:n, m] = v.sum() - v
    F[n, :m] = xhat.T @ v
    F[n, m] = (n - 1) * v.sum()
    G[:n, m] = (n - 1) * v

    # column sums of A and B agree by the symmetry of the pairs (x~ sums to
    # zero); a violation can only come from a bug upstream
    drift = np.max(np.abs(A.sum(axis=0) - B.sum(axis=0)))
    if drift > 1e-10 * max(np.sqrt(np.einsum("ij,ij->", A, A)), 1e-300):  # ||A||_F, no copy
        raise InternalConsistencyError(
            f"(A - B)^T e = {drift:.3e} exceeds the assembly tolerance"
        )
    return PencilSystem(F, G)


@dataclass(frozen=True)
class ScalingVector:
    """Learned factors with the selected eigenvalue and its certificates.

    ``residual`` is ||(F - mu G) [s; -1]|| / (||F||_F + |mu| ||G||_F) of the
    selected pair alone, and ``certified`` whether it meets 1e-6: whether
    (mu, [s; -1]) is an exact pair of F - mu G, which only wide pencils have
    (see the module docstring).
    """

    factors: np.ndarray
    eigenvalue: float
    residual: float
    constraint_violation: float
    certified: bool = True


def learn_scaling(ps: PencilSystem) -> ScalingVector:
    """Solve the assembled pencil for scaling factors.

    The pencil is solved once by ``rect_pencil_eig``, centred on mu = 1: a
    wide pencil gives its one least-norm pair at mu = 1 (see the module
    docstring), any other the pairs of its Galerkin reduction, nearest mu = 1
    first. Each candidate vector is rescaled so its last component is -1, and
    complex candidates are repaired by taking real parts. Dropped are
    candidates whose last component vanishes (NonNormalizableError if all do)
    and those whose factors do nothing, ||[A s; B s]|| <= 1e-6 ||[alpha; beta]||
    (NoScalingError if all do). That test is free of the scale of X, which
    multiplies A and B by a^2 and the factors by a^-2 when X becomes a X; it
    drops the exact pair s = 0 at mu = -1/(n_train - 1) of a target that sums
    to zero.

    The first survivor, the one nearest mu = 1, is returned with its residual,
    and ``certified`` says whether that residual meets 1e-6: true for the
    wide pencil's exact pair, false in general for a tall pencil's reduction.
    The solve, the test and the residual read ``ps.F``, ``ps.G`` and their
    block views; no block is copied here.
    """
    try:
        pairs = rect_pencil_eig(ps.F, ps.G)
    except NoEigenpairError as exc:
        raise NoScalingError("the pencil produced no usable candidates") from exc
    candidates = [
        (float(np.real(pair.value)), np.real(-(pair.vector[:-1] / pair.vector[-1])))
        for pair in pairs
        if abs(pair.vector[-1]) >= _LAST_COMPONENT_TOL
    ]
    if not candidates:
        raise NonNormalizableError(
            "every candidate eigenvector has a vanishing last component"
        )
    S = np.column_stack([s for _, s in candidates])
    effect = np.linalg.norm(np.vstack([ps.A @ S, ps.B @ S]), axis=0)
    floor = _RESIDUAL_TOL * np.hypot(np.linalg.norm(ps.alpha), np.linalg.norm(ps.beta))
    candidates = [c for c, e in zip(candidates, effect) if e > floor]
    if not candidates:
        raise NoScalingError("every normalizable candidate has factors that do nothing")
    mu, s = candidates[0]
    s = np.ascontiguousarray(s)
    res = pencil_residual(ps.F, ps.G, mu, np.concatenate([s, [-1.0]]))
    return ScalingVector(
        factors=s,
        eigenvalue=mu,
        residual=res,
        constraint_violation=abs(float(ps.gamma @ s - ps.rho)),
        certified=bool(res <= _RESIDUAL_TOL),
    )


def scaling_table(factors, feature_names) -> str:
    """Two-column text table (feature name, factor), one line per entry of the
    factor array."""
    if len(feature_names) != factors.shape[0]:
        raise ValueError("feature_names length does not match the factors")
    lines = ["feature\tscaling_factor"]
    lines.extend(f"{name}\t{repr(float(f))}" for name, f in zip(feature_names, factors))
    return "\n".join(lines) + "\n"


def linearization_violation_fraction(X, factors) -> float:
    """Fraction of training pairs (rows of the array X) outside the expansion's
    validity region under the unit-width factor array ``factors``.

    The first-order form of the kernel exp(-delta_t) assumes 0 < delta_t(i, j) < 1
    for each pair, which is 0 < s^T x_ij / (2 sigma^2) < 1 at width sigma; this
    reports how often that fails (over pairs i < j). Each row block of delta_t
    covers the columns at and past its first row (about half the matrix in all,
    never n x n, one block alive at a time) and is counted whole, its leading
    square's j <= i first set to 0.5, inside, so that the two comparisons
    make one boolean block at a time. delta_t is not clamped; t <= 0 counts
    the same.
    """
    n = np.shape(X)[0]
    sqdist = sqdist_blocks(X, factors)
    violations = 0
    for rows in row_blocks(n, n):
        t = sqdist(rows, slice(rows.start, n))
        t[:, : len(t)][np.tri(len(t), dtype=bool)] = 0.5
        violations += np.count_nonzero(t <= 0.0) + np.count_nonzero(t >= 1.0)
        del t  # freed before the next block's GEMM: one block lives at a time
    return float(violations / (n * (n - 1) // 2))
