"""Dense eigensolvers: symmetric-definite generalized pairs and rectangular pencils.

Two problems are covered. ``sym_gen_eig`` solves L x = lambda D x for symmetric L
and positive diagonal D, deflating the near-zero part of the spectrum.
``rect_pencil_eig`` enumerates eigenpairs (mu, w) of a possibly rectangular
pencil F - mu G by one square reduction onto the row space of [F; G] and
certifies every candidate against the original rectangular system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateDegreeError,
    DegeneratePencilError,
    InsufficientSpectrumError,
    InternalConsistencyError,
    NoEigenpairError,
)

DEFAULT_SKIP_TOL = 1e-9
DEFAULT_RESIDUAL_TOL = 1e-6

_SYM_RESIDUAL_BOUND = 1e-8


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair with its relative residual certificate.

    ``residual`` is ||(F - mu G) w||_2 / (||F||_F + |mu| ||G||_F) evaluated at a
    unit 2-norm copy of ``vector``.
    """

    value: complex
    vector: np.ndarray
    residual: float


def pencil_residual(F, G, value, vector):
    """Relative residual of (value, vector) for the pencil F - value*G."""
    vector = np.asarray(vector)
    num = np.linalg.norm((F - value * G) @ vector)
    den = np.linalg.norm(F) + abs(value) * np.linalg.norm(G)
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def _sign_normalize(w, tol=1e-12):
    """Flip (or phase-rotate) w so its first significant component is positive real."""
    scale = np.max(np.abs(w))
    if scale == 0.0:
        return w
    idx = np.flatnonzero(np.abs(w) > tol * scale)
    if idx.size == 0:
        return w
    lead = w[idx[0]]
    if np.iscomplexobj(w):
        return w * (np.conj(lead) / abs(lead))
    return -w if lead < 0 else w


class _VectorKey:
    """Lexicographic tie-break key over (real, imag)-interleaved entries."""

    __slots__ = ("flat",)

    def __init__(self, vector):
        v = np.asarray(vector)
        if np.iscomplexobj(v):
            self.flat = np.column_stack([v.real, v.imag]).ravel()
        else:
            self.flat = np.column_stack([v, np.zeros_like(v)]).ravel()

    def __lt__(self, other):
        a, b = self.flat, other.flat
        n = min(a.size, b.size)
        diff = np.flatnonzero(a[:n] != b[:n])
        if diff.size == 0:
            return a.size < b.size
        i = diff[0]
        return a[i] < b[i]


def _order_pairs(pairs):
    return sorted(
        pairs,
        key=lambda p: (np.real(p.value), np.imag(p.value), _VectorKey(p.vector)),
    )


def _as_degree_vector(D, n):
    D = np.asarray(D, dtype=float)
    if D.ndim == 1:
        d = D
    elif D.ndim == 2:
        if D.shape != (n, n):
            raise ValueError(f"degree matrix shape {D.shape} does not match {n}")
        off = D - np.diag(np.diag(D))
        if np.any(off != 0.0):
            raise ValueError("degree matrix must be diagonal")
        d = np.diag(D).copy()
    else:
        raise ValueError("degree input must be a vector or a diagonal matrix")
    if d.shape != (n,):
        raise ValueError(f"degree vector has length {d.shape[0]}, expected {n}")
    if np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise DegenerateDegreeError(f"non-positive degree {d[bad]} at index {bad}")
    return d


def sym_gen_eig(L, D, k, skip_tol=DEFAULT_SKIP_TOL):
    """Smallest eigenpairs of L x = lambda D x above the deflation threshold.

    Parameters
    ----------
    L : (n, n) array, symmetric.
    D : (n,) degree vector or (n, n) positive diagonal matrix.
    k : number of eigenpairs to return.
    skip_tol : eigenvalues <= skip_tol * lambda_max are deflated. For a graph
        Laplacian pair this removes the constant-vector nullspace, so returned
        vectors satisfy the zero-mean constraint e^T D x = 0 on connected graphs.

    Returns
    -------
    list of EigenPair, ascending, vectors D-orthonormal, each residual <= 1e-8.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be square")
    n = L.shape[0]
    scale = max(1.0, float(np.max(np.abs(L)))) if L.size else 1.0
    if np.max(np.abs(L - L.T)) > 1e-12 * scale:
        raise ValueError("L is not symmetric within 1e-12 relative tolerance")
    d = _as_degree_vector(D, n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")

    vals, vecs = scipy.linalg.eigh(L, np.diag(d))
    lam_max = vals[-1]
    keep = np.flatnonzero(vals > skip_tol * lam_max)
    if keep.size < k:
        raise InsufficientSpectrumError(
            f"only {keep.size} eigenvalues above the deflation threshold, need {k}"
        )

    norm_l = np.linalg.norm(L)
    norm_d = np.linalg.norm(d)
    pairs = []
    for i in keep[:k]:
        lam = float(vals[i])
        w = _sign_normalize(vecs[:, i].copy())
        unit = w / np.linalg.norm(w)
        num = np.linalg.norm(L @ unit - lam * (d * unit))
        res = float(num / (norm_l + abs(lam) * norm_d))
        if res > _SYM_RESIDUAL_BOUND:
            raise InternalConsistencyError(
                f"eigenpair residual {res:.3e} exceeds {_SYM_RESIDUAL_BOUND}"
            )
        pairs.append(EigenPair(lam, w, res))
    return _order_pairs(pairs)


def _realify(z, tol=1e-12):
    if np.iscomplexobj(z):
        scale = np.max(np.abs(z)) if np.ndim(z) else abs(z)
        if np.max(np.abs(np.imag(z))) <= tol * max(1.0, scale):
            return np.real(z) if np.ndim(z) else float(np.real(z))
    return z


def rect_pencil_eig(F, G, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Certified eigenpairs of the (possibly rectangular) pencil F - mu G.

    Candidates come from two sources and every one is certified against the
    original rectangular system; pairs failing the residual test are dropped:

    * QZ eigenpairs of the square reduction (G_r^T F_r, G_r^T G_r), where F_r and
      G_r are F and G restricted to the row space of the stacked [F; G] (its
      leading right singular vectors); lifted back, these vectors have no
      component in the joint nullspace, so they are the minimal-norm
      representatives;
    * directions jointly annihilated by F and G, which are eigenvectors for
      every mu and are reported at mu = 1 by convention.

    Complex eigenvalues appear together with their conjugates. Vectors have
    unit 2-norm and a deterministic sign; ties in the eigenvalue ordering are
    broken lexicographically on the vector entries.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if F.shape != G.shape or F.ndim != 2:
        raise ValueError("F and G must be 2-D arrays of the same shape")
    norm_f = np.linalg.norm(F)
    norm_g = np.linalg.norm(G)
    if norm_f == 0.0 and norm_g == 0.0:
        raise ValueError("at least one of F, G must be nonzero")
    if norm_g == 0.0:
        raise DegeneratePencilError("G = 0: the pencil has no finite eigenvalue")

    stacked = np.vstack([F, G])
    # U is never read; the thin V lacks the joint null basis only when [F; G]
    # has fewer rows than columns
    _, sv, vt = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    rank_tol = max(stacked.shape) * np.finfo(float).eps * sv[0]
    rank = int(np.count_nonzero(sv > rank_tol))
    v_r = vt[:rank].T  # (q, rank); row space of [F; G]
    null_basis = vt[rank:].T  # (q, q - rank); joint nullspace of F and G

    f_red, g_red = F @ v_r, G @ v_r
    alpha_beta, vecs = scipy.linalg.eig(
        g_red.T @ f_red, g_red.T @ g_red, homogeneous_eigvals=True
    )
    alphas, betas = alpha_beta

    certified = []
    for j in range(vecs.shape[1]):
        if betas[j] == 0:
            continue
        mu = alphas[j] / betas[j]
        if not np.isfinite(mu):
            continue
        w = v_r @ vecs[:, j]
        w = w / np.linalg.norm(w)
        mu = _realify(complex(mu))
        w = _realify(w)
        res = pencil_residual(F, G, mu, w)
        if res <= residual_tol:
            certified.append(EigenPair(mu, _sign_normalize(w), res))

    for col in null_basis.T:
        w = _sign_normalize(col / np.linalg.norm(col))
        res = pencil_residual(F, G, 1.0, w)
        if res <= residual_tol:
            certified.append(EigenPair(1.0, w, res))

    if not certified:
        raise NoEigenpairError(
            f"no candidate passed certification at residual_tol={residual_tol:g}"
        )
    return _order_pairs(certified)
