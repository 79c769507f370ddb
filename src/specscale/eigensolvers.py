"""Eigensolvers: graph Laplacian pairs and rectangular pencils.

Two problems are covered. ``sym_gen_eig`` solves L x = lambda D x for a graph
Laplacian L, dense or sparse, and positive diagonal D, deflating exactly one
trivial eigenvalue per connected component of the graph.
``rect_pencil_eig`` returns the eigenpairs (mu, w) that a possibly rectangular
pencil F - mu G determines: the finite QZ pairs of one square reduction onto
the row space of [F; G], each with its residual against the original system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .errors import (
    DegenerateDegreeError,
    DegeneratePencilError,
    InsufficientSpectrumError,
    InternalConsistencyError,
    NoEigenpairError,
)

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


def _as_degree_vector(D, n):
    d = np.asarray(D, dtype=float)
    if d.shape != (n,):
        raise ValueError(f"degree input has shape {d.shape}, expected ({n},)")
    if np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise DegenerateDegreeError(f"non-positive degree {d[bad]} at index {bad}")
    return d


def sym_gen_eig(L, D, k):
    """Smallest nontrivial eigenpairs of the graph Laplacian pair L x = lambda D x.

    Parameters
    ----------
    L : (n, n) symmetric graph Laplacian, a dense array or a scipy sparse
        matrix; its nonzero off-diagonal entries are the graph's edges.
    D : (n,) positive degree vector, the diagonal of the degree matrix.
    k : number of eigenpairs to return.

    A graph Laplacian has one zero eigenvalue per connected component, whose
    eigenvectors are the component indicators. With c components, only pairs
    c .. c+k-1 of the whitened matrix D^-1/2 L D^-1/2 are computed and mapped
    back as x = y / sqrt(d), so on a connected graph every returned vector
    satisfies the zero-mean constraint e^T D x = 0.

    Returns
    -------
    list of EigenPair, ascending, vectors D-orthonormal, each residual <= 1e-8.

    Raises
    ------
    InsufficientSpectrumError
        If c + k > n: fewer than k nontrivial pairs exist.
    """
    L = scipy.sparse.csr_matrix(L, dtype=float)
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValueError("L must be square")
    if abs(L - L.T).max() > 1e-12 * max(1.0, abs(L).max()):
        raise ValueError("L is not symmetric within 1e-12 relative tolerance")
    d = _as_degree_vector(D, n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    c = scipy.sparse.csgraph.connected_components(L != 0, directed=False)[0]
    if c + k > n:
        raise InsufficientSpectrumError(
            f"{c} connected components leave {n - c} nontrivial eigenvalues, need {k}"
        )

    inv_root = scipy.sparse.diags(1.0 / np.sqrt(d))
    whitened = (inv_root @ L @ inv_root).toarray()
    vals, vecs = scipy.linalg.eigh(
        whitened, subset_by_index=[c, c + k - 1], overwrite_a=True
    )
    vecs = inv_root @ vecs

    norm_l = np.linalg.norm(L.data)
    norm_d = np.linalg.norm(d)
    pairs = []
    for lam, w in zip(vals.tolist(), vecs.T):
        w = _sign_normalize(w.copy())
        unit = w / np.linalg.norm(w)
        num = np.linalg.norm(L @ unit - lam * (d * unit))
        res = float(num / (norm_l + abs(lam) * norm_d))
        if res > _SYM_RESIDUAL_BOUND:
            raise InternalConsistencyError(
                f"eigenpair residual {res:.3e} exceeds {_SYM_RESIDUAL_BOUND}"
            )
        pairs.append(EigenPair(lam, w, res))
    return pairs


def _realify(z, tol=1e-12):
    if np.iscomplexobj(z):
        scale = np.max(np.abs(z)) if np.ndim(z) else abs(z)
        if np.max(np.abs(np.imag(z))) <= tol * max(1.0, scale):
            return np.real(z) if np.ndim(z) else float(np.real(z))
    return z


def rect_pencil_eig(F, G):
    """Eigenpairs that the (possibly rectangular) pencil F - mu G determines.

    F and G are restricted to the row space of the stacked [F; G] (its leading
    right singular vectors), giving F_r and G_r; the finite QZ eigenpairs of
    the square reduction (G_r^T F_r, G_r^T G_r) are lifted back. A lifted vector
    has no component in the joint nullspace of F and G, so it is the
    minimal-norm representative of its class. Directions in that nullspace
    solve the pencil for every mu and are not reported.

    Each pair carries its residual against the original rectangular system;
    nothing is filtered on it. Complex eigenvalues appear together with their
    conjugates. Vectors have unit 2-norm and a deterministic sign. Pairs are
    ordered by (Re mu, Im mu); equal eigenvalues keep QZ's order.

    Raises
    ------
    DegeneratePencilError
        If G = 0.
    NoEigenpairError
        If the reduction has no finite eigenvalue.
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
    _, sv, vt = np.linalg.svd(stacked, full_matrices=False)
    rank_tol = max(stacked.shape) * np.finfo(float).eps * sv[0]
    rank = int(np.count_nonzero(sv > rank_tol))
    v_r = vt[:rank].T  # (q, rank); row space of [F; G]

    f_red, g_red = F @ v_r, G @ v_r
    alpha_beta, vecs = scipy.linalg.eig(
        g_red.T @ f_red, g_red.T @ g_red, homogeneous_eigvals=True
    )
    alphas, betas = alpha_beta

    pairs = []
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
        pairs.append(EigenPair(mu, _sign_normalize(w), pencil_residual(F, G, mu, w)))

    if not pairs:
        raise NoEigenpairError("the pencil has no finite eigenpair")
    # stable sort: equal eigenvalues keep QZ's deterministic order
    return sorted(pairs, key=lambda p: (np.real(p.value), np.imag(p.value)))
