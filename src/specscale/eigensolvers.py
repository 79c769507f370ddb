"""Eigensolvers: graph Laplacian pairs and rectangular pencils.

Two problems are covered. ``sym_gen_eig`` solves L x = lambda D x for a graph
Laplacian L, dense or sparse, and positive diagonal D, deflating exactly one
trivial eigenvalue per connected component of the graph. Graphs of at most
``_DENSE_MAX_N`` vertices take a dense subset ``eigh``; larger ones take
implicitly restarted Lanczos (ARPACK ``eigsh``) on the sparse normalized
adjacency, with the trivial eigenvectors shifted out of the way.
``rect_pencil_eig`` returns the eigenpairs (mu, w) that a possibly rectangular
pencil F - mu G determines, nearest a target eigenvalue first. A wide pencil
(fewer rows than columns) has an exact pair at every mu; it yields one pair in
closed form, at mu = target, by a minimum-norm least-squares solve. Any other
pencil yields the finite QZ pairs of one square reduction onto the row space
of [F; G], lifted back in one product; with full column rank these are the
pairs of the least-squares (Galerkin) pencil (G^T F, G^T G). The caller
certifies the pair it keeps with ``pencil_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import (
    DegenerateDegreeError,
    DegeneratePencilError,
    EigenConvergenceError,
    InsufficientSpectrumError,
    InternalConsistencyError,
    NoEigenpairError,
)

_SYM_RESIDUAL_BOUND = 1e-8
# Largest graph solved by dense subset eigh. On k-NN graphs of the toy data the
# two solvers break even between n = 300 and 400 for one pair, and between 400
# and 600 for three.
_DENSE_MAX_N = 400
# Fixed Lanczos start vector seed, so that repeated solves are bit-identical.
_LANCZOS_SEED = 1805


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair, with the relative residual certificate of ``sym_gen_eig``.

    ``residual`` is ||(L - lambda D) x||_2 / (||L||_F + |lambda| ||D||_F) at a
    unit 2-norm copy of ``vector``; ``rect_pencil_eig`` leaves it None. ``value``
    and ``vector`` are real unless the pair is genuinely complex; a complex
    pencil pair then comes with its conjugate pair.
    """

    value: complex
    vector: np.ndarray
    residual: float | None = None


def pencil_residual(F, G, value, vector):
    """Relative residual ||F w - mu G w||_2 / (||F||_F + |mu| ||G||_F) of a real
    pair (mu, w) of the real pencil F - mu G, at w as given (not normalized)."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    w = np.asarray(vector, dtype=float)
    num = np.linalg.norm(F @ w - value * (G @ w))
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


def _deflated_lanczos(whitened, root, component, c, k):
    """Pairs c .. c+k-1 of the sparse whitened matrix N by Lanczos on
    M = I - N - 3 Y Y^T, as lambda = 1 - mu (see ``sym_gen_eig``)."""
    n = root.size
    Y = np.zeros((n, c))
    Y[np.arange(n), component] = root
    Y /= np.linalg.norm(Y, axis=0)

    def matvec(x):
        return x - whitened @ x - 3.0 * (Y @ (Y.T @ x))

    operator = LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(np.random.SeedSequence(_LANCZOS_SEED)).uniform(-1.0, 1.0, n)
    try:
        mu, y = eigsh(operator, k=k, which="LA", tol=0, v0=v0)
    except ArpackNoConvergence as exc:
        raise EigenConvergenceError(
            f"Lanczos converged on {len(exc.eigenvalues)} of {k} eigenpairs "
            f"of a {n}-vertex graph"
        ) from exc
    order = np.argsort(-mu, kind="stable")
    return 1.0 - mu[order], y[:, order]


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

    Up to ``_DENSE_MAX_N`` vertices the whitened matrix N is densified and
    solved by subset ``eigh``. Above it, Lanczos (``eigsh``, regular mode, from
    a fixed start vector) finds the k largest eigenvalues mu of
    M = I - N - 3 Y Y^T. For L = D - W, I - N is the normalized adjacency
    D^-1/2 W D^-1/2, with spectrum in [-1, 1]. The columns of Y are the c
    component indicators times sqrt(d), normalized; they are orthonormal and
    N Y = 0, so M Y = -2 Y exactly while M acts as I - N on the complement of Y.
    The shift thus sends the c trivial eigenvalues from 1 to -2, below the
    spectrum, and leaves the rest in place: lambda = 1 - mu are the same pairs
    c .. c+k-1. Both paths are deterministic and pass the same residual
    certificate.

    Returns
    -------
    list of EigenPair, ascending, vectors D-orthonormal, each residual <= 1e-8.

    Raises
    ------
    InsufficientSpectrumError
        If c + k > n: fewer than k nontrivial pairs exist.
    EigenConvergenceError
        If Lanczos does not converge (sparse path only).
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
    c, component = scipy.sparse.csgraph.connected_components(L != 0, directed=False)
    if c + k > n:
        raise InsufficientSpectrumError(
            f"{c} connected components leave {n - c} nontrivial eigenvalues, need {k}"
        )

    root = np.sqrt(d)
    inv_root = scipy.sparse.diags(1.0 / root)
    whitened = inv_root @ L @ inv_root
    if n <= _DENSE_MAX_N:
        vals, vecs = scipy.linalg.eigh(
            whitened.toarray(), subset_by_index=[c, c + k - 1], overwrite_a=True
        )
    else:
        vals, vecs = _deflated_lanczos(whitened, root, component, c, k)
    vecs = inv_root @ vecs

    # the certificate is homogeneous in (L, d): evaluate it on L and d divided
    # by the largest |L| entry, so that its norms cannot overflow
    scale = np.max(np.abs(L.data))
    L_unit, d_unit = L / scale, d / scale
    norm_l = np.linalg.norm(L_unit.data)
    norm_d = np.linalg.norm(d_unit)
    pairs = []
    for lam, w in zip(vals.tolist(), vecs.T):
        w = _sign_normalize(w.copy())
        unit = w / np.linalg.norm(w)
        num = np.linalg.norm(L_unit @ unit - lam * (d_unit * unit))
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


def rect_pencil_eig(F, G, target):
    """Eigenpairs that the (possibly rectangular) pencil F - mu G determines,
    nearest ``target`` first.

    A wide pencil (fewer rows than columns) has an exact pair at every mu, and
    at mu = target an affine family of them with last component -1. Its one
    returned pair is the member of least norm: with K = F - target G, the
    minimum-norm least-squares solution s of K[:, :-1] s = K[:, -1] (``lstsq``
    with ``rcond=None``, the cutoff eps * max(shape) of the rank rule below),
    as w = [s; -1]. The solve is stable under rounding-level changes of F and
    G, and a column scaling diag(c I, 1) of the pencil maps s to s / c.

    Any other pencil is restricted to the row space of the stacked [F; G] (its
    right singular vectors whose singular value exceeds max(shape) * eps times
    the largest), giving F_r and G_r; the finite QZ eigenpairs of the square
    reduction (G_r^T F_r, G_r^T G_r) are lifted back, all of them in one
    product of the real basis with the real and the imaginary parts of the QZ
    eigenvectors. A lifted vector has no component
    in the joint nullspace of F and G, so it is the minimal-norm
    representative of its class. Directions in that nullspace solve the pencil
    for every mu and are not reported. With full column rank the pairs are
    those of the least-squares (Galerkin) pencil (G^T F, G^T G): they solve
    G^T (F - mu G) w = 0, not F w = mu G w.

    No pair is certified here (``residual`` is None) and nothing is filtered.
    Complex eigenvalues appear together with their conjugates. Vectors have
    unit 2-norm and a deterministic sign. Pairs are ordered by
    (|Re mu - target|, Re mu, Im mu); equal keys keep QZ's order.

    Raises
    ------
    DegeneratePencilError
        If G = 0.
    NoEigenpairError
        If the reduction of a square or tall pencil has no finite eigenvalue.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if F.shape != G.shape or F.ndim != 2:
        raise ValueError("F and G must be 2-D arrays of the same shape")
    if not F.any() and not G.any():
        raise ValueError("at least one of F, G must be nonzero")
    if not G.any():
        raise DegeneratePencilError("G = 0: the pencil has no finite eigenvalue")

    if F.shape[0] < F.shape[1]:
        K = F - target * G
        s = np.linalg.lstsq(K[:, :-1], K[:, -1], rcond=None)[0]
        w = np.append(s, -1.0)
        return [EigenPair(float(target), _sign_normalize(w / np.linalg.norm(w)))]

    stacked = np.vstack([F, G])
    _, sv, vt = np.linalg.svd(stacked, full_matrices=False)
    rank = np.count_nonzero(sv > max(stacked.shape) * np.finfo(float).eps * sv[0])
    v_r = vt[:rank].T  # (q, rank); row space of [F; G]

    f_red, g_red = F @ v_r, G @ v_r
    alpha_beta, vecs = scipy.linalg.eig(
        g_red.T @ f_red, g_red.T @ g_red, homogeneous_eigvals=True
    )
    alphas, betas = alpha_beta

    nonzero = np.flatnonzero(betas != 0)
    mus = alphas[nonzero] / betas[nonzero]
    finite = np.isfinite(mus)
    mus, coeffs = mus[finite], vecs[:, nonzero[finite]]
    # one lift for every pair; v_r stays real, so no complex copy of it is made
    lifted = v_r @ coeffs.real + 1j * (v_r @ coeffs.imag)

    pairs = [
        EigenPair(_realify(mu), _sign_normalize(_realify(w / np.linalg.norm(w))))
        for mu, w in zip(mus.tolist(), lifted.T)
    ]

    if not pairs:
        raise NoEigenpairError("the pencil has no finite eigenpair")
    # stable sort: equal keys keep QZ's deterministic order
    return sorted(
        pairs,
        key=lambda p: (abs(np.real(p.value) - target), np.real(p.value), np.imag(p.value)),
    )
