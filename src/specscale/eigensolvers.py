"""Eigensolvers: graph Laplacian pairs and rectangular pencils, in numpy.

Two problems are covered. ``sym_gen_eig`` solves L x = lambda D x for a graph
Laplacian L in ``SymmetricCSR`` form, whose diagonal is the degree matrix D,
deflating exactly one trivial eigenvalue per connected component of the graph
of L's off-diagonal entries. Graphs of at most ``_DENSE_MAX_N`` vertices take a
dense ``eigh``; larger ones take Lanczos with full reorthogonalization on the
sparse normalized adjacency, with the trivial eigenvectors shifted out of the
way.
``rect_pencil_eig`` returns the eigenpairs (mu, w) that a possibly rectangular
pencil F - mu G determines, nearest mu = 1 first. A wide pencil (fewer rows
than columns) has an exact pair at every mu; it yields one pair in closed
form, at mu = 1, by a minimum-norm least-squares solve. Any other
pencil is reduced onto the row space of [F; G] and whitened by the SVD of G,
which turns its least-squares (Galerkin) pencil (G^T F, G^T G) into one
standard eigenproblem. The caller certifies the pair it keeps with
``pencil_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pcg64
from .errors import (
    DegenerateDegreeError,
    DegeneratePencilError,
    EigenConvergenceError,
    InsufficientSpectrumError,
    InternalConsistencyError,
    NoEigenpairError,
)

_SYM_RESIDUAL_BOUND = 1e-8
# Largest graph solved by dense eigh. Where it breaks even with Lanczos depends
# on the steps a graph takes (one pair, one BLAS thread): on unscaled toy
# graphs between n = 250 and 300 (dense 5.8 against 6.1-6.7 ms at 250, 8.0-8.8
# against 5.5-8.0 ms at 300), on toy graphs with a fit's signed factors between
# n = 100 and 200 (2.3 against 1.2 ms at 200), and wide-pencil's n = 144 graphs
# take 1.7 ms dense against 3.9-4.5 ms by Lanczos. No workload's graph lies
# between 150 and 300 vertices.
_DENSE_MAX_N = 300
# Seed of the fixed U(-1, 1) Lanczos start (``pcg64``): repeated solves are bit-identical.
_LANCZOS_SEED = 1805
_LANCZOS_TOL = 1e-12
_LANCZOS_MAX_STEPS = 500  # the benchmark's graphs converge in 32 to 48 steps
# Rows of the Lanczos basis at first; it doubles when a solve needs more. numpy
# marks an allocation of 4 MB or more for transparent huge pages, so a 500-row
# basis could back the ~1.2 MB a large-classify solve writes by 2 MB pages, and
# such runs' peak RSS read up to 1.7 MB higher.
_LANCZOS_FIRST_ROWS = 64


@dataclass(frozen=True)
class SymmetricCSR:
    """A symmetric n x n matrix in compressed sparse rows, such as a graph's
    weights W or its Laplacian D - W (symmetry is not checked). Row i holds
    ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``: its diagonal entry first, stored even
    when zero, so that no row is empty, then its nonzero off-diagonal entries."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self):
        return (self.indptr.size - 1,) * 2

    @property
    def nnz(self):
        return int(np.count_nonzero(self.data))

    @property
    def rows(self):  # of every stored entry
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x):
        # every row is nonempty, so reduceat sums exactly each row's products
        return np.add.reduceat(self.data * x[self.indices], self.indptr[:-1])

    def toarray(self):
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair, with the relative residual certificate of ``sym_gen_eig``.

    ``residual`` is ||(L - lambda D) x||_2 / (||L||_F + |lambda| ||D||_F), with
    D = diag(L), at a unit 2-norm copy of ``vector``; ``rect_pencil_eig``
    leaves it None. ``value`` and ``vector`` are real unless the pair is
    genuinely complex; a complex pencil pair then comes with its conjugate
    pair.
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


def _sign_normalize(w):
    """Flip (or phase-rotate) w so its first significant component is positive real."""
    scale = np.max(np.abs(w))
    if scale == 0.0:
        return w
    idx = np.flatnonzero(np.abs(w) > 1e-12 * scale)
    if idx.size == 0:
        return w
    lead = w[idx[0]]
    if np.iscomplexobj(w):
        return w * (np.conj(lead) / abs(lead))
    return -w if lead < 0 else w


def _components(L: SymmetricCSR):
    """(count, label) of the connected components of the graph of L's nonzero
    off-diagonal entries. Every vertex takes the smallest label in its closed
    neighborhood, then that label's label (pointer jumping), until nothing
    changes; each component then carries its smallest vertex, its root, the
    one vertex that labels itself. Components are numbered in the increasing
    order of their roots."""
    keep = L.data != 0.0
    keep[L.indptr[:-1]] = True  # the diagonal keeps every row nonempty
    cols, starts = L.indices[keep], np.cumsum(keep)[L.indptr[:-1]] - 1
    label = np.arange(L.shape[0])
    while True:
        hooked = np.minimum.reduceat(label[cols], starts)
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            roots = np.flatnonzero(label == np.arange(label.size))
            return roots.size, np.searchsorted(roots, label)
        label = hooked


def _deflated_lanczos(whitened, root, component, c, k):
    """Pairs c .. c+k-1 of the sparse whitened matrix N by Lanczos on
    M = I - N - 3 Y Y^T, as lambda = 1 - mu (see ``sym_gen_eig``). Each step's
    three-term recurrence is followed by one classical Gram-Schmidt pass
    against every basis vector. Every 4 steps the Ritz pairs of the tridiagonal
    T are checked: a pair has converged when its residual |beta_j s_j| is at
    most ``_LANCZOS_TOL`` times the largest |Ritz value|."""
    n = root.size
    Y = np.zeros((n, c))
    Y[np.arange(n), component] = root
    Y /= np.linalg.norm(Y, axis=0)
    steps = min(n, _LANCZOS_MAX_STEPS)
    basis = np.empty((min(steps, _LANCZOS_FIRST_ROWS), n))
    alpha, beta = np.empty(steps), np.empty(steps)
    v0 = pcg64.Stream(_LANCZOS_SEED).uniform(-1.0, 1.0, n)
    basis[0] = v0 / np.linalg.norm(v0)
    converged = 0
    for j in range(steps):
        v = basis[j]
        w = v - whitened @ v - 3.0 * (Y @ (Y.T @ v))
        if j:
            w -= beta[j - 1] * basis[j - 1]
        alpha[j] = v @ w
        w -= alpha[j] * v
        h = basis[: j + 1] @ w
        w -= h @ basis[: j + 1]
        alpha[j] += h[j]
        beta[j] = np.linalg.norm(w)
        # a zero beta ends the Krylov space: its Ritz pairs are exact
        if j + 1 >= k and ((j + 1) % 4 == 0 or j + 1 == steps or beta[j] == 0.0):
            T = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, s = np.linalg.eigh(T)
            mu, s = theta[::-1][:k], s[:, ::-1][:, :k]
            residual = np.abs(beta[j] * s[-1])
            converged = np.count_nonzero(residual <= _LANCZOS_TOL * np.abs(theta).max())
            if converged == k:
                return 1.0 - mu, basis[: j + 1].T @ s
        if j + 1 < steps:
            if j + 1 == basis.shape[0]:  # full: double it, copying the rows written
                grown = np.empty((min(2 * (j + 1), steps), n))
                grown[: j + 1] = basis
                basis = grown
            basis[j + 1] = w / beta[j]
    raise EigenConvergenceError(
        f"Lanczos converged on {converged} of {k} eigenpairs of a {n}-vertex graph"
    )


def sym_gen_eig(L, k):
    """Smallest nontrivial eigenpairs of the normalized cut L x = lambda D x.

    Parameters
    ----------
    L : ``SymmetricCSR`` graph Laplacian D - W of an n-vertex graph: its
        nonzero off-diagonal entries are the graph's edges, minus their
        weights, and its diagonal is the degree vector d, so each row sums to
        zero. Both solver paths rely on this; it is not checked.
    k : number of eigenpairs to return.

    D = diag(L) is read off L's diagonal slots and must be positive. A graph
    Laplacian has one zero eigenvalue per connected component, whose
    eigenvectors are the component indicators. With c components, only pairs
    c .. c+k-1 of the whitened matrix N = D^-1/2 L D^-1/2 are computed and
    mapped back as x = y / sqrt(d), so on a connected graph every returned
    vector satisfies the zero-mean constraint e^T D x = 0.

    Up to ``_DENSE_MAX_N`` vertices N is densified and solved by ``eigh``.
    Above it, Lanczos (from a fixed start vector) finds the k largest
    eigenvalues mu of M = I - N - 3 Y Y^T. I - N is the normalized adjacency
    D^-1/2 W D^-1/2, with spectrum in [-1, 1]. The columns of Y are the c
    component indicators times sqrt(d), normalized; they are orthonormal and
    N Y = 0, so M Y = -2 Y exactly while M acts as I - N on the complement of
    Y. The shift thus sends the c trivial eigenvalues from 1 to -2, below the
    spectrum, and leaves the rest in place: lambda = 1 - mu are the same pairs
    c .. c+k-1. Both paths are deterministic and pass the same residual
    certificate. Like any single-vector Krylov method, Lanczos can miss
    further copies of a multiple eigenvalue.

    Returns
    -------
    list of EigenPair, ascending, vectors D-orthonormal, each residual <= 1e-8.

    Raises
    ------
    DegenerateDegreeError
        If a degree, a diagonal entry of L, is not positive.
    InsufficientSpectrumError
        If c + k > n: fewer than k nontrivial pairs exist.
    EigenConvergenceError
        If Lanczos does not converge (sparse path only).
    """
    n = L.shape[0]
    d = L.data[L.indptr[:-1]]
    if np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise DegenerateDegreeError(f"non-positive degree {d[bad]} at index {bad}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    c, component = _components(L)
    if c + k > n:
        raise InsufficientSpectrumError(
            f"{c} connected components leave {n - c} nontrivial eigenvalues, need {k}"
        )

    root = np.sqrt(d)
    inv_root = 1.0 / root
    whitened = SymmetricCSR(L.indptr, L.indices, L.data * inv_root[L.rows] * inv_root[L.indices])
    if n <= _DENSE_MAX_N:
        vals, vecs = np.linalg.eigh(whitened.toarray())
        vals, vecs = vals[c : c + k], vecs[:, c : c + k]
    else:
        vals, vecs = _deflated_lanczos(whitened, root, component, c, k)
    vecs = inv_root[:, None] * vecs

    # the certificate is homogeneous in L: evaluate it on L divided by its
    # largest |entry|, so that its norms cannot overflow; d_unit is d / scale
    scale = np.max(np.abs(L.data))
    L_unit = SymmetricCSR(L.indptr, L.indices, L.data / scale)
    d_unit = L_unit.data[L.indptr[:-1]]
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


def _realify(z):
    if np.iscomplexobj(z):
        scale = np.max(np.abs(z)) if np.ndim(z) else abs(z)
        if np.max(np.abs(np.imag(z))) <= 1e-12 * max(1.0, scale):
            return np.real(z) if np.ndim(z) else float(np.real(z))
    return z


def rect_pencil_eig(F, G):
    """Eigenpairs that the (possibly rectangular) pencil F - mu G determines,
    nearest mu = 1 first.

    A wide pencil (fewer rows than columns) has an exact pair at every mu, and
    at mu = 1 an affine family of them with last component -1. Its one
    returned pair is the member of least norm: with K = F - G, the
    minimum-norm least-squares solution s of K[:, :-1] s = K[:, -1] (``lstsq``
    with ``rcond=None``, the cutoff eps * max(shape) of the rank rule below),
    as w = [s; -1]. The solve is stable under rounding-level changes of F and
    G, and a column scaling diag(c I, 1) of the pencil maps s to s / c.

    Any other pencil is restricted to the row space of the stacked [F; G] (its
    right singular vectors V_r whose singular value exceeds max(shape) * eps
    times the largest), giving F_r and G_r; a lifted vector w = V_r z has no
    component in the joint nullspace of F and G, which solves the pencil for
    every mu and is not reported. The reduction is solved as its least-squares
    (Galerkin) pencil G_r^T (F_r - mu G_r) z = 0: with the thin SVD
    G_r = U S V^T (G^T G = R^T R, R = S V^T) that is the standard eigenproblem
    U^T F_r V S^-1 y = mu y, z = V S^-1 y. Directions N that G_r annihilates
    meet F_r z only outside the range of U, and are fixed there by least
    squares: z = (P - N E^+ K P) a with K = (I - U U^T) F_r, E = K N and P the
    rest of V, the Schur complement of the normal equations in N. With full
    column rank the pairs solve G^T (F - mu G) w = 0, not F w = mu G w.

    No pair is certified here (``residual`` is None) and nothing is filtered.
    Complex eigenvalues appear together with their conjugates. Vectors have
    unit 2-norm and a deterministic sign. Pairs are ordered by
    (|Re mu - 1|, Re mu, Im mu); equal keys keep ``eig``'s order.

    Raises
    ------
    DegeneratePencilError
        If G = 0.
    NoEigenpairError
        If E is rank-deficient: the reduction is singular and has no eigenvalue.
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
        K = F - G
        s = np.linalg.lstsq(K[:, :-1], K[:, -1], rcond=None)[0]
        w = np.append(s, -1.0)
        return [EigenPair(1.0, _sign_normalize(w / np.linalg.norm(w)))]

    eps = np.finfo(float).eps
    stacked = np.vstack([F, G])
    _, sv, vt = np.linalg.svd(stacked, full_matrices=False)
    v_r = vt[sv > max(stacked.shape) * eps * sv[0]].T  # (q, rank); row space of [F; G]

    f_red, g_red = F @ v_r, G @ v_r
    u, sg, vt = np.linalg.svd(g_red, full_matrices=False)
    rank = np.count_nonzero(sg > max(g_red.shape) * eps * sg[0])
    u, sg, basis, null = u[:, :rank], sg[:rank], vt[:rank].T, vt[rank:].T
    if rank < v_r.shape[1]:
        K = f_red - u @ (u.T @ f_red)
        E = K @ null
        cutoff = max(E.shape) * eps * np.linalg.norm(f_red)
        if np.linalg.svd(E, compute_uv=False).min() <= cutoff:
            raise NoEigenpairError("the pencil's Galerkin reduction is singular")
        basis = basis - null @ np.linalg.lstsq(E, K @ basis, rcond=None)[0]
    mus, ys = np.linalg.eig((u.T @ f_red @ basis) / sg)
    # one lift for every pair; the basis stays real, so no complex copy of it is made
    lift, coeffs = v_r @ basis, ys / sg[:, None]
    lifted = lift @ coeffs.real + 1j * (lift @ coeffs.imag)

    pairs = [
        EigenPair(_realify(mu), _sign_normalize(_realify(w / np.linalg.norm(w))))
        for mu, w in zip(mus.tolist(), lifted.T)
    ]
    # stable sort: equal keys keep eig's deterministic order
    return sorted(
        pairs, key=lambda p: (abs(np.real(p.value) - 1), np.real(p.value), np.imag(p.value))
    )
