"""Spectral embedding, the relaxed normalized cut: L u = lambda D u with
e^T D u = 0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolvers import sym_gen_eig
from .similarity import SimilarityGraph


@dataclass
class Embedding:
    """Rows are reduced samples; columns are D-orthonormal eigenvectors."""

    vectors: np.ndarray  # (n_samples, ell)
    eigenvalues: np.ndarray  # ascending, trivial (per-component) pairs deflated


def embed(graph: SimilarityGraph, ell) -> Embedding:
    """Embed graph vertices on the eigenvectors of L u = lambda D u.

    One zero eigenvalue per connected component is deflated before the ``ell``
    smallest remaining pairs are taken, so on a connected graph every returned
    vector satisfies the constraint e^T D u = 0. Eigenvector signs are fixed so
    that the first significant component of each column is positive.

    ``sym_gen_eig`` does the solve on the graph's Laplacian alone, reading
    D off its diagonal: a dense ``eigh`` for graphs of up to
    ``eigensolvers._DENSE_MAX_N`` vertices, Lanczos on the sparse normalized
    adjacency above that. There the trivial eigenvectors sqrt(d) * indicator
    are exact eigenvectors of the adjacency, so subtracting 3 Y Y^T moves them
    to -2, below the rest of the spectrum, and the largest remaining pairs
    are the ``ell`` wanted ones. L stays sparse on that path.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    pairs = sym_gen_eig(graph.laplacian, ell)
    vectors = np.column_stack([p.vector for p in pairs])
    eigenvalues = np.array([p.value for p in pairs], dtype=float)
    return Embedding(vectors=vectors, eigenvalues=eigenvalues)

