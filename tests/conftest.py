"""Suite-wide settings and oracles.

Hypothesis draws the same examples on every run and applies no per-example
deadline, so timing on a loaded machine cannot fail a test.

On a failing example hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import emits a
``DeprecationWarning``. Under ``filterwarnings = ["error"]`` that warning would
abort the whole run with INTERNALERROR instead of reporting one failure, so the
module is imported here once, with that warning ignored.
"""

import warnings

import numpy as np
import pytest
from hypothesis import settings

from specscale import SymmetricCSR

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("specscale", derandomize=True, deadline=None)
settings.load_profile("specscale")


def _pair_tensor(values):
    diff = values[:, None, :] - values[None, :, :]
    return np.square(diff, out=diff)


@pytest.fixture
def pair_tensor():
    """Brute-force oracle: the n x n x m tensor of squared pair differences
    (x_ik - x_jk)^2, whose sums the package forms in closed form."""
    return _pair_tensor


def _csr_from_dense(A):
    A = np.asarray(A, dtype=float)
    indptr, indices = [0], []
    for i, row in enumerate(A):
        indices += [i] + [j for j in np.flatnonzero(row) if j != i]
        indptr.append(len(indices))
    rows = np.repeat(np.arange(A.shape[0]), np.diff(indptr))
    return SymmetricCSR(np.array(indptr), np.array(indices, dtype=int), A[rows, indices])


@pytest.fixture(scope="session")
def csr_from_dense():
    """Oracle builder: the ``SymmetricCSR`` of a dense symmetric array, each
    row its diagonal entry first, then its nonzero off-diagonal entries in
    column order. Session-scoped, so that hypothesis tests may take it."""
    return _csr_from_dense


def _symmetrized(cols, weights):
    n, k = cols.shape
    own = np.arange(n)
    rows = np.concatenate([np.repeat(own, k), cols.ravel(), own])
    columns = np.concatenate([cols.ravel(), np.repeat(own, k), own])
    values = np.concatenate([weights.ravel(), weights.ravel(), np.zeros(n)])
    key = rows * (n + 1) + np.where(rows == columns, 0, columns + 1)
    order = np.argsort(key)
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    rows, columns = rows[order[first]], columns[order[first]]
    data = np.add.reduceat(values[order], first) / 2.0
    keep = (data != 0.0) | (rows == columns)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
    return SymmetricCSR(indptr, columns[keep], data[keep])


@pytest.fixture(scope="session")
def symmetrized_oracle():
    """Oracle: (M + M^T) / 2 as a ``SymmetricCSR`` for the n x n matrix M whose
    row i holds ``weights[i]`` at the columns ``cols[i]``, from the rows,
    columns and values of all its stored entries side by side, sorted by one
    key (row, then the diagonal, then column) and summed per key; zeros off
    the diagonal dropped. The package builds the same arrays with fewer
    alive. Session-scoped, so that hypothesis tests may take it."""
    return _symmetrized
