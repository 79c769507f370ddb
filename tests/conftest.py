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
