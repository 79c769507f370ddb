"""Suite-wide settings: hypothesis draws the same examples on every run and
applies no per-example deadline, so timing on a loaded machine cannot fail a test.

On a failing example hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import emits a
``DeprecationWarning``. Under ``filterwarnings = ["error"]`` that warning would
abort the whole run with INTERNALERROR instead of reporting one failure, so the
module is imported here once, with that warning ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("specscale", derandomize=True, deadline=None)
settings.load_profile("specscale")
