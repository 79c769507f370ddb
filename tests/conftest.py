"""Suite-wide settings: hypothesis draws the same examples on every run and
applies no per-example deadline, so timing on a loaded machine cannot fail a test."""

from hypothesis import settings

settings.register_profile("specscale", derandomize=True, deadline=None)
settings.load_profile("specscale")
