"""Shared test configuration: hypothesis draws the same examples every run."""

from hypothesis import settings

# Derandomized draws keep the tolerance-based properties from flaking between
# runs; deadline=None because the first example pays numpy's warm-up.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
