"""Shared test configuration.

Property tests run under a derandomized Hypothesis profile, so every run of
the suite tries the same examples, and without a per-example deadline,
since the naive oracles they compare against are slow by design.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
