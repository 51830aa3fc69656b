"""Shared test settings: a derandomized hypothesis profile.

Property tests draw the same examples on every run and have no per-example
deadline, so tier-1 is reproducible and does not flake on a slow or shared
host.
"""

from hypothesis import settings

settings.register_profile("crossreg", derandomize=True, deadline=None, database=None)
settings.load_profile("crossreg")
