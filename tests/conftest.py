"""Tier-1 test configuration.

The ``tier1`` hypothesis profile makes property tests reproducible:
derandomized (examples derive from each test's source, not from a
random seed) and with no example database, so a long-lived worktree
whose ``.hypothesis/examples`` holds an old failure gives the same
answer as a fresh clone.  It is loaded by default;
``--hypothesis-profile=default`` brings back random exploration with
the local database.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
