"""Tier-1 test configuration.

The ``tier1`` hypothesis profile makes property tests reproducible:
derandomized (examples derive from each test's source, not from a
random seed) and with no example database, so a long-lived worktree
whose ``.hypothesis/examples`` holds an old failure gives the same
answer as a fresh clone.  It is loaded by default;
``--hypothesis-profile=default`` brings back random exploration with
the local database.
"""

import dataclasses

import pytest
from hypothesis import settings

from repro.bugs import detect

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def detected():
    """``detected(bug, **kwargs)`` is :func:`repro.bugs.detect`, run once a
    session per distinct detection: the key is everything the run is a
    function of — the seeded spec, the method and the budgets — so two
    tests asking for the same exploration (or two bugs seeded jointly,
    like WRaft#1 and WRaft#2) share it.
    """
    memo = {}

    def run(bug, **kwargs):
        key = (
            bug.spec_factory,
            bug.config,
            bug.seed_flags or (bug.flag,),
            bug.invariant,
            bug.method,
            tuple(sorted(kwargs.items())),
        )
        if key not in memo:
            memo[key] = detect(bug, **kwargs)
        return dataclasses.replace(memo[key], bug=bug)

    return run
