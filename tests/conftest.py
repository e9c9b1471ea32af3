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
from repro.core import bfs_explore, simulate

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


@pytest.fixture(scope="session")
def clean_run():
    """``clean_run(bug, max_states)`` explores ``bug``'s system and
    scenario with no bug flag seeded, by the bug's method, once a session
    per bug and budget: BFS within ``max_states`` and 90 s, or 2,000
    seeded random walks of depth 40.  It returns ``(first violation or
    None, states explored)``, not the run, which for walks holds every
    trace.  The bug matrix's controls and ``test_bug_detection.py``'s
    no-violation tests ask through it, so where they ask for the same run
    it is run once.
    """
    memo = {}

    def run(bug, max_states=None):
        key = (bug.bug_id, max_states)
        if key not in memo:
            spec = bug.spec_factory(bug.config, bugs=(), only_invariants=[bug.invariant])
            if bug.method == "bfs":
                result = bfs_explore(spec, max_states=max_states, time_budget=90.0)
                memo[key] = (result.violation, result.stats.distinct_states)
            else:
                result = simulate(
                    spec, n_walks=2_000, max_depth=40, seed=0, stop_on_violation=True
                )
                memo[key] = (result.first_violation, result.stats.distinct_states)
        return memo[key]

    return run
