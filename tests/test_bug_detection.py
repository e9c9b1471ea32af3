"""Specification-level detection of every Table 2 verification bug.

Each test runs the registry-recorded detection (BFS for shallow bugs,
random-walk simulation for the deep ones) and checks that the right
invariant is violated, that no violation exists when the bug flag is
off, and that the counterexample trace is a genuine path of the spec.
Detections go through the session's ``detected`` memo and bug-free
controls through ``clean_run`` (``conftest.py``), so an exploration two
tests ask for is run once.
"""

import pytest

from repro.bugs import BUGS, detect

FAST_BFS = ["DaosRaft#1", "Xraft#1", "RaftOS#1", "RaftOS#2", "ZooKeeper#1"]
SLOW_BFS = ["WRaft#1", "WRaft#2", "Xraft-KV#1"]
SIMULATE = [
    "PySyncObj#2",
    "PySyncObj#3",
    "PySyncObj#4",
    "PySyncObj#5",
    "WRaft#4",
    "WRaft#5",
    "WRaft#7",
    "RaftOS#4",
]


def assert_trace_is_valid(spec, violation):
    state = violation.trace.initial
    for step in violation.trace:
        successors = {t.target for t in spec.successors(state)}
        assert step.state in successors, f"invalid step {step.label}"
        state = step.state


@pytest.mark.parametrize("bug_id", FAST_BFS)
def test_bfs_finds_bug(bug_id, detected):
    bug = BUGS[bug_id]
    result = detected(bug, time_budget=120.0)
    assert result.found, f"{bug_id} not found by BFS"
    assert result.violation.invariant == bug.invariant
    assert_trace_is_valid(bug.make_spec(), result.violation)


@pytest.mark.parametrize("bug_id", SIMULATE)
def test_simulation_finds_bug(bug_id, detected):
    bug = BUGS[bug_id]
    result = detected(bug, time_budget=120.0, n_walks=30_000, max_depth=40, seed=0)
    assert result.found, f"{bug_id} not found by simulation"
    assert result.violation.invariant == bug.invariant
    assert_trace_is_valid(bug.make_spec(), result.violation)


@pytest.mark.slow
@pytest.mark.parametrize("bug_id", SLOW_BFS)
def test_slow_bfs_finds_bug(bug_id, detected):
    bug = BUGS[bug_id]
    result = detected(bug, time_budget=300.0, max_states=3_000_000)
    assert result.found, f"{bug_id} not found by BFS"
    assert result.violation.invariant == bug.invariant


@pytest.mark.parametrize(
    "bug_id", ["DaosRaft#1", "Xraft#1", "RaftOS#1", "RaftOS#2"]
)
def test_no_violation_without_the_bug(bug_id, detected, clean_run):
    """The fixed spec passes the same bounded exploration: 60,000 states,
    or the bug matrix control's twice-the-detection budget when that is
    larger, so the two tests share one run."""
    bug = BUGS[bug_id]
    states = 2 * detected(bug, time_budget=120.0).distinct_states
    violation, _ = clean_run(bug, max_states=max(60_000, states))
    assert violation is None


@pytest.mark.parametrize("bug_id", ["PySyncObj#4", "WRaft#4", "WRaft#5"])
def test_no_violation_without_the_bug_simulated(bug_id, clean_run):
    violation, _ = clean_run(BUGS[bug_id])
    assert violation is None


class TestDepthOrdering:
    """BFS counterexamples have minimal depth; the paper's qualitative
    ordering (shallow bugs found with fewer states) should hold."""

    def test_shallow_bug_needs_fewer_states_than_deep(self, detected):
        shallow = detected(BUGS["ZooKeeper#1"], time_budget=120)
        deep = detected(BUGS["Xraft-KV#1"], time_budget=300, max_states=3_000_000)
        assert shallow.found and deep.found
        assert shallow.depth < deep.depth
        assert shallow.distinct_states < deep.distinct_states

    def test_bfs_depth_is_minimal(self, detected):
        # Re-running the same exhaustible detection returns the same
        # minimal depth as the session's run of it.
        first = detected(BUGS["RaftOS#2"], time_budget=120)
        second = detect(BUGS["RaftOS#2"], time_budget=120)
        assert first.depth == second.depth


class TestDetectApi:
    def test_conformance_bug_rejected(self):
        with pytest.raises(ValueError):
            detect(BUGS["PySyncObj#1"])

    def test_row_rendering(self):
        result = detect(BUGS["RaftOS#1"], time_budget=60)
        row = result.as_row()
        assert row["bug"] == "RaftOS#1"
        assert row["found"] is True
        assert row["paper_depth"] == 10
