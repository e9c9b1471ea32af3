"""Fast tier-1 subset of the Table 2 bug matrix, paired with its control.

One parametrized test per matrix row asserts *both* directions at once:
the seeded bug flag is detected by :func:`repro.bugs.detect` with the
registry-recorded invariant, and the bug-free configuration of the same
system/scenario — explored with a comparable budget — reports no
violation.  The pairing is the point: a detection that also fires on the
fixed spec is a spec bug, not a found implementation bug.

The subset is the shallow-counterexample rows (plus two simulation rows)
so the whole matrix stays inside the tier-1 time budget; the full sweep
lives in ``test_bug_detection.py`` and the benchmarks.  Detections come
from the session ``detected`` fixture and controls from ``clean_run``,
so a row and its ``test_bug_detection.py`` counterparts share one
exploration each.
"""

from __future__ import annotations

import json

import pytest

from repro.bugs import BUGS
from repro.core import bfs_explore

#: (bug_id, detection-method budget knobs) — every row must both detect
#: and pass its clean control within these budgets.
BFS_MATRIX = ["DaosRaft#1", "Xraft#1", "RaftOS#1", "RaftOS#2", "ZooKeeper#1"]
SIM_MATRIX = ["PySyncObj#4", "WRaft#4"]


@pytest.mark.parametrize("bug_id", BFS_MATRIX)
def test_bfs_matrix_row(bug_id, detected, clean_run):
    bug = BUGS[bug_id]
    assert bug.method == "bfs"

    result = detected(bug, time_budget=120.0)
    assert result.found, f"{bug_id}: seeded bug not detected"
    assert result.violation.invariant == bug.invariant
    assert result.depth >= 1

    violation, states = clean_run(bug, max_states=max(10_000, 2 * result.distinct_states))
    assert violation is None, (
        f"{bug_id}: bug-free configuration violates {bug.invariant}"
    )
    # The control covered at least the state budget the detection needed.
    assert states >= result.distinct_states


@pytest.mark.parametrize("bug_id", SIM_MATRIX)
def test_simulation_matrix_row(bug_id, detected, clean_run):
    bug = BUGS[bug_id]
    assert bug.method == "simulate"

    result = detected(bug, time_budget=120.0, n_walks=30_000, max_depth=40, seed=0)
    assert result.found, f"{bug_id}: seeded bug not detected"
    assert result.violation.invariant == bug.invariant

    violation, _ = clean_run(bug)  # 2,000 seeded walks of depth 40
    assert violation is None, (
        f"{bug_id}: bug-free configuration violates {bug.invariant}"
    )


def test_matrix_rows_exist_in_registry():
    for bug_id in BFS_MATRIX + SIM_MATRIX:
        bug = BUGS[bug_id]
        assert bug.stage == "verification"
        assert bug.invariant


def test_parallel_counterexample_depth_and_invariant_match_serial(detected):
    """Which depth-minimal trace a parallel run reports depends on the
    worker count (each worker stops on its own first violation, and the
    master picks among those), so only the depth and the invariant are
    the serial run's.  For one worker count the result is byte-identical
    from run to run."""
    bug = BUGS["Xraft#1"]
    found = {}
    for workers in (1, 2, 3):
        # The session's serial detection is one of the two serial runs.
        runs = [
            detected(bug, time_budget=120.0).violation if workers == 1 and i == 0
            else bfs_explore(bug.make_spec(), workers=workers, time_budget=120.0).violation
            for i in range(2)
        ]
        first, second = (json.dumps(v.to_dict(), sort_keys=True) for v in runs)
        assert first == second, f"workers={workers}: counterexample differs"
        found[workers] = (runs[0].invariant, runs[0].kind, runs[0].depth)
    assert found[1][:2] == (bug.invariant, "state")
    assert found[2] == found[3] == found[1]
