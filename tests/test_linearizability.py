"""Tests for the Wing & Gong linearizability checker."""

from hypothesis import given, strategies as st

from repro.core.linearizability import Operation, check_linearizable
from repro.specs.raft.xraft_kv import history_from_trace


def w(value, invoked, completed, client="c1"):
    return Operation(client, "write", value, invoked, completed)


def r(value, invoked, completed, client="c2"):
    return Operation(client, "read", value, invoked, completed)


class TestSequentialHistories:
    def test_empty_history(self):
        assert check_linearizable([]).ok

    def test_write_then_read(self):
        assert check_linearizable([w("a", 0, 1), r("a", 2, 3)]).ok

    def test_read_of_initial_value(self):
        assert check_linearizable([r("", 0, 1)], initial="").ok

    def test_stale_sequential_read_rejected(self):
        assert not check_linearizable([w("a", 0, 1), r("", 2, 3)]).ok

    def test_two_writes_last_wins(self):
        history = [w("a", 0, 1), w("b", 2, 3), r("b", 4, 5)]
        assert check_linearizable(history).ok

    def test_read_of_overwritten_value_rejected(self):
        history = [w("a", 0, 1), w("b", 2, 3), r("a", 4, 5)]
        assert not check_linearizable(history).ok


class TestConcurrentHistories:
    def test_concurrent_write_read_either_order(self):
        # read overlaps the write: both old and new value acceptable
        assert check_linearizable([w("a", 0, 4), r("", 1, 2)]).ok
        assert check_linearizable([w("a", 0, 4), r("a", 1, 2)]).ok

    def test_concurrent_writes_any_final_order(self):
        history = [w("a", 0, 4), w("b", 1, 3), r("a", 5, 6)]
        assert check_linearizable(history).ok
        history = [w("a", 0, 4), w("b", 1, 3), r("b", 5, 6)]
        assert check_linearizable(history).ok

    def test_non_monotonic_reads_rejected(self):
        # both reads after the write completed; second returns older data
        history = [w("a", 0, 1), r("a", 2, 3), r("", 4, 5)]
        assert not check_linearizable(history).ok

    def test_pending_write_may_take_effect(self):
        history = [w("a", 0, None), r("a", 5, 6)]
        assert check_linearizable(history).ok

    def test_pending_write_may_never_take_effect(self):
        history = [w("a", 0, None), r("", 5, 6)]
        assert check_linearizable(history).ok

    def test_linearization_returned(self):
        result = check_linearizable([w("a", 0, 1), r("a", 2, 3)])
        assert [op.kind for op in result.linearization] == ["write", "read"]

    def test_describe(self):
        assert "NOT" in check_linearizable([w("a", 0, 1), r("", 2, 3)]).describe()

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5))
    def test_sequential_write_read_pairs_always_linearizable(self, values):
        history = []
        time = 0
        for value in values:
            history.append(w(value, time, time + 1))
            history.append(r(value, time + 2, time + 3))
            time += 4
        assert check_linearizable(history).ok


class TestKVTraceHistories:
    def test_buggy_read_history_not_linearizable(self, detected):
        from repro.bugs import BUGS

        # The exploration test_bug_detection.py asks for, shared through
        # the session memo.
        result = detected(BUGS["Xraft-KV#1"], time_budget=300, max_states=3_000_000)
        assert result.found
        history = history_from_trace(result.violation.trace)
        verdict = check_linearizable(history, initial="")
        assert not verdict.ok

    def test_correct_traces_are_linearizable(self):
        import random

        from repro.core.simulation import random_walk
        from repro.specs.raft import RaftConfig, XraftKVSpec

        spec = XraftKVSpec(
            RaftConfig(nodes=("n1", "n2", "n3"), max_crashes=0, max_restarts=0),
            max_reads=2,
        )
        rng = random.Random(4)
        checked = 0
        for _ in range(300):
            walk = random_walk(spec, rng, max_depth=30, check_invariants=False)
            history = history_from_trace(walk.trace)
            if not any(op.kind == "read" for op in history):
                continue
            checked += 1
            assert check_linearizable(history, initial="").ok, walk.trace.summary()
        assert checked > 5  # the sample actually exercised reads
