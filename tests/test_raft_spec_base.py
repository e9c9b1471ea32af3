"""Behavioral tests for the shared Raft specification (correct mode)."""

import pytest

from collections import deque

from repro.core import Rec, Transition, bfs_explore
from repro.specs.raft import (
    CANDIDATE,
    FOLLOWER,
    LEADER,
    PRECANDIDATE,
    PySyncObjSpec,
    RaftConfig,
    RaftSpec,
    WRaftSpec,
    XraftSpec,
)
from repro.specs.raft import messages as msg

from helpers import drive, elect_leader_picks, replicate_once_picks


def make_spec(**cfg):
    defaults = dict(nodes=("n1", "n2", "n3"), values=("v1", "v2"))
    defaults.update(cfg)
    return RaftSpec(RaftConfig(**defaults))


class TestElection:
    def test_timeout_starts_candidacy(self):
        spec = make_spec()
        result = drive(spec, [("ElectionTimeout", "n1")])
        state = result.final_state
        assert state["role"]["n1"] == CANDIDATE
        assert state["currentTerm"]["n1"] == 1
        assert state["votedFor"]["n1"] == "n1"
        # RequestVote broadcast to both peers
        assert len(state["netMsgs"][("n1", "n2")]) == 1
        assert len(state["netMsgs"][("n1", "n3")]) == 1

    def test_vote_granted_once(self):
        spec = make_spec()
        result = drive(
            spec,
            [
                ("ElectionTimeout", "n1"),
                ("ElectionTimeout", "n2"),
                ("ReceiveMessage", "n1", "n3"),  # n3 grants n1
                ("ReceiveMessage", "n2", "n3"),  # n3 must reject n2 (same term)
            ],
        )
        state = result.final_state
        assert state["votedFor"]["n3"] == "n1"
        reply = state["netMsgs"][("n3", "n2")][0]
        assert not reply["granted"]

    def test_quorum_elects_leader(self):
        spec = make_spec()
        result = drive(spec, elect_leader_picks("n1", "n2"))
        state = result.final_state
        assert state["role"]["n1"] == LEADER
        assert state["votesGranted"]["n1"] == frozenset({"n1", "n2"})
        # Initial empty heartbeats went out immediately.
        assert any(m["type"] == "AppendEntries" for m in state["netMsgs"][("n1", "n3")])

    def test_leader_steps_down_on_higher_term(self):
        spec = make_spec()
        picks = elect_leader_picks("n1", "n2") + [
            ("ElectionTimeout", "n3"),       # term 1 -> candidate
            ("ElectionTimeout", "n3"),       # term 2 (candidate retry)
            ("ReceiveMessage", "n3", "n1"),  # term-1 RequestVote: rejected
            ("ReceiveMessage", "n3", "n1"),  # term-2 RequestVote: step down
        ]
        result = drive(spec, picks)
        state = result.final_state
        assert state["role"]["n1"] == FOLLOWER
        assert state["currentTerm"]["n1"] == 2

    def test_stale_vote_response_ignored(self):
        spec = make_spec()
        result = drive(
            spec,
            [
                ("ElectionTimeout", "n1"),       # term 1, RV out
                ("ReceiveMessage", "n1", "n2"),  # n2 grants (reply queued)
                ("ElectionTimeout", "n1"),       # term 2: stale grant now in flight
                ("ReceiveMessage", "n2", "n1"),  # stale term-1 grant arrives
            ],
        )
        state = result.final_state
        assert state["role"]["n1"] == CANDIDATE  # not elected by a stale vote
        assert state["votesGranted"]["n1"] == frozenset({"n1"})

    def test_log_up_to_date_check_blocks_vote(self):
        spec = make_spec()
        picks = (
            elect_leader_picks("n1", "n2")
            + replicate_once_picks("n1", "n2")
            + [
                ("ElectionTimeout", "n3"),       # n3 has an empty log
                ("ReceiveMessage", "n3", "n2"),  # n2 must refuse: log not up to date
            ]
        )
        result = drive(spec, picks)
        state = result.final_state
        reply = state["netMsgs"][("n2", "n3")][-1]
        assert reply["type"] == "RequestVoteResponse"
        assert not reply["granted"]


class TestReplication:
    def test_client_request_appends(self):
        spec = make_spec()
        result = drive(spec, elect_leader_picks() + [("ClientRequest", "n1")])
        state = result.final_state
        assert len(state["log"]["n1"]) == 1
        assert state["log"]["n1"][0]["val"] == "v1"

    def test_values_cycle_in_request_order(self):
        spec = make_spec()
        result = drive(
            spec,
            elect_leader_picks() + [("ClientRequest", "n1"), ("ClientRequest", "n1")],
        )
        log = result.final_state["log"]["n1"]
        assert [e["val"] for e in log] == ["v1", "v2"]

    def test_replication_and_commit(self):
        spec = make_spec()
        picks = elect_leader_picks("n1", "n2") + [
            ("ReceiveMessage", "n1", "n2"),  # initial empty AE
            ("ReceiveMessage", "n2", "n1"),  # its ack
        ] + replicate_once_picks("n1", "n2")
        result = drive(spec, picks)
        state = result.final_state
        assert state["matchIndex"]["n1"]["n2"] == 1
        assert state["commitIndex"]["n1"] == 1
        assert [e["val"] for e in state["log"]["n2"]] == ["v1"]

    def test_follower_commit_follows_leader(self):
        spec = make_spec()
        picks = (
            elect_leader_picks("n1", "n2")
            + [("ReceiveMessage", "n1", "n2"), ("ReceiveMessage", "n2", "n1")]
            + replicate_once_picks("n1", "n2")
            + [("HeartbeatTimeout", "n1"), ("ReceiveMessage", "n1", "n2")]
        )
        result = drive(spec, picks)
        assert result.final_state["commitIndex"]["n2"] == 1

    def test_mismatch_rejected_and_repaired(self):
        # n3 misses the first entry; a later AppendEntries with
        # prevLogIndex=1 is rejected, the retry repairs the log.
        spec = make_spec()
        picks = (
            elect_leader_picks("n1", "n2")
            + [("ReceiveMessage", "n1", "n2"), ("ReceiveMessage", "n2", "n1")]
            # entry 1 replicated to n2 only (n3's AE stays queued)
            + replicate_once_picks("n1", "n2")
        )
        result = drive(spec, picks)
        state = result.final_state
        # n3 still has the initial empty AE plus the entry AE queued, in
        # order — FIFO repairs it without any reject.
        queue = state["netMsgs"][("n1", "n3")]
        assert [len(m["entries"]) for m in queue if m["type"] == "AppendEntries"] == [0, 1]

    def test_commit_requires_quorum(self):
        spec = make_spec(nodes=("n1", "n2", "n3", "n4", "n5"))
        picks = [
            ("ElectionTimeout", "n1"),
            ("ReceiveMessage", "n1", "n2"),
            ("ReceiveMessage", "n1", "n3"),
            ("ReceiveMessage", "n2", "n1"),
            ("ReceiveMessage", "n3", "n1"),  # quorum of 3/5 -> leader
            ("ClientRequest", "n1"),
            ("HeartbeatTimeout", "n1"),
            ("ReceiveMessage", "n1", "n2"),
            ("ReceiveMessage", "n2", "n1"),
        ]
        result = drive(spec, picks)
        state = result.final_state
        assert state["role"]["n1"] == LEADER
        # one replica + leader = 2 < quorum(3): not committed yet
        assert state["commitIndex"]["n1"] == 0


class TestFailures:
    def test_crash_clears_channels_and_marks_dead(self):
        spec = make_spec()
        picks = elect_leader_picks("n1", "n2") + [("NodeCrash", "n3")]
        result = drive(spec, picks)
        state = result.final_state
        assert not state["alive"]["n3"]
        assert state["netMsgs"][("n1", "n3")] == ()

    def test_restart_resets_volatile_state(self):
        spec = make_spec()
        picks = elect_leader_picks("n1", "n2") + [
            ("NodeCrash", "n1"),
            ("NodeRestart", "n1"),
        ]
        result = drive(spec, picks)
        state = result.final_state
        assert state["alive"]["n1"]
        assert state["role"]["n1"] == FOLLOWER
        assert state["currentTerm"]["n1"] == 1  # persisted
        assert state["votedFor"]["n1"] == "n1"  # persisted
        assert state["votesGranted"]["n1"] == frozenset()
        assert state["commitIndex"]["n1"] == 0

    def test_sends_to_crashed_node_are_lost(self):
        spec = make_spec()
        picks = [("NodeCrash", "n3")] + elect_leader_picks("n1", "n2")
        result = drive(spec, picks)
        assert result.final_state["netMsgs"][("n1", "n3")] == ()

    def test_partition_and_heal(self):
        spec = make_spec()
        result = drive(
            spec,
            [
                ("PartitionStart", ("n1",)),
                ("ElectionTimeout", "n1"),  # RV to n2/n3 lost
                ("PartitionHeal",),
            ],
        )
        state = result.final_state
        assert state["netMsgs"][("n1", "n2")] == ()
        assert state["netDisconnected"] == frozenset()

    def test_minority_leader_cannot_commit(self):
        spec = make_spec()
        picks = (
            elect_leader_picks("n1", "n2")
            + [("PartitionStart", ("n1",)), ("ClientRequest", "n1"), ("HeartbeatTimeout", "n1")]
        )
        result = drive(spec, picks)
        state = result.final_state
        assert state["commitIndex"]["n1"] == 0
        assert state["netMsgs"][("n1", "n2")] == ()


class TestPreVote:
    def test_follower_goes_through_prevote(self):
        spec = XraftSpec(RaftConfig(nodes=("n1", "n2", "n3")))
        result = drive(spec, [("ElectionTimeout", "n1")])
        state = result.final_state
        assert state["role"]["n1"] == PRECANDIDATE
        assert state["currentTerm"]["n1"] == 0  # prevote does not bump the term

    def test_prevote_quorum_starts_real_election(self):
        spec = XraftSpec(RaftConfig(nodes=("n1", "n2", "n3")))
        result = drive(
            spec,
            [
                ("ElectionTimeout", "n1"),
                ("ReceiveMessage", "n1", "n2"),
                ("ReceiveMessage", "n2", "n1"),
            ],
        )
        state = result.final_state
        assert state["role"]["n1"] == CANDIDATE
        assert state["currentTerm"]["n1"] == 1

    def test_leader_rejects_prevote(self):
        spec = XraftSpec(RaftConfig(nodes=("n1", "n2", "n3")))
        picks = elect_leader_picks("n1", "n2", prevote=True) + [
            ("ElectionTimeout", "n2"),
            ("ReceiveMessage", "n2", "n1"),  # prevote request at the leader
        ]
        result = drive(spec, picks)
        state = result.final_state
        reply = state["netMsgs"][("n1", "n2")][-1]
        assert reply["prevote"] and not reply["granted"]

    def test_candidate_retry_skips_prevote(self):
        spec = XraftSpec(RaftConfig(nodes=("n1", "n2", "n3")))
        picks = [
            ("ElectionTimeout", "n1"),
            ("ReceiveMessage", "n1", "n2"),
            ("ReceiveMessage", "n2", "n1"),  # candidate at term 1
            ("ElectionTimeout", "n1"),       # retry goes straight to term 2
        ]
        result = drive(spec, picks)
        state = result.final_state
        assert state["role"]["n1"] == CANDIDATE
        assert state["currentTerm"]["n1"] == 2


class TestInvariantsHoldWhenCorrect:
    @pytest.mark.parametrize("nodes", [("n1", "n2"), ("n1", "n2", "n3")])
    def test_bounded_bfs_finds_no_violation(self, nodes):
        spec = RaftSpec(
            RaftConfig(
                nodes=nodes,
                values=("v1",),
                max_timeouts=2,
                max_requests=1,
                max_crashes=1,
                max_restarts=1,
                max_partitions=1,
                max_buffer=3,
                max_term=2,
            )
        )
        result = bfs_explore(spec, max_states=40_000, time_budget=60)
        assert not result.found_violation

    def test_symmetry_preserves_absence_of_violations(self):
        spec = RaftSpec(
            RaftConfig(
                nodes=("n1", "n2", "n3"),
                values=("v1",),
                max_timeouts=2,
                max_requests=1,
                max_crashes=0,
                max_restarts=0,
                max_partitions=0,
                max_buffer=3,
                max_term=2,
            )
        )
        plain = bfs_explore(spec, max_states=30_000, time_budget=60)
        symmetric = bfs_explore(spec, max_states=30_000, time_budget=60, symmetry=True)
        assert not plain.found_violation
        assert not symmetric.found_violation
        if plain.exhausted and symmetric.exhausted:
            assert symmetric.stats.distinct_states <= plain.stats.distinct_states


def deep_log_state(spec, log_len):
    """``log_len`` entries committed on every node, ``nodes[0]`` leading."""
    (init,) = spec.init_states()
    nodes, values = spec.nodes, spec.config.values
    leader = nodes[0]
    log = tuple(
        msg.entry(1 if i < log_len // 2 else 2, values[i % len(values)])
        for i in range(log_len)
    )
    return init.update(
        role=init["role"].set(leader, LEADER),
        currentTerm=Rec({n: 2 for n in nodes}),
        votedFor=Rec({n: leader for n in nodes}),
        log=Rec({n: log for n in nodes}),
        commitIndex=Rec({n: log_len for n in nodes}),
        nextIndex=init["nextIndex"].set(
            leader, Rec({p: log_len + 1 for p in nodes if p != leader})
        ),
        matchIndex=init["matchIndex"].set(
            leader, Rec({p: log_len for p in nodes if p != leader})
        ),
        votesGranted=init["votesGranted"].set(leader, frozenset(nodes)),
    )


def committed_stable_reference(spec, pre, t):
    """``CommittedEntriesStable`` as it was before the unchanged-log skip."""
    post = t.target
    for n in spec.nodes:
        commit = pre["commitIndex"][n]
        low = max(spec._snap_index(pre, n), spec._snap_index(post, n)) + 1
        for index in range(low, commit + 1):
            before = spec._entry_at(pre, n, index)
            after = spec._entry_at(post, n, index)
            if before is not None and after != before:
                return False
    return True


def edges(spec, root, max_states):
    """Every ``(pre, transition)`` of a BFS over ``max_states`` states."""
    seen, queue = {root}, deque([root])
    while queue and len(seen) < max_states:
        pre = queue.popleft()
        if not spec.state_constraint(pre):
            continue
        for t in spec.successors(pre):
            yield pre, t
            if t.target not in seen:
                seen.add(t.target)
                queue.append(t.target)


class TestCommittedStableSkipsUnchangedLogs:
    CFG = dict(nodes=("n1", "n2", "n3"), values=("v1", "v2"), max_crashes=0, max_drops=0)

    @pytest.mark.parametrize(
        "spec_cls, bugs", [(PySyncObjSpec, ()), (WRaftSpec, ()), (WRaftSpec, ("W1", "W2"))]
    )
    def test_agrees_with_the_full_walk_on_every_edge(self, spec_cls, bugs):
        spec = spec_cls(RaftConfig(**self.CFG), bugs=bugs)
        root = deep_log_state(spec, 8)
        compacted = checked = 0
        for pre, t in edges(spec, root, 2000):
            assert spec._tinv_committed_stable(pre, t) == committed_stable_reference(
                spec, pre, t
            )
            checked += 1
            compacted += t.action == "CompactLog"
        assert checked > 2000
        assert (compacted > 0) == spec.has_compaction

    def test_a_rewritten_committed_entry_is_still_caught(self):
        spec = PySyncObjSpec(RaftConfig(**self.CFG))
        pre = deep_log_state(spec, 8)
        log = pre["log"]["n2"]
        forged = pre.set("log", pre["log"].set("n2", (msg.entry(9, "v1"),) + log[1:]))
        t = Transition("ReceiveMessage", ("n1", "n2"), forged)
        assert not spec._tinv_committed_stable(pre, t)
        assert not committed_stable_reference(spec, pre, t)
        same = Transition("ReceiveMessage", ("n1", "n2"), pre.set("log", pre["log"]))
        assert spec._tinv_committed_stable(pre, same)


class TestSpecMetadata:
    def test_describe_counts(self):
        spec = make_spec()
        info = spec.describe()
        assert info["variables"] >= 10
        assert info["actions"] == 8
        assert info["invariants"] >= 10

    def test_unknown_bug_flag_rejected(self):
        with pytest.raises(ValueError):
            RaftSpec(RaftConfig(), bugs={"NOPE"})

    def test_only_invariants_filter(self):
        spec = RaftSpec(RaftConfig(), only_invariants=["ElectionSafety"])
        assert [i.name for i in spec.invariants()] == ["ElectionSafety"]
        assert spec.transition_invariants() == ()

    def test_scaled_config_doubles_budgets(self):
        cfg = RaftConfig().scaled(2)
        assert cfg.max_timeouts == RaftConfig().max_timeouts * 2
        assert cfg.max_buffer == RaftConfig().max_buffer * 2


class TestMessagePool:
    def test_equal_arguments_give_one_record(self):
        entries = [msg.entry(1, "v1")]
        first = msg.append_entries(2, 0, 0, entries, 0)
        assert msg.append_entries(2, 0, 0, tuple(entries), 0, retry=False) is first
        assert msg.request_vote(1, 0, 0) is msg.request_vote(1, 0, 0, prevote=False)
        assert msg.request_vote(1, 0, 0, prevote=True) is not msg.request_vote(1, 0, 0)

    def test_records_are_what_the_fields_say(self):
        assert list(msg.append_entries_response(3, True, 4).items()) == [
            ("type", msg.APPEND_ENTRIES_RESPONSE),
            ("term", 3),
            ("success", True),
            ("inext", 4),
        ]
        assert list(msg.entry(2, "v2").items()) == [("term", 2), ("val", "v2")]
        assert list(msg.install_snapshot(5, 6, 4, 6)) == [
            "type", "term", "lastIndex", "lastTerm", "icommit",
        ]
