"""Unit tests for each per-system specification override.

Each variant's hook methods are exercised directly on crafted states, so
a regression in one seeded bug's mechanics fails here with a precise
message, independent of whole-model exploration.
"""

import pytest

from repro.core import Rec
from repro.specs.raft import (
    DaosRaftSpec,
    PySyncObjSpec,
    RaftConfig,
    RaftOSSpec,
    RedisRaftSpec,
    WRaftSpec,
    XraftKVSpec,
    XraftSpec,
)

from helpers import drive, elect_leader_picks, replicate_once_picks

CFG = RaftConfig(nodes=("n1", "n2", "n3"))


class TestPySyncObjSpec:
    def test_aggressive_next_advance_after_send(self):
        spec = PySyncObjSpec(CFG)
        result = drive(
            spec,
            elect_leader_picks() + [("ClientRequest", "n1"), ("HeartbeatTimeout", "n1")],
        )
        state = result.final_state
        assert state["nextIndex"]["n1"]["n2"] == 2  # last+1, optimistically
        assert state["nextIndex"]["n1"]["n3"] == 2

    @pytest.mark.parametrize("bug,expected", [(frozenset(), 3), (frozenset({"P4"}), 2)])
    def test_success_hint_off_by_one(self, bug, expected):
        spec = PySyncObjSpec(CFG, bugs=bug)
        state = next(spec.init_states())
        entries = (Rec(term=1, val="v1"), Rec(term=1, val="v2"))
        assert spec._success_hint(state, "n2", 0, entries) == expected

    def test_success_hint_correct_for_empty_entries_even_buggy(self):
        spec = PySyncObjSpec(CFG, bugs={"P4"})
        state = next(spec.init_states())
        assert spec._success_hint(state, "n2", 2, ()) == 3

    def test_update_match(self):
        assert PySyncObjSpec(CFG)._update_match(4, 3) == 4
        assert PySyncObjSpec(CFG, bugs={"P4"})._update_match(4, 3) == 3

    def test_next_on_success(self):
        assert PySyncObjSpec(CFG)._next_on_success(4, 4) == 5
        assert PySyncObjSpec(CFG, bugs={"P3"})._next_on_success(4, 4) == 4

    def test_commit_term_check(self):
        assert PySyncObjSpec(CFG)._commit_term_check()
        assert not PySyncObjSpec(CFG, bugs={"P5"})._commit_term_check()

    def test_follower_commit_clamp(self):
        spec = PySyncObjSpec(CFG)
        buggy = PySyncObjSpec(CFG, bugs={"P2"})
        state = next(spec.init_states())
        state = state.set("commitIndex", state["commitIndex"].set("n2", 3))
        assert spec._set_follower_commit(state, "n2", 1)["commitIndex"]["n2"] == 3
        assert buggy._set_follower_commit(state, "n2", 1)["commitIndex"]["n2"] == 1


class TestWRaftSpec:
    def test_udp_network(self):
        assert WRaftSpec(CFG).net.kind == "udp"
        assert WRaftSpec(CFG).has_compaction

    def test_w1_commit_target_uses_local_last(self):
        spec = WRaftSpec(CFG, bugs={"W1"})
        state = next(spec.init_states())
        state = state.set(
            "log", state["log"].set("n2", (Rec(term=1, val="x"),))
        )
        # empty AppendEntries at prev=0 with icommit=1
        assert spec._follower_commit_target(state, "n2", 1, 0, 0) == 1
        fixed = WRaftSpec(CFG)
        assert fixed._follower_commit_target(state, "n2", 1, 0, 0) == 0

    def test_w4_overwrites_stale_term(self):
        spec = WRaftSpec(CFG, bugs={"W4"})
        state = next(spec.init_states())
        state = state.set("currentTerm", state["currentTerm"].set("n1", 5))
        message = Rec(type="AppendEntriesResponse", term=2, success=True, inext=1)
        rolled, branch = spec._stale_term_overwrite(state, "n2", "n1", message)
        assert rolled["currentTerm"]["n1"] == 2
        assert branch == "aer-term-overwrite"
        assert WRaftSpec(CFG)._stale_term_overwrite(state, "n2", "n1", message) is None

    def test_w5_empty_retry_entries(self):
        spec = WRaftSpec(CFG, bugs={"W5"})
        state = next(spec.init_states())
        entries = (Rec(term=1, val="v1"),)
        assert spec._select_entries(state, "n1", "n2", entries, retry=True) == ()
        assert spec._select_entries(state, "n1", "n2", entries, retry=False) == entries

    def test_w7_unclamped_reject_hint(self):
        state = next(WRaftSpec(CFG).init_states())
        state = state.set(
            "matchIndex", state["matchIndex"].apply("n1", lambda r: r.set("n2", 4))
        )
        assert WRaftSpec(CFG, bugs={"W7"})._next_on_reject(state, "n1", "n2", 1) == 1
        assert WRaftSpec(CFG)._next_on_reject(state, "n1", "n2", 1) == 5

    def test_retry_invariant_present(self):
        names = {i.name for i in WRaftSpec(CFG).invariants()}
        assert "RetryRequestsCarryEntries" in names


class TestDownstreamSpecs:
    def test_redisraft_fixed_bug_set(self):
        assert RedisRaftSpec.supported_bugs == frozenset({"W1", "W5", "W7"})
        with pytest.raises(ValueError):
            RedisRaftSpec(CFG, bugs={"W2"})

    def test_redisraft_has_prevote(self):
        spec = RedisRaftSpec(CFG)
        assert spec.has_prevote
        assert "preVotes" in next(spec.init_states())

    def test_daosraft_leader_vote_override_requires_flag(self):
        spec = DaosRaftSpec(CFG)
        state = next(spec.init_states())
        message = Rec(type="RequestVote", term=5, lastLogIndex=0, lastLogTerm=0, prevote=False)
        assert spec._leader_vote_override(state, "n2", "n1", message) is None

    def test_daosraft_buggy_leader_keeps_role(self):
        spec = DaosRaftSpec(CFG, bugs={"D1"})
        state = next(spec.init_states())
        state = state.update(
            role=state["role"].set("n1", "Leader"),
            currentTerm=state["currentTerm"].set("n1", 1),
            votedFor=state["votedFor"].set("n1", "n1"),
        )
        message = Rec(type="RequestVote", term=2, lastLogIndex=0, lastLogTerm=0, prevote=False)
        result = spec._leader_vote_override(state, "n2", "n1", message)
        assert result is not None
        new_state, branch = result
        assert new_state["role"]["n1"] == "Leader"
        assert new_state["votedFor"]["n1"] == "n2"
        assert new_state["currentTerm"]["n1"] == 2
        assert branch == "rv-leader-grant"

    def test_leader_votes_for_self_invariant_registered(self):
        names = {i.name for i in DaosRaftSpec(CFG).invariants()}
        assert "LeaderVotesForSelf" in names


class TestRaftOSSpec:
    def test_r1_unchecked_match(self):
        assert RaftOSSpec(CFG, bugs={"R1"})._update_match(3, 1) == 1
        assert RaftOSSpec(CFG)._update_match(3, 1) == 3

    def test_r2_truncate_and_append(self):
        spec = RaftOSSpec(CFG, bugs={"R2"})
        state = next(spec.init_states())
        state = state.set(
            "log",
            state["log"].set("n2", (Rec(term=1, val="a"), Rec(term=1, val="b"))),
        )
        new = spec._append_to_log(state, "n2", 0, (Rec(term=1, val="a"),))
        assert len(new["log"]["n2"]) == 1  # b erased!
        fixed = RaftOSSpec(CFG)._append_to_log(state, "n2", 0, (Rec(term=1, val="a"),))
        assert len(fixed["log"]["n2"]) == 2  # conflict check keeps b

    def test_r4_break_on_old_term(self):
        assert RaftOSSpec(CFG, bugs={"R4"})._commit_break_on_old_term()
        assert not RaftOSSpec(CFG)._commit_break_on_old_term()


class TestRaftOS4Liveness:
    """RaftOS#4 breaks the commitment scan; the paper reports the cluster
    'fails to make progress'.  A deterministic scenario shows the loss:
    a new leader inheriting an old-term entry can never commit anything
    again, because the scan breaks at the inherited entry."""

    CFG = RaftConfig(
        nodes=("n1", "n2"),
        values=("v1", "v2"),
        max_timeouts=6,
        max_requests=2,
        max_crashes=0,
        max_restarts=0,
        max_partitions=0,
        max_drops=1,
        max_dups=0,
        max_buffer=5,
        max_term=3,
    )

    PICKS = [
        ("ElectionTimeout", "n1"),       # n1 leads term 1
        ("ReceiveMessage", "n1", "n2"),
        ("ReceiveMessage", "n2", "n1"),
        ("ClientRequest", "n1"),         # e1 at term 1
        ("HeartbeatTimeout", "n1"),
        lambda t: t.action == "ReceiveMessage"
        and t.args[:2] == ("n1", "n2")
        and t.args[2]["type"] == "AppendEntries"
        and len(t.args[2]["entries"]) == 1,
        ("DropMessage", "n2", "n1"),     # the ack is lost: e1 uncommitted
        ("ElectionTimeout", "n2"),       # n2 leads term 2, inheriting e1
        lambda t: t.action == "ReceiveMessage"
        and t.args[:2] == ("n2", "n1")
        and t.args[2]["type"] == "RequestVote",
        lambda t: t.action == "ReceiveMessage"
        and t.args[:2] == ("n1", "n2")
        and t.args[2]["type"] == "RequestVoteResponse",
        ("ClientRequest", "n2"),         # e2 at term 2
        ("HeartbeatTimeout", "n2"),
        lambda t: t.action == "ReceiveMessage"
        and t.args[:2] == ("n2", "n1")
        and t.args[2]["type"] == "AppendEntries"
        and t.args[2]["entries"],
        lambda t: t.action == "ReceiveMessage"
        and t.args[:2] == ("n1", "n2")
        and t.args[2]["type"] == "AppendEntriesResponse"
        and t.args[2]["success"],
    ]

    def run(self, bugs):
        return drive(RaftOSSpec(self.CFG, bugs=bugs, only_invariants=[]), self.PICKS)

    def test_fixed_leader_commits_inherited_entry(self):
        result = self.run(bugs=())
        assert result.final_state["commitIndex"]["n2"] == 2

    def test_buggy_leader_never_commits(self):
        result = self.run(bugs={"R4"})
        assert result.final_state["commitIndex"]["n2"] == 0


class TestXraftSpecs:
    def test_x1_toggles_stale_votes(self):
        assert XraftSpec(CFG, bugs={"X1"})._accept_stale_votes()
        assert not XraftSpec(CFG)._accept_stale_votes()

    def test_xraft_kv_has_no_prevote(self):
        assert not XraftKVSpec.has_prevote
        assert XraftSpec.has_prevote

    def test_kv_read_action_registered(self):
        names = {a.name for a in XraftKVSpec(CFG).actions()}
        assert "ClientRead" in names

    def test_kv_read_guard_requires_quorum(self):
        spec = XraftKVSpec(CFG)
        picks = elect_leader_picks() + [("PartitionStart", ("n1",))]
        result = drive(spec, picks)
        # the partitioned leader cannot confirm leadership: no read enabled
        reads = [t for t in spec.successors(result.final_state) if t.action == "ClientRead"]
        assert reads == []

    def test_kv_buggy_read_ignores_guard(self):
        spec = XraftKVSpec(CFG, bugs={"XKV1"})
        picks = elect_leader_picks() + [("PartitionStart", ("n1",))]
        result = drive(spec, picks)
        reads = [t for t in spec.successors(result.final_state) if t.action == "ClientRead"]
        assert reads

    def test_kv_ack_on_leader_commit(self):
        spec = XraftKVSpec(CFG)
        picks = (
            elect_leader_picks("n1", "n2")
            + [("ReceiveMessage", "n1", "n2"), ("ReceiveMessage", "n2", "n1")]
            + replicate_once_picks("n1", "n2")
        )
        result = drive(spec, picks)
        state = result.final_state
        assert state["ackedWrites"] == ("v1",)
        assert state["appliedValue"]["n1"] == "v1"

    def test_kv_applied_value_reset_on_restart(self):
        cfg = RaftConfig(nodes=("n1", "n2", "n3"), max_crashes=1, max_restarts=1)
        spec = XraftKVSpec(cfg)
        picks = (
            elect_leader_picks("n1", "n2")
            + [("ReceiveMessage", "n1", "n2"), ("ReceiveMessage", "n2", "n1")]
            + replicate_once_picks("n1", "n2")
            + [("NodeCrash", "n1"), ("NodeRestart", "n1")]
        )
        result = drive(spec, picks)
        assert result.final_state["appliedValue"]["n1"] == ""
