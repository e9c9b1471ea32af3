"""The shared Raft specification (§3.1, §4.2).

All seven Raft-family target systems (PySyncObj, WRaft, RedisRaft,
DaosRaft, RaftOS, Xraft, Xraft-KV) are modeled as subclasses of
:class:`RaftSpec`.  The base class implements the *correct* protocol —
leader election, log replication, commitment — plus the optional PreVote
and log-compaction modules; the environment it runs in (nodes, budgets,
the TCP or UDP network, delivery and failures) is
:class:`~repro.specs.network.ClusterSpec`'s.

Following the paper's methodology, a specification describes the *actual*
(potentially buggy) implementation: each documented bug is seeded behind a
flag in ``bugs`` (codes match :mod:`repro.bugs.registry`), and variant
subclasses override the handler hooks where their system's behavior
genuinely differs.

Actions correspond one-to-one to node-level events (message delivery,
timeouts, client requests, node crash/restart, network failures) so that
every specification trace converts directly into deterministic-execution
engine commands (§4.1).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ...core.spec import Action, Invariant, Transition, TransitionInvariant
from ...core.state import Rec
from ..network import ClusterSpec, _inc
from . import messages as msg

__all__ = ["RaftConfig", "RaftSpec", "FOLLOWER", "CANDIDATE", "LEADER", "PRECANDIDATE"]

FOLLOWER = "Follower"
CANDIDATE = "Candidate"
LEADER = "Leader"
PRECANDIDATE = "PreCandidate"

NOBODY = ""


@dataclasses.dataclass(frozen=True)
class RaftConfig:
    """A model configuration plus budget constraints (§3.3).

    ``nodes`` and ``values`` form the configuration; the ``max_*`` fields
    are the budget constraint bounding timeouts, client requests,
    failures, and message buffers, exactly the knobs ranked by
    Algorithm 1.
    """

    nodes: Tuple[str, ...] = ("n1", "n2", "n3")
    values: Tuple[str, ...] = ("v1", "v2")
    max_timeouts: int = 3
    max_requests: int = 2
    max_crashes: int = 1
    max_restarts: int = 1
    max_partitions: int = 1
    max_drops: int = 1
    max_dups: int = 1
    max_compactions: int = 1
    max_buffer: int = 4
    max_term: int = 3

    def scaled(self, factor: int) -> "RaftConfig":
        """Multiply every budget bound by ``factor`` (Table 3 exp. #2)."""
        return dataclasses.replace(
            self,
            max_timeouts=self.max_timeouts * factor,
            max_requests=self.max_requests * factor,
            max_crashes=self.max_crashes * factor,
            max_restarts=self.max_restarts * factor,
            max_partitions=self.max_partitions * factor,
            max_drops=self.max_drops * factor,
            max_dups=self.max_dups * factor,
            max_compactions=self.max_compactions * factor,
            max_buffer=self.max_buffer * factor,
            max_term=self.max_term * factor,
        )


class RaftSpec(ClusterSpec):
    """Correct Raft as a state machine, with per-system hook points."""

    name = "raft"
    config_type = RaftConfig
    COUNTERS = ClusterSpec.COUNTERS + ("drops", "dups", "compactions")
    has_prevote = False
    has_compaction = False

    # ------------------------------------------------------------------
    # state machine definition
    # ------------------------------------------------------------------

    def _protocol_variables(self) -> dict:
        per_node_int = Rec({n: 0 for n in self.nodes})
        peers_map = Rec(
            {n: Rec({p: 0 for p in self.nodes if p != n}) for n in self.nodes}
        )
        next_map = Rec(
            {n: Rec({p: 1 for p in self.nodes if p != n}) for n in self.nodes}
        )
        variables = {
            "role": Rec({n: FOLLOWER for n in self.nodes}),
            "currentTerm": per_node_int,
            "votedFor": Rec({n: NOBODY for n in self.nodes}),
            "log": Rec({n: () for n in self.nodes}),
            "commitIndex": per_node_int,
            "nextIndex": next_map,
            "matchIndex": peers_map,
            "votesGranted": Rec({n: frozenset() for n in self.nodes}),
        }
        if self.has_prevote:
            variables["preVotes"] = Rec({n: frozenset() for n in self.nodes})
        if self.has_compaction:
            variables["snapshotIndex"] = per_node_int
            variables["snapshotTerm"] = per_node_int
        return variables

    def _message_handlers(self) -> dict:
        return {
            msg.REQUEST_VOTE: self._on_request_vote,
            msg.REQUEST_VOTE_RESPONSE: self._on_request_vote_response,
            msg.APPEND_ENTRIES: self._on_append_entries,
            msg.APPEND_ENTRIES_RESPONSE: self._on_append_entries_response,
            msg.INSTALL_SNAPSHOT: self._on_install_snapshot,
            msg.INSTALL_SNAPSHOT_RESPONSE: self._on_install_snapshot_response,
        }

    def _timeout_actions(self) -> List[Action]:
        return [
            Action("ElectionTimeout", self._act_election_timeout, kind="timeout"),
            Action("HeartbeatTimeout", self._act_heartbeat_timeout, kind="timeout"),
        ]

    def _build_actions(self) -> List[Action]:
        actions = super()._build_actions()
        if self.has_compaction:
            actions.append(Action("CompactLog", self._act_compact, kind="internal"))
        return actions

    def symmetry_sets(self) -> Sequence[Tuple[str, ...]]:
        return (self.nodes,)

    # ------------------------------------------------------------------
    # log accessors (absolute, 1-based indices; compaction-aware)
    # ------------------------------------------------------------------

    def _snap_index(self, state: Rec, node: str) -> int:
        return state["snapshotIndex"][node] if self.has_compaction else 0

    def _snap_term(self, state: Rec, node: str) -> int:
        return state["snapshotTerm"][node] if self.has_compaction else 0

    def _last_index(self, state: Rec, node: str) -> int:
        return self._snap_index(state, node) + len(state["log"][node])

    def _last_term(self, state: Rec, node: str) -> int:
        log = state["log"][node]
        if log:
            return log[-1]["term"]
        return self._snap_term(state, node)

    def _term_at(self, state: Rec, node: str, index: int) -> Optional[int]:
        """Term of the entry at absolute ``index``; None if unavailable."""
        if index == 0:
            return 0
        snap = self._snap_index(state, node)
        if index == snap:
            return self._snap_term(state, node)
        if index < snap:
            return None  # compacted away
        log = state["log"][node]
        pos = index - snap - 1
        if pos >= len(log):
            return None  # beyond the end of the log
        return log[pos]["term"]

    def _entries_from(self, state: Rec, node: str, start: int) -> Tuple[Rec, ...]:
        """Entries at absolute indices >= ``start`` (assumes not compacted)."""
        snap = self._snap_index(state, node)
        pos = max(0, start - snap - 1)
        return state["log"][node][pos:]

    # ------------------------------------------------------------------
    # actions: timeouts
    # ------------------------------------------------------------------

    def _act_election_timeout(self, state: Rec):
        counter = state["eventCounter"]
        if counter["timeouts"] >= self.config.max_timeouts:
            return
        for node in self.nodes:
            if not state["alive"][node] or state["role"][node] == LEADER:
                continue
            if state["currentTerm"][node] >= self.config.max_term:
                continue
            counted = state.set("eventCounter", counter.apply("timeouts", _inc))
            # A candidate's retry skips PreVote (it already passed it);
            # followers and pre-candidates go through the PreVote round.
            if self.has_prevote and state["role"][node] != CANDIDATE:
                yield (node,), self._begin_prevote(counted, node), "prevote"
            else:
                yield (node,), self._become_candidate(counted, node), "election"

    def _act_heartbeat_timeout(self, state: Rec):
        counter = state["eventCounter"]
        if counter["timeouts"] >= self.config.max_timeouts:
            return
        for node in self.nodes:
            if not state["alive"][node] or state["role"][node] != LEADER:
                continue
            counted = state.set("eventCounter", counter.apply("timeouts", _inc))
            yield (node,), self._replicate_all(counted, node), "heartbeat"

    def _begin_prevote(self, state: Rec, node: str) -> Rec:
        proposed = state["currentTerm"][node] + 1
        state = state.update(
            role=state["role"].set(node, PRECANDIDATE),
            preVotes=state["preVotes"].set(node, frozenset({node})),
        )
        if 1 >= self.quorum():  # single-node cluster pre-votes for itself
            return self._become_candidate(state, node)
        request = msg.request_vote(
            proposed,
            self._last_index(state, node),
            self._last_term(state, node),
            prevote=True,
        )
        return self._broadcast(state, node, request)

    def _become_candidate(self, state: Rec, node: str) -> Rec:
        term = state["currentTerm"][node] + 1
        state = state.update(
            role=state["role"].set(node, CANDIDATE),
            currentTerm=state["currentTerm"].set(node, term),
            votedFor=state["votedFor"].set(node, node),
            votesGranted=state["votesGranted"].set(node, frozenset({node})),
        )
        if self.has_prevote:
            state = state.set("preVotes", state["preVotes"].set(node, frozenset()))
        if 1 >= self.quorum():  # single-node cluster
            return self._become_leader(state, node)
        request = msg.request_vote(
            term, self._last_index(state, node), self._last_term(state, node)
        )
        return self._broadcast(state, node, request)

    def _become_leader(self, state: Rec, node: str) -> Rec:
        last = self._last_index(state, node)
        state = state.update(
            role=state["role"].set(node, LEADER),
            nextIndex=state["nextIndex"].set(
                node, Rec({p: last + 1 for p in self.nodes if p != node})
            ),
            matchIndex=state["matchIndex"].set(
                node, Rec({p: 0 for p in self.nodes if p != node})
            ),
        )
        return self._replicate_all(state, node)

    # ------------------------------------------------------------------
    # actions: client requests
    # ------------------------------------------------------------------

    def _act_client_request(self, state: Rec):
        counter = state["eventCounter"]
        if counter["requests"] >= self.config.max_requests:
            return
        value = self.config.values[counter["requests"] % len(self.config.values)]
        for node in self.nodes:
            if not state["alive"][node] or state["role"][node] != LEADER:
                continue
            new = state.update(
                log=state["log"].apply(
                    node,
                    lambda log: log + (msg.entry(state["currentTerm"][node], value),),
                ),
                eventCounter=counter.apply("requests", _inc),
            )
            new = self._after_client_request(new, node, value)
            yield (node, value), new, "request"

    def _after_client_request(self, state: Rec, node: str, value: str) -> Rec:
        """Hook: variant-specific bookkeeping after a client request."""
        return state

    # ------------------------------------------------------------------
    # actions: restart and compaction
    # ------------------------------------------------------------------

    def _restart(self, state: Rec, node: str) -> dict:
        # Volatile state is lost: role, votes, leader bookkeeping and the
        # commit index reset; currentTerm, votedFor and the log are
        # persistent (as is the snapshot).
        volatile = dict(
            role=state["role"].set(node, FOLLOWER),
            votesGranted=state["votesGranted"].set(node, frozenset()),
            commitIndex=state["commitIndex"].set(node, self._snap_index(state, node)),
            nextIndex=state["nextIndex"].set(
                node, Rec({p: 1 for p in self.nodes if p != node})
            ),
            matchIndex=state["matchIndex"].set(
                node, Rec({p: 0 for p in self.nodes if p != node})
            ),
        )
        if self.has_prevote:
            volatile["preVotes"] = state["preVotes"].set(node, frozenset())
        return volatile

    def _act_compact(self, state: Rec):
        counter = state["eventCounter"]
        if counter["compactions"] >= self.config.max_compactions:
            return
        for node in self.nodes:
            if not state["alive"][node]:
                continue
            commit = state["commitIndex"][node]
            snap = self._snap_index(state, node)
            if commit <= snap:
                continue
            term = self._term_at(state, node, commit)
            remaining = self._entries_from(state, node, commit + 1)
            new = state.update(
                snapshotIndex=state["snapshotIndex"].set(node, commit),
                snapshotTerm=state["snapshotTerm"].set(node, term),
                log=state["log"].set(node, remaining),
                eventCounter=counter.apply("compactions", _inc),
            )
            yield (node,), new, "compact"

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------

    # -- term bookkeeping ---------------------------------------------------

    def _observe_term(self, state: Rec, node: str, term: int) -> Rec:
        """Step down to follower if ``term`` is newer (correct behavior)."""
        if term <= state["currentTerm"][node]:
            return state
        return state.update(
            currentTerm=state["currentTerm"].set(node, term),
            role=state["role"].set(node, FOLLOWER),
            votedFor=state["votedFor"].set(node, NOBODY),
        )

    def _log_up_to_date(self, state: Rec, node: str, last_term: int, last_index: int) -> bool:
        my_term = self._last_term(state, node)
        my_index = self._last_index(state, node)
        return (last_term, last_index) >= (my_term, my_index)

    # -- RequestVote -----------------------------------------------------------

    def _on_request_vote(self, state: Rec, src: str, dst: str, m: Rec):
        if m["prevote"]:
            yield from self._on_prevote_request(state, src, dst, m)
            return
        leader_grant = self._leader_vote_override(state, src, dst, m)
        if leader_grant is not None:
            yield leader_grant
            return
        state = self._observe_term(state, dst, m["term"])
        up_to_date = self._log_up_to_date(state, dst, m["lastLogTerm"], m["lastLogIndex"])
        grant = (
            m["term"] == state["currentTerm"][dst]
            and state["votedFor"][dst] in (NOBODY, src)
            and state["role"][dst] in (FOLLOWER, PRECANDIDATE)
            and up_to_date
        )
        if grant:
            state = state.set("votedFor", state["votedFor"].set(dst, src))
        reply = msg.request_vote_response(state["currentTerm"][dst], grant)
        yield self._send(state, dst, src, reply), ("rv-grant" if grant else "rv-reject")

    def _leader_vote_override(self, state: Rec, src: str, dst: str, m: Rec):
        """Hook for DaosRaft#1: a buggy leader grants votes without
        stepping down.  Returns a (state, branch) pair or None."""
        return None

    def _on_prevote_request(self, state: Rec, src: str, dst: str, m: Rec):
        grant = (
            m["term"] > state["currentTerm"][dst]
            and state["role"][dst] != LEADER
            and self._log_up_to_date(state, dst, m["lastLogTerm"], m["lastLogIndex"])
        )
        reply = msg.request_vote_response(m["term"], grant, prevote=True)
        yield self._send(state, dst, src, reply), (
            "pv-grant" if grant else "pv-reject"
        )

    def _on_request_vote_response(self, state: Rec, src: str, dst: str, m: Rec):
        if m["prevote"]:
            yield from self._on_prevote_response(state, src, dst, m)
            return
        if m["term"] > state["currentTerm"][dst]:
            yield self._observe_term(state, dst, m["term"]), "rvr-higher-term"
            return
        term_matches = m["term"] == state["currentTerm"][dst]
        if not term_matches and not self._accept_stale_votes():
            yield state, "rvr-stale"
            return
        if state["role"][dst] != CANDIDATE or not m["granted"]:
            yield state, "rvr-ignored"
            return
        votes = state["votesGranted"][dst] | {src}
        state = state.set("votesGranted", state["votesGranted"].set(dst, votes))
        if len(votes) >= self.quorum():
            yield self._become_leader(state, dst), "rvr-win"
        else:
            yield state, "rvr-count"

    def _accept_stale_votes(self) -> bool:
        """Hook for Xraft#1: count vote responses from older elections."""
        return False

    def _on_prevote_response(self, state: Rec, src: str, dst: str, m: Rec):
        if state["role"][dst] != PRECANDIDATE:
            yield state, "pvr-ignored"
            return
        if m["term"] != state["currentTerm"][dst] + 1 or not m["granted"]:
            yield state, "pvr-ignored"
            return
        votes = state["preVotes"][dst] | {src}
        state = state.set("preVotes", state["preVotes"].set(dst, votes))
        if len(votes) >= self.quorum():
            yield self._become_candidate(state, dst), "pvr-win"
        else:
            yield state, "pvr-count"

    # -- AppendEntries ------------------------------------------------------------

    def _on_append_entries(self, state: Rec, src: str, dst: str, m: Rec):
        if m["term"] < state["currentTerm"][dst]:
            reply = msg.append_entries_response(
                state["currentTerm"][dst], False, self._reject_hint(state, dst, m)
            )
            yield self._send(state, dst, src, reply), "ae-stale"
            return
        state = self._observe_term(state, dst, m["term"])
        # An AppendEntries from the current-term leader demotes candidates.
        if state["role"][dst] != FOLLOWER:
            state = state.set("role", state["role"].set(dst, FOLLOWER))

        prev = m["prevLogIndex"]
        entries = m["entries"]
        snap = self._snap_index(state, dst)
        if prev < snap:
            # Entries at or below the snapshot are already committed
            # locally; skip the overlap.
            overlap = snap - prev
            entries = entries[overlap:]
            prev = snap
        prev_term = self._term_at(state, dst, prev)
        matched = prev == 0 or (
            prev_term is not None and prev_term == m["prevLogTerm"]
        )
        if not matched:
            reply = msg.append_entries_response(
                state["currentTerm"][dst], False, self._reject_hint(state, dst, m)
            )
            yield self._send(state, dst, src, reply), "ae-reject"
            return
        state = self._append_to_log(state, dst, prev, entries)
        target = self._follower_commit_target(state, dst, m["icommit"], prev, len(entries))
        state = self._set_follower_commit(state, dst, target)
        reply = msg.append_entries_response(
            state["currentTerm"][dst],
            True,
            self._success_hint(state, dst, prev, entries),
        )
        yield self._send(state, dst, src, reply), "ae-accept"

    def _append_to_log(self, state: Rec, node: str, prev: int, entries: Tuple[Rec, ...]) -> Rec:
        """Append ``entries`` after absolute index ``prev``.

        Correct conflict handling: keep existing entries that match; on
        the first term conflict, truncate from there and append the rest.
        RaftOS overrides this with its buggy unconditional truncation
        (RaftOS#2).
        """
        log = state["log"][node]
        snap = self._snap_index(state, node)
        base = prev - snap  # position in the stored tuple after which entries go
        new_log = list(log)
        changed = False
        for offset, incoming in enumerate(entries):
            pos = base + offset
            if pos < len(new_log):
                if new_log[pos]["term"] == incoming["term"]:
                    continue  # already have it
                del new_log[pos:]
                new_log.append(incoming)
                changed = True
            else:
                new_log.append(incoming)
                changed = True
        if not changed:
            return state
        return state.set("log", state["log"].set(node, tuple(new_log)))

    def _follower_commit_target(
        self, state: Rec, node: str, icommit: int, prev: int, n_entries: int
    ) -> int:
        """Correct rule: commit up to min(leaderCommit, last *new* entry).

        WRaft#1 overrides this to use the local last index, which commits
        entries the leader never sent (Figure 7).
        """
        return min(icommit, prev + n_entries)

    def _set_follower_commit(self, state: Rec, node: str, target: int) -> Rec:
        """Correct rule: the commit index only moves forward.

        PySyncObj#2 overrides this with an unchecked assignment.
        """
        if target <= state["commitIndex"][node]:
            return state
        old = state["commitIndex"][node]
        state = state.set("commitIndex", state["commitIndex"].set(node, target))
        return self._on_commit_advance(state, node, old, target)

    def _success_hint(self, state: Rec, node: str, prev: int, entries: Tuple[Rec, ...]) -> int:
        """The Inext hint in a successful AppendEntries response.

        Correct value: one past the last replicated entry.  PySyncObj#4
        overrides this with an off-by-one when entries are present
        (Figure 6).
        """
        return prev + len(entries) + 1

    def _reject_hint(self, state: Rec, node: str, m: Rec) -> int:
        """The Inext hint in a rejection: where the leader should retry."""
        return max(1, min(self._last_index(state, node) + 1, m["prevLogIndex"]))

    # -- AppendEntriesResponse -------------------------------------------------------

    def _on_append_entries_response(self, state: Rec, src: str, dst: str, m: Rec):
        if m["term"] > state["currentTerm"][dst]:
            yield self._observe_term(state, dst, m["term"]), "aer-higher-term"
            return
        overridden = self._stale_term_overwrite(state, src, dst, m)
        if overridden is not None:
            yield overridden
            return
        if state["role"][dst] != LEADER or m["term"] != state["currentTerm"][dst]:
            yield state, "aer-ignored"
            return
        if m["success"]:
            new_match = m["inext"] - 1
            old_match = state["matchIndex"][dst][src]
            match = self._update_match(old_match, new_match)
            next_index = self._next_on_success(match, m["inext"])
            state = state.update(
                matchIndex=state["matchIndex"].apply(dst, lambda r: r.set(src, match)),
                nextIndex=state["nextIndex"].apply(dst, lambda r: r.set(src, next_index)),
            )
            state = self._advance_commit_leader(state, dst)
            yield state, "aer-success"
        else:
            hint = m["inext"]
            next_index = self._next_on_reject(state, dst, src, hint)
            state = state.set(
                "nextIndex", state["nextIndex"].apply(dst, lambda r: r.set(src, next_index))
            )
            state = self._replicate_to(state, dst, src, retry=True)
            yield state, "aer-reject"

    def _stale_term_overwrite(self, state: Rec, src: str, dst: str, m: Rec):
        """Hook for WRaft#4: overwrite currentTerm with a stale term."""
        return None

    def _update_match(self, old: int, new: int) -> int:
        """Correct rule: the match index only moves forward.

        PySyncObj#4 and RaftOS#1 override this with plain assignment.
        """
        return max(old, new)

    def _next_on_success(self, match: int, inext: int) -> int:
        """Correct rule: nextIndex stays above matchIndex.

        PySyncObj#3 overrides this with the raw hint.
        """
        return max(match + 1, inext)

    def _next_on_reject(self, state: Rec, leader: str, peer: str, hint: int) -> int:
        """Correct rule: never move nextIndex at or below matchIndex.

        PySyncObj#3 and WRaft#7 override this with the raw hint.
        """
        match = state["matchIndex"][leader][peer]
        last = self._last_index(state, leader)
        return max(match + 1, min(hint, last + 1))

    # -- commitment --------------------------------------------------------------------

    def _commit_term_check(self) -> bool:
        """Correct rule: only current-term entries commit by counting.

        PySyncObj#5 overrides this to return False.
        """
        return True

    def _commit_break_on_old_term(self) -> bool:
        """RaftOS#4: stop scanning at the first old-term entry."""
        return False

    def _advance_commit_leader(self, state: Rec, leader: str) -> Rec:
        commit = state["commitIndex"][leader]
        last = self._last_index(state, leader)
        matches = state["matchIndex"][leader]
        best = commit
        for index in range(commit + 1, last + 1):
            replicas = 1 + sum(1 for p in matches if matches[p] >= index)
            if replicas < self.quorum():
                break
            term = self._term_at(state, leader, index)
            if self._commit_term_check() and term != state["currentTerm"][leader]:
                if self._commit_break_on_old_term():
                    break
                continue
            best = index
        if best == commit:
            return state
        state = state.set("commitIndex", state["commitIndex"].set(leader, best))
        return self._on_commit_advance(state, leader, commit, best)

    def _on_commit_advance(self, state: Rec, node: str, old: int, new: int) -> Rec:
        """Hook: apply newly committed entries (used by the KV layer)."""
        return state

    # -- snapshots ---------------------------------------------------------------------

    def _replicate_all(self, state: Rec, leader: str) -> Rec:
        for peer in self.nodes:
            if peer != leader:
                state = self._replicate_to(state, leader, peer)
        return state

    def _replicate_to(self, state: Rec, leader: str, peer: str, retry: bool = False) -> Rec:
        next_index = state["nextIndex"][leader][peer]
        snap = self._snap_index(state, leader)
        if self.has_compaction and next_index <= snap:
            return self._send_snapshot(state, leader, peer)
        prev = next_index - 1
        prev_term = self._term_at(state, leader, prev) or 0
        entries = self._entries_from(state, leader, next_index)
        entries = self._select_entries(state, leader, peer, entries, retry)
        message = msg.append_entries(
            state["currentTerm"][leader],
            prev,
            prev_term,
            entries,
            state["commitIndex"][leader],
            retry=retry,
        )
        return self._send(state, leader, peer, message)

    def _select_entries(
        self, state: Rec, leader: str, peer: str, entries: Tuple[Rec, ...], retry: bool
    ) -> Tuple[Rec, ...]:
        """Hook for WRaft#5: buggy retries carry empty entries."""
        return entries

    def _send_snapshot(self, state: Rec, leader: str, peer: str) -> Rec:
        """Correct rule: compacted entries are shipped as a snapshot.

        WRaft#2 overrides this to send a (necessarily empty)
        AppendEntries instead (Figure 7).
        """
        message = msg.install_snapshot(
            state["currentTerm"][leader],
            self._snap_index(state, leader),
            self._snap_term(state, leader),
            state["commitIndex"][leader],
        )
        return self._send(state, leader, peer, message)

    def _on_install_snapshot(self, state: Rec, src: str, dst: str, m: Rec):
        if m["term"] < state["currentTerm"][dst]:
            reply = msg.install_snapshot_response(
                state["currentTerm"][dst], False, self._last_index(state, dst)
            )
            yield self._send(state, dst, src, reply), "snap-stale"
            return
        state = self._observe_term(state, dst, m["term"])
        if state["role"][dst] != FOLLOWER:
            state = state.set("role", state["role"].set(dst, FOLLOWER))
        if m["lastIndex"] <= self._snap_index(state, dst):
            reply = msg.install_snapshot_response(
                state["currentTerm"][dst], True, self._last_index(state, dst)
            )
            yield self._send(state, dst, src, reply), "snap-old"
            return
        # Install: discard conflicting log, keep any matching suffix.
        suffix = ()
        local_term = self._term_at(state, dst, m["lastIndex"])
        if local_term is not None and local_term == m["lastTerm"]:
            suffix = self._entries_from(state, dst, m["lastIndex"] + 1)
        old_commit = state["commitIndex"][dst]
        new_commit = max(old_commit, m["lastIndex"])
        state = state.update(
            snapshotIndex=state["snapshotIndex"].set(dst, m["lastIndex"]),
            snapshotTerm=state["snapshotTerm"].set(dst, m["lastTerm"]),
            log=state["log"].set(dst, suffix),
            commitIndex=state["commitIndex"].set(dst, new_commit),
        )
        if new_commit > old_commit:
            state = self._on_commit_advance(state, dst, old_commit, new_commit)
        reply = msg.install_snapshot_response(
            state["currentTerm"][dst], True, m["lastIndex"]
        )
        yield self._send(state, dst, src, reply), "snap-install"

    def _on_install_snapshot_response(self, state: Rec, src: str, dst: str, m: Rec):
        if m["term"] > state["currentTerm"][dst]:
            yield self._observe_term(state, dst, m["term"]), "snapr-higher-term"
            return
        if state["role"][dst] != LEADER or m["term"] != state["currentTerm"][dst]:
            yield state, "snapr-ignored"
            return
        if not m["success"]:
            yield state, "snapr-reject"
            return
        match = self._update_match(state["matchIndex"][dst][src], m["lastIndex"])
        state = state.update(
            matchIndex=state["matchIndex"].apply(dst, lambda r: r.set(src, match)),
            nextIndex=state["nextIndex"].apply(dst, lambda r: r.set(src, match + 1)),
        )
        state = self._advance_commit_leader(state, dst)
        yield state, "snapr-success"

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _build_invariants(self) -> List[Invariant]:
        # ``reads`` declares exactly the top-level variables each predicate
        # inspects (snapshot fields are read through _snap_index/_snap_term
        # when compaction is on; declaring them unconditionally is harmless
        # for variants without those keys).  The compiled checker uses the
        # declarations to skip invariants on successors that provably left
        # every declared variable untouched.
        return [
            Invariant(
                "ElectionSafety",
                self._inv_election_safety,
                reads=("currentTerm", "alive", "role"),
            ),
            Invariant(
                "LogMatching",
                self._inv_log_matching,
                reads=("log", "snapshotIndex", "snapshotTerm"),
            ),
            Invariant(
                "CommittedLogConsistency",
                self._inv_committed_consistency,
                reads=("commitIndex", "log", "snapshotIndex", "snapshotTerm"),
            ),
            Invariant(
                "NextIndexAboveMatchIndex",
                self._inv_next_above_match,
                reads=("role", "nextIndex", "matchIndex"),
            ),
        ]

    def _inv_election_safety(self, state: Rec) -> bool:
        leaders = [
            (state["currentTerm"][n], n)
            for n in self.nodes
            if state["alive"][n] and state["role"][n] == LEADER
        ]
        terms = [term for term, _ in leaders]
        return len(terms) == len(set(terms))

    def _inv_log_matching(self, state: Rec) -> bool:
        # Log Matching: if two logs hold the same term at the same index,
        # they are identical up to that index.  Violation: a matching
        # index exists with a mismatching comparable index below it.
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1 :]:
                high = min(self._last_index(state, a), self._last_index(state, b))
                highest_match = 0
                mismatches = []
                for index in range(1, high + 1):
                    ta = self._term_at(state, a, index)
                    tb = self._term_at(state, b, index)
                    if ta is None or tb is None:
                        continue  # compacted below one node's snapshot
                    if ta == tb:
                        highest_match = index
                    else:
                        mismatches.append(index)
                if any(index < highest_match for index in mismatches):
                    return False
        return True

    def _inv_committed_consistency(self, state: Rec) -> bool:
        # Two nodes must agree on every index both consider committed.
        # Terms are compared via _term_at, which also covers the snapshot
        # boundary (Figure 7: a compacted e2 vs. an incorrectly committed
        # e1 at the same index).
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1 :]:
                high = min(state["commitIndex"][a], state["commitIndex"][b])
                for index in range(1, high + 1):
                    ta = self._term_at(state, a, index)
                    tb = self._term_at(state, b, index)
                    if ta is not None and tb is not None and ta != tb:
                        return False
                    ea = self._entry_at(state, a, index)
                    eb = self._entry_at(state, b, index)
                    if ea is not None and eb is not None and ea != eb:
                        return False
        return True

    def _entry_at(self, state: Rec, node: str, index: int) -> Optional[Rec]:
        snap = self._snap_index(state, node)
        pos = index - snap - 1
        log = state["log"][node]
        if 0 <= pos < len(log):
            return log[pos]
        return None

    def _inv_next_above_match(self, state: Rec) -> bool:
        for n in self.nodes:
            if state["role"][n] != LEADER:
                continue
            for p in self.nodes:
                if p == n:
                    continue
                if state["nextIndex"][n][p] <= state["matchIndex"][n][p]:
                    return False
        return True

    # -- transition invariants -------------------------------------------------------

    def _build_transition_invariants(self) -> List[TransitionInvariant]:
        # Each ``reads`` declaration satisfies the stutter-safety contract:
        # a transition leaving every declared variable unchanged trivially
        # satisfies the invariant (an unchanged variable cannot decrease /
        # an unchanged entry cannot differ from itself).
        # CommitAdvanceComplete is deliberately undeclared: an aer-success
        # edge can grow matchIndex without moving commitIndex, so agreement
        # on commitIndex alone does not make it hold trivially.
        return [
            TransitionInvariant(
                "CurrentTermMonotonic",
                self._tinv_term_monotonic,
                reads=("currentTerm",),
            ),
            TransitionInvariant(
                "CommitIndexMonotonic",
                self._tinv_commit_monotonic,
                reads=("commitIndex",),
            ),
            TransitionInvariant(
                "MatchIndexMonotonic",
                self._tinv_match_monotonic,
                reads=("role", "currentTerm", "matchIndex"),
            ),
            TransitionInvariant(
                "CommittedEntriesStable",
                self._tinv_committed_stable,
                reads=("commitIndex", "log", "snapshotIndex"),
            ),
            TransitionInvariant(
                "LeaderCommitsCurrentTerm",
                self._tinv_commit_current_term,
                reads=("commitIndex",),
            ),
            TransitionInvariant("CommitAdvanceComplete", self._tinv_commit_complete),
        ]

    def _tinv_term_monotonic(self, pre: Rec, t: Transition) -> bool:
        post = t.target
        return all(
            post["currentTerm"][n] >= pre["currentTerm"][n] for n in self.nodes
        )

    def _tinv_commit_monotonic(self, pre: Rec, t: Transition) -> bool:
        post = t.target
        for n in self.nodes:
            if t.action == "NodeRestart" and t.args and t.args[0] == n:
                continue  # the commit index is volatile across restarts
            if post["commitIndex"][n] < pre["commitIndex"][n]:
                return False
        return True

    def _tinv_match_monotonic(self, pre: Rec, t: Transition) -> bool:
        post = t.target
        for n in self.nodes:
            stays_leader = (
                pre["role"][n] == LEADER
                and post["role"][n] == LEADER
                and pre["currentTerm"][n] == post["currentTerm"][n]
            )
            if not stays_leader:
                continue
            for p in self.nodes:
                if p == n:
                    continue
                if post["matchIndex"][n][p] < pre["matchIndex"][n][p]:
                    return False
        return True

    def _tinv_committed_stable(self, pre: Rec, t: Transition) -> bool:
        post = t.target
        pre_log, post_log = pre["log"], post["log"]
        for n in self.nodes:
            snap_pre, snap_post = self._snap_index(pre, n), self._snap_index(post, n)
            if post_log[n] is pre_log[n] and snap_pre == snap_post:
                continue  # the same entries at the same absolute indices
            commit = pre["commitIndex"][n]
            low = max(snap_pre, snap_post) + 1
            for index in range(low, commit + 1):
                before = self._entry_at(pre, n, index)
                after = self._entry_at(post, n, index)
                if before is not None and after != before:
                    return False
        return True

    def _tinv_commit_current_term(self, pre: Rec, t: Transition) -> bool:
        """A leader only advances its commit index to a current-term entry."""
        if t.branch not in ("aer-success", "snapr-success"):
            return True
        post = t.target
        dst = t.args[1]
        if post["role"][dst] != LEADER:
            return True
        old, new = pre["commitIndex"][dst], post["commitIndex"][dst]
        if new <= old:
            return True
        term = self._term_at(post, dst, new)
        return term == post["currentTerm"][dst]

    def _tinv_commit_complete(self, pre: Rec, t: Transition) -> bool:
        """After handling a success response, the leader's commit index
        reaches everything the correct rule would commit (RaftOS#4)."""
        if t.branch != "aer-success":
            return True
        post = t.target
        dst = t.args[1]
        if post["role"][dst] != LEADER:
            return True
        expected = self._expected_commit(post, dst)
        return post["commitIndex"][dst] >= expected

    def _expected_commit(self, state: Rec, leader: str) -> int:
        commit = state["commitIndex"][leader]
        matches = state["matchIndex"][leader]
        best = commit
        for index in range(commit + 1, self._last_index(state, leader) + 1):
            replicas = 1 + sum(1 for p in matches if matches[p] >= index)
            if replicas < self.quorum():
                break
            if self._term_at(state, leader, index) == state["currentTerm"][leader]:
                best = index
        return best
