"""ZooKeeper / ZAB specification (§4.2, Figure 2, Table 2 bug ZooKeeper#1).

Models the four ZAB phases the paper exercises:

* **Fast leader election (FLE)** — logical-clock vote rounds with
  NOTIFICATION exchange and the ``totalOrderPredicate`` vote comparator
  (Figure 3's handler);
* **Discovery** — FOLLOWERINFO / LEADERINFO / ACKEPOCH epoch negotiation;
* **Synchronization** — NEWLEADER / ACKLD / UPTODATE history transfer;
* **Broadcast** — PROPOSE / ACK / COMMIT two-phase commit.

As in the paper's adaptation of the community system spec, worker-thread
interleavings are removed: each message is handled in one atomic action.

Seeded behaviors (flags):

``ZK1``   Votes are not totally ordered (ZOOKEEPER-1419, v3.4.3): the
          vote comparator ignores the proposer's epoch, so two votes for
          the same candidate at different epochs are mutually unordered —
          elections may never settle or elect multiple leaders.
``FIG4``  The Figure 4 modeling discrepancy: ``CheckLeader`` demands
          ``round = logicalClock`` when the vote names the node itself,
          which the real implementation does not; conformance checking
          flags the divergence (the spec-side bug the paper uses to
          demonstrate the workflow).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..core.spec import Action, Invariant, Transition, TransitionInvariant
from ..core.state import Rec
from .network import ClusterSpec, _inc

__all__ = ["ZabConfig", "ZabSpec", "LOOKING", "FOLLOWING", "LEADING", "vote_beats"]

LOOKING = "LOOKING"
FOLLOWING = "FOLLOWING"
LEADING = "LEADING"

ELECTION = "ELECTION"
DISCOVERY = "DISCOVERY"
SYNC = "SYNC"
BROADCAST = "BROADCAST"

NOTIFICATION = "Notification"
FOLLOWERINFO = "FollowerInfo"
LEADERINFO = "LeaderInfo"
ACKEPOCH = "AckEpoch"
NEWLEADER = "NewLeader"
ACKLD = "AckLeader"
UPTODATE = "UpToDate"
PROPOSE = "Propose"
ACK = "Ack"
COMMIT = "Commit"

NOBODY = ""


@dataclasses.dataclass(frozen=True)
class ZabConfig:
    """Model configuration and budget constraints for the ZAB spec."""

    nodes: Tuple[str, ...] = ("n1", "n2", "n3")
    values: Tuple[str, ...] = ("v1", "v2")
    max_timeouts: int = 3
    max_requests: int = 1
    max_crashes: int = 1
    max_restarts: int = 1
    max_partitions: int = 1
    max_buffer: int = 4
    max_epoch: int = 3


def make_vote(leader: str, zxid: Tuple[int, int], epoch: int, round_: int) -> Rec:
    """A vote as carried by NOTIFICATION messages and held by nodes."""
    return Rec(leader=leader, zxid=zxid, epoch=epoch, round=round_)


def vote_beats(new: Rec, cur: Rec, buggy: bool = False) -> bool:
    """The FLE ``totalOrderPredicate``.

    Correct: lexicographic on (epoch, zxid, leader id).  With ``buggy``
    (ZooKeeper#1) the proposer epoch is ignored, so votes differing only
    in epoch are mutually unordered.
    """
    if buggy:
        return (new["zxid"], new["leader"]) > (cur["zxid"], cur["leader"])
    return (new["epoch"], new["zxid"], new["leader"]) > (
        cur["epoch"],
        cur["zxid"],
        cur["leader"],
    )


class ZabSpec(ClusterSpec):
    """ZooKeeper's ZAB protocol as a state machine."""

    name = "zookeeper"
    config_type = ZabConfig
    supported_bugs = frozenset({"ZK1", "FIG4"})

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def _protocol_variables(self) -> dict:
        zero = Rec({n: 0 for n in self.nodes})
        return {
            "zbRole": Rec({n: LOOKING for n in self.nodes}),
            "phase": Rec({n: ELECTION for n in self.nodes}),
            "logicalClock": zero,
            "currentVote": Rec({n: make_vote(n, (0, 0), 0, 0) for n in self.nodes}),
            "recvVotes": Rec({n: Rec() for n in self.nodes}),
            "acceptedEpoch": zero,
            "currentEpoch": zero,
            "history": Rec({n: () for n in self.nodes}),
            "lastCommitted": zero,
            "leaderOf": Rec({n: NOBODY for n in self.nodes}),
            "followerInfos": Rec({n: frozenset() for n in self.nodes}),
            "epochAcks": Rec({n: frozenset() for n in self.nodes}),
            "syncAcks": Rec({n: frozenset() for n in self.nodes}),
            "txnAcks": Rec({n: Rec() for n in self.nodes}),
            "txnCounter": zero,
        }

    def _message_handlers(self) -> dict:
        return {
            NOTIFICATION: self._on_notification,
            FOLLOWERINFO: self._on_follower_info,
            LEADERINFO: self._on_leader_info,
            ACKEPOCH: self._on_ack_epoch,
            NEWLEADER: self._on_new_leader,
            ACKLD: self._on_ack_leader,
            UPTODATE: self._on_up_to_date,
            PROPOSE: self._on_propose,
            ACK: self._on_ack,
            COMMIT: self._on_commit,
        }

    def _timeout_actions(self) -> List[Action]:
        return [Action("ElectionTimeout", self._act_election_timeout, kind="timeout")]

    def symmetry_sets(self) -> Sequence[Tuple[str, ...]]:
        # Node ids participate in the vote total order, so node symmetry
        # would not preserve the election outcome; values are symmetric.
        return ()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _last_zxid(self, state: Rec, node: str) -> Tuple[int, int]:
        history = state["history"][node]
        return history[-1]["zxid"] if history else (0, 0)

    def _beats(self, new: Rec, cur: Rec) -> bool:
        return vote_beats(new, cur, buggy="ZK1" in self.bugs)

    def _notification(self, state: Rec, node: str) -> Rec:
        vote = state["currentVote"][node]
        return Rec(
            type=NOTIFICATION,
            vote=vote,
            round=state["logicalClock"][node],
            state=state["zbRole"][node],
        )

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def _act_election_timeout(self, state: Rec):
        """A node (re-)enters leader election.

        Covers follower session timeout, leader quorum loss and a LOOKING
        node starting a new vote round.
        """
        counter = state["eventCounter"]
        if counter["timeouts"] >= self.config.max_timeouts:
            return
        for node in self.nodes:
            if not state["alive"][node]:
                continue
            if state["logicalClock"][node] >= self.config.max_epoch:
                continue
            new = self._enter_election(state, node)
            new = new.set("eventCounter", counter.apply("timeouts", _inc))
            yield (node,), new, "look"

    def _enter_election(self, state: Rec, node: str) -> Rec:
        round_ = state["logicalClock"][node] + 1
        vote = make_vote(
            node,
            self._last_zxid(state, node),
            state["currentEpoch"][node],
            round_,
        )
        state = state.update(
            zbRole=state["zbRole"].set(node, LOOKING),
            phase=state["phase"].set(node, ELECTION),
            logicalClock=state["logicalClock"].set(node, round_),
            currentVote=state["currentVote"].set(node, vote),
            recvVotes=state["recvVotes"].set(
                node, Rec({node: Rec(vote=vote, state=LOOKING)})
            ),
            leaderOf=state["leaderOf"].set(node, NOBODY),
            followerInfos=state["followerInfos"].set(node, frozenset()),
            epochAcks=state["epochAcks"].set(node, frozenset()),
            syncAcks=state["syncAcks"].set(node, frozenset()),
            txnAcks=state["txnAcks"].set(node, Rec()),
        )
        return self._broadcast(state, node, self._notification(state, node))

    def _act_client_request(self, state: Rec):
        counter = state["eventCounter"]
        if counter["requests"] >= self.config.max_requests:
            return
        value = self.config.values[counter["requests"] % len(self.config.values)]
        for node in self.nodes:
            if not state["alive"][node]:
                continue
            if state["zbRole"][node] != LEADING or state["phase"][node] != BROADCAST:
                continue
            zxid = (state["currentEpoch"][node], state["txnCounter"][node] + 1)
            txn = Rec(zxid=zxid, val=value)
            new = state.update(
                history=state["history"].apply(node, lambda h: h + (txn,)),
                txnCounter=state["txnCounter"].set(node, zxid[1]),
                txnAcks=state["txnAcks"].apply(
                    node, lambda acks: acks.set(zxid, frozenset({node}))
                ),
                eventCounter=counter.apply("requests", _inc),
            )
            new = self._broadcast(new, node, Rec(type=PROPOSE, txn=txn))
            yield (node, value), new, "request"

    def _restart(self, state: Rec, node: str) -> dict:
        # The history, epochs and committed point are durable; the
        # election state (logical clock, votes) is volatile.
        vote = make_vote(
            node,
            self._last_zxid(state, node),
            state["currentEpoch"][node],
            0,
        )
        return dict(
            zbRole=state["zbRole"].set(node, LOOKING),
            phase=state["phase"].set(node, ELECTION),
            logicalClock=state["logicalClock"].set(node, 0),
            currentVote=state["currentVote"].set(node, vote),
            recvVotes=state["recvVotes"].set(node, Rec()),
            leaderOf=state["leaderOf"].set(node, NOBODY),
            followerInfos=state["followerInfos"].set(node, frozenset()),
            epochAcks=state["epochAcks"].set(node, frozenset()),
            syncAcks=state["syncAcks"].set(node, frozenset()),
            txnAcks=state["txnAcks"].set(node, Rec()),
        )

    # ------------------------------------------------------------------
    # fast leader election (Figure 3's handler)
    # ------------------------------------------------------------------

    def _on_notification(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != LOOKING:
            # A settled node answers LOOKING peers with its own vote so
            # they can catch up (the else-branch in Figure 3).
            if m["state"] == LOOKING:
                reply = self._notification(state, dst)
                yield self._send(state, dst, src, reply), "not-reply-settled"
            else:
                yield state, "not-ignored"
            return

        my_round = state["logicalClock"][dst]
        if m["state"] == LOOKING:
            if m["round"] > my_round:
                # Newer round: jump to it, keep the better vote.
                state = state.set(
                    "logicalClock", state["logicalClock"].set(dst, m["round"])
                )
                my_vote = state["currentVote"][dst]
                best = m["vote"] if self._beats(m["vote"], my_vote) else my_vote
                state = state.set("currentVote", state["currentVote"].set(dst, best))
                state = state.set(
                    "recvVotes",
                    state["recvVotes"].set(
                        dst,
                        Rec(
                            {
                                dst: Rec(vote=best, state=LOOKING),
                                src: Rec(vote=m["vote"], state=m["state"]),
                            }
                        ),
                    ),
                )
                state = self._broadcast(state, dst, self._notification(state, dst))
                branch = "not-new-round"
            elif m["round"] < my_round:
                # Stale round: tell the sender about ours (Figure 3:
                # reply when the peer is LOOKING with an older clock).
                reply = self._notification(state, dst)
                yield self._send(state, dst, src, reply), "not-stale-round"
                return
            else:
                adopted = False
                if self._beats(m["vote"], state["currentVote"][dst]):
                    state = state.set(
                        "currentVote", state["currentVote"].set(dst, m["vote"])
                    )
                    adopted = True
                state = state.set(
                    "recvVotes",
                    state["recvVotes"].apply(
                        dst,
                        lambda votes: votes.update(
                            {
                                src: Rec(vote=m["vote"], state=m["state"]),
                                dst: Rec(
                                    vote=state["currentVote"][dst], state=LOOKING
                                ),
                            }
                        ),
                    ),
                )
                if adopted:
                    state = self._broadcast(state, dst, self._notification(state, dst))
                branch = "not-adopt" if adopted else "not-count"
        else:
            # Vote from a settled (LEADING/FOLLOWING) peer: join its
            # leader if it proves a quorum in our round.
            state = state.set(
                "recvVotes",
                state["recvVotes"].apply(
                    dst,
                    lambda votes: votes.update({src: Rec(vote=m["vote"], state=m["state"])}),
                ),
            )
            branch = "not-settled-vote"

        decided = self._try_decide(state, dst)
        if decided is not None:
            state, decide_branch = decided
            yield state, decide_branch
        else:
            yield state, branch

    def _try_decide(self, state: Rec, node: str):
        """Decide the election once a quorum backs the current vote."""
        vote = state["currentVote"][node]
        votes = state["recvVotes"][node]
        backers = {
            peer
            for peer, record in votes.items()
            if record["vote"]["leader"] == vote["leader"]
        }
        if len(backers) < self.quorum():
            return None
        leader = vote["leader"]
        if not self._check_leader(state, node, votes, leader):
            return None
        if leader == node:
            return self._become_leading(state, node), "elect-leading"
        return self._become_following(state, node, leader), "elect-following"

    def _check_leader(self, state: Rec, node: str, votes: Rec, leader: str) -> bool:
        """Figure 4's CheckLeader predicate.

        The ``FIG4`` flag reinstates the modeling discrepancy the paper's
        conformance checking caught: requiring ``round = logicalClock``
        when electing oneself, which the implementation does not check.
        """
        if leader == node:
            if "FIG4" in self.bugs:
                vote = state["currentVote"][node]
                return vote["round"] == state["logicalClock"][node]
            return True
        record = votes.get(leader)
        if record is None:
            return False
        # Within an election round the leader-to-be is still LOOKING; a
        # settled peer proves itself with a LEADING vote.
        return record["state"] in (LOOKING, LEADING)

    def _become_leading(self, state: Rec, node: str) -> Rec:
        new_epoch = state["acceptedEpoch"][node] + 1
        return state.update(
            zbRole=state["zbRole"].set(node, LEADING),
            phase=state["phase"].set(node, DISCOVERY),
            leaderOf=state["leaderOf"].set(node, node),
            acceptedEpoch=state["acceptedEpoch"].set(node, new_epoch),
            followerInfos=state["followerInfos"].set(node, frozenset({node})),
            epochAcks=state["epochAcks"].set(node, frozenset({node})),
            syncAcks=state["syncAcks"].set(node, frozenset({node})),
        )

    def _become_following(self, state: Rec, node: str, leader: str) -> Rec:
        state = state.update(
            zbRole=state["zbRole"].set(node, FOLLOWING),
            phase=state["phase"].set(node, DISCOVERY),
            leaderOf=state["leaderOf"].set(node, leader),
        )
        info = Rec(type=FOLLOWERINFO, acceptedEpoch=state["acceptedEpoch"][node])
        return self._send(state, node, leader, info)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    def _on_follower_info(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != LEADING:
            yield state, "finfo-ignored"
            return
        epoch = max(state["acceptedEpoch"][dst], m["acceptedEpoch"] + 1)
        state = state.update(
            acceptedEpoch=state["acceptedEpoch"].set(dst, epoch),
            followerInfos=state["followerInfos"].apply(dst, lambda s: s | {src}),
        )
        reply = Rec(type=LEADERINFO, epoch=epoch)
        yield self._send(state, dst, src, reply), "finfo-accept"

    def _on_leader_info(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != FOLLOWING or state["leaderOf"][dst] != src:
            yield state, "linfo-ignored"
            return
        if m["epoch"] < state["acceptedEpoch"][dst]:
            # A stale leader: abandon it and look again.
            yield self._enter_election(state, dst), "linfo-stale-epoch"
            return
        state = state.set("acceptedEpoch", state["acceptedEpoch"].set(dst, m["epoch"]))
        reply = Rec(
            type=ACKEPOCH,
            currentEpoch=state["currentEpoch"][dst],
            lastZxid=self._last_zxid(state, dst),
        )
        yield self._send(state, dst, src, reply), "linfo-ack"

    def _on_ack_epoch(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != LEADING or state["phase"][dst] != DISCOVERY:
            yield state, "ackepoch-ignored"
            return
        acks = state["epochAcks"][dst] | {src}
        state = state.set("epochAcks", state["epochAcks"].set(dst, acks))
        # Synchronize this follower right away (NEWLEADER carries the
        # full history; DIFF/TRUNC/SNAP are abstracted away).
        sync = Rec(
            type=NEWLEADER,
            epoch=state["acceptedEpoch"][dst],
            history=state["history"][dst],
        )
        state = self._send(state, dst, src, sync)
        if len(acks) >= self.quorum() and state["phase"][dst] == DISCOVERY:
            state = state.set("phase", state["phase"].set(dst, SYNC))
            yield state, "ackepoch-quorum"
        else:
            yield state, "ackepoch-count"

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def _on_new_leader(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != FOLLOWING or state["leaderOf"][dst] != src:
            yield state, "newleader-ignored"
            return
        if m["epoch"] < state["acceptedEpoch"][dst]:
            # A stale synchronization from an outdated discovery round.
            yield self._enter_election(state, dst), "newleader-stale-epoch"
            return
        state = state.update(
            # Accepting the leader's history implies accepting its epoch
            # (the leader may have renegotiated since our ACKEPOCH).
            acceptedEpoch=state["acceptedEpoch"].set(
                dst, max(state["acceptedEpoch"][dst], m["epoch"])
            ),
            currentEpoch=state["currentEpoch"].set(dst, m["epoch"]),
            history=state["history"].set(dst, m["history"]),
            lastCommitted=state["lastCommitted"].set(
                dst, min(state["lastCommitted"][dst], len(m["history"]))
            ),
        )
        reply = Rec(type=ACKLD, epoch=m["epoch"])
        yield self._send(state, dst, src, reply), "newleader-ack"

    def _on_ack_leader(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != LEADING:
            yield state, "ackld-ignored"
            return
        acks = state["syncAcks"][dst] | {src}
        state = state.set("syncAcks", state["syncAcks"].set(dst, acks))
        if len(acks) >= self.quorum() and state["phase"][dst] != BROADCAST:
            state = state.update(
                phase=state["phase"].set(dst, BROADCAST),
                currentEpoch=state["currentEpoch"].set(
                    dst, state["acceptedEpoch"][dst]
                ),
                lastCommitted=state["lastCommitted"].set(
                    dst, len(state["history"][dst])
                ),
                txnCounter=state["txnCounter"].set(dst, 0),
            )
            state = self._broadcast_to_followers(
                state, dst, Rec(type=UPTODATE, epoch=state["currentEpoch"][dst])
            )
            yield state, "ackld-quorum"
        else:
            yield state, "ackld-count"

    def _broadcast_to_followers(self, state: Rec, leader: str, message: Rec) -> Rec:
        # The leader pushes phase messages only to the followers that
        # registered with it (sent FOLLOWERINFO) — leader-local knowledge,
        # matching the implementation.
        for peer in self.nodes:
            if peer != leader and peer in state["followerInfos"][leader]:
                state = self._send(state, leader, peer, message)
        return state

    def _on_up_to_date(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != FOLLOWING or state["leaderOf"][dst] != src:
            yield state, "uptodate-ignored"
            return
        state = state.update(
            phase=state["phase"].set(dst, BROADCAST),
            lastCommitted=state["lastCommitted"].set(dst, len(state["history"][dst])),
        )
        yield state, "uptodate"

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------

    def _on_propose(self, state: Rec, src: str, dst: str, m: Rec):
        if state["leaderOf"][dst] != src or state["zbRole"][dst] != FOLLOWING:
            yield state, "propose-ignored"
            return
        state = state.set("history", state["history"].apply(dst, lambda h: h + (m["txn"],)))
        reply = Rec(type=ACK, zxid=m["txn"]["zxid"])
        yield self._send(state, dst, src, reply), "propose-ack"

    def _on_ack(self, state: Rec, src: str, dst: str, m: Rec):
        if state["zbRole"][dst] != LEADING:
            yield state, "ack-ignored"
            return
        zxid = m["zxid"]
        acks = state["txnAcks"][dst]
        ackers = acks.get(zxid, frozenset()) | {src, dst}
        state = state.set("txnAcks", state["txnAcks"].apply(dst, lambda a: a.set(zxid, ackers)))
        if len(ackers) >= self.quorum():
            position = self._zxid_position(state, dst, zxid)
            if position is not None and position > state["lastCommitted"][dst]:
                state = state.set(
                    "lastCommitted", state["lastCommitted"].set(dst, position)
                )
                state = self._broadcast_to_followers(
                    state, dst, Rec(type=COMMIT, zxid=zxid)
                )
                yield state, "ack-commit"
                return
        yield state, "ack-count"

    def _zxid_position(self, state: Rec, node: str, zxid: Tuple[int, int]) -> Optional[int]:
        for position, txn in enumerate(state["history"][node], start=1):
            if txn["zxid"] == zxid:
                return position
        return None

    def _on_commit(self, state: Rec, src: str, dst: str, m: Rec):
        if state["leaderOf"][dst] != src:
            yield state, "commit-ignored"
            return
        position = self._zxid_position(state, dst, m["zxid"])
        if position is None or position <= state["lastCommitted"][dst]:
            yield state, "commit-stale"
            return
        state = state.set("lastCommitted", state["lastCommitted"].set(dst, position))
        yield state, "commit"

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _build_invariants(self) -> List[Invariant]:
        return [
            Invariant("ZabLeaderSafety", self._inv_leader_safety),
            Invariant("VoteTotalOrder", self._inv_vote_total_order),
            Invariant("CommittedHistoryConsistency", self._inv_committed_consistency),
            Invariant("EpochWellFormed", self._inv_epoch_well_formed),
        ]

    def _inv_leader_safety(self, state: Rec) -> bool:
        """At most one alive *established* leader per epoch.

        A leader still in discovery/sync has not negotiated its epoch
        with a quorum yet, so only broadcast-phase leaders count.
        """
        epochs = [
            state["currentEpoch"][n]
            for n in self.nodes
            if state["alive"][n]
            and state["zbRole"][n] == LEADING
            and state["phase"][n] == BROADCAST
        ]
        return len(epochs) == len(set(epochs))

    def _visible_votes(self, state: Rec) -> List[Rec]:
        votes = [state["currentVote"][n] for n in self.nodes]
        for _, queue in state[self.net.MSGS].items_sorted():
            for message in queue:
                if message["type"] == NOTIFICATION:
                    votes.append(message["vote"])
        return votes

    def _inv_vote_total_order(self, state: Rec) -> bool:
        """Every pair of distinct visible votes must be strictly ordered
        by the system's own comparator (the ZooKeeper#1 property)."""
        votes = self._visible_votes(state)
        for i, a in enumerate(votes):
            for b in votes[i + 1 :]:
                ka = (a["epoch"], a["zxid"], a["leader"])
                kb = (b["epoch"], b["zxid"], b["leader"])
                if ka == kb:
                    continue
                forward = self._beats(a, b)
                backward = self._beats(b, a)
                if forward == backward:  # both or neither: not an order
                    return False
        return True

    def _inv_committed_consistency(self, state: Rec) -> bool:
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1 :]:
                shared = min(state["lastCommitted"][a], state["lastCommitted"][b])
                for position in range(shared):
                    if state["history"][a][position] != state["history"][b][position]:
                        return False
        return True

    def _inv_epoch_well_formed(self, state: Rec) -> bool:
        return all(
            state["currentEpoch"][n] <= state["acceptedEpoch"][n] for n in self.nodes
        )

    def _build_transition_invariants(self) -> List[TransitionInvariant]:
        return [
            TransitionInvariant("EpochMonotonic", self._tinv_epoch_monotonic),
            TransitionInvariant("CommitMonotonic", self._tinv_commit_monotonic),
        ]

    def _tinv_epoch_monotonic(self, pre: Rec, t: Transition) -> bool:
        post = t.target
        return all(
            post["acceptedEpoch"][n] >= pre["acceptedEpoch"][n]
            and post["currentEpoch"][n] >= pre["currentEpoch"][n]
            for n in self.nodes
        )

    def _tinv_commit_monotonic(self, pre: Rec, t: Transition) -> bool:
        post = t.target
        for n in self.nodes:
            if t.action == "NodeRestart" and t.args and t.args[0] == n:
                continue
            if t.branch == "newleader-ack" and t.args and t.args[1] == n:
                continue  # truncated by synchronization
            if post["lastCommitted"][n] < pre["lastCommitted"][n]:
                return False
        return True
