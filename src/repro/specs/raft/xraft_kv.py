"""Xraft-KV specification (§4.2, Table 2 bug Xraft-KV#1).

Xraft-KV is a distributed key-value store built on Xraft (without
PreVote, per the paper).  On top of the Raft core it models the store's
Put/Get operations and checks linearizability, demonstrating how
SandTable extends beyond bare consensus.

The model tracks a single replicated register: committed Put entries are
applied in order, and a Put is *acknowledged* when a leader advances its
commit index over the entry.  A Get served by a leader returns that
leader's applied value.

Seeded bug (flag):

``XKV1``  Read operations do not satisfy linearizability: the leader
          serves reads from its local state machine immediately, without
          the ReadIndex-style leadership confirmation round, so a
          deposed-but-unaware leader returns stale data.

The correct behavior abstracts the confirmation round as a guard: a read
is only served when the leader can still assemble a quorum of reachable
peers whose terms do not exceed its own.
"""

from __future__ import annotations

from typing import List

from ...core.linearizability import Operation
from ...core.spec import Action, Transition, TransitionInvariant
from ...core.state import Rec
from ...core.trace import Trace
from .base import LEADER, RaftSpec

__all__ = ["XraftKVSpec", "history_from_trace"]

UNWRITTEN = ""


class XraftKVSpec(RaftSpec):
    name = "xraft-kv"
    network_kind = "tcp"
    has_prevote = False
    supported_bugs = frozenset({"XKV1"})

    def __init__(self, *args, max_reads: int = 1, **kwargs):
        self.max_reads = max_reads
        super().__init__(*args, **kwargs)

    def _protocol_variables(self) -> dict:
        return {
            **super()._protocol_variables(),
            "appliedValue": Rec({n: UNWRITTEN for n in self.nodes}),
            "ackedWrites": (),
            "readCount": 0,
        }

    def _build_actions(self) -> List[Action]:
        return super()._build_actions() + [
            Action("ClientRead", self._act_client_read, kind="client"),
        ]

    # -- the KV layer ----------------------------------------------------------

    def _act_client_read(self, state: Rec):
        if state["readCount"] >= self.max_reads:
            return
        for node in self.nodes:
            if not state["alive"][node] or state["role"][node] != LEADER:
                continue
            if "XKV1" not in self.bugs and not self._leadership_confirmed(state, node):
                continue
            result = state["appliedValue"][node]
            new = state.set("readCount", state["readCount"] + 1)
            yield (node, result), new, "read"

    def _leadership_confirmed(self, state: Rec, leader: str) -> bool:
        """ReadIndex abstraction: the leader can gather a quorum of
        reachable peers that have not moved to a newer term."""
        reachable = 1
        for peer in self.nodes:
            if peer == leader:
                continue
            if not state["alive"][peer]:
                continue
            if self.net.blocked(state, leader, peer):
                continue
            if state["currentTerm"][peer] > state["currentTerm"][leader]:
                continue
            reachable += 1
        return reachable >= self.quorum()

    def _on_commit_advance(self, state: Rec, node: str, old: int, new: int) -> Rec:
        # Apply newly committed entries to the local register.
        applied = state["appliedValue"][node]
        acked = state["ackedWrites"]
        for index in range(old + 1, new + 1):
            committed = self._entry_at(state, node, index)
            if committed is None:
                continue  # compacted away; the snapshot carries the value
            applied = committed["val"]
            # A write is acknowledged when a leader commits it.
            if state["role"][node] == LEADER and committed["val"] not in acked:
                acked = acked + (committed["val"],)
        return state.update(
            appliedValue=state["appliedValue"].set(node, applied),
            ackedWrites=acked,
        )

    def _restart(self, state: Rec, node: str) -> dict:
        # The state machine is volatile: it is rebuilt by re-applying the
        # log as the commit index re-advances after restart.
        return {
            **super()._restart(state, node),
            "appliedValue": state["appliedValue"].set(node, UNWRITTEN),
        }

    # -- linearizability -----------------------------------------------------------

    def _build_transition_invariants(self) -> List[TransitionInvariant]:
        return super()._build_transition_invariants() + [
            TransitionInvariant("LinearizableReads", self._tinv_linearizable),
        ]

    def _tinv_linearizable(self, pre: Rec, t: Transition) -> bool:
        """A read must return the latest acknowledged write (or a newer,
        still-pending one) — never an older value."""
        if t.action != "ClientRead":
            return True
        result = t.args[1]
        acked = pre["ackedWrites"]
        if not acked:
            return True
        if result == acked[-1]:
            return True
        # A newer pending write: appended to some log but not yet acked.
        pending = {
            e["val"]
            for n in self.nodes
            for e in pre["log"][n]
            if e["val"] not in acked
        }
        return result in pending


def history_from_trace(trace: Trace) -> List[Operation]:
    """Extract the client operation history from an Xraft-KV trace.

    A write is invoked at its ClientRequest step and completes when its
    value first appears in ``ackedWrites`` (never, if unacked — a pending
    operation).  Reads are served atomically at their ClientRead step.
    The result feeds :func:`repro.core.linearizability.check_linearizable`,
    the ground-truth check behind the spec's fast ``LinearizableReads``
    transition invariant.
    """
    operations: List[Operation] = []
    invoked_writes = {}
    previous_acked = ()
    for index, step in enumerate(trace):
        if step.action == "ClientRequest":
            node, value = step.args[0], step.args[1]
            invoked_writes[value] = (node, index)
        elif step.action == "ClientRead":
            node, result = step.args[0], step.args[1]
            operations.append(
                Operation(f"reader@{node}", "read", result, index, index)
            )
        acked = step.state["ackedWrites"]
        for value in acked[len(previous_acked):]:
            node, invoked = invoked_writes.pop(value, (None, index))
            operations.append(
                Operation(f"writer@{node}", "write", value, invoked, index)
            )
        previous_acked = acked
    for value, (node, invoked) in invoked_writes.items():
        operations.append(Operation(f"writer@{node}", "write", value, invoked, None))
    return operations
