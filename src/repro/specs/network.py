"""Reusable network modules for specifications (§3.1, §4.2).

The paper ships formally specified network modules for both TCP and UDP
semantics, reused across all eight system specs.  These are their Python
counterparts: pure-functional helpers that read and update the network
variables inside a spec state.

TCP semantics
    Per-channel FIFO queues keyed by ``(src, dst)``.  No loss, duplication
    or reordering; only the head of a queue is deliverable.  The only
    failure is a *network partition*, which breaks every connection
    crossing the partition (clearing the in-flight queues) until the
    network heals.

UDP semantics
    A multiset of in-flight datagrams.  Any message is deliverable in any
    order, and messages may additionally be dropped or duplicated.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..core.state import CheckedMemo, Rec, raise_type_unstable, thaw

__all__ = ["TcpModel", "UdpModel", "bipartitions"]


def bipartitions(nodes: Sequence[str]) -> List[frozenset]:
    """All ways to split ``nodes`` into two non-empty groups.

    Each split is identified by the group containing the first node (so
    each bipartition is enumerated once).
    """
    nodes = list(nodes)
    first, rest = nodes[0], nodes[1:]
    splits = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            group = frozenset({first, *combo})
            if len(group) < len(nodes):
                splits.append(group)
    return splits


def _crossing(group: frozenset, nodes: Sequence[str]) -> frozenset:
    """Unordered node pairs with one endpoint on each side of ``group``."""
    inside = group
    outside = frozenset(nodes) - group
    return frozenset(
        frozenset({a, b}) for a in inside for b in outside
    )


class _NodeSet:
    """What both models derive from the node tuple alone, computed once.

    ``partitions`` is :func:`bipartitions` of the nodes, in its order —
    the groups a spec's partition action enumerates on every state.
    """

    def __init__(self, nodes: Sequence[str]):
        self.nodes = tuple(nodes)
        self.partitions = tuple(bipartitions(self.nodes))
        self._crossings = {
            group: _crossing(group, self.nodes) for group in self.partitions
        }

    def crossing(self, group: frozenset) -> frozenset:
        """:func:`_crossing` of ``group``; precomputed for a bipartition."""
        found = self._crossings.get(group)
        return found if found is not None else _crossing(group, self.nodes)


class TcpModel(_NodeSet):
    """TCP-semantics network state: FIFO channels + partitions."""

    MSGS = "netMsgs"
    DISC = "netDisconnected"
    kind = "tcp"

    # -- state initialization --------------------------------------------------

    def init_vars(self) -> dict:
        channels = Rec(
            {
                (src, dst): ()
                for src in self.nodes
                for dst in self.nodes
                if src != dst
            }
        )
        return {self.MSGS: channels, self.DISC: frozenset()}

    # -- connectivity -----------------------------------------------------------

    def blocked(self, state: Rec, src: str, dst: str) -> bool:
        return frozenset({src, dst}) in state[self.DISC]

    # -- sending / delivery -------------------------------------------------------

    def send(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Append ``msg`` to the (src, dst) channel; lost if partitioned."""
        if self.blocked(state, src, dst):
            return state
        return state.set(
            self.MSGS, state[self.MSGS].apply((src, dst), lambda q: q + (msg,))
        )

    def send_many(self, state: Rec, sends: Iterable[Tuple[str, str, Rec]]) -> Rec:
        for src, dst, msg in sends:
            state = self.send(state, src, dst, msg)
        return state

    def deliverable(self, state: Rec) -> Iterator[Tuple[str, str, Rec]]:
        """Head-of-queue messages on unblocked channels."""
        disc = state[self.DISC]
        if disc:
            for (src, dst), queue in state[self.MSGS].items_sorted():
                if queue and frozenset((src, dst)) not in disc:
                    yield src, dst, queue[0]
        else:
            for key, queue in state[self.MSGS].items_sorted():
                if queue:
                    yield key[0], key[1], queue[0]

    def consume(self, state: Rec, src: str, dst: str) -> Tuple[Rec, Rec]:
        """Pop the head of the (src, dst) channel; returns (msg, state')."""
        queue = state[self.MSGS][(src, dst)]
        if not queue:
            raise ValueError(f"channel {src}->{dst} is empty")
        new_state = state.set(
            self.MSGS, state[self.MSGS].set((src, dst), queue[1:])
        )
        return queue[0], new_state

    # -- failures ----------------------------------------------------------------

    def clear_node(self, state: Rec, node: str) -> Rec:
        """Drop every in-flight message to or from ``node`` (crash)."""
        channels = state[self.MSGS]
        cleared = {
            key: () for key in channels if node in key and channels[key]
        }
        if cleared:
            state = state.set(self.MSGS, channels.update(cleared))
        return state

    def apply_partition(self, state: Rec, group: frozenset) -> Rec:
        """Break all connections crossing the ``group`` / rest split."""
        crossing = self.crossing(group)
        channels = state[self.MSGS]
        cleared = {
            key: ()
            for key in channels
            if frozenset(key) in crossing and channels[key]
        }
        if cleared:
            channels = channels.update(cleared)
        return state.update({self.MSGS: channels, self.DISC: crossing})

    def heal(self, state: Rec) -> Rec:
        return state.set(self.DISC, frozenset())

    def is_partitioned(self, state: Rec) -> bool:
        return bool(state[self.DISC])

    # -- constraints ---------------------------------------------------------------

    def max_queue_length(self, state: Rec) -> int:
        return max(map(len, state[self.MSGS].values()), default=0)

    def pending_count(self, state: Rec) -> int:
        return sum(map(len, state[self.MSGS].values()))


def _msg_key(item: Tuple[str, str, Rec]) -> str:
    """The canonical sort key of a datagram: the one definition of the order."""
    src, dst, msg = item
    return repr((src, dst, thaw(msg)))


class UdpModel(_NodeSet):
    """UDP-semantics network state: a multiset of in-flight datagrams.

    The multiset is stored as a tuple kept sorted by a canonical key so
    that two states with the same in-flight messages are identical
    regardless of send order (delivery is order-free anyway).

    The key of a datagram is :func:`_msg_key`, derived once per distinct
    datagram and then looked up in a :class:`~repro.core.state.CheckedMemo`:
    a run sorts and dedupes the same few dozen datagrams hundreds of
    thousands of times.  The memo is the model's own, so it is scoped to
    one spec without a scoping call, and the order — with it every
    state, fingerprint and run dir — is the one ``_msg_key`` defines.
    """

    MSGS = "netMsgs"
    DISC = "netDisconnected"
    kind = "udp"

    def __init__(self, nodes: Sequence[str]):
        super().__init__(nodes)
        self._keys = CheckedMemo(
            _msg_key, mismatch=lambda packet, _: raise_type_unstable(self.MSGS, packet)
        )

    def _key(self, packet: Tuple[str, str, Rec]) -> str:
        """:func:`_msg_key` of ``packet``, from the memo when it was seen."""
        return self._keys.lookup(packet, packet)

    def init_vars(self) -> dict:
        return {self.MSGS: (), self.DISC: frozenset()}

    def blocked(self, state: Rec, src: str, dst: str) -> bool:
        return frozenset({src, dst}) in state[self.DISC]

    # -- sending / delivery ---------------------------------------------------------

    def send(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Put a datagram in flight; lost immediately if partitioned."""
        if self.blocked(state, src, dst):
            return state
        packet = (src, dst, msg)
        in_flight = tuple(
            sorted(state[self.MSGS] + (packet,), key=self._key)
        )
        return state.set(self.MSGS, in_flight)

    def send_many(self, state: Rec, sends: Iterable[Tuple[str, str, Rec]]) -> Rec:
        for src, dst, msg in sends:
            state = self.send(state, src, dst, msg)
        return state

    def deliverable(self, state: Rec) -> Iterator[Tuple[str, str, Rec]]:
        """Every distinct in-flight datagram on an unblocked path."""
        seen = set()
        for packet in state[self.MSGS]:
            key = self._key(packet)
            src, dst, msg = packet
            if key in seen or self.blocked(state, src, dst):
                continue
            seen.add(key)
            yield src, dst, msg

    def consume(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Remove one occurrence of the datagram from flight."""
        return self._remove_one(state, (src, dst, msg))

    # -- failures -----------------------------------------------------------------

    def drop(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        return self._remove_one(state, (src, dst, msg))

    def duplicate(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        in_flight = tuple(
            sorted(state[self.MSGS] + ((src, dst, msg),), key=self._key)
        )
        return state.set(self.MSGS, in_flight)

    def clear_node(self, state: Rec, node: str) -> Rec:
        """UDP keeps in-flight datagrams across a crash; nothing to clear.

        Kept for interface parity with :class:`TcpModel` so spec code can
        treat the two models uniformly on node crash.
        """
        return state

    def apply_partition(self, state: Rec, group: frozenset) -> Rec:
        crossing = self.crossing(group)
        remaining = tuple(
            packet
            for packet in state[self.MSGS]
            if frozenset({packet[0], packet[1]}) not in crossing
        )
        return state.update({self.MSGS: remaining, self.DISC: crossing})

    def heal(self, state: Rec) -> Rec:
        return state.set(self.DISC, frozenset())

    def is_partitioned(self, state: Rec) -> bool:
        return bool(state[self.DISC])

    # -- constraints -----------------------------------------------------------------

    def max_queue_length(self, state: Rec) -> int:
        return len(state[self.MSGS])

    def pending_count(self, state: Rec) -> int:
        return len(state[self.MSGS])

    def _remove_one(self, state: Rec, packet: Tuple[str, str, Rec]) -> Rec:
        in_flight = list(state[self.MSGS])
        try:
            in_flight.remove(packet)
        except ValueError:
            raise ValueError(f"datagram not in flight: {packet}") from None
        return state.set(self.MSGS, tuple(in_flight))
