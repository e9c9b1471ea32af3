"""Reusable network modules and the cluster environment (§3.1, §4.2).

The paper ships formally specified network modules for both TCP and UDP
semantics, reused across all eight system specs.  These are their Python
counterparts: pure-functional helpers that read and update the network
variables inside a spec state.  :class:`ClusterSpec` builds on them the
environment every system spec shares — nodes, budgets, network, message
delivery and failures — so that a protocol spec holds only protocol.

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
from typing import Any, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.spec import Action, Invariant, Spec, TransitionInvariant, WeakFairness
from ..core.state import CheckedMemo, Rec, raise_type_unstable, thaw

__all__ = ["ClusterSpec", "TcpModel", "UdpModel", "bipartitions"]


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


class _NetworkModel:
    """What both models share: the node tuple and what derives from it
    alone, the two network variables, connectivity and healing.

    ``partitions`` is :func:`bipartitions` of the nodes, in its order —
    the groups a spec's partition action enumerates on every state.
    """

    MSGS = "netMsgs"
    DISC = "netDisconnected"

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

    def blocked(self, state: Rec, src: str, dst: str) -> bool:
        return frozenset({src, dst}) in state[self.DISC]

    def clear_node(self, state: Rec, node: str) -> Rec:
        """What a crash of ``node`` does to the messages in flight: by
        default nothing (UDP datagrams stay in flight across a crash)."""
        return state

    def heal(self, state: Rec) -> Rec:
        return state.set(self.DISC, frozenset())

    def is_partitioned(self, state: Rec) -> bool:
        return bool(state[self.DISC])


class TcpModel(_NetworkModel):
    """TCP-semantics network state: FIFO channels + partitions."""

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

    # -- sending / delivery -------------------------------------------------------

    def send(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Append ``msg`` to the (src, dst) channel; lost if partitioned."""
        if self.blocked(state, src, dst):
            return state
        return state.set(
            self.MSGS, state[self.MSGS].apply((src, dst), lambda q: q + (msg,))
        )

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

    def consume(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Pop ``msg``, the head of the (src, dst) channel."""
        queue = state[self.MSGS][(src, dst)]
        if not queue:
            raise ValueError(f"channel {src}->{dst} is empty")
        return state.set(self.MSGS, state[self.MSGS].set((src, dst), queue[1:]))

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

    # -- constraints ---------------------------------------------------------------

    def max_queue_length(self, state: Rec) -> int:
        return max(map(len, state[self.MSGS].values()), default=0)


def _msg_key(item: Tuple[str, str, Rec]) -> str:
    """The canonical sort key of a datagram: the one definition of the order."""
    src, dst, msg = item
    return repr((src, dst, thaw(msg)))


class UdpModel(_NetworkModel):
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

    # -- sending / delivery ---------------------------------------------------------

    def send(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Put a datagram in flight; lost immediately if partitioned."""
        if self.blocked(state, src, dst):
            return state
        return self.duplicate(state, src, dst, msg)

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
        in_flight = list(state[self.MSGS])
        try:
            in_flight.remove((src, dst, msg))
        except ValueError:
            raise ValueError(f"datagram not in flight: {(src, dst, msg)}") from None
        return state.set(self.MSGS, tuple(in_flight))

    # -- failures -----------------------------------------------------------------

    drop = consume

    def duplicate(self, state: Rec, src: str, dst: str, msg: Rec) -> Rec:
        """Put one more copy of the datagram in flight."""
        in_flight = tuple(
            sorted(state[self.MSGS] + ((src, dst, msg),), key=self._key)
        )
        return state.set(self.MSGS, in_flight)

    def apply_partition(self, state: Rec, group: frozenset) -> Rec:
        crossing = self.crossing(group)
        remaining = tuple(
            packet
            for packet in state[self.MSGS]
            if frozenset({packet[0], packet[1]}) not in crossing
        )
        return state.update({self.MSGS: remaining, self.DISC: crossing})

    # -- constraints -----------------------------------------------------------------

    def max_queue_length(self, state: Rec) -> int:
        return len(state[self.MSGS])


def _inc(value: int) -> int:
    return value + 1


class ClusterSpec(Spec):
    """A cluster of nodes over one of the network models: the environment
    every system spec shares, specified once (§3.1, §4.2).

    It owns the configuration (``config``, whose ``max_*`` fields are the
    budgets), the seeded ``bugs`` and the ``only_invariants`` filter; the
    network model, ``quorum`` and sending; message delivery and dispatch;
    node crash and restart, network partitions and — over UDP — datagram
    loss and duplication; the buffer constraint and the weak-fairness sets.
    Its state variables are ``alive``, ``eventCounter`` and the network's.

    A protocol subclass sets ``config_type`` and, where the defaults do not
    fit, ``COUNTERS`` (the keys of ``eventCounter``, one budget each) and
    ``network_kind``; it supplies:

    ``_protocol_variables()``
        the initial values of its own variables, as a dict;
    ``_message_handlers()``
        message type -> ``handler(state, src, dst, message)``, a generator
        of ``(state', branch)`` pairs;
    ``_timeout_actions()``
        its timeout actions, listed after ``ReceiveMessage``;
    ``_restart(state, node)``
        the update keywords that reset ``node``'s volatile variables;

    plus ``_act_client_request`` and ``_build_invariants`` /
    ``_build_transition_invariants``.  A protocol spec holds only protocol.
    """

    network_kind = "tcp"  # or "udp"
    config_type: type
    COUNTERS: Tuple[str, ...] = ("timeouts", "requests", "crashes", "restarts", "partitions")
    #: bug codes this spec understands (subclasses extend)
    supported_bugs: FrozenSet[str] = frozenset()

    def __init__(
        self,
        config: Optional[Any] = None,
        bugs: Iterable[str] = (),
        only_invariants: Optional[Iterable[str]] = None,
    ):
        self.config = config or self.config_type()
        self.nodes = self.config.nodes
        self.bugs = frozenset(bugs)
        unknown = self.bugs - self.supported_bugs
        if unknown:
            raise ValueError(f"{self.name} does not support bug flags {sorted(unknown)}")
        self.only_invariants = (
            frozenset(only_invariants) if only_invariants is not None else None
        )
        model = TcpModel if self.network_kind == "tcp" else UdpModel
        self.net = model(self.nodes)
        # Bound through ``self``, so a subclass's override is what runs.
        self._handlers = self._message_handlers()
        self._actions = self._build_actions()
        self._invariants = self._filter(self._build_invariants())
        self._transition_invariants = self._filter(self._build_transition_invariants())

    def _filter(self, invariants: Sequence) -> Tuple:
        if self.only_invariants is None:
            return tuple(invariants)
        return tuple(i for i in invariants if i.name in self.only_invariants)

    def init_states(self) -> Iterator[Rec]:
        variables = self._protocol_variables()
        variables["alive"] = Rec({n: True for n in self.nodes})
        variables["eventCounter"] = Rec({name: 0 for name in self.COUNTERS})
        variables.update(self.net.init_vars())
        yield Rec(variables)

    def actions(self) -> Sequence[Action]:
        return self._actions

    def _build_actions(self) -> List[Action]:
        actions = [
            Action("ReceiveMessage", self._act_receive, kind="message"),
            *self._timeout_actions(),
            Action("ClientRequest", self._act_client_request, kind="client"),
            Action("NodeCrash", self._act_crash, kind="failure"),
            Action("NodeRestart", self._act_restart, kind="failure"),
            Action("PartitionStart", self._act_partition_start, kind="failure"),
            Action("PartitionHeal", self._act_partition_heal, kind="failure"),
        ]
        if self.network_kind == "udp":
            actions.append(Action("DropMessage", self._act_drop, kind="failure"))
            actions.append(Action("DuplicateMessage", self._act_duplicate, kind="failure"))
        return actions

    def invariants(self) -> Sequence[Invariant]:
        return self._invariants

    def transition_invariants(self) -> Sequence[TransitionInvariant]:
        return self._transition_invariants

    def state_constraint(self, state: Rec) -> bool:
        return self.net.max_queue_length(state) <= self.config.max_buffer

    def weak_fairness(self) -> Sequence[WeakFairness]:
        """Fairness over the progress machinery, not over failures.

        Message delivery, timeouts, and client requests must not be
        starved by the scheduler; crashes, partitions, and UDP
        drops/duplicates need never happen.  Budget exhaustion makes
        the guarded actions *disabled* (the budgets live inside the
        action guards), so a genuinely spent model reads as a real
        deadlock while a merely unexpanded exploration frontier — where
        these actions are still enabled — can never seed a lasso.
        """
        timeouts = [a.name for a in self._actions if a.kind == "timeout"]
        return (
            WeakFairness.of("wf-deliver", "ReceiveMessage"),
            WeakFairness.of("wf-timeout", *timeouts),
            WeakFairness.of("wf-client", "ClientRequest"),
        )

    def quorum(self) -> int:
        return len(self.nodes) // 2 + 1

    # -- sending ------------------------------------------------------------

    def _send(self, state: Rec, src: str, dst: str, message: Rec) -> Rec:
        # A TCP connection to a crashed node is broken: the send is lost.
        # UDP datagrams stay in flight and may be delivered after restart.
        if self.network_kind == "tcp" and not state["alive"][dst]:
            return state
        return self.net.send(state, src, dst, message)

    def _broadcast(self, state: Rec, src: str, message: Rec) -> Rec:
        for dst in self.nodes:
            if dst != src:
                state = self._send(state, src, dst, message)
        return state

    # -- message delivery ---------------------------------------------------

    def _act_receive(self, state: Rec):
        for src, dst, message in self.net.deliverable(state):
            if not state["alive"][dst]:
                continue
            handler = self._handlers.get(message["type"])
            if handler is None:
                raise AssertionError(f"unknown message type: {message['type']}")
            consumed = self.net.consume(state, src, dst, message)
            for new, branch in handler(consumed, src, dst, message):
                yield (src, dst, message), new, branch

    # -- failures -----------------------------------------------------------

    def _act_crash(self, state: Rec):
        counter = state["eventCounter"]
        if counter["crashes"] >= self.config.max_crashes:
            return
        for node in self.nodes:
            if not state["alive"][node]:
                continue
            new = state.update(
                alive=state["alive"].set(node, False),
                eventCounter=counter.apply("crashes", _inc),
            )
            yield (node,), self.net.clear_node(new, node), "crash"

    def _act_restart(self, state: Rec):
        counter = state["eventCounter"]
        if counter["restarts"] >= self.config.max_restarts:
            return
        for node in self.nodes:
            if state["alive"][node]:
                continue
            new = state.update(
                alive=state["alive"].set(node, True),
                eventCounter=counter.apply("restarts", _inc),
                **self._restart(state, node),
            )
            yield (node,), new, "restart"

    def _act_partition_start(self, state: Rec):
        counter = state["eventCounter"]
        if counter["partitions"] >= self.config.max_partitions:
            return
        if self.net.is_partitioned(state):
            return
        for group in self.net.partitions:
            new = self.net.apply_partition(state, group)
            new = new.set("eventCounter", counter.apply("partitions", _inc))
            yield (tuple(sorted(group)),), new, "partition"

    def _act_partition_heal(self, state: Rec):
        if not self.net.is_partitioned(state):
            return
        yield (), self.net.heal(state), "heal"

    def _act_drop(self, state: Rec):
        counter = state["eventCounter"]
        if counter["drops"] >= self.config.max_drops:
            return
        for src, dst, message in self.net.deliverable(state):
            new = self.net.drop(state, src, dst, message)
            new = new.set("eventCounter", counter.apply("drops", _inc))
            yield (src, dst, message), new, "drop"

    def _act_duplicate(self, state: Rec):
        counter = state["eventCounter"]
        if counter["dups"] >= self.config.max_dups:
            return
        for src, dst, message in self.net.deliverable(state):
            new = self.net.duplicate(state, src, dst, message)
            new = new.set("eventCounter", counter.apply("dups", _inc))
            yield (src, dst, message), new, "duplicate"
