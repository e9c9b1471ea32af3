"""The transparent network proxy (§A.2).

All cluster traffic flows through the engine's proxy, which buffers and
manipulates messages without the endpoints noticing (the TPROXY analogue;
senders believe they reached their peers, receivers see the original
sender).

TCP semantics: per-connection FIFO queues, head-only delivery, partition
as the only failure (crossing queues are cleared and connections refused
until heal).  UDP semantics: a list of in-flight datagrams supporting
selective drop, duplication and out-of-order delivery (§A.3).

``snapshot()`` renders the buffered traffic in exactly the representation
the specification's network module uses, so the conformance checker can
compare the two directly (§A.4: "network states can be retrieved from the
network proxy component").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.state import Rec, freeze
from .wire import Frame, decode_payload

__all__ = ["NetworkProxy", "ProxyError"]


class ProxyError(Exception):
    """Raised on invalid proxy manipulations (empty channel, unknown msg)."""


def _pair(a: str, b: str) -> frozenset:
    return frozenset({a, b})


class NetworkProxy:
    """Buffers, delivers and manipulates cluster traffic."""

    def __init__(self, nodes: Sequence[str], kind: str = "tcp"):
        if kind not in ("tcp", "udp"):
            raise ValueError(f"unknown network kind: {kind}")
        self.nodes = tuple(nodes)
        self.kind = kind
        self._queues: Dict[Tuple[str, str], Deque[Frame]] = {
            (src, dst): deque()
            for src in self.nodes
            for dst in self.nodes
            if src != dst
        }
        self._disconnected: set = set()
        self._down: set = set()
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0

    # -- connectivity ------------------------------------------------------------

    def blocked(self, src: str, dst: str) -> bool:
        return _pair(src, dst) in self._disconnected

    def is_partitioned(self) -> bool:
        return bool(self._disconnected)

    # -- traffic -------------------------------------------------------------------

    def enqueue(self, src: str, dst: str, frame: Frame) -> bool:
        """Buffer a frame; returns False if it was lost.

        A partition loses the frame under both semantics.  A crashed
        destination refuses TCP connections (the send is lost), while UDP
        datagrams to it stay in flight and may arrive after its restart.
        """
        if self.blocked(src, dst):
            self.dropped += 1
            return False
        if self.kind == "tcp" and dst in self._down:
            self.dropped += 1
            return False
        self._queues[(src, dst)].append(frame)
        return True

    def deliverable(self) -> List[Tuple[str, str, Frame]]:
        """Frames the engine may deliver right now.

        TCP exposes only queue heads; UDP exposes every datagram.
        """
        available: List[Tuple[str, str, Frame]] = []
        for (src, dst) in sorted(self._queues):
            queue = self._queues[(src, dst)]
            if self.blocked(src, dst):
                continue
            if self.kind == "tcp":
                if queue:
                    available.append((src, dst, queue[0]))
            else:
                available.extend((src, dst, frame) for frame in queue)
        return available

    def pending(self, src: str, dst: str) -> int:
        return len(self._queues[(src, dst)])

    def deliver(self, src: str, dst: str, frame: Optional[Frame] = None) -> Frame:
        """Remove and return a frame for delivery.

        For TCP the head of the channel is returned (``frame`` must be
        None or equal to it); for UDP any in-flight ``frame`` may be
        chosen (defaults to the oldest).
        """
        queue = self._queues[(src, dst)]
        if not queue:
            raise ProxyError(f"channel {src}->{dst} is empty")
        if self.blocked(src, dst):
            raise ProxyError(f"channel {src}->{dst} is partitioned")
        if self.kind == "tcp" or frame is None:
            taken = queue.popleft()
            if frame is not None and taken != frame:
                raise ProxyError("TCP delivery must take the queue head")
        else:
            try:
                queue.remove(frame)
            except ValueError:
                raise ProxyError(f"datagram not in flight on {src}->{dst}") from None
            taken = frame
        self.delivered += 1
        return taken

    # -- failure injection (§A.3) ------------------------------------------------------

    def drop(self, src: str, dst: str, frame: Optional[Frame] = None) -> Frame:
        """UDP message loss."""
        if self.kind != "udp":
            raise ProxyError("message drop is a UDP failure")
        queue = self._queues[(src, dst)]
        if not queue:
            raise ProxyError(f"channel {src}->{dst} is empty")
        if frame is None:
            taken = queue.popleft()
        else:
            try:
                queue.remove(frame)
            except ValueError:
                raise ProxyError(f"datagram not in flight on {src}->{dst}") from None
            taken = frame
        self.dropped += 1
        return taken

    def duplicate(self, src: str, dst: str, frame: Optional[Frame] = None) -> Frame:
        """UDP message duplication."""
        if self.kind != "udp":
            raise ProxyError("message duplication is a UDP failure")
        queue = self._queues[(src, dst)]
        if not queue:
            raise ProxyError(f"channel {src}->{dst} is empty")
        chosen = queue[0] if frame is None else frame
        if frame is not None and frame not in queue:
            raise ProxyError(f"datagram not in flight on {src}->{dst}")
        queue.append(chosen)
        self.duplicated += 1
        return chosen

    def partition(self, group: Iterable[str]) -> None:
        """Break every connection crossing the group / rest split."""
        inside = frozenset(group)
        outside = frozenset(self.nodes) - inside
        if not inside or not outside:
            raise ProxyError("a partition needs two non-empty sides")
        for a in inside:
            for b in outside:
                self._disconnected.add(_pair(a, b))
                if self.kind == "tcp":
                    # Crossing TCP connections break: buffered data is lost.
                    self._queues[(a, b)].clear()
                    self._queues[(b, a)].clear()
                else:
                    # In-flight datagrams on a dead path are lost too.
                    self._queues[(a, b)].clear()
                    self._queues[(b, a)].clear()
        self.dropped += 0

    def heal(self) -> None:
        self._disconnected.clear()

    def mark_down(self, node: str) -> None:
        """Record a crashed node: its TCP connections break and new ones
        are refused until :meth:`mark_up`."""
        self._down.add(node)
        self.clear_node(node)

    def mark_up(self, node: str) -> None:
        self._down.discard(node)

    def clear_node(self, node: str) -> None:
        """A crashed node's connections break (TCP); datagrams persist (UDP)."""
        if self.kind != "tcp":
            return
        for (src, dst), queue in self._queues.items():
            if node in (src, dst):
                queue.clear()

    # -- conformance snapshot (§A.4) -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The buffered traffic in the spec network module's shape."""
        if self.kind == "tcp":
            channels = Rec(
                {
                    (src, dst): tuple(
                        freeze(decode_payload(f)) for f in self._queues[(src, dst)]
                    )
                    for (src, dst) in self._queues
                }
            )
            messages: object = channels
        else:
            packets = [
                (src, dst, freeze(decode_payload(f)))
                for (src, dst), queue in self._queues.items()
                for f in queue
            ]
            from ..specs.network import _msg_key

            messages = tuple(sorted(packets, key=_msg_key))
        disconnected = frozenset(self._disconnected)
        return {"netMsgs": messages, "netDisconnected": disconnected}
