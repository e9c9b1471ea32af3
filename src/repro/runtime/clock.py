"""Virtual clocks (§A.1).

The engine controls each node's perception of time.  A node reading the
clock (the analogue of intercepted ``clock_gettime``/``gettimeofday``)
receives the virtual time and bumps it by a tiny predefined increment to
preserve monotonicity; timeouts fire only when the engine advances the
clock past a deadline.
"""

from __future__ import annotations

from typing import Dict, Iterable

__all__ = ["VirtualClock"]

#: the small increment applied on every read, in nanoseconds
READ_INCREMENT_NS = 1


class VirtualClock:
    """Per-node virtual time in nanoseconds, advanced only by the engine."""

    def __init__(self, nodes: Iterable[str]):
        self._now_ns: Dict[str, int] = {node: 0 for node in nodes}
        self.reads: Dict[str, int] = {node: 0 for node in nodes}

    def now_ns(self, node: str) -> int:
        """Read the clock (counts as an intercepted time syscall)."""
        self.reads[node] += 1
        self._now_ns[node] += READ_INCREMENT_NS
        return self._now_ns[node]

    def peek_ns(self, node: str) -> int:
        """Read without the monotonicity bump (engine-internal)."""
        return self._now_ns[node]

    def advance_ns(self, node: str, delta_ns: int) -> int:
        """Engine command: advance a node's time (to fire timeouts)."""
        if delta_ns < 0:
            raise ValueError("virtual time cannot go backwards")
        self._now_ns[node] += delta_ns
        return self._now_ns[node]

    def reset(self, node: str) -> None:
        """A restarted process reads time from zero reads but the
        machine clock keeps its value; only read statistics reset."""
        self.reads[node] = 0
