"""Invariant-violation reports produced by exploration."""

from __future__ import annotations

import dataclasses
from typing import Any

from .trace import PendingTrace, Trace, TraceStep

__all__ = ["Violation"]


@dataclasses.dataclass
class Violation:
    """A safety-property violation with its minimal triggering trace.

    ``invariant`` names the violated property; ``trace`` is the event
    sequence that reaches the violating state (for BFS this is a
    minimal-depth counterexample, §5.1.1).  ``kind`` distinguishes state
    invariants from transition invariants.
    """

    invariant: str
    trace: Trace
    kind: str = "state"
    detail: str = ""

    @property
    def depth(self) -> int:
        return self.trace.depth

    def describe(self) -> str:
        header = f"violation of {self.invariant} ({self.kind}) at depth {self.depth}"
        if self.detail:
            header += f": {self.detail}"
        return header + "\n" + self.trace.summary()

    def __repr__(self) -> str:
        return f"Violation({self.invariant!r}, depth={self.depth})"

    def to_dict(self) -> dict:
        """The one serialised form of a violation: a shard worker's reply,
        ``parallel.json``, a checkpoint header and an artifact carry it.
        A real trace is its ``Trace.to_dict()``; a pending one is
        ``{"pending_depth": n}``, plus its ``anchor`` and ``step``."""
        trace = self.trace
        if not trace.pending:
            encoded = trace.to_dict()
        else:
            encoded = {"pending_depth": trace.depth}
            if trace.anchor is not None:
                encoded["anchor"] = trace.anchor
            if trace.step is not None:
                encoded["step"] = trace.step.to_dict()
        return {
            "invariant": self.invariant,
            "kind": self.kind,
            "detail": self.detail,
            "depth": trace.depth,
            "trace": encoded,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Violation":
        """Invert :meth:`to_dict`; anything it would not have written raises
        :class:`ValueError`.  Keys it does not write (an artifact's codec
        version, a lasso's cycle) are the caller's."""
        if not isinstance(data, dict):
            raise ValueError(f"a violation is an object, not a {type(data).__name__}")
        invariant, kind = data.get("invariant"), data.get("kind", "state")
        detail, raw = data.get("detail", ""), data.get("trace")
        if not all(isinstance(field, str) for field in (invariant, kind, detail)):
            raise ValueError("'invariant', 'kind' or 'detail' is not a string")
        if isinstance(raw, dict) and "pending_depth" in raw:
            trace: Trace = _pending(raw)
        else:
            trace = Trace.from_dict(raw)
        if data.get("depth", trace.depth) != trace.depth:
            raise ValueError(f"'depth' {data['depth']!r} is not the trace's")
        return cls(invariant, trace, kind=kind, detail=detail)


def _pending(raw: dict) -> PendingTrace:
    """The pending trace :meth:`Violation.to_dict` wrote as ``raw``."""
    depth, anchor, step = raw["pending_depth"], raw.get("anchor"), raw.get("step")
    if type(depth) is not int or depth < 0:
        raise ValueError("'pending_depth' is not a count")
    if anchor is not None and not (type(anchor) is int and 0 <= anchor < 2**64):
        raise ValueError("'anchor' is not a 64-bit fingerprint")
    if step is None:
        return PendingTrace(depth, anchor)
    if anchor is None or depth == 0:
        raise ValueError("a 'step' needs an 'anchor' and a depth past 0")
    return PendingTrace(depth, anchor, TraceStep.from_dict(step))
