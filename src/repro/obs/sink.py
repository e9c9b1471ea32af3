"""The JSONL metrics sink: one registry snapshot per line, append-only.

A sink file lives next to a run's checkpoints (``<run dir>/metrics.jsonl``
for durable runs, any path for ``--stats-out``) and records the life of
the run as self-describing JSON lines::

    {"event": "open",     "t": ..., "meta": {...}}
    {"event": "progress", "t": ..., "stats": {...}, "metrics": {...}}
    {"event": "final",    "t": ..., "stats": {...}, "metrics": {...}}

Every line is appended by its own open-write-close, so a resumed run
continues the same file (its fresh ``open`` line marks the seam), no
descriptor stays open between lines for a forked worker to inherit, and
after a kill the file is intact up to a possibly torn last line, which
:func:`read_sink` skips.  Timestamps are wall-clock seconds
(``time.time``); ``metrics`` is always the *cumulative*
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` at that moment, so
the last parseable line of a sink answers "where did this run get to"
without replaying the file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any, Dict, List, Optional, Union

from .metrics import MetricsRegistry

__all__ = ["MetricsSink", "read_sink", "last_metrics"]


def _stats_dict(stats: Any) -> Optional[Dict[str, Any]]:
    if stats is None:
        return None
    if dataclasses.is_dataclass(stats):
        return dataclasses.asdict(stats)
    return dict(stats)


class MetricsSink:
    """Appends registry snapshots to a JSONL file, one event per line."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        registry: MetricsRegistry,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.path = os.fspath(path)
        self.registry = registry
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._closed = False
        self._write({"event": "open", "meta": dict(meta or {})})

    def _write(self, payload: Dict[str, Any]) -> None:
        payload.setdefault("t", time.time())
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")

    def write_snapshot(
        self, event: str = "progress", stats: Any = None, **extra: Any
    ) -> None:
        """Append one cumulative snapshot line."""
        payload: Dict[str, Any] = {
            "event": event,
            "metrics": self.registry.snapshot(),
        }
        rendered = _stats_dict(stats)
        if rendered is not None:
            payload["stats"] = rendered
        payload.update(extra)
        self._write(payload)

    def on_progress(self, stats: Any) -> None:
        """Adapter for the engines' unified ``progress(stats)`` callback."""
        self.write_snapshot("progress", stats=stats)

    def close(self, stats: Any = None, **extra: Any) -> None:
        """Write the ``final`` snapshot and close the sink."""
        if self._closed:
            return
        self.write_snapshot("final", stats=stats, **extra)
        self._closed = True

    def abandon(self) -> None:
        """Close without a final snapshot (crash/interrupt path): the
        last written line stays the record; a final snapshot here could
        publish partially-updated state."""
        self._closed = True

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abandon()


def read_sink(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Parse a sink file, skipping a torn (killed-mid-write) last line."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                # Only a torn tail is tolerated; garbage in the middle
                # of the file means the file is not a metrics sink.
                if handle.read(1):
                    raise
                break
    return events


def last_metrics(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The cumulative metrics snapshot of the last snapshot-bearing line."""
    snapshot: Optional[Dict[str, Any]] = None
    for event in read_sink(path):
        if "metrics" in event:
            snapshot = event["metrics"]
    if snapshot is None:
        raise ValueError(f"{os.fspath(path)} holds no metrics snapshots")
    return snapshot
