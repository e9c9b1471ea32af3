"""Replayable artifacts: saved traces, violations, and reports.

Artifacts are what a run leaves behind for *later* sessions: a violation
trace saved today replays against the implementation tomorrow (``sandtable
replay --trace``) with no re-exploration.  Violation and lasso files
hold the one violation record,
:meth:`repro.core.violation.Violation.to_dict`; all are JSON built on the
lossless :meth:`repro.core.trace.Trace.to_dict` encoding — every state
carries its canonical codec bytes — and are stamped with
:data:`~repro.core.state.CODEC_VERSION` so a build with a different codec
refuses them with a clear error instead of silently mis-decoding.  A
file whose content no ``save_*`` here would have written — malformed
JSON, a field of the wrong type, a missing key, undecodable codec bytes —
is refused with a :class:`~repro.persist.rundir.RunDirError` naming it.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Union

from ..core.state import CODEC_VERSION
from ..core.trace import Trace
from ..core.violation import Violation
from .rundir import RunDirError, atomic_write_bytes, atomic_write_json, read_manifest

__all__ = [
    "save_trace",
    "load_trace",
    "save_violation",
    "load_violation",
    "save_lasso",
    "load_lasso",
    "write_text_artifact",
]


def _load(path: Any, build: Callable[[Dict[str, Any]], Any]) -> Any:
    """``build`` over the JSON object in ``path``, its codec version checked;
    a ``ValueError`` from ``build`` becomes a ``RunDirError`` naming the file."""
    data = read_manifest(path)
    codec = data.get("codec_version")
    if codec is not None and codec != CODEC_VERSION:
        raise RunDirError(
            f"artifact {path} was written with state-codec version {codec};"
            f" this build uses codec version {CODEC_VERSION} and cannot"
            " decode its states"
        )
    try:
        return build(data)
    except ValueError as exc:
        raise RunDirError(f"artifact {path}: {exc}") from None


def save_trace(path: Union[str, os.PathLike], trace: Trace, **extra: Any) -> None:
    """Write a trace as a replayable JSON artifact (atomic)."""
    payload = {"codec_version": CODEC_VERSION, "trace": trace.to_dict()}
    payload.update(extra)
    atomic_write_json(path, payload)


def load_trace(path: Union[str, os.PathLike]) -> Trace:
    """Load a trace artifact written by :func:`save_trace`.

    Also accepts a bare ``Trace.to_dict`` JSON object, so traces dumped
    by hand (``json.dump(trace.to_dict(), ...)``) replay too.
    """
    return _load(path, lambda data: Trace.from_dict(data.get("trace", data)))


def save_violation(
    path: Union[str, os.PathLike], violation: Violation, **extra: Any
) -> None:
    """Write a violation (invariant + trace) as a replayable artifact."""
    if violation.trace.pending:
        raise RuntimeError(
            "a pending trace is not replayable; resolve it by bounded re-search first"
        )
    atomic_write_json(
        path, {"codec_version": CODEC_VERSION, **violation.to_dict(), **extra}
    )


def load_violation(path: Union[str, os.PathLike]) -> Violation:
    """Load a violation artifact; bare trace files become an unnamed one."""

    def violation(data: Dict[str, Any]) -> Violation:
        if "invariant" not in data:
            return Violation("(saved trace)", Trace.from_dict(data.get("trace", data)))
        found = Violation.from_dict(data)
        if found.trace.pending:
            raise ValueError("a depth-only pending trace is not replayable")
        return found

    return _load(path, violation)


def save_lasso(
    path: Union[str, os.PathLike],
    lasso: Any,
    property_name: str,
    **extra: Any,
) -> None:
    """Write a liveness lasso as a replayable artifact (atomic).

    The payload is the lasso's liveness violation record
    (:meth:`repro.temporal.LassoTrace.violation`) — so the same file
    replays through ``sandtable replay --trace`` (the prefix+cycle steps
    are genuine spec transitions) — *and* round-trips back into a
    :class:`repro.temporal.LassoTrace` via :func:`load_lasso` (the
    ``lasso_version`` / ``cycle_start`` / ``stuttering`` fields ride
    alongside).
    """
    record = lasso.violation(property_name).to_dict()
    # the lasso's own "trace" is the record's, so it keeps its place
    atomic_write_json(
        path, {"codec_version": CODEC_VERSION, **record, **lasso.to_dict(), **extra}
    )


def load_lasso(path: Union[str, os.PathLike]):
    """Load a lasso artifact: ``(property_name, LassoTrace)``."""
    from ..temporal import LassoTrace  # temporal sits above persist

    def lasso(data: Dict[str, Any]) -> Any:
        if "lasso_version" not in data:
            raise ValueError(
                "not a lasso artifact (no lasso_version);"
                " safety violations load with load_violation"
            )
        return Violation.from_dict(data).invariant, LassoTrace.from_dict(data)

    return _load(path, lasso)


def write_text_artifact(
    path: Union[str, os.PathLike], text: str, encoding: str = "utf-8"
) -> None:
    """Write a text artifact (Markdown report, summary) atomically."""
    atomic_write_bytes(path, text.encode(encoding))
