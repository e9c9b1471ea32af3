"""The versioned JSONL event-log schema and its runtime emitters.

Trace validation (after "Validating Traces of Distributed Programs
Against TLA+ Specifications", arXiv 2404.16075) consumes *implementation*
event logs, so the log format is the contract between the two levels:

* line 1 is a **header** — schema version, spec/system name, node ids,
  the observed-variable subset, free-form metadata;
* every following line is one **event** — a global index ``i``, the node
  it is attributed to (empty for cluster-scoped events like partitions),
  a per-node monotonic sequence number ``seq``, the event ``kind``
  (message/timeout/client/failure/internal), an optional spec action
  ``name``, an argument *prefix* constraining the matching transition,
  and ``obs`` — the observed projection of that node's state *after* the
  event.

Events deliberately under-specify the spec transition: the matcher
(:mod:`repro.tracecheck.matcher`) resolves the remaining nondeterminism.
Unobserved variables are simply absent from ``obs``.

Lines are canonical JSON (sorted keys, no whitespace) over the lossless
tagged value encoding of :func:`repro.core.trace.to_jsonable`, so
``emit -> parse -> emit`` is byte-stable and independent of
``PYTHONHASHSEED``.

:class:`RuntimeLogEmitter` hooks into
:class:`repro.runtime.engine.ExecutionEngine`: after every successful
command it appends the corresponding event, attributing it to the
affected node, stamping the node's monotonic sequence number from its
:class:`~repro.runtime.interceptor.Interceptor` (sequence numbers
survive crash/restart), and snapshotting the node's observed variables
via :meth:`repro.systems.base.SystemNode.observed_state`.
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.state import Rec, freeze
from ..core.trace import from_jsonable, to_jsonable

__all__ = [
    "FORMAT_VERSION",
    "LogEvent",
    "LogHeader",
    "RuntimeLogEmitter",
    "TraceLog",
    "TraceLogError",
    "observe",
    "parse_lines",
    "project",
    "read_log",
    "render_lines",
    "system_emitter",
    "write_log",
]

#: Current schema version; :func:`parse_lines` rejects anything else.
FORMAT_VERSION = 1


class TraceLogError(Exception):
    """A log violates the schema (version, ordering, or field shape)."""


@dataclasses.dataclass
class LogEvent:
    """One implementation event, as much of it as was observed.

    ``args`` is a *prefix* of the matching spec transition's arguments
    (empty means "any arguments"); ``name`` is the spec action name, or
    ``None`` when only the coarse ``kind`` is known.  ``obs`` maps
    observed spec variable names to frozen values — for per-node record
    variables the value is the ``node``'s entry, for global variables
    the whole value.  ``seq`` is the per-node monotonic sequence number;
    ``None`` means "assign at serialization time".
    """

    node: str
    kind: str
    name: Optional[str] = None
    args: Tuple[Any, ...] = ()
    obs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seq: Optional[int] = None

    @property
    def label(self) -> str:
        what = self.name or self.kind
        where = f"@{self.node}" if self.node else ""
        return f"{what}{where}{list(self.args)!r}" if self.args else f"{what}{where}"


@dataclasses.dataclass
class LogHeader:
    """The log's first line: schema + run identity."""

    spec: str
    nodes: Tuple[str, ...] = ()
    observed: Tuple[str, ...] = ()
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    version: int = FORMAT_VERSION


@dataclasses.dataclass
class TraceLog:
    """A parsed (or about-to-be-written) event log."""

    header: LogHeader
    events: List[LogEvent]

    def lines(self) -> List[str]:
        return render_lines(self.header, self.events)


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_lines(header: LogHeader, events: Sequence[LogEvent]) -> List[str]:
    """Serialize to canonical JSONL lines (no trailing newlines).

    Global indices are assigned here; per-node sequence numbers are
    taken from the events when present (and checked monotonic) or
    assigned from per-node counters when absent.
    """
    lines = [
        _canonical(
            {
                "k": "header",
                "v": header.version,
                "spec": header.spec,
                "nodes": list(header.nodes),
                "observed": list(header.observed),
                "meta": header.meta,
            }
        )
    ]
    counters: Dict[str, int] = {}
    for index, event in enumerate(events):
        last = counters.get(event.node, 0)
        seq = event.seq if event.seq is not None else last + 1
        if seq <= last:
            raise TraceLogError(
                f"event #{index}: sequence {seq} for node {event.node!r}"
                f" is not greater than the previous {last}"
            )
        counters[event.node] = seq
        lines.append(
            _canonical(
                {
                    "k": "event",
                    "i": index,
                    "node": event.node,
                    "seq": seq,
                    "kind": event.kind,
                    "name": event.name,
                    "args": [to_jsonable(a) for a in event.args],
                    "obs": {
                        var: to_jsonable(value)
                        for var, value in event.obs.items()
                    },
                }
            )
        )
    return lines


def _field(lineno: int, obj: Dict[str, Any], key: str, kind: type, default: Any) -> Any:
    """``obj[key]`` (``default`` when absent); it must be a ``kind``.

    ``json.loads`` builds exactly the built-in classes, so the test is by
    class, and ``bool`` is not ``int``: ``"seq": true`` is a wrong log,
    not sequence number 1.
    """
    value = obj.get(key, default)
    if value.__class__ is not kind:
        raise TraceLogError(
            f"line {lineno}: field {key!r} must be of type {kind.__name__},"
            f" not {type(value).__name__}"
        )
    return value


def _strings(lineno: int, obj: Dict[str, Any], key: str) -> Tuple[str, ...]:
    values = _field(lineno, obj, key, list, [])
    if not all(isinstance(value, str) for value in values):
        raise TraceLogError(f"line {lineno}: field {key!r} must list strings")
    return tuple(values)


def parse_lines(lines: Iterable[str]) -> TraceLog:
    """Parse and validate JSONL lines into a :class:`TraceLog`.

    Every malformed line — bad JSON, a field of the wrong type, a tagged
    value that does not decode — raises :class:`TraceLogError` naming
    the line.
    """
    header: Optional[LogHeader] = None
    events: List[LogEvent] = []
    counters: Dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise TraceLogError(f"line {lineno}: not JSON: {exc}") from None
        if not isinstance(obj, dict) or "k" not in obj:
            raise TraceLogError(f"line {lineno}: missing record kind 'k'")
        if obj["k"] == "header":
            if header is not None:
                raise TraceLogError(f"line {lineno}: duplicate header")
            if events:
                raise TraceLogError(f"line {lineno}: header after events")
            version = obj.get("v")
            if version.__class__ is not int or version != FORMAT_VERSION:
                raise TraceLogError(
                    f"unsupported log format version {version!r}"
                    f" (this reader speaks version {FORMAT_VERSION})"
                )
            header = LogHeader(
                spec=_field(lineno, obj, "spec", str, ""),
                nodes=_strings(lineno, obj, "nodes"),
                observed=_strings(lineno, obj, "observed"),
                meta=_field(lineno, obj, "meta", dict, {}),
                version=version,
            )
            continue
        if obj["k"] != "event":
            raise TraceLogError(
                f"line {lineno}: unknown record kind {obj['k']!r}"
            )
        if header is None:
            raise TraceLogError(f"line {lineno}: event before header")
        index = obj.get("i")
        if index.__class__ is not int or index != len(events):
            raise TraceLogError(
                f"line {lineno}: event index {index!r}, expected {len(events)}"
            )
        node = _field(lineno, obj, "node", str, "")
        seq = _field(lineno, obj, "seq", int, None)
        if seq <= counters.get(node, 0):
            raise TraceLogError(
                f"line {lineno}: sequence {seq!r} for node {node!r} is not"
                f" monotonically increasing (last {counters.get(node, 0)})"
            )
        counters[node] = seq
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise TraceLogError(f"line {lineno}: field 'name' must be a str or null")
        args = _field(lineno, obj, "args", list, [])
        obs = _field(lineno, obj, "obs", dict, {})
        try:
            args = tuple(from_jsonable(a) for a in args)
            obs = {var: from_jsonable(value) for var, value in obs.items()}
        except (TypeError, ValueError, RecursionError) as exc:
            raise TraceLogError(f"line {lineno}: undecodable value: {exc}") from None
        events.append(
            LogEvent(
                node=node,
                kind=_field(lineno, obj, "kind", str, "internal"),
                name=name,
                args=args,
                obs=obs,
                seq=seq,
            )
        )
    if header is None:
        raise TraceLogError("log has no header line")
    return TraceLog(header, events)


def write_log(path: Any, header: LogHeader, events: Sequence[LogEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in render_lines(header, events):
            fh.write(line + "\n")


def read_log(path: Any) -> TraceLog:
    """Read and parse a log file; bytes that are not UTF-8 raise
    :class:`TraceLogError` naming the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise TraceLogError(f"line {lineno}: not UTF-8 ({exc.reason})") from None
    # Universal newlines, as reading the file in text mode splits it.
    return parse_lines(io.StringIO(text, newline=None))


# ---------------------------------------------------------------------------
# observation helpers
# ---------------------------------------------------------------------------


def project(state: Rec, var: str, node: str) -> Any:
    """The observed value of ``var`` for ``node`` in a spec state.

    Per-node record variables (``state[var]`` is a record containing
    ``node``) project to the node's entry; everything else is the whole
    value.  Raises :class:`KeyError` when the spec has no such variable.
    """
    value = state[var]
    if node and isinstance(value, Rec) and node in value:
        return value[node]
    return value


def observe(state: Rec, node: str, observed: Iterable[str]) -> Dict[str, Any]:
    """The ``obs`` dict for an event at ``node`` given a full spec state."""
    out: Dict[str, Any] = {}
    for var in observed:
        if var in state:
            out[var] = project(state, var, node)
    return out


# ---------------------------------------------------------------------------
# runtime emission
# ---------------------------------------------------------------------------

#: timer name -> spec action for timeout commands
_TIMER_ACTIONS = {"election": "ElectionTimeout", "heartbeat": "HeartbeatTimeout"}


def event_for_command(command: Any) -> Optional[Tuple[str, Optional[str], Tuple[Any, ...], str]]:
    """Map an engine :class:`~repro.runtime.commands.Command` to event shape.

    Returns ``(kind, name, args, node)`` — the inverse of
    :class:`repro.conformance.converter.TraceConverter` — or ``None``
    for commands with no spec-visible effect (``get_state``,
    ``advance_clock``).  Argument tuples are deliberately *prefixes*:
    e.g. a client command emits ``(node,)`` and leaves the request value
    to the matcher, because the implementation-side op does not name the
    spec's workload value directly.
    """
    kind = command.kind
    if kind == "deliver":
        return ("message", "ReceiveMessage", (command.src, command.dst), command.dst)
    if kind == "timeout":
        return (
            "timeout",
            _TIMER_ACTIONS.get(command.timer),
            (command.node,),
            command.node,
        )
    if kind == "client":
        op = command.op
        name = (
            "ClientRead"
            if isinstance(op, dict) and op.get("op") == "get"
            else "ClientRequest"
        )
        return ("client", name, (command.node,), command.node)
    if kind == "crash":
        return ("failure", "NodeCrash", (command.node,), command.node)
    if kind == "restart":
        return ("failure", "NodeRestart", (command.node,), command.node)
    if kind == "partition":
        # Which side of the bipartition the spec names is its choice.
        return ("failure", "PartitionStart", (), "")
    if kind == "heal":
        return ("failure", "PartitionHeal", (), "")
    if kind == "drop":
        return ("failure", "DropMessage", (command.src, command.dst), "")
    if kind == "duplicate":
        return ("failure", "DuplicateMessage", (command.src, command.dst), "")
    if kind == "compact":
        return ("internal", "CompactLog", (command.node,), command.node)
    return None


class RuntimeLogEmitter:
    """Collects a validatable event log from a live execution engine.

    Pass one to :class:`repro.runtime.engine.ExecutionEngine` as
    ``emitter=``; it records every successfully executed spec-visible
    command.  ``observed`` names the spec variables to snapshot after
    each node-attributed event (``None`` observes whatever
    ``extract_state`` exposes).
    """

    def __init__(
        self,
        spec: str,
        nodes: Sequence[str],
        observed: Optional[Sequence[str]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.observed = None if observed is None else tuple(observed)
        self.header = LogHeader(
            spec=spec,
            nodes=tuple(nodes),
            observed=self.observed or (),
            meta=dict(meta or {}),
        )
        self.events: List[LogEvent] = []

    def on_command(self, engine: Any, command: Any, result: Any) -> None:
        mapped = event_for_command(command)
        if mapped is None:
            return
        kind, name, args, node = mapped
        obs: Dict[str, Any] = {}
        seq: Optional[int] = None
        if node:
            host = engine.hosts.get(node)
            if host is not None:
                seq = host.interceptor.next_event_seq()
                raw = host.observed_state(self.observed)
                if raw:
                    obs = {var: freeze(value) for var, value in raw.items()}
        self.events.append(
            LogEvent(node=node, kind=kind, name=name, args=args, obs=obs, seq=seq)
        )

    def log(self) -> TraceLog:
        return TraceLog(self.header, list(self.events))

    def lines(self) -> List[str]:
        return render_lines(self.header, self.events)

    def write(self, path: Any) -> None:
        write_log(path, self.header, self.events)


def system_emitter(
    system: str,
    nodes: Sequence[str],
    observed: Optional[Sequence[str]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> RuntimeLogEmitter:
    """An emitter preconfigured with the system's conformance variables.

    The observed subset defaults to the per-node spec variables the
    conformance mapping compares (:data:`repro.conformance.mapping.SYSTEM_VARS`)
    — exactly the projection conformance checking already trusts.
    """
    if observed is None:
        from ..conformance.mapping import SYSTEM_VARS

        observed = SYSTEM_VARS.get(system)
    return RuntimeLogEmitter(system, nodes, observed=observed, meta=meta)
