"""Traces: sequences of events through the specification state space.

A trace records the initial state and every transition taken.  Traces are
the currency of the whole SandTable workflow: random walks produce them for
conformance checking, BFS produces them as counterexamples, and the
deterministic replayer consumes them to drive the implementation (§3.2,
§3.4, §4.1).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .state import Rec, decode, encode, freeze, thaw

__all__ = ["TraceStep", "Trace", "PendingTrace", "to_jsonable", "from_jsonable"]


@dataclasses.dataclass(frozen=True)
class TraceStep:
    """One event in a trace: the transition taken and the state it produced."""

    action: str
    args: Tuple[Any, ...]
    state: Rec
    branch: str = ""

    @property
    def label(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.action}({rendered})"

    def to_dict(self) -> dict:
        """One step of :meth:`Trace.to_dict`; see the serialization notes there."""
        return {
            "action": self.action,
            "args": [to_jsonable(a) for a in self.args],
            "branch": self.branch,
            "state": thaw(self.state),
            "state_codec": encode(self.state).hex(),
        }

    @classmethod
    def from_dict(cls, raw: Any) -> "TraceStep":
        """Invert :meth:`to_dict`; anything it would not have written
        raises :class:`ValueError`."""
        try:
            action, args = raw["action"], raw.get("args", [])
            branch = raw.get("branch", "")
            if not (isinstance(action, str) and isinstance(branch, str)):
                raise ValueError("'action' or 'branch' is not a string")
            if not isinstance(args, list):
                raise ValueError("'args' is not a list")
            args = tuple(from_jsonable(a) for a in args)
            return cls(action, args, _state(raw, "state"), branch)
        except (AttributeError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed step: {exc!r}") from None


class Trace:
    """An initial state followed by zero or more steps."""

    #: real traces are never pending; see :class:`PendingTrace`
    pending = False

    def __init__(self, initial: Rec, steps: Sequence[TraceStep] = ()):
        self.initial = initial
        self.steps: List[TraceStep] = list(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> TraceStep:
        return self.steps[index]

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def final_state(self) -> Rec:
        return self.steps[-1].state if self.steps else self.initial

    def states(self) -> Iterator[Rec]:
        yield self.initial
        for step in self.steps:
            yield step.state

    def extend(self, step: TraceStep) -> "Trace":
        return Trace(self.initial, self.steps + [step])

    def labels(self) -> List[str]:
        return [step.label for step in self.steps]

    def action_names(self) -> List[str]:
        return [step.action for step in self.steps]

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.initial == other.initial and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.initial, tuple(self.steps)))

    # -- serialization -------------------------------------------------------
    #
    # Traces are the durable interchange artifact between the checker and
    # the implementation replayer, so serialization must be *lossless*:
    # ``Trace.from_json(t.to_json())`` reconstructs a trace equal to
    # ``t``.  Each state is carried twice — once as a human-readable
    # ``thaw`` rendering (``initial``/``state``) and once as the hex of
    # its canonical codec bytes (``initial_codec``/``state_codec``),
    # which is what ``from_dict`` rehydrates from.  Step arguments go
    # through the tagged :func:`to_jsonable` encoding, which falls back
    # to codec bytes for frozen values JSON cannot carry faithfully.

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "initial": thaw(self.initial),
            "initial_codec": encode(self.initial).hex(),
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output, losslessly.

        States are decoded from their canonical codec bytes when present;
        artifacts without codec fields (written before lossless
        serialization) fall back to re-freezing the thawed rendering,
        which is best-effort (frozensets come back as tuples and
        non-string record keys as their string renderings).
        Anything :meth:`to_dict` would not have written raises
        :class:`ValueError`.
        """
        steps: List[TraceStep] = []
        try:
            initial = _state(data, "initial")
            raw_steps = data.get("steps", [])
            if not isinstance(raw_steps, list):
                raise ValueError("'steps' is not a list")
            for raw in raw_steps:
                steps.append(TraceStep.from_dict(raw))
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed trace at step {len(steps)}: {exc!r}") from None
        return cls(initial, steps)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        lines = [f"trace of depth {self.depth}:"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  {index:3d}. {step.label}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Trace(depth={self.depth})"


def _state(raw: dict, key: str) -> Rec:
    """The record under ``key``: decoded from ``<key>_codec`` if present,
    else re-frozen from the thawed rendering."""
    codec = raw.get(f"{key}_codec")
    state = freeze(raw[key]) if codec is None else decode(bytes.fromhex(codec))
    if not isinstance(state, Rec):
        raise ValueError(f"'{key}' is a {type(state).__name__}, not a record")
    return state


class PendingTrace(Trace):
    """A BFS violation's trace before it is resolved: its exact depth and
    its *anchor* — the fingerprint of the violating state, or of a
    transition violation's pre-state with the violating ``step``.
    :func:`repro.core.explorer.resolve_violation` replaces it with the
    concrete trace; ``pending`` marks it so downstream code never
    mistakes it for an empty real trace, and only
    :meth:`repro.core.violation.Violation.to_dict` serializes it (a
    run dir written before violations were anchored has no anchor).
    """

    pending = True

    def __init__(
        self, depth: int, anchor: Optional[int] = None, step: Optional[TraceStep] = None
    ):
        super().__init__(Rec())
        self._depth = int(depth)
        self.anchor = anchor
        self.step = step

    @property
    def depth(self) -> int:
        return self._depth

    def extend(self, step: TraceStep) -> "Trace":
        raise RuntimeError("pending trace from a traceless run cannot be extended")

    def to_dict(self) -> dict:
        raise RuntimeError(
            "pending trace from a traceless (--fast) run cannot be serialized;"
            " run bounded re-search to reconstruct the counterexample first"
        )

    def summary(self) -> str:
        return (
            f"trace of depth {self._depth} (pending: fingerprint-only run,"
            " steps not reconstructed)"
        )

    def __repr__(self) -> str:
        return f"PendingTrace(depth={self._depth})"


# ---------------------------------------------------------------------------
# tagged lossless JSON encoding of frozen values
# ---------------------------------------------------------------------------
#
# ``thaw`` is for reading, not round-tripping: it collapses tuples and
# frozensets into lists and stringifies record keys.  The tagged form
# below keeps scalars as bare JSON (so typical arguments — node names,
# terms, indexes — read exactly as before) and wraps containers in a
# single-key ``{"$kind": ...}`` object that ``from_jsonable`` inverts
# exactly.  Frozen values JSON cannot carry faithfully (bytes, NaN and
# infinite floats) are carried as canonical codec bytes, and values that
# are not frozen at all degrade explicitly to a ``$str`` rendering.


def to_jsonable(value: Any) -> Any:
    """Encode a value into a JSON-compatible, losslessly invertible form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value == value and value not in (float("inf"), float("-inf")):
            return value
        return {"$codec": encode(value).hex()}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if isinstance(value, tuple):
        return {"$tuple": [to_jsonable(v) for v in value]}
    if isinstance(value, frozenset):
        # canonical-encoding order: stable across runs and hash seeds
        return {"$set": [to_jsonable(v) for v in sorted(value, key=encode)]}
    if isinstance(value, Rec):
        return {
            "$rec": [[to_jsonable(k), to_jsonable(v)] for k, v in value.items_sorted()]
        }
    return {"$str": str(value)}


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable` (``$str`` markers decode to their string)."""
    if isinstance(value, dict):
        if "$tuple" in value:
            return tuple(from_jsonable(v) for v in value["$tuple"])
        if "$set" in value:
            return frozenset(from_jsonable(v) for v in value["$set"])
        if "$rec" in value:
            return Rec(
                {from_jsonable(k): from_jsonable(v) for k, v in value["$rec"]}
            )
        if "$bytes" in value:
            return bytes.fromhex(value["$bytes"])
        if "$codec" in value:
            return decode(bytes.fromhex(value["$codec"]))
        if "$str" in value:
            if not isinstance(value["$str"], str):
                raise ValueError("a $str value is not a string")
            return value["$str"]
        return Rec({k: from_jsonable(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(from_jsonable(v) for v in value)
    return value
