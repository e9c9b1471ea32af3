"""One self-check record: how a selftest failure is recorded, reported,
saved and replayed, whichever of the three sweeps found it.

A :class:`Finding` holds the generated spec's seed and params, the graded
cell, a ``kind`` tag naming the sweep and the sweep's own typed fields;
a :class:`SelftestReport` holds one sweep's outcome; :func:`write_artifact`
saves a finding as JSON (with its ``kind`` and the state-codec version);
:func:`replay_artifact` dispatches on ``kind`` and re-runs just that cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from ..core.state import CODEC_VERSION
from ..persist.rundir import RunDirError, atomic_write_json, read_manifest
from .genspec import GenParams

__all__ = ["Finding", "SelftestReport", "replay_artifact", "write_artifact"]

#: Every finding class, by the ``kind`` its artifacts carry.
_KINDS: Dict[str, Type["Finding"]] = {}


@dataclasses.dataclass
class Finding:
    """One graded cell that disagreed with its oracle.

    A sweep subclasses it with its typed fields, a ``kind``, the cells it
    grades (``CELLS``; empty accepts any), ``detail()`` (the mismatch,
    readable) and ``replay(raw)`` (re-run the cell from its artifact and
    return the fresh findings); ``_decode`` rebuilds the typed fields.
    """

    kind: ClassVar[str] = ""
    CELLS: ClassVar[Tuple[str, ...]] = ()

    spec_seed: str
    params: GenParams
    cell: str

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _KINDS[cls.kind] = cls

    def describe(self) -> str:
        return f"{self.spec_seed} [{self.cell}] {self.detail()}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "codec_version": CODEC_VERSION,
            **dataclasses.asdict(self),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Finding":
        fields = {f.name: raw[f.name] for f in dataclasses.fields(cls) if f.init}
        if not isinstance(fields["spec_seed"], str):
            raise TypeError("'spec_seed' is not a string")
        if cls.CELLS and fields["cell"] not in cls.CELLS:
            raise ValueError(f"unknown {cls.kind} cell {fields['cell']!r}")
        fields["params"] = GenParams.from_dict(fields["params"])
        return cls(**cls._decode(fields))

    @classmethod
    def _decode(cls, fields: Dict[str, Any]) -> Dict[str, Any]:
        return fields


@dataclasses.dataclass
class SelftestReport:
    """One sweep's outcome: what was graded, what was skipped, what failed."""

    sweep: str
    seed: str
    specs: int
    cells: Dict[str, int] = dataclasses.field(default_factory=dict)
    skipped: Dict[str, int] = dataclasses.field(default_factory=dict)
    findings: List[Finding] = dataclasses.field(default_factory=list)
    artifacts: List[str] = dataclasses.field(default_factory=list)
    violated: int = 0
    holds: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def graded(self) -> int:
        return sum(self.cells.values())

    def grade(self, cell: str) -> None:
        self.cells[cell] = self.cells.get(cell, 0) + 1

    def skip(self, cell: str) -> None:
        self.skipped[cell] = self.skipped.get(cell, 0) + 1

    def add(
        self, finding: Finding, out_dir: Optional[os.PathLike] = None, **context: Any
    ) -> None:
        """Record ``finding``; with ``out_dir`` also save it, plus ``context``."""
        self.findings.append(finding)
        if out_dir is not None:
            self.artifacts.append(write_artifact(out_dir, finding, **context))

    def describe(self) -> str:
        truths = (
            f" ({self.violated} violated / {self.holds} holding)"
            if self.violated or self.holds
            else ""
        )
        lines = [
            f"selftest {self.sweep}: {self.specs} specs (seed {self.seed!r}),"
            f" {self.graded} cells graded{truths},"
            f" {sum(self.skipped.values())} skipped,"
            f" {len(self.findings)} failures — {'OK' if self.ok else 'FAILED'}"
        ]
        names = sorted(set(self.cells) | set(self.skipped))
        width = max((len(name) for name in names), default=0)
        for name in names:
            skip = self.skipped.get(name, 0)
            lines.append(
                f"  {name:<{width}} {self.cells.get(name, 0):>4} graded"
                + (f" ({skip} skipped)" if skip else "")
            )
        lines.extend(f"  FAIL {finding.describe()}" for finding in self.findings[:20])
        lines.extend(f"  artifact: {path}" for path in self.artifacts)
        return "\n".join(lines)


def write_artifact(out_dir: os.PathLike, finding: Finding, **context: Any) -> str:
    """Save ``finding`` and ``context`` as one JSON artifact; return its path.

    The name ends in a digest of the content, so two findings of one cell
    never overwrite each other.
    """
    payload = {**finding.to_dict(), **context}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    stem = "-".join(
        (finding.kind.removeprefix("testkit-"), finding.spec_seed, finding.cell)
    )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        os.fspath(out_dir),
        f"{stem.replace(':', '_').replace('/', '-')}-{digest[:10]}.json",
    )
    atomic_write_json(path, payload)
    return path


def replay_artifact(path: os.PathLike) -> Tuple[Finding, List[Finding]]:
    """Regenerate an artifact's spec and re-run its one cell.

    Returns the recorded finding and the re-run's fresh findings, empty
    when the failure no longer reproduces.  A file that is missing, not a
    JSON object, of a kind no sweep writes or short of a field its kind
    needs is a :class:`~repro.persist.RunDirError` naming the file.
    """
    try:
        raw = read_manifest(path)
    except OSError as exc:
        raise RunDirError(f"{os.fspath(path)}: {exc.strerror or exc}") from None
    kind = raw.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise RunDirError(
            f"{os.fspath(path)}: not a selftest artifact (kind {kind!r};"
            f" expected one of {', '.join(sorted(_KINDS))})"
        )
    try:
        original = cls.from_dict(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RunDirError(
            f"artifact {os.fspath(path)}: {type(exc).__name__}: {exc}"
        ) from None
    return original, original.replay(raw)
