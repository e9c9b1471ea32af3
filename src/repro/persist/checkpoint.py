"""Checkpoint files and checkpointers: pausable, resumable exploration.

A checkpoint captures everything a breadth-first search needs to
continue exactly where it left off: the unified
:class:`~repro.core.engine.SearchStats` counters, the pending frontier
(as canonical codec bytes), the visited set with its parent edges, and
any violations already collected (``stop_on_violation=False`` runs).
Because the serial engine checkpoints only at *state boundaries* (just
before a frontier pop) and the parallel driver only at *round
boundaries*, every checkpoint is a point the uninterrupted run also
passes through — so a resumed run re-executes the identical step
sequence from that point and finishes with the identical
:class:`~repro.core.engine.SearchResult`.  Checkpointing is
observation-only: it never changes which states are explored or in what
order.

The container format is one file, committed by atomic rename::

    b"STCKPT1\\n"
    u32 header length, JSON header (codec version, stats, store meta, ...)
    actions   n x (u32 length + utf-8 name)      interned action table
    edges     n x (u64 fp, u64 parent, u32 action id, u8 flags)
    roots     n x (u64 fp, u32 length + codec bytes)
    frontier  n x (u64 fp, u32 depth, u32 length + codec bytes)

The edge and root records are the store logs' own
(:mod:`~repro.persist.rundir` declares and decodes both), and
:func:`parse_checkpoint` refuses what :func:`build_checkpoint_bytes`
would not have written with a :class:`~repro.persist.rundir.RunDirError`.

Serial runs write ``checkpoint/serial.ckpt``.  With a
:class:`~repro.persist.diskstore.DiskStore` the edge/root sections stay
empty — the store is already on disk — and the header instead pins the
store's byte offsets and segment list, making checkpoints O(frontier)
instead of O(visited).  Parallel runs write one ``worker-N-G.ckpt`` per
shard (each worker dumps its own store and frontier as container bytes
and the master writes the file; ``G`` is the checkpoint generation, so a
new checkpoint never overwrites the files the committed manifest
references) plus a master ``parallel.json`` manifest that names the
exact per-shard files of its generation along with the round number,
aggregated stats, and pending violations; the master manifest's rename
is the commit point for the whole fleet, and superseded generations are
deleted only after it.  The serial header and ``parallel.json`` record a
violation in one form, :meth:`~repro.core.violation.Violation.to_dict`:
a serial run's with its trace (depth only after a ``--fast`` run), the
master's anchored where a shard worker found it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import struct
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.engine import CompactStore, SearchStats, StateStore
from ..core.state import CODEC_VERSION, Rec, encode
from ..core.violation import Violation
from .diskstore import DiskStore, DiskStoreReader
from .rundir import (
    BLOB,
    EDGE,
    HAS_PARENT,
    RunDir,
    RunDirError,
    action_table,
    atomic_write_bytes,
    atomic_write_json,
    decode_state,
    edge_records,
    read_manifest,
    read_records,
)

__all__ = [
    "ResumeState",
    "CheckpointData",
    "build_checkpoint_bytes",
    "parse_checkpoint",
    "write_checkpoint",
    "read_checkpoint",
    "SerialCheckpointer",
    "load_serial_resume",
    "ParallelCheckpointer",
    "ParallelResume",
    "load_parallel_resume",
    "load_graph_stores",
]

_MAGIC = b"STCKPT1\n"
_U32 = struct.Struct(">I")  # payload length alone: the header, an action name
_FRONTIER = struct.Struct(">QII")  # fp, depth, payload length
_SECTIONS = ("actions", "edges", "roots", "frontier")

SERIAL_CHECKPOINT = "serial.ckpt"
PARALLEL_CHECKPOINT = "parallel.json"

_WORKER_FILE = re.compile(r"^worker-\d+-(\d+)\.ckpt$")


def _worker_generation(path: pathlib.Path) -> Optional[int]:
    """The generation number of a ``worker-N-G.ckpt`` file name."""
    match = _WORKER_FILE.match(path.name)
    return int(match.group(1)) if match else None


@dataclasses.dataclass
class ResumeState:
    """What the serial engine needs to continue a checkpointed run."""

    stats: SearchStats
    frontier: List[Tuple[Rec, Any, int]]
    violations: List[Violation] = dataclasses.field(default_factory=list)
    #: metrics-registry snapshot taken at the checkpoint (None when the
    #: checkpointed run had no metrics); the engine restores it so
    #: cumulative counters match an uninterrupted run exactly.
    metrics: Optional[Dict[str, Any]] = None


@dataclasses.dataclass
class CheckpointData:
    """A parsed checkpoint container."""

    header: Dict[str, Any]
    edges: List[Tuple[int, Optional[int], str]]  # fp, parent fp or None, action
    roots: List[Tuple[int, bytes]]  # fp, codec bytes
    frontier: List[Tuple[int, int, bytes]]  # fp, depth, codec bytes
    source: str = "<bytes>"

    def stats(self) -> SearchStats:
        return _stats(self.header.get("stats", {}))

    def violations(self) -> List[Violation]:
        return [Violation.from_dict(raw) for raw in self.header.get("violations", ())]

    def frontier_items(self) -> List[Tuple[Rec, int, int]]:
        return [
            (decode_state(enc, self.source, fp), fp, depth)
            for fp, depth, enc in self.frontier
        ]

    def restore_into(self, store: StateStore) -> StateStore:
        """Replay the dumped roots and edges into ``store``.  A state that
        is recorded twice, an initial state without its edge, or (into a
        traced store) a parentless edge that is no initial state's is
        refused: no store dumps that, a traceless store would count the
        state twice, and a traced one would end a chain at a state it
        holds no initial state for."""

        def new(fp: int) -> int:
            if store.seen(fp):
                raise RunDirError(f"{self.source} records state {fp:#018x} twice")
            return fp

        roots = set()
        for fp, enc in self.roots:
            store.record_init(new(fp), decode_state(enc, self.source, fp))
            roots.add(fp)
        for fp, parent, action in self.edges:
            if parent is None and fp in roots:
                roots.remove(fp)  # the root's own edge: replayed above
            elif parent is None and not store.traceless:
                raise RunDirError(
                    f"{self.source} records state {fp:#018x} with no parent"
                    " and no initial state"
                )
            else:
                store.record(new(fp), parent, action)
        if roots:
            raise RunDirError(
                f"{self.source} lists no edge for {len(roots)} of its initial states"
            )
        return store


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _stats(raw: Any) -> SearchStats:
    """The :class:`SearchStats` a header or manifest recorded.  A field no
    writer writes or a value of the wrong type raises."""
    if not isinstance(raw, dict):
        raise ValueError(f"'stats' is not an object: {raw!r}")
    stats = SearchStats(**raw)
    counts = [value for name, value in raw.items() if name != "elapsed"]
    if not all(map(_is_count, counts)) or type(stats.elapsed) not in (int, float):
        raise ValueError(f"'stats' holds a value of the wrong type: {raw!r}")
    return stats


def build_checkpoint_bytes(
    *,
    stats: Optional[SearchStats] = None,
    store: Optional[StateStore] = None,
    store_meta: Optional[Dict[str, Any]] = None,
    frontier: Iterable[Tuple[Rec, Any, int]] = (),
    violations: Sequence[Violation] = (),
    extra: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Serialize one checkpoint to its container bytes.

    Pass ``store`` to dump an in-memory store's edges and roots inline
    (via the generic ``edges()``/``roots()`` seam — works for any
    :class:`~repro.core.engine.StateStore`), or ``store_meta`` to record
    a :class:`DiskStore`'s offsets instead of its contents.  The result
    is exactly what :func:`write_checkpoint` commits to disk; shard
    workers hand it to the master instead, which writes the
    generation-addressed files — no worker needs its filesystem.
    """
    action_ids: Dict[str, int] = {}
    actions: List[str] = []
    edge_section = bytearray()
    root_records = bytearray()
    n_edges = n_roots = 0
    if store is not None:
        for fp, state in store.roots():
            enc = encode(state)
            root_records += BLOB.pack(fp, len(enc)) + enc
            n_roots += 1
        for fp, parent, action in store.edges():
            aid = action_ids.get(action)
            if aid is None:
                aid = action_ids[action] = len(actions)
                actions.append(action)
            flags = HAS_PARENT if parent is not None else 0
            edge_section += EDGE.pack(fp, parent or 0, aid, flags)
            n_edges += 1

    frontier_records = bytearray()
    n_frontier = 0
    for state, fp, depth in frontier:
        enc = encode(state)
        frontier_records += _FRONTIER.pack(fp, depth, len(enc)) + enc
        n_frontier += 1

    if store_meta is None:
        # Traceless stores dump pseudo-edges (fingerprints only); tag the
        # header so resume rebuilds a FingerprintOnlyStore, not a full one.
        if store is not None and store.traceless:
            store_meta = {"kind": "fponly"}
        else:
            store_meta = {"kind": "inline"}
    header = {
        "codec_version": CODEC_VERSION,
        "stats": dataclasses.asdict(stats) if stats is not None else {},
        "store": store_meta,
        "violations": [v.to_dict() for v in violations],
        "counts": {
            "actions": len(actions),
            "edges": n_edges,
            "roots": n_roots,
            "frontier": n_frontier,
        },
    }
    if extra:
        header.update(extra)
    header_bytes = json.dumps(header).encode("utf-8")

    out = bytearray()
    out += _MAGIC
    out += _U32.pack(len(header_bytes))
    out += header_bytes
    for action in actions:
        data = action.encode("utf-8")
        out += _U32.pack(len(data))
        out += data
    out += edge_section
    out += root_records
    out += frontier_records
    return bytes(out)


def write_checkpoint(path: Union[str, os.PathLike], **contents: Any) -> None:
    """Commit ``build_checkpoint_bytes(**contents)`` to ``path`` atomically
    (tmp + fsync + rename: the rename is the commit point)."""
    atomic_write_bytes(path, build_checkpoint_bytes(**contents))


def parse_checkpoint(data: bytes, source: str = "<bytes>") -> CheckpointData:
    """Parse checkpoint container bytes (inverse of :func:`build_checkpoint_bytes`).

    The bytes come off a disk that may have torn them or a wire that may
    be hostile: whatever :func:`build_checkpoint_bytes` would not have
    written — a section that runs past the end, an edge naming an action
    outside the table, trailing bytes — is a :class:`RunDirError`, never
    a partial result.
    """
    if not data.startswith(_MAGIC):
        raise RunDirError(f"{source} is not a checkpoint file")
    ((header_bytes,),), offset = read_records(data, _U32, source, len(_MAGIC), 1)
    try:
        header = json.loads(header_bytes)
        codec = header["codec_version"]
        counts = [header["counts"][section] for section in _SECTIONS]
        if not isinstance(header["store"], dict) or any(
            type(count) is not int or count < 0 for count in counts
        ):
            raise TypeError("bad store or section counts")
        parsed = CheckpointData(header, [], [], [], source)
        parsed.stats(), parsed.violations()
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise RunDirError(f"{source}: malformed checkpoint header: {exc!r}") from exc
    if codec != CODEC_VERSION:
        raise RunDirError(
            f"checkpoint {source} was written with codec version {codec};"
            f" this build uses {CODEC_VERSION} and cannot load it"
        )
    n_actions, n_edges, n_roots, n_frontier = counts

    names, offset = read_records(data, _U32, source, offset, n_actions)
    actions = action_table((name for (name,) in names), source)
    end = offset + n_edges * EDGE.size
    if end > len(data):
        raise RunDirError(
            f"{source}: the {n_edges} edge records at offset {offset} run past"
            f" the end ({len(data)} bytes)"
        )
    edges = edge_records(memoryview(data)[offset:end], actions, source, offset)
    parsed.edges = list(edges)
    parsed.roots, offset = read_records(data, BLOB, source, end, n_roots)
    parsed.frontier, offset = read_records(data, _FRONTIER, source, offset, n_frontier)
    if offset != len(data):
        raise RunDirError(
            f"{source}: {len(data) - offset} trailing bytes after the frontier"
            f" section, which ends at offset {offset}"
        )
    return parsed


def read_checkpoint(path: Union[str, os.PathLike]) -> CheckpointData:
    return parse_checkpoint(pathlib.Path(path).read_bytes(), source=str(path))


# ---------------------------------------------------------------------------
# serial checkpointing
# ---------------------------------------------------------------------------


class _Checkpointer:
    """What the two checkpointers share: where the committed file lives,
    when a checkpoint is due, and what follows a commit.

    A checkpoint is due once ``every_states`` distinct states were
    recorded, or ``every_seconds`` of wall clock passed, since the last
    commit.  ``on_checkpoint`` (if set) runs after each commit; tests use
    it to kill the run at a known-consistent point.
    """

    #: the file whose atomic rename commits a checkpoint
    FILE: str

    def __init__(
        self,
        run_dir: RunDir,
        every_seconds: Optional[float] = 60.0,
        every_states: Optional[int] = None,
        on_checkpoint: Optional[Callable[[Any], None]] = None,
    ):
        self.run_dir = run_dir
        self.path = run_dir.checkpoint_dir / self.FILE
        self.every_seconds = every_seconds
        self.every_states = every_states
        self.on_checkpoint = on_checkpoint
        self.checkpoints_written = 0
        self._last_states = 0
        self._last_time = time.monotonic()

    def due(self, stats: SearchStats) -> bool:
        if (
            self.every_states is not None
            and stats.distinct_states - self._last_states >= self.every_states
        ):
            return True
        return (
            self.every_seconds is not None
            and time.monotonic() - self._last_time >= self.every_seconds
        )

    def _committed(self, stats: SearchStats) -> None:
        self._last_states = stats.distinct_states
        self._last_time = time.monotonic()
        self.checkpoints_written += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(self)


class SerialCheckpointer(_Checkpointer):
    """The engine's checkpoint seam for serial BFS runs over a
    :class:`DiskStore`.

    The engine calls :meth:`maybe_checkpoint` at every state boundary
    (just before a frontier pop); the call is a couple of comparisons
    unless the cadence has tripped, in which case the full checkpoint is
    written and committed by rename.
    """

    FILE = SERIAL_CHECKPOINT

    def maybe_checkpoint(self, engine: Any, elapsed: float) -> None:
        if self.due(engine.stats):
            self.checkpoint(engine, elapsed)

    def checkpoint(self, engine: Any, elapsed: float) -> None:
        stats = engine.stats
        stats.elapsed = elapsed
        registry = getattr(engine, "metrics", None)
        meta, obsolete = engine.store.checkpoint()
        # Snapshot after the store checkpoint so the spill it may
        # have triggered is part of the restored counters.
        extra = {"metrics": registry.snapshot()} if registry is not None else None
        write_checkpoint(
            self.path,
            stats=stats,
            store_meta=meta,
            frontier=list(engine.strategy.frontier),
            violations=engine.checker.violations,
            extra=extra,
        )
        for stale in obsolete:  # safe only after the rename above
            stale.unlink(missing_ok=True)
        self._committed(stats)


def load_serial_resume(
    run_dir: RunDir,
    memory_budget: int = 1_000_000,
    metrics: Optional[Any] = None,
) -> Tuple[DiskStore, ResumeState]:
    """Load a serial checkpoint: the reopened store plus the resume state."""
    path = run_dir.checkpoint_dir / SERIAL_CHECKPOINT
    if not path.exists():
        raise RunDirError(
            f"nothing to resume in {run_dir.path}: no checkpoint was written"
            " (the run stopped before its first checkpoint)"
        )
    data = read_checkpoint(path)
    store_meta = data.header["store"]
    if store_meta.get("kind") != "disk":
        raise RunDirError(
            f"{path} is not a serial run's checkpoint: its store kind is"
            f" {store_meta.get('kind')!r}, not 'disk'"
        )
    store = DiskStore.resume(
        run_dir.store_dir, store_meta, memory_budget, metrics=metrics
    )
    resume = ResumeState(
        stats=data.stats(),
        frontier=data.frontier_items(),
        violations=data.violations(),
        metrics=data.header.get("metrics"),
    )
    return store, resume


# ---------------------------------------------------------------------------
# parallel checkpointing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ParallelResume:
    """What the parallel master needs to continue a checkpointed run."""

    stats: SearchStats
    depth: int
    violations: List[Violation]
    worker_files: List[pathlib.Path]
    workers: int
    #: metrics-registry snapshot from the manifest (None when the
    #: checkpointed run had no metrics).
    metrics: Optional[Dict[str, Any]] = None
    #: membership events (worker deaths + shard reassignments) recorded
    #: up to this checkpoint, carried so a resumed run keeps the full
    #: fleet history in its next manifests.
    reassignments: List[Dict[str, Any]] = dataclasses.field(default_factory=list)


class ParallelCheckpointer(_Checkpointer):
    """Round-boundary checkpointing for the sharded parallel BFS.

    The master (between BFS levels) collects every worker's per-shard
    checkpoint as container bytes and writes the files, then commits the
    fleet-wide snapshot by atomically writing the master manifest — no
    worker touches the run directory.  Worker files are
    *generation-addressed* (``worker-N-G.ckpt``): each fleet-wide
    checkpoint writes a fresh set of file names, the manifest records
    exactly the names of its own generation, and superseded generations
    are deleted only after the manifest rename commits.  A crash at any
    point — even after some new-generation worker files are on disk but
    before the master commit — therefore leaves the previous manifest
    pointing at its own complete, untouched set of worker files, so
    resume always sees a matched set from a single round.
    """

    FILE = PARALLEL_CHECKPOINT

    def __init__(
        self,
        run_dir: RunDir,
        every_seconds: Optional[float] = 60.0,
        every_states: Optional[int] = None,
        on_checkpoint: Optional[Callable[["ParallelCheckpointer"], None]] = None,
    ):
        super().__init__(run_dir, every_seconds, every_states, on_checkpoint)
        # Start past every generation already on disk (committed or
        # orphaned by a crash) so this session never overwrites a file
        # the committed manifest may still reference.
        self._generation = 1 + max(
            (
                gen
                for gen in map(_worker_generation, run_dir.checkpoint_dir.glob("worker-*.ckpt"))
                if gen is not None
            ),
            default=-1,
        )

    def worker_path(self, wid: int) -> pathlib.Path:
        return self.run_dir.checkpoint_dir / f"worker-{wid}-{self._generation}.ckpt"

    def committed(self) -> Optional[ParallelResume]:
        """The committed fleet-wide checkpoint to roll back to, if there is one."""
        return load_parallel_resume(self.run_dir) if self.path.exists() else None

    def commit(
        self,
        *,
        workers: int,
        depth: int,
        stats: SearchStats,
        violations: Sequence[Violation],
        metrics: Optional[Dict[str, Any]] = None,
        reassignments: Sequence[Dict[str, Any]] = (),
    ) -> None:
        """Publish the master manifest: the fleet-wide commit point."""
        manifest = {
            "codec_version": CODEC_VERSION,
            "workers": workers,
            "depth": depth,
            "stats": dataclasses.asdict(stats),
            "violations": [v.to_dict() for v in violations],
            "files": [self.worker_path(wid).name for wid in range(workers)],
        }
        if metrics is not None:
            manifest["metrics"] = metrics
        if reassignments:
            manifest["reassignments"] = list(reassignments)
        atomic_write_json(self.path, manifest)
        # Only now — after the commit point — is it safe to drop worker
        # files from superseded (or crash-orphaned) generations.
        keep = set(manifest["files"])
        for stale in self.run_dir.checkpoint_dir.glob("worker-*.ckpt"):
            if stale.name not in keep:
                stale.unlink()
        self._generation += 1
        self._committed(stats)


def load_parallel_resume(run_dir: RunDir) -> ParallelResume:
    path = run_dir.checkpoint_dir / PARALLEL_CHECKPOINT
    if not path.exists():
        raise RunDirError(
            f"nothing to resume in {run_dir.path}: no parallel checkpoint"
            " was written (the run stopped before its first checkpoint)"
        )
    manifest = read_manifest(path)
    codec = manifest.get("codec_version")
    if codec != CODEC_VERSION:
        raise RunDirError(
            f"checkpoint {path} was written with codec version {codec};"
            f" this build uses {CODEC_VERSION} and cannot load it"
        )
    try:
        return _parallel_resume(run_dir, manifest)
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise RunDirError(f"{path}: malformed parallel checkpoint: {exc!r}") from None


def _parallel_resume(run_dir: RunDir, manifest: Dict[str, Any]) -> ParallelResume:
    """The fields of a ``parallel.json`` that :meth:`ParallelCheckpointer.commit`
    would have written; anything else raises.  A key it does not write,
    such as older manifests' ``frontier_sizes``, is not read."""
    workers, depth = manifest["workers"], manifest["depth"]
    if not (_is_count(workers) and workers > 0 and _is_count(depth)):
        raise ValueError(f"'workers' {workers!r} or 'depth' {depth!r} is not a count")
    files = manifest["files"]
    first = _WORKER_FILE.match(files[0]) if isinstance(files, list) and files else None
    # one generation's files, one per worker in worker order: a name
    # never leaves the checkpoint directory
    if first is None or files != [
        f"worker-{wid}-{first.group(1)}.ckpt" for wid in range(workers)
    ]:
        raise ValueError(f"'files' is not worker-<wid>-<gen>.ckpt per wid: {files!r}")
    violations = manifest["violations"]
    metrics = manifest.get("metrics")
    reassignments = manifest.get("reassignments", [])
    if not (
        isinstance(violations, list)
        and (metrics is None or isinstance(metrics, dict))
        and isinstance(reassignments, list)
        and all(isinstance(event, dict) for event in reassignments)
    ):
        raise ValueError("'violations', 'metrics' or 'reassignments' is mistyped")
    found = [Violation.from_dict(raw) for raw in violations]
    if not all(v.trace.pending and v.trace.anchor is not None for v in found):
        raise ValueError("a violation is not anchored where a shard worker found it")
    return ParallelResume(
        stats=_stats(manifest["stats"]),
        depth=depth,
        violations=found,
        worker_files=[run_dir.checkpoint_dir / name for name in files],
        workers=workers,
        metrics=metrics,
        reassignments=reassignments,
    )


def load_graph_stores(run_dir: RunDir) -> Tuple[List[StateStore], Optional[int]]:
    """The stores holding the graph a run explored, for post-hoc analysis
    (:func:`repro.temporal.materialize_graph` takes the list as it is).

    A serial run: its disk store, read at its full on-disk extent.  A
    parallel run: one store per shard file of the committed generation.
    With them comes the distinct-state count the run's manifest recorded
    when it ended, ``None`` if it never did — a run killed, or cut short
    inside a round, explored past its last commit.
    """
    manifest = run_dir.manifest()
    if manifest.get("config", {}).get("mode") == "parallel":
        stores: List[StateStore] = [
            read_checkpoint(path).restore_into(CompactStore())
            for path in load_parallel_resume(run_dir).worker_files
        ]
    else:
        stores = [DiskStoreReader(run_dir.store_dir)]
    recorded = manifest.get("result", {}).get("stats", {}).get("distinct_states")
    return stores, recorded
