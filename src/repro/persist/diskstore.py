"""A disk-backed :class:`~repro.core.engine.StateStore` (TLC-style).

TLC's scalability on large models rests on a fingerprint set that
spills to disk; this module is that layer for the SandTable kernel.
It is only possible because :func:`repro.core.state.fingerprint` is a
canonical 64-bit digest of the canonical state codec: fingerprints mean
the same thing in every process and every session, so a file of sorted
8-byte fingerprints written today is still a valid visited set tomorrow.

Layout (all inside one store directory):

``edges.log``
    Append-only parent-edge log: one fixed-width record
    ``(fp, parent_fp, action_id, flags)`` per :meth:`DiskStore.record`.
    The source of :meth:`edges` (the parallel merge seam) and of
    :meth:`chain` (counterexample reconstruction, which loads the log
    into a :class:`~repro.core.engine.CompactStore` only when a
    violation actually needs a trace).  The record layouts and their one
    decoder live in :mod:`~repro.persist.rundir`, shared with the
    checkpoint container.
``roots.log``
    Append-only ``(fp, codec bytes)`` log of initial states.
``actions.txt``
    The interned action-name table, one name per line; edge records
    store the line number.
``seg-N.fp``
    Immutable sorted arrays of 8-byte big-endian fingerprints — the
    spilled visited set.  Membership is one memory-set probe plus, per
    segment (with a min/max pre-filter), a bisect of an in-memory fence
    array and a search of the one block it names; when the
    segment count passes ``max_segments`` a flush merge-compacts them
    into a single sorted segment (streaming, constant memory).

Recent fingerprints live in an in-memory set until it reaches
``memory_budget`` entries, then spill to a new segment — so resident
memory for the visited set is bounded by the budget regardless of how
many states the run touches.  :meth:`checkpoint` spills and fsyncs
everything and returns the exact byte offsets and segment list that make
the store reconstructible (:meth:`DiskStore.resume`); any bytes past the
checkpointed offsets (a torn tail from a crash) are truncated away on
resume.  Compaction never deletes segment files eagerly — replaced files
are reported as obsolete by the next :meth:`checkpoint` and deleted by
the checkpointer only after the new checkpoint has committed, so the
last committed checkpoint always references live files.
"""

from __future__ import annotations

import heapq
import mmap
import os
import pathlib
import struct
import sys
from array import array
from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..core.engine import _INT_BYTES, CompactStore, StateStore, TracelessStoreError
from ..core.state import Rec, encode
from .rundir import (
    BLOB,
    EDGE,
    HAS_PARENT,
    ROOT_ACTION,
    RunDirError,
    action_table,
    decode_state,
    edge_records,
    read_records,
)

__all__ = ["DiskStore", "DiskStoreReader"]

_FP = struct.Struct(">Q")

#: Fingerprints per fence of a segment's in-memory index, and one
#: fence plus the fingerprints up to the next as a struct (the block a
#: probe searches is ``_FENCE.size`` bytes).
_FENCE_STRIDE = 64
_FENCE = struct.Struct(f">Q{(_FENCE_STRIDE - 1) * 8}x")


def _read_action_table(path: pathlib.Path) -> List[str]:
    """The interned action names of an ``actions.txt``, by id.  A last
    line without its newline is a torn write, not a name."""
    return action_table(path.read_bytes().split(b"\n")[:-1], path)


def _read_roots(path: pathlib.Path) -> Dict[int, Rec]:
    """The initial states of a ``roots.log``, by fingerprint."""
    records, _ = read_records(path.read_bytes(), BLOB, path)
    return {fp: decode_state(enc, path, fp) for fp, enc in records}


class _Segment:
    """One immutable sorted array of 8-byte fingerprints, mmapped.

    Every :data:`_FENCE_STRIDE`-th fingerprint is also kept in memory
    (``fences``, an ``array('Q')``), so a probe is a C bisect of the
    fences and a C search of the one mmapped block they point at.
    """

    __slots__ = ("path", "count", "_mm", "lo", "hi", "fences")

    def __init__(self, path: pathlib.Path):
        self.path = path
        size = path.stat().st_size
        if size == 0 or size % 8:
            raise RunDirError(
                f"{path} holds {size} bytes; a fingerprint segment holds a"
                " positive multiple of 8"
            )
        self.count = size // 8
        handle = open(path, "rb")
        try:
            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        finally:
            handle.close()
        blocks = self.count // _FENCE_STRIDE
        with memoryview(self._mm) as view:
            self.fences = array(
                "Q", [fp for (fp,) in _FENCE.iter_unpack(view[: blocks * _FENCE.size])]
            )
        if self.count % _FENCE_STRIDE:
            self.fences.append(_FP.unpack_from(self._mm, blocks * _FENCE.size)[0])
        self.lo = self.fences[0]
        self.hi = _FP.unpack_from(self._mm, (self.count - 1) * 8)[0]

    def contains(self, fp: int) -> bool:
        if fp < self.lo or fp > self.hi:
            return False
        start = (bisect_right(self.fences, fp) - 1) * _FENCE.size
        end = start + _FENCE.size
        key = _FP.pack(fp)
        at = self._mm.find(key, start, end)
        while at != -1 and at % 8:  # straddles two fingerprints
            at = self._mm.find(key, at + 1, end)
        return at != -1

    def iter_fps(self) -> Iterator[int]:
        mm = self._mm
        for index in range(self.count):
            yield _FP.unpack_from(mm, index * 8)[0]

    def close(self) -> None:
        self._mm.close()


class DiskStore(StateStore):
    """Append-only fingerprint/edge store with a bounded memory index."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        memory_budget: int = 1_000_000,
        max_segments: int = 8,
        traceless: bool = False,
        _resume_meta: Optional[Dict[str, Any]] = None,
        metrics: Optional[Any] = None,
    ):
        # Traceless (fast-mode) stores keep only the spilled fingerprint
        # set: record() skips the edge log entirely, so no trace can be
        # reconstructed — violations resolve via bounded re-search.
        self.traceless = bool(traceless)
        self.metrics = metrics
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.memory_budget = max(1, int(memory_budget))
        self.max_segments = max(2, int(max_segments))
        self._mem: set = set()
        self._segments: List[_Segment] = []
        self._obsolete: List[pathlib.Path] = []
        self._inits: Dict[int, Rec] = {}
        self._action_ids: Dict[str, int] = {}
        self._action_names: List[str] = []
        self._count = 0
        self._seg_seq = 0
        #: the edge log loaded for chain walks; dropped by every record
        self._traced: Optional[CompactStore] = None

        if _resume_meta is None:
            # a fresh store: clear leftovers from any crashed prior run
            for leftover in self._store_files():
                leftover.unlink()
        else:
            self._attach(_resume_meta)

        self._edges_f = open(self._edges_path, "ab")
        self._roots_f = open(self._roots_path, "ab")
        self._actions_f = open(self._actions_path, "ab")

    # -- construction helpers ------------------------------------------------

    @property
    def _edges_path(self) -> pathlib.Path:
        return self.path / "edges.log"

    @property
    def _roots_path(self) -> pathlib.Path:
        return self.path / "roots.log"

    @property
    def _actions_path(self) -> pathlib.Path:
        return self.path / "actions.txt"

    def _store_files(self) -> List[pathlib.Path]:
        names = [self._edges_path, self._roots_path, self._actions_path]
        return [p for p in names if p.exists()] + sorted(self.path.glob("seg-*.fp"))

    @classmethod
    def resume(
        cls,
        path: Union[str, os.PathLike],
        meta: Dict[str, Any],
        memory_budget: int = 1_000_000,
        max_segments: int = 8,
        metrics: Optional[Any] = None,
    ) -> "DiskStore":
        """Reopen a store exactly as a committed checkpoint described it."""
        return cls(
            path,
            memory_budget,
            max_segments,
            traceless=bool(meta.get("traceless", False)),
            _resume_meta=meta,
            metrics=metrics,
        )

    def _attach(self, meta: Dict[str, Any]) -> None:
        # Truncate every log to its checkpointed length: anything past it
        # was written after the checkpoint committed (or torn by a crash)
        # and will be regenerated by the resumed exploration.
        for path, key in (
            (self._edges_path, "edges_len"),
            (self._roots_path, "roots_len"),
            (self._actions_path, "actions_len"),
        ):
            if not path.exists():
                path.touch()
            os.truncate(path, meta[key])
        self._action_names = _read_action_table(self._actions_path)
        self._action_ids = {name: i for i, name in enumerate(self._action_names)}
        referenced = set()
        for name, count in meta["segments"]:
            segment = _Segment(self.path / name)
            if segment.count != count:
                segment.close()
                raise RunDirError(
                    f"{segment.path} holds {segment.count} fingerprints, the"
                    f" checkpoint recorded {count}"
                )
            self._segments.append(segment)
            referenced.add(name)
            self._seg_seq = max(self._seg_seq, int(name.split("-")[1].split(".")[0]) + 1)
        for stray in sorted(self.path.glob("seg-*.fp")):
            if stray.name not in referenced:
                stray.unlink()  # written after the checkpoint; dead weight
        self._count = meta["count"]
        self._inits = _read_roots(self._roots_path)

    # -- the StateStore contract ---------------------------------------------

    def seen(self, fp: Any) -> bool:
        if fp in self._mem:
            return True
        if self._segments:
            metrics = self.metrics
            if metrics is not None:
                metrics.counter("diskstore.segment_probes").inc()
            for segment in self._segments:
                if segment.contains(fp):
                    return True
        return False

    def record(self, fp: Any, parent_fp: Any, action: str) -> None:
        if not isinstance(fp, int):
            raise TypeError(
                f"DiskStore requires int fingerprints, got {type(fp).__name__}"
                " (strong/bytes fingerprints are not supported on disk)"
            )
        if self.traceless:
            self._add(fp)
            return
        aid = self._action_ids.get(action)
        if aid is None:
            aid = self._intern(action)
        flags = HAS_PARENT if parent_fp is not None else 0
        self._edges_f.write(EDGE.pack(fp, parent_fp or 0, aid, flags))
        self._traced = None
        self._add(fp)

    def record_init(self, fp: Any, state: Rec) -> None:
        if self.traceless:
            self._add(fp)
            return
        enc = encode(state)
        self._roots_f.write(BLOB.pack(fp, len(enc)) + enc)
        self._inits[fp] = state
        self._traced = None
        self._add(fp)

    def init_state(self, fp: Any) -> Rec:
        if self.traceless:
            raise TracelessStoreError(
                "a traceless DiskStore keeps no root states;"
                " use bounded re-search to reconstruct traces"
            )
        return self._inits[fp]

    def chain(self, fp: Any) -> List[Tuple[Any, str]]:
        if self.traceless:
            raise TracelessStoreError(
                "a traceless DiskStore keeps no parent edges, so no trace"
                " can be reconstructed; use bounded re-search"
            )
        # Loaded only when a violation needs its trace (once per run, at
        # the end): keeping the edges off the hot path is the whole point
        # of a disk store.
        if self._traced is None:
            self._traced = CompactStore()
            for edge in self.edges():
                self._traced.record(*edge)
        return self._traced.chain(fp)

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        for fp in self._inits:
            yield fp, None, ROOT_ACTION
        self._edges_f.flush()
        yield from edge_records(
            self._edges_path.read_bytes(), self._action_names, self._edges_path
        )

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        yield from self._inits.items()

    def __len__(self) -> int:
        return self._count

    def estimated_bytes(self) -> Optional[int]:
        # Only the resident part counts: the memory index, the segments'
        # fences and the root states; the spilled segments themselves
        # are mmapped files, paged by the OS.
        return (
            sys.getsizeof(self._mem)
            + len(self._mem) * _INT_BYTES
            + sum(sys.getsizeof(segment.fences) for segment in self._segments)
            + sys.getsizeof(self._inits)
        )

    # -- spill, compaction, durability ---------------------------------------

    def _intern(self, action: str) -> int:
        if "\n" in action:
            raise ValueError(f"action name {action!r} contains a newline")
        aid = self._action_ids[action] = len(self._action_names)
        self._action_names.append(action)
        self._actions_f.write(action.encode("utf-8") + b"\n")
        return aid

    def _add(self, fp: int) -> None:
        self._mem.add(fp)
        self._count += 1
        if len(self._mem) >= self.memory_budget:
            self._spill()

    def _new_segment_path(self) -> pathlib.Path:
        path = self.path / f"seg-{self._seg_seq}.fp"
        self._seg_seq += 1
        return path

    def _write_segment(self, fps: Iterator[int], path: pathlib.Path) -> _Segment:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            pack = _FP.pack
            for fp in fps:
                handle.write(pack(fp))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return _Segment(path)

    def _spill(self) -> None:
        if not self._mem:
            return
        segment = self._write_segment(iter(sorted(self._mem)), self._new_segment_path())
        self._segments.append(segment)
        self._mem.clear()
        if self.metrics is not None:
            self.metrics.counter("diskstore.spills").inc()
        if len(self._segments) > self.max_segments:
            self._compact()

    def _compact(self) -> None:
        """Merge every segment into one (streaming; constant memory)."""
        if self.metrics is not None:
            self.metrics.counter("diskstore.compactions").inc()
        merged = heapq.merge(*(segment.iter_fps() for segment in self._segments))
        segment = self._write_segment(merged, self._new_segment_path())
        for old in self._segments:
            old.close()
            self._obsolete.append(old.path)
        self._segments = [segment]

    def flush(self) -> None:
        self._edges_f.flush()
        self._roots_f.flush()
        self._actions_f.flush()

    def checkpoint(self) -> Tuple[Dict[str, Any], List[pathlib.Path]]:
        """Make the store fully reconstructible from disk.

        Spills the memory index, fsyncs every log, and returns
        ``(meta, obsolete)``: the exact offsets/segments a later
        :meth:`resume` needs, and the files made obsolete by compaction —
        to be deleted only *after* the enclosing checkpoint commits.
        """
        self._spill()
        self.flush()
        for handle in (self._edges_f, self._roots_f, self._actions_f):
            os.fsync(handle.fileno())
        meta = {
            "kind": "disk",
            "traceless": self.traceless,
            "edges_len": self._edges_f.tell(),
            "roots_len": self._roots_f.tell(),
            "actions_len": self._actions_f.tell(),
            "count": self._count,
            "segments": [[segment.path.name, segment.count] for segment in self._segments],
        }
        obsolete, self._obsolete = self._obsolete, []
        return meta, obsolete

    def close(self) -> None:
        # Deliberately does NOT delete self._obsolete: those compaction
        # inputs may still be referenced by the last committed checkpoint
        # (compaction after the checkpoint, no newer commit).  Resume
        # needs them; _attach unlinks whatever the checkpoint it loads
        # does not reference, so cleanup is deferred, not lost.
        self.flush()
        for handle in (self._edges_f, self._roots_f, self._actions_f):
            handle.close()
        for segment in self._segments:
            segment.close()
        self._obsolete = []


class DiskStoreReader(StateStore):
    """Read-only view of a finished run's store directory.

    The writable openings both mutate the directory: the constructor
    clears leftovers for a fresh run, and :meth:`DiskStore.resume`
    truncates the logs back to a committed checkpoint (discarding
    whatever a finished run appended after its last checkpoint) and
    unlinks unreferenced segments.  Post-hoc analysis — ``sandtable
    check-liveness`` materializing the explored graph from a run that
    already finished — instead wants the logs at their full on-disk
    extent, untouched.  This reader opens them exactly so and never
    writes; only the read half of the :class:`~repro.core.engine.StateStore`
    contract is available.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = pathlib.Path(path)
        self._edges_path = self.path / "edges.log"
        if not self._edges_path.exists():
            raise RunDirError(
                f"{self.path} holds no disk store (no edges.log); only serial"
                " `sandtable check --run-dir` runs leave one behind"
            )
        self._action_names = _read_action_table(self.path / "actions.txt")
        self._inits = _read_roots(self.path / "roots.log")
        if not self._inits and self._edges_path.stat().st_size >= EDGE.size:
            raise RunDirError(
                f"{self.path / 'roots.log'} holds no initial state, but"
                f" {self._edges_path} holds edges"
            )

    def edges(self) -> Iterator[Tuple[Any, Optional[Any], str]]:
        for fp in self._inits:
            yield fp, None, ROOT_ACTION
        yield from edge_records(
            self._edges_path.read_bytes(), self._action_names, self._edges_path
        )

    def roots(self) -> Iterator[Tuple[Any, Rec]]:
        yield from self._inits.items()

    def init_state(self, fp: Any) -> Rec:
        return self._inits[fp]

    def seen(self, fp: Any) -> bool:
        raise RuntimeError(
            "DiskStoreReader is a post-hoc edge/root reader, not a visited"
            " set; reopen the store with DiskStore.resume to explore"
        )

    record = record_init = seen  # all writes rejected the same way

    def __len__(self) -> int:
        return sum(1 for _ in self.edges())
