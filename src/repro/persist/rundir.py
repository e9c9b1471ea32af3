"""Run directories: the durable home of one exploration run.

A run directory is the on-disk unit of durability for ``sandtable``:
one directory per run, holding a JSON **manifest** (what was checked,
under which configuration and codec version, and how it ended), the
**checkpoints** that make the run resumable, the **disk-backed state
store** (serial runs), and the **artifacts** a run leaves behind —
violation traces, conformance reports, bug reports::

    run/
      manifest.json          what + config + codec version + status/result
      checkpoint/            serial.ckpt, or parallel.json + worker-N-G.ckpt
      store/                 DiskStore segments and logs (serial runs)
      artifacts/             violation.json, reports, saved traces

Every file that must be consistent after a crash is written with
:func:`atomic_write_bytes`: the bytes go to a temporary sibling, are
fsynced, and are published with ``os.replace`` — a reader never sees a
torn file, and the rename is the commit point of every checkpoint.
What is read back — store logs a kill may have torn, checkpoint bytes
off a wire — goes through this module's record reader
(:func:`edge_records`, :func:`read_records`).
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.state import CODEC_VERSION, Rec, decode

__all__ = [
    "RunDirError",
    "RunDir",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_json",
    "read_manifest",
    "action_table",
    "edge_records",
    "read_records",
    "decode_state",
]

#: Version of the run-directory layout itself (manifest schema, file
#: names, checkpoint container format).
FORMAT_VERSION = 1


class RunDirError(Exception):
    """A run directory is missing, incompatible, or inconsistent."""


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + rename)."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_json(path: Union[str, os.PathLike], obj: Any) -> None:
    atomic_write_bytes(path, json.dumps(obj, indent=2).encode("utf-8"))


def read_json(path: Union[str, os.PathLike]) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_manifest(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """A file holding one JSON object: a manifest (``manifest.json``,
    ``parallel.json``) or a saved artifact.

    Malformed, truncated or non-object content is a :class:`RunDirError`
    naming the file.
    """
    try:
        manifest = read_json(path)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise RunDirError(f"{path}: not readable JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise RunDirError(f"{path}: not a JSON object")
    return manifest


# -- binary records -------------------------------------------------------------
#
# The store logs and the checkpoint container hold the same records.  Each
# layout is declared here only and decoded by these functions only, and bad
# input has one outcome: a RunDirError naming the file and the byte offset.

EDGE = struct.Struct(">QQIB")  # fp, parent fp (0 when absent), action id, flags
BLOB = struct.Struct(">QI")  # fp, payload length (the codec bytes follow)

HAS_PARENT = 0x01
ROOT_ACTION = "<init>"


def action_table(names: Iterable[bytes], source: Any) -> List[str]:
    """The interned action names an edge record's action id indexes."""
    try:
        return [name.decode("utf-8") for name in names]
    except UnicodeDecodeError as exc:
        raise RunDirError(f"{source}: the action table is not UTF-8: {exc}") from exc


def edge_records(
    data: bytes, actions: Sequence[str], source: Any, base: int = 0
) -> Iterator[Tuple[int, Optional[int], str]]:
    """``(fp, parent fp or None, action name)`` per edge record in ``data``.

    A torn tail — fewer trailing bytes than one record, what a crash in
    the middle of an append leaves — is not a record and is not read.
    ``actions`` is the interned name table the records index; ``base``
    is where ``data`` starts within ``source``, for the error message.
    """
    size, known = EDGE.size, len(actions)
    whole = len(data) - len(data) % size
    records = EDGE.iter_unpack(memoryview(data)[:whole])
    for index, (fp, parent, aid, flags) in enumerate(records):
        if aid >= known:
            raise RunDirError(
                f"{source}: the edge record at offset {base + index * size}"
                f" names action {aid}, but the action table holds {known}"
            )
        yield fp, parent if flags & HAS_PARENT else None, actions[aid]


def read_records(
    data: bytes,
    header: struct.Struct,
    source: Any,
    offset: int = 0,
    count: Optional[int] = None,
) -> Tuple[List[tuple], int]:
    """Length-prefixed records from ``data[offset:]``, and the offset past them.

    The last ``header`` field is the length of the payload that follows;
    a record is the other fields and then the payload bytes.  Reads
    ``count`` records, or (``None``) as many as fill the buffer.  A
    header or payload that runs past the buffer is an error, not a tail
    to skip: a root or a container section cut short cannot be read around.
    """
    records: List[tuple] = []
    size, unpack, end = header.size, header.unpack_from, len(data)
    while (offset < end) if count is None else (len(records) < count):
        body = offset + size
        torn = body > end
        if not torn:
            *fields, length = unpack(data, offset)
            torn = body + length > end
        if torn:
            raise RunDirError(
                f"{source}: the record at offset {offset} runs past the end"
                f" ({end} bytes)"
            )
        records.append((*fields, data[body : body + length]))
        offset = body + length
    return records, offset


def decode_state(payload: bytes, source: Any, fp: int) -> Rec:
    """``decode`` for bytes read back from disk or off the wire."""
    try:
        return decode(payload)
    except ValueError as exc:
        raise RunDirError(
            f"{source}: the bytes of state {fp:#018x} do not decode: {exc}"
        ) from exc


class RunDir:
    """One run's directory: manifest, checkpoints, store, artifacts."""

    MANIFEST = "manifest.json"

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = pathlib.Path(path)

    # -- layout --------------------------------------------------------------

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.path / self.MANIFEST

    @property
    def checkpoint_dir(self) -> pathlib.Path:
        return self.path / "checkpoint"

    @property
    def store_dir(self) -> pathlib.Path:
        return self.path / "store"

    @property
    def artifacts_dir(self) -> pathlib.Path:
        return self.path / "artifacts"

    def artifact_path(self, name: str) -> pathlib.Path:
        return self.artifacts_dir / name

    # -- creation and opening ------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, os.PathLike],
        config: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> "RunDir":
        """Create a fresh run directory and write its manifest.

        Refuses to reuse a directory that already holds a manifest:
        starting over in an existing run directory would silently orphan
        its checkpoints and artifacts — resume it (``--resume``) or pick
        a new directory instead.
        """
        run = cls(path)
        if run.manifest_path.exists():
            raise RunDirError(
                f"run directory {run.path} already contains a run"
                " (pass --resume to continue it, or choose a new directory)"
            )
        for sub in (run.path, run.checkpoint_dir, run.store_dir, run.artifacts_dir):
            sub.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": FORMAT_VERSION,
            "codec_version": CODEC_VERSION,
            "created": time.time(),
            "status": "running",
            "config": dict(config or {}),
        }
        manifest.update(extra)
        run.write_manifest(manifest)
        return run

    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "RunDir":
        """Open an existing run directory, validating its manifest."""
        run = cls(path)
        if not run.manifest_path.exists():
            raise RunDirError(f"{run.path} is not a run directory (no manifest.json)")
        manifest = run.manifest()
        fmt = manifest.get("format_version")
        if fmt != FORMAT_VERSION:
            raise RunDirError(
                f"run directory {run.path} uses layout version {fmt};"
                f" this build reads version {FORMAT_VERSION}"
            )
        codec = manifest.get("codec_version")
        if codec != CODEC_VERSION:
            raise RunDirError(
                f"run directory {run.path} was written with state-codec"
                f" version {codec}, but this build uses codec version"
                f" {CODEC_VERSION}; its fingerprints and checkpoints cannot"
                " be loaded — re-run from scratch in a new directory"
            )
        return run

    # -- manifest ------------------------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        return read_manifest(self.manifest_path)

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        atomic_write_json(self.manifest_path, manifest)

    def update_manifest(self, **fields: Any) -> Dict[str, Any]:
        manifest = self.manifest()
        manifest.update(fields)
        self.write_manifest(manifest)
        return manifest

    def check_config(self, config: Dict[str, Any], ignore: Any = ()) -> None:
        """Refuse to resume under a different configuration.

        Budget-style keys (``ignore``) may change between sessions — a
        resumed run may get a bigger state or time budget — but the
        spec-defining keys must match or the checkpointed fingerprints
        describe a different state space.
        """
        recorded = self.manifest().get("config", {})
        skip = set(ignore)
        for key in sorted(set(recorded) | set(config)):
            if key in skip:
                continue
            if recorded.get(key) != config.get(key):
                raise RunDirError(
                    f"cannot resume {self.path}: configuration key {key!r}"
                    f" was {recorded.get(key)!r} when the run started but is"
                    f" {config.get(key)!r} now"
                )

    def __repr__(self) -> str:
        return f"RunDir({str(self.path)!r})"
