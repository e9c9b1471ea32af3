"""Durable runs: disk-backed state store, checkpoint/resume, artifacts.

The persistence layer beneath ``sandtable check --run-dir``:

* :mod:`~repro.persist.rundir` — the run-directory layout, its JSON
  manifest, and the atomic-rename write discipline every durable file
  uses;
* :mod:`~repro.persist.diskstore` — a :class:`~repro.core.engine.StateStore`
  whose fingerprint set spills to sorted segment files past a memory
  budget (TLC-style) and whose parent edges live in an append-only log;
* :mod:`~repro.persist.checkpoint` — crash-safe checkpoint files plus
  the serial and parallel checkpointers and resume loaders;
* :mod:`~repro.persist.artifacts` — replayable trace/violation JSON and
  report artifacts;
* :mod:`~repro.persist.runner` — :func:`run_check`, the durable-run
  orchestration (create/resume, checkpoint cadence, manifest outcome).

Layering rule: :mod:`repro.core` never imports this package at module
level (the engine sees only duck-typed ``store``/``checkpointer``
seams); everything here imports core freely.
"""

from .artifacts import (
    load_lasso,
    load_trace,
    load_violation,
    save_lasso,
    save_trace,
    save_violation,
    write_text_artifact,
)
from .checkpoint import (
    ParallelCheckpointer,
    ParallelResume,
    ResumeState,
    SerialCheckpointer,
    build_checkpoint_bytes,
    load_graph_stores,
    load_parallel_resume,
    load_serial_resume,
    parse_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .diskstore import DiskStore, DiskStoreReader
from .rundir import (
    FORMAT_VERSION,
    RunDir,
    RunDirError,
    atomic_write_bytes,
    atomic_write_json,
    read_json,
)
from .runner import BUDGET_KEYS, VIOLATION_ARTIFACT, run_check

__all__ = [
    "RunDir",
    "RunDirError",
    "FORMAT_VERSION",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_json",
    "DiskStore",
    "DiskStoreReader",
    "write_checkpoint",
    "read_checkpoint",
    "build_checkpoint_bytes",
    "parse_checkpoint",
    "SerialCheckpointer",
    "ParallelCheckpointer",
    "ResumeState",
    "ParallelResume",
    "load_serial_resume",
    "load_parallel_resume",
    "load_graph_stores",
    "save_trace",
    "load_trace",
    "save_violation",
    "load_violation",
    "save_lasso",
    "load_lasso",
    "write_text_artifact",
    "run_check",
    "BUDGET_KEYS",
    "VIOLATION_ARTIFACT",
]
