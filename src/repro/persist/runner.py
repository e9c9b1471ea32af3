"""Durable check runs: run-directory orchestration for BFS exploration.

:func:`run_check` is the one entry point behind ``sandtable check
--run-dir`` and ``bfs_explore(..., run_dir=...)``.  It owns the life
cycle of a durable run:

* **fresh run** — create the run directory, record the configuration in
  the manifest, and explore with a disk-backed state store (serial) or
  checkpointed shard workers (parallel), checkpointing periodically;
* **resume** — reopen the directory, refuse incompatible codec/layout
  versions and changed non-budget configuration, reload the latest
  checkpoint, and continue.  Checkpoints are taken at state/round
  boundaries the uninterrupted run also passes through, so a resumed
  run finishes with the identical :class:`~repro.core.engine.SearchResult`
  (budget keys — ``max_states``, ``max_depth``, ``time_budget`` — may
  grow between sessions to extend a stopped run);
* **finish** — stamp the manifest with the outcome and save any
  violation as a replayable artifact (``artifacts/violation.json``).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Callable, Optional, Union

from ..core.engine import SearchResult
from ..core.explorer import BFSExplorer, runs_parallel
from ..core.spec import Spec
from ..obs.report import METRICS_FILENAME
from ..obs.reporter import compose_progress
from ..obs.sink import MetricsSink
from .artifacts import save_violation
from .checkpoint import (
    ParallelCheckpointer,
    SerialCheckpointer,
    load_parallel_resume,
    load_serial_resume,
)
from .diskstore import DiskStore
from .rundir import RunDir, RunDirError

__all__ = ["run_check", "BUDGET_KEYS", "VIOLATION_ARTIFACT"]

#: Configuration keys allowed to change between a run and its resume:
#: growing a budget extends a stopped run over the same state space.
BUDGET_KEYS = ("max_states", "max_depth", "time_budget")

#: The configuration key under which older run directories record
#: partial-order reduction, which this checker no longer has.  A run
#: recorded with it on explored a reduced state space and is refused on
#: resume; one recorded with it off ran this checker's only mode.
RETIRED_KEY = "por"

VIOLATION_ARTIFACT = "violation.json"


def _spec_label(spec: Spec) -> str:
    cls = type(spec)
    return f"{cls.__module__}.{cls.__qualname__}"


def run_check(
    spec: Spec,
    run_dir: Union[str, os.PathLike],
    *,
    workers: int = 1,
    resume: bool = False,
    checkpoint_every: Optional[float] = None,
    checkpoint_states: Optional[int] = None,
    symmetry: bool = False,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    time_budget: Optional[float] = None,
    stop_on_violation: bool = True,
    memory_budget: int = 1_000_000,
    progress: Optional[Callable[[Any], None]] = None,
    progress_interval: int = 50_000,
    on_checkpoint: Optional[Callable[[Any], None]] = None,
    metrics: Optional[Any] = None,
    # Ignored: every run compiles its spec.  benchmarks/suite/workloads.py
    # still passes it; ROADMAP item 1 removes it.
    compiled: bool = True,
    fast: bool = False,
    transport: Optional[Any] = None,
) -> SearchResult:
    """Run (or resume) one durable BFS check in ``run_dir``.

    With ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) the
    run is instrumented end to end: snapshots ride in every checkpoint
    (so cumulative counters survive kill/resume exactly), and an
    append-only JSONL sink is kept at ``<run dir>/metrics.jsonl`` — a
    resumed run appends to the same file, marked by a fresh ``open``
    line.

    ``transport`` (a :class:`~repro.core.parallel.ForkTransport`-shaped
    object, e.g. :class:`repro.dist.transport.SocketTransport`) forces
    the parallel driver and selects how shard workers are reached; it is
    deliberately not part of the recorded config, since a fork run and a
    socket run over the same spec are byte-identical and a resume may
    freely switch between them.  Serial or parallel is decided by
    :func:`~repro.core.explorer.runs_parallel`, as for a non-durable run:
    ``workers > 1`` without ``fork`` runs serially with a warning.

    A resume keeps every manifest key it does not own, so a run dir
    whose manifest carries extra fields (such as the ``job`` record older
    versions of this checker wrote) resumes like any other.
    """
    if checkpoint_every is None and checkpoint_states is None:
        checkpoint_every = 60.0
    parallel = runs_parallel(workers, transport, metrics)
    config = {
        "spec": _spec_label(spec),
        "mode": "parallel" if parallel else "serial",
        "workers": workers if parallel else 1,
        "symmetry": bool(symmetry),
        "stop_on_violation": bool(stop_on_violation),
        "max_states": max_states,
        "max_depth": max_depth,
        "time_budget": time_budget,
        # Recorded so a resume cannot silently flip it: a traceless
        # store cannot continue a full run (or vice versa).
        "fast": bool(fast),
    }
    if resume:
        rd = RunDir.open(run_dir)
        if rd.manifest().get("config", {}).get(RETIRED_KEY):
            raise RunDirError(
                f"cannot resume {rd.path}: the run was started with"
                " partial-order reduction, which this checker no longer has;"
                " its checkpoints describe a reduced state space — start the"
                " check again in a new run directory"
            )
        rd.check_config(config, ignore=BUDGET_KEYS + (RETIRED_KEY,))
        rd.update_manifest(status="running", config=config)
    else:
        rd = RunDir.create(run_dir, config=config)

    sink: Optional[MetricsSink] = None
    if metrics is not None:
        sink = MetricsSink(
            rd.path / METRICS_FILENAME,
            metrics,
            meta={
                "spec": config["spec"],
                "mode": config["mode"],
                "workers": config["workers"],
                "resumed": bool(resume),
            },
        )
        progress = compose_progress(sink.on_progress, progress)

    explore = dict(
        symmetry=symmetry,
        max_states=max_states,
        max_depth=max_depth,
        time_budget=time_budget,
        stop_on_violation=stop_on_violation,
        progress=progress,
        progress_interval=progress_interval,
        metrics=metrics,
        fast=fast,
    )
    store: Optional[DiskStore] = None
    try:
        if parallel:
            presume = load_parallel_resume(rd) if resume else None
            checkpointer = ParallelCheckpointer(
                rd, checkpoint_every, checkpoint_states, on_checkpoint
            )
            from ..core.parallel import ParallelBFS  # heavy import, keep local

            bfs = ParallelBFS(
                spec,
                workers=workers,
                checkpointer=checkpointer,
                resume=presume,
                transport=transport,
                **explore,
            )
            result = bfs.run()
            # Surface elastic-membership events (worker deaths and shard
            # reassignments) where clients look: the run-dir manifest.
            if getattr(bfs, "membership", None):
                rd.update_manifest(reassignments=list(bfs.membership))
        else:
            if resume:
                store, resume_state = load_serial_resume(
                    rd, memory_budget, metrics=metrics
                )
            else:
                store = DiskStore(
                    rd.store_dir, memory_budget, traceless=fast, metrics=metrics
                )
                resume_state = None
            checkpointer = SerialCheckpointer(
                rd, checkpoint_every, checkpoint_states, on_checkpoint
            )
            explorer = BFSExplorer(
                spec, store=store, checkpointer=checkpointer, **explore
            )
            result = explorer.run(resume=resume_state)
    except BaseException:
        # Leave the checkpoints intact; the manifest records that this
        # run needs --resume rather than looking merely stale.  The sink
        # keeps its last flushed line as the record — no final snapshot,
        # which could publish state past the last committed checkpoint.
        try:
            rd.update_manifest(status="interrupted")
        except Exception:
            pass
        if sink is not None:
            sink.abandon()
        raise
    finally:
        if store is not None:
            store.close()

    if result.found_violation:
        status = "violation"
        save_violation(
            rd.artifact_path(VIOLATION_ARTIFACT),
            result.violation,
            spec=config["spec"],
        )
    elif result.exhausted:
        status = "complete"
    else:
        status = "stopped"
    rd.update_manifest(
        status=status,
        finished=time.time(),
        result={
            "stop_reason": str(result.stop_reason),
            "stats": dataclasses.asdict(result.stats),
            "violation": result.violation.invariant if result.found_violation else None,
        },
    )
    if sink is not None:
        sink.close(stats=result.stats, status=status)
    return result
