"""Stateful breadth-first model checking (§3.3).

The explorer is the analogue of TLC's BFS mode: it keeps a fingerprint set
of visited states (stateful exploration — no state is expanded twice),
checks state and transition invariants, prunes with the spec's state
constraint, and optionally canonicalizes states under the spec's symmetry
sets.  Because the search is breadth-first, the first counterexample found
for any invariant has minimal depth (§5.1.1).

This module is a thin configuration layer over :mod:`repro.core.engine`:
a :class:`~repro.core.engine.FIFOFrontier` strategy plus a
:class:`~repro.core.engine.CompactStore` (or, with ``fast=True``, a
:class:`~repro.core.engine.FingerprintOnlyStore`) running in the shared
:class:`~repro.core.engine.ExplorationEngine`.  Counterexample traces are
reconstructed from parent fingerprints by re-executing from the initial
state and matching successor fingerprints, which keeps per-state memory
to a couple of machine words.  Every BFS violation — serial, fast or
sharded — becomes a trace by one rule, :func:`resolve_violation`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import warnings
from typing import Any, Callable, List, Optional

from ..obs.metrics import FALLBACK_SERIAL
from .compile import compile_spec
from .engine import (
    CompactStore,
    ExplorationEngine,
    FIFOFrontier,
    FingerprintOnlyStore,
    SearchResult,
    SearchStats,
    StateStore,
    StepChecker,
    continuity_break,
    reconstruct_trace,
)
from .spec import Spec
from .state import Rec, fingerprint
from .symmetry import SymmetryReducer
from .trace import Trace, TraceStep
from .violation import Violation

__all__ = [
    "BFSExplorer",
    "bfs_explore",
    "resolve_violation",
    "research_violation",
]


class BFSExplorer:
    """Breadth-first stateful exploration of a spec's state space.

    ``fast=True`` switches to the traceless
    :class:`~repro.core.engine.FingerprintOnlyStore` (8 bytes/state
    payload, no parent edges); :meth:`run` then resolves the violation
    by bounded re-search (:func:`research_violation`).
    """

    def __init__(
        self,
        spec: Spec,
        symmetry: bool = False,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        time_budget: Optional[float] = None,
        stop_on_violation: bool = True,
        progress: Optional[Callable[[SearchStats], None]] = None,
        progress_interval: int = 50_000,
        store: Optional[StateStore] = None,
        checkpointer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        fast: bool = False,
    ):
        # The compiled spec is behaviourally identical (same transitions,
        # same invariant verdicts, same fingerprints), only faster.
        spec = compile_spec(spec)
        self.spec = spec
        self.max_states = max_states
        self.max_depth = max_depth
        self.time_budget = time_budget
        self.stop_on_violation = stop_on_violation
        self.progress = progress
        self.progress_interval = progress_interval
        self.fast = fast
        if fast and store is not None and not store.traceless:
            raise ValueError(
                "fast mode needs a traceless store (FingerprintOnlyStore or a"
                f" traceless DiskStore), got {type(store).__name__}"
            )
        self.reducer = (
            SymmetryReducer(spec.symmetry_sets(), key=fingerprint) if symmetry else None
        )
        if store is None:
            store = FingerprintOnlyStore() if fast else CompactStore()
        self.store = store
        self.checker = StepChecker(spec)
        self.strategy = FIFOFrontier()
        self.engine = ExplorationEngine(
            spec,
            self.strategy,
            store=self.store,
            checker=self.checker,
            max_states=max_states,
            max_depth=max_depth,
            time_budget=time_budget,
            stop_on_violation=stop_on_violation,
            reducer=self.reducer,
            fingerprint_fn=fingerprint,  # this module's name: tests patch it
            progress=progress,
            progress_interval=progress_interval,
            checkpointer=checkpointer,
            metrics=metrics,
        )

    @property
    def violations(self) -> List[Violation]:
        """All violations found so far (more than one with ``stop_on_violation=False``)."""
        return self.checker.violations

    # -- the search ----------------------------------------------------------

    def run(self, resume: Optional[Any] = None) -> SearchResult:
        result = self.engine.run(resume=resume)
        if result.violation is not None:
            fp_fn = self.engine.fingerprint
            result.violation = resolve_violation(
                self.spec, result.violation, self.store, self.reducer, fp_fn
            )
        return result


def resolve_violation(
    spec: Spec,
    violation: Violation,
    store: Optional[StateStore] = None,
    reducer: Optional[SymmetryReducer] = None,
    fp_fn: Callable[[Rec], Any] = fingerprint,
) -> Violation:
    """The one rule by which a BFS violation becomes a concrete trace.

    The violation is anchored (:meth:`FIFOFrontier.violation
    <repro.core.engine.FIFOFrontier.violation>`).  A concrete trace
    passes through; over a traced ``store`` the parent chain to the
    anchor is replayed, and a transition violation's step that is no
    transition of the replayed pre-state — under symmetry a permutation
    of the one it was taken from — is re-derived there: the first
    transition of its action whose canonical target matches and whose
    edge violates the same invariant.  A traceless store, or none, goes
    to bounded re-search (:func:`research_violation`).  ``reducer`` and
    ``fp_fn`` are the run's.
    """
    trace = violation.trace
    if not trace.pending:
        return violation
    if store is None or store.traceless or trace.anchor is None:
        return research_violation(spec, violation, symmetry=reducer is not None)
    canonical = reducer.canonical if reducer is not None else None
    resolved = reconstruct_trace(spec, store, trace.anchor, canonical, fp_fn)
    step = trace.step
    if step is not None:
        pre = resolved.final_state
        if continuity_break(spec, Trace(pre, [step])) is not None:
            step = _rederive(spec, pre, violation, canonical, fp_fn)
        resolved.steps.append(step)
    return dataclasses.replace(violation, trace=resolved)


def _rederive(
    spec: Spec,
    pre: Rec,
    violation: Violation,
    canonical: Optional[Callable[[Rec], Rec]],
    fp_fn: Callable[[Rec], Any],
) -> TraceStep:
    """The violating step re-derived from ``pre`` (see
    :func:`resolve_violation`)."""
    step = violation.trace.step

    def orbit(state: Rec) -> Any:
        return fp_fn(canonical(state) if canonical else state)

    target = orbit(step.state)
    for t in spec.successors(pre, frozenset((step.action,))):
        if spec.check_transition(pre, t) == violation.invariant:
            if orbit(t.target) == target:
                return TraceStep(t.action, t.args, t.target, t.branch)
    raise RuntimeError(
        f"no {step.action} transition of the replayed depth-{violation.depth - 1}"
        f" state reaches the orbit of the {violation.invariant} step"
    )


def research_violation(
    spec: Spec,
    violation: Violation,
    symmetry: bool = False,
) -> Violation:
    """Bounded re-search: resolve a traceless violation into a real trace.

    Re-explores ``spec`` serially over an edge-keeping store, capped at
    the violation's depth.  In breadth-first order the violation fires
    while the last level before it is expanded, so the cap alters no
    earlier step: the result is the byte-identical minimal counterexample
    of a full-store run, at the full-store memory cost of the levels up
    to it (TLC's traceless tradeoff).  A spec or ``symmetry`` other than
    the fast run's, or a fingerprint collision there, raises
    ``RuntimeError`` rather than return a wrong trace.
    """
    trace = violation.trace
    explorer = BFSExplorer(spec, symmetry=symmetry, max_depth=trace.depth)
    result = explorer.run()
    found = result.violation
    if found is None:
        raise RuntimeError(
            f"bounded re-search found no violation within depth {trace.depth};"
            f" the fast run reported {violation.invariant} ({violation.kind})"
            " there — most likely a 64-bit fingerprint collision, or a"
            " spec/symmetry mismatch between the fast run and the re-search"
        )
    if found.depth != trace.depth:
        raise RuntimeError(
            f"bounded re-search found {found.invariant} at depth {found.depth},"
            f" but the fast run reported depth {trace.depth}; spec or symmetry"
            " mismatch between the runs"
        )
    return found


def bfs_explore(
    spec: Spec,
    workers: int = 1,
    run_dir: Optional[Any] = None,
    checkpoint_every: Optional[float] = None,
    checkpoint_states: Optional[int] = None,
    resume: bool = False,
    transport: Optional[Any] = None,
    **kwargs: Any,
) -> SearchResult:
    """Run one BFS exploration of ``spec``; see :class:`BFSExplorer`.

    This is the one switch between the serial explorer and the sharded
    parallel BFS (:class:`repro.core.parallel.ParallelBFS`); see
    :func:`runs_parallel` for the rule.  In parallel the fingerprint
    space is partitioned ``fp % workers`` across forked engine workers,
    which is sound because :func:`~repro.core.state.fingerprint` is
    canonical and process-stable; results are merged into the same
    :class:`~repro.core.engine.SearchResult`.  A ``transport`` (e.g.
    :class:`repro.dist.transport.SocketTransport`) selects how the shard
    workers are reached — remote socket workers instead of local forks.

    With ``run_dir`` the run is durable (:func:`repro.persist.run_check`):
    a disk-backed state store, periodic crash-safe checkpoints every
    ``checkpoint_every`` seconds and/or ``checkpoint_states`` new states,
    and ``resume=True`` to continue a checkpointed run.
    """
    if run_dir is not None:
        from ..persist.runner import run_check  # local import: persist imports core

        return run_check(
            spec,
            run_dir,
            workers=workers,
            resume=resume,
            checkpoint_every=checkpoint_every,
            checkpoint_states=checkpoint_states,
            transport=transport,
            **kwargs,
        )
    if runs_parallel(workers, transport, kwargs.get("metrics")):
        from .parallel import ParallelBFS  # local import: parallel imports us

        return ParallelBFS(spec, workers=workers, transport=transport, **kwargs).run()
    return BFSExplorer(spec, **kwargs).run()


def runs_parallel(
    workers: int, transport: Optional[Any] = None, metrics: Optional[Any] = None
) -> bool:
    """Whether a search over ``workers`` shards runs the parallel driver.

    A ``transport`` always does, even for one shard; otherwise
    ``workers > 1`` does where the platform can fork.  Where it cannot,
    the search runs serially, and says so: a ``RuntimeWarning``, and one
    ``parallel.fallback_serial`` on ``metrics``.  Both :func:`bfs_explore`
    and the durable :func:`repro.persist.run_check` decide here.
    """
    if transport is not None:
        return True
    if workers <= 1:
        return False
    if "fork" in multiprocessing.get_all_start_methods():
        return True
    warnings.warn(
        f"parallel BFS falling back to the serial explorer: workers={workers},"
        " but the platform has no 'fork' start method",
        RuntimeWarning,
        stacklevel=3,
    )
    if metrics is not None:
        metrics.inc(FALLBACK_SERIAL)
    return False
