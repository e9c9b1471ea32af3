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
to a couple of machine words.  A fast run's violation is resolved into a
trace by :func:`research_violation`.
"""

from __future__ import annotations

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
)
from .spec import Spec
from .state import fingerprint
from .symmetry import SymmetryReducer
from .violation import Violation

__all__ = [
    "BFSStats",
    "BFSResult",
    "BFSExplorer",
    "bfs_explore",
    "research_violation",
]

#: BFS stats/results are the engine's unified types (kept under their
#: historical names for source compatibility).
BFSStats = SearchStats
BFSResult = SearchResult


class BFSExplorer:
    """Breadth-first stateful exploration of a spec's state space.

    ``fast=True`` switches to the traceless
    :class:`~repro.core.engine.FingerprintOnlyStore` (8 bytes/state
    payload, no parent edges).  The engine reports a fast run's
    violation with a :class:`~repro.core.trace.PendingTrace`, which the
    explorer always resolves by *bounded re-search*
    (:func:`research_violation`): a full-store serial BFS capped at the
    violation depth reproduces the byte-identical minimal counterexample
    an ordinary full-store run would have produced (the violation fires
    while the last pre-violation level is still being expanded, so the
    depth cap never alters pre-violation behavior).
    """

    def __init__(
        self,
        spec: Spec,
        symmetry: bool = False,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        time_budget: Optional[float] = None,
        stop_on_violation: bool = True,
        progress: Optional[Callable[[BFSStats], None]] = None,
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
        self._symmetry = symmetry
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

    def run(self, resume: Optional[Any] = None) -> BFSResult:
        result = self.engine.run(resume=resume)
        violation = result.violation
        if violation is not None and violation.trace.pending:
            result.violation = research_violation(
                self.spec, violation, symmetry=self._symmetry
            )
        return result


def research_violation(
    spec: Spec,
    violation: Violation,
    symmetry: bool = False,
) -> Violation:
    """Bounded re-search: resolve a traceless violation into a real trace.

    Re-explores ``spec`` with a full (edge-keeping) store, serially,
    capped at the violation's known minimal depth, and returns the
    violation of that run.  Correctness: in breadth-first order the
    violation fires during expansion of a pre-violation level, before
    any state at the cap depth is popped, so the depth cap cannot alter
    any step preceding the violation — the re-search replays the exact
    step sequence of an uninterrupted full-store run and produces the
    byte-identical minimal counterexample.  Memory is bounded by the
    full-store cost of the state space up to the violation depth
    (TLC's classic traceless tradeoff).

    ``spec`` must be the spec the fast run explored, and ``symmetry``
    must match, or the re-search may not reach the violation; a
    fingerprint collision in the fast run can also leave the violation
    unreachable, and both cases raise ``RuntimeError`` rather than
    returning a wrong trace.
    """
    trace = violation.trace
    if not getattr(trace, "pending", False):
        return violation
    explorer = BFSExplorer(
        spec,
        symmetry=symmetry,
        max_depth=trace.depth,
        stop_on_violation=True,
    )
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
) -> BFSResult:
    """Run one BFS exploration of ``spec``; see :class:`BFSExplorer`.

    This is the one switch between the serial explorer and the sharded
    parallel BFS (:class:`repro.core.parallel.ParallelBFS`); see
    :func:`runs_parallel` for the rule.  In parallel the fingerprint
    space is partitioned ``fp % workers`` across forked engine workers,
    which is sound because :func:`~repro.core.state.fingerprint` is
    canonical and process-stable; results are merged into the same
    :class:`BFSResult`.  A ``transport`` (e.g.
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
