"""Random-walk exploration (TLC simulation mode).

Random walks serve three roles in the SandTable workflow:

* conformance checking (§3.2) replays random-walk traces against the
  implementation;
* constraint ranking (Algorithm 1) scores configuration/constraint pairs
  by the branch coverage, event diversity and depth of random walks;
* the specification-level side of the speedup experiment (Table 4) measures
  the wall-clock cost per random-walk trace.

Each walk is one run of the shared exploration kernel
(:mod:`repro.core.engine`) under a
:class:`~repro.core.engine.RandomWalkFrontier` strategy: a single-slot
frontier taking one uniformly random enabled transition per step, with
no state-store deduplication.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.metrics import TIME_BOUNDS
from .compile import compile_spec
from .engine import (
    ExplorationEngine,
    RandomWalkFrontier,
    SearchStats,
    StepChecker,
    StopReason,
    action_kinds,
)
from .spec import Spec
from .state import Rec
from .trace import Trace
from .violation import Violation

__all__ = ["WalkResult", "SimulationResult", "random_walk", "simulate"]


@dataclasses.dataclass
class WalkResult:
    """Metrics from a single random walk."""

    trace: Trace
    branches: Set[Tuple[str, str]]
    event_counts: Counter
    terminated: str = StopReason.DEADLOCK  # deadlock | max_depth | constraint | violation
    violation: Optional[Violation] = None
    elapsed: float = 0.0
    stats: Optional[SearchStats] = None

    @property
    def stop_reason(self) -> StopReason:
        """The unified termination reason (alias of ``terminated``)."""
        return StopReason(self.terminated)

    @property
    def depth(self) -> int:
        return self.trace.depth

    @property
    def branch_coverage(self) -> int:
        return len(self.branches)

    @property
    def event_diversity(self) -> int:
        return len(self.event_counts)


@dataclasses.dataclass
class SimulationResult:
    """Aggregate metrics from a batch of random walks."""

    walks: List[WalkResult]
    elapsed: float
    stop_reason: StopReason = StopReason.COMPLETE

    @property
    def n_walks(self) -> int:
        return len(self.walks)

    @property
    def branches(self) -> Set[Tuple[str, str]]:
        covered: Set[Tuple[str, str]] = set()
        for walk in self.walks:
            covered |= walk.branches
        return covered

    @property
    def branch_coverage(self) -> int:
        return len(self.branches)

    @property
    def event_diversity(self) -> int:
        kinds: Set[str] = set()
        for walk in self.walks:
            kinds |= set(walk.event_counts)
        return len(kinds)

    @property
    def mean_depth(self) -> float:
        if not self.walks:
            return 0.0
        return sum(w.depth for w in self.walks) / len(self.walks)

    @property
    def max_depth(self) -> int:
        return max((w.depth for w in self.walks), default=0)

    @property
    def mean_walk_time(self) -> float:
        if not self.walks:
            return 0.0
        return sum(w.elapsed for w in self.walks) / len(self.walks)

    @property
    def first_violation(self) -> Optional[Violation]:
        for walk in self.walks:
            if walk.violation is not None:
                return walk.violation
        return None

    @property
    def stop_reasons(self) -> Counter:
        """How many walks ended for each :class:`StopReason`."""
        return Counter(str(walk.terminated) for walk in self.walks)

    @property
    def stats(self) -> SearchStats:
        """Unified batch stats comparable with the other exploration modes."""
        return SearchStats(
            distinct_states=sum(w.depth + 1 for w in self.walks),
            transitions=sum(
                w.stats.transitions if w.stats is not None else w.depth
                for w in self.walks
            ),
            max_depth=self.max_depth,
            elapsed=self.elapsed,
            walks=self.n_walks,
        )


def random_walk(
    spec: Spec,
    rng: random.Random,
    max_depth: int = 100,
    check_invariants: bool = True,
    init_states: Optional[Sequence[Rec]] = None,
    event_kinds: Optional[Dict[str, str]] = None,
    metrics: Optional[Any] = None,
) -> WalkResult:
    """One random walk from a random initial state.

    At each step a uniformly random enabled transition is taken.  The walk
    stops on deadlock (no enabled transition), when the state constraint
    fails, at ``max_depth``, or at the first invariant violation.

    Batch callers can hoist the per-walk setup by passing ``init_states``
    (the materialized ``spec.init_states()`` list) and ``event_kinds``
    (the :func:`~repro.core.engine.action_kinds` map); both are computed
    on the fly when omitted.  With ``metrics`` the engine's per-action
    fire counts accumulate across walks and each walk's wall-clock time
    lands in the ``simulate.walk_seconds`` histogram.
    """
    spec = compile_spec(spec)  # no-op for already-compiled specs
    strategy = RandomWalkFrontier(rng, init_states=init_states, event_kinds=event_kinds)
    engine = ExplorationEngine(
        spec,
        strategy,
        checker=StepChecker(spec, check_invariants=check_invariants),
        max_depth=max_depth,
        stop_on_violation=True,
        metrics=metrics,
    )
    result = engine.run()
    if metrics is not None:
        metrics.counter("simulate.walks").inc()
        metrics.histogram("simulate.walk_seconds", TIME_BOUNDS).observe(
            result.stats.elapsed
        )
    violation = result.violation
    trace = violation.trace if violation is not None else strategy.trace
    return WalkResult(
        trace=trace,
        branches=strategy.branches,
        event_counts=strategy.event_counts,
        terminated=result.stop_reason,
        violation=violation,
        elapsed=result.stats.elapsed,
        stats=result.stats,
    )


def simulate(
    spec: Spec,
    n_walks: int = 100,
    max_depth: int = 100,
    seed: int = 0,
    check_invariants: bool = True,
    time_budget: Optional[float] = None,
    stop_on_violation: bool = False,
    metrics: Optional[Any] = None,
) -> SimulationResult:
    """Run a batch of random walks and aggregate their metrics."""
    rng = random.Random(seed)
    started = time.monotonic()
    # Per-batch hoists: the compiled spec, the init-state list and the
    # action-name -> kind map are walk-invariant, so compute them once,
    # not once per walk.
    spec = compile_spec(spec)
    inits = list(spec.init_states())
    kinds = action_kinds(spec)
    walks: List[WalkResult] = []
    stop_reason = StopReason.COMPLETE
    for _ in range(n_walks):
        walk = random_walk(
            spec,
            rng,
            max_depth=max_depth,
            check_invariants=check_invariants,
            init_states=inits,
            event_kinds=kinds,
            metrics=metrics,
        )
        walks.append(walk)
        if stop_on_violation and walk.violation is not None:
            stop_reason = StopReason.VIOLATION
            break
        if time_budget is not None and time.monotonic() - started > time_budget:
            stop_reason = StopReason.TIME_BUDGET
            break
    return SimulationResult(walks, time.monotonic() - started, stop_reason)
