"""Core model-checking engine: the paper's primary contribution.

Public surface:

* :class:`~repro.core.spec.Spec`, :class:`~repro.core.spec.Action`,
  :class:`~repro.core.spec.Invariant`,
  :class:`~repro.core.spec.TransitionInvariant` — the specification DSL;
* :class:`~repro.core.state.Rec`, :func:`~repro.core.state.freeze`,
  :func:`~repro.core.state.thaw` — immutable state values;
* :class:`~repro.core.engine.ExplorationEngine` — the shared exploration
  kernel (frontier strategies, state stores, step checker, unified
  :class:`~repro.core.engine.SearchStats` and
  :class:`~repro.core.engine.StopReason`);
* :func:`~repro.core.explorer.bfs_explore` — stateful BFS model checking;
* :func:`~repro.core.simulation.simulate`,
  :func:`~repro.core.simulation.random_walk` — random-walk exploration;
* :func:`~repro.core.ranking.rank_constraints` — Algorithm 1;
* :class:`~repro.core.trace.Trace`,
  :class:`~repro.core.violation.Violation` — counterexamples.
"""

from .engine import (
    CompactStore,
    ExplorationEngine,
    FIFOFrontier,
    FingerprintOnlyStore,
    FrontierStrategy,
    RandomWalkFrontier,
    ScenarioFrontier,
    SearchResult,
    SearchStats,
    StateStore,
    StepChecker,
    StopReason,
    TracelessStoreError,
    action_kinds,
)
from .explorer import BFSExplorer, bfs_explore, research_violation, resolve_violation
from .guided import ScenarioError, ScenarioResult, run_scenario
from .linearizability import LinearizabilityResult, Operation, check_linearizable
from .parallel import (
    ForkTransport,
    ParallelBFS,
    ShardWorker,
    WorkerDied,
)
from .ranking import ConstraintScore, RankedConstraints, rank_constraints
from .simulation import SimulationResult, WalkResult, random_walk, simulate
from .spec import Action, Invariant, Spec, SpecError, Transition, TransitionInvariant
from .state import Rec, decode, encode, fingerprint, freeze, thaw
from .symmetry import SymmetryReducer, canonicalize
from .trace import PendingTrace, Trace, TraceStep
from .violation import Violation

__all__ = [
    "Action",
    "CompactStore",
    "ExplorationEngine",
    "FIFOFrontier",
    "FingerprintOnlyStore",
    "FrontierStrategy",
    "RandomWalkFrontier",
    "ScenarioFrontier",
    "SearchResult",
    "SearchStats",
    "StateStore",
    "StepChecker",
    "StopReason",
    "TracelessStoreError",
    "action_kinds",
    "LinearizabilityResult",
    "Operation",
    "ScenarioError",
    "ScenarioResult",
    "check_linearizable",
    "run_scenario",
    "BFSExplorer",
    "ConstraintScore",
    "ForkTransport",
    "Invariant",
    "ParallelBFS",
    "ShardWorker",
    "WorkerDied",
    "PendingTrace",
    "RankedConstraints",
    "Rec",
    "SimulationResult",
    "Spec",
    "SpecError",
    "SymmetryReducer",
    "Trace",
    "TraceStep",
    "Transition",
    "TransitionInvariant",
    "Violation",
    "WalkResult",
    "bfs_explore",
    "canonicalize",
    "decode",
    "encode",
    "fingerprint",
    "freeze",
    "random_walk",
    "rank_constraints",
    "research_violation",
    "resolve_violation",
    "simulate",
    "thaw",
]
