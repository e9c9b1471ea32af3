"""Nondeterminism-tolerant log matching on the shared exploration engine.

The matcher answers one question: *is there a spec behavior consistent
with this event log?*  A log event under-specifies the spec transition —
it names an action (or just a coarse kind), a prefix of the arguments,
and the observed projection of one node's post-state — so a single
guided path (:class:`repro.core.engine.ScenarioFrontier`) is not enough.
:class:`TraceMatchFrontier` generalizes it into a breadth-limited
**frontier of candidate spec states per log event**, run as a frontier
strategy on the unmodified :class:`~repro.core.engine.ExplorationEngine`
step loop:

* a frontier node at depth ``d`` is a spec state consistent with the
  first ``d`` log events; the engine's FIFO discipline processes levels
  in order, so depth *is* the log position;
* ``choose`` matches the next event against the state's enabled
  transitions — and, up to a bounded **stuttering** depth, against
  transitions reachable through unobserved internal actions (the spec
  may take steps the log never records);
* only the actions that can explain the event are generated, as in
  arXiv 2404.16075, where each log line constrains the step to the
  action it names: the event's action when it names one, every action
  of its kind when it gives only a kind, all actions when it gives
  neither.  Inside the stutter closure (depth ``< stutter_depth``) the
  stutter actions are generated too, since the closure walks them;
* accepted successors are deduplicated by canonical fingerprint within
  the level (two candidate histories converging on one state are one
  candidate — the :class:`~repro.core.engine.FingerprintOnlyStore`
  insight applied per level) and capped at ``max_frontier`` to bound
  breadth;
* a candidate surviving past the last event proves conformance; if the
  frontier drains first, the deepest level reached is the divergence
  index.  Nothing matched there, so :meth:`TraceMatchFrontier.report`
  replays that level's candidates once over *all* actions and keeps the
  rejected transitions as near-miss evidence, in the order the search
  meets them.  Matching itself records no near miss.

With metrics enabled the matcher fills the
``tracecheck.frontier_size`` histogram (candidates entering each level)
and the ``tracecheck.stutter_steps`` counter.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.compile import maybe_compile
from ..core.engine import (
    ExplorationEngine,
    FrontierStrategy,
    NullStateStore,
    StepChecker,
    StopReason,
    action_kinds,
)
from ..core.spec import Spec, Transition
from ..core.state import Rec
from ..obs.metrics import (
    SIZE_BOUNDS,
    TRACECHECK_FRONTIER_SIZE,
    TRACECHECK_STUTTER_STEPS,
)
from .logfmt import LogEvent, TraceLog, project
from .report import NearMiss, ValidationReport

__all__ = ["DEFAULT_MAX_FRONTIER", "TraceMatchFrontier", "validate_log"]

#: Default breadth cap: candidate states kept per log event.
DEFAULT_MAX_FRONTIER = 1024

#: Action kinds treated as unobserved (stutter) steps by default.
DEFAULT_STUTTER_KINDS = frozenset({"internal"})

#: An action filter for ``Spec.successors``; ``None`` is every action.
_Actions = Optional[frozenset]


class _LevelDeque(deque):
    """A FIFO frontier that remembers the depth of the last popped node.

    ``choose(state, successors)`` does not receive the node's depth; the
    engine reads it from ``node[2]`` when popping, so recording it here
    (the same trick as the engine's traceless ``_DepthTrackingDeque``)
    gives the strategy the log position without touching the hot loop.
    """

    last_depth = 0

    def popleft(self) -> tuple:
        node = deque.popleft(self)
        self.last_depth = node[2]
        return node


class TraceMatchFrontier(FrontierStrategy):
    """Frontier-of-candidates matching of an event log against a spec."""

    name = "tracematch"
    dedupe = False
    stop_on_bound = False
    tracks_steps = False
    check_constraint = False

    def __init__(
        self,
        events: Sequence[LogEvent],
        stutter_depth: int = 0,
        max_frontier: int = DEFAULT_MAX_FRONTIER,
        stutter_kinds: Iterable[str] = DEFAULT_STUTTER_KINDS,
        keep_states: int = 8,
        keep_misses: int = 12,
    ) -> None:
        if max_frontier < 1:
            raise ValueError("max_frontier must be at least 1")
        self.events = list(events)
        self.stutter_depth = stutter_depth
        self.max_frontier = max_frontier
        self.stutter_kinds = frozenset(stutter_kinds)
        self.keep_states = keep_states
        self.keep_misses = keep_misses
        self.frontier = _LevelDeque()
        # -- outcome bookkeeping (read by `report` after the run) -------
        self.completed = 0
        self.frontier_limited = False
        self.stutter_steps_total = 0
        self._level = -1
        self._level_popped = 0
        # The current level's candidates, in pop order, until one of them
        # matches the event: only a level where nothing matched can be the
        # divergence, and its candidates are the report's evidence.
        self._level_states: List[Rec] = []
        self._accepted: set = set()
        # (event name, event kind) -> (actions that can explain the
        # event, the same plus the stutter actions).
        self._action_sets: Dict[tuple, Tuple[_Actions, _Actions]] = {}

    # -- engine wiring ------------------------------------------------------

    def bind(self, engine: ExplorationEngine) -> None:
        super().bind(engine)
        self._spec = engine.spec
        self._fp = engine.fingerprint
        kinds = action_kinds(engine.spec)
        self._kinds = kinds
        self._stutter_actions = frozenset(
            name for name, kind in kinds.items() if kind in self.stutter_kinds
        )
        metrics = engine.metrics
        if metrics is not None:
            self._observe_frontier = metrics.histogram(
                TRACECHECK_FRONTIER_SIZE, SIZE_BOUNDS
            ).observe
            self._stutter_counter = metrics.counter(TRACECHECK_STUTTER_STEPS)
        else:
            self._observe_frontier = None
            self._stutter_counter = None

    def choose(
        self, state: Rec, successors: Iterator[Transition]
    ) -> Iterable[Transition]:
        # ``successors`` is the engine's generator over every action.  It
        # is dropped unstarted, so no action body runs for it: `_match`
        # asks the spec for the actions that can explain the event only.
        level = self.frontier.last_depth
        if level != self._level:
            self._advance(level)
        self._level_popped += 1
        if level >= len(self.events):
            # This candidate explained every event: the log conforms.
            self.completed += 1
            return ()
        if not self._accepted:
            self._level_states.append(state)
        event = self.events[level]
        accepted: List[Transition] = []
        for transition, steps in self._match(state, event, self._actions_for(event)):
            fp = self._fp(transition.target)
            if fp in self._accepted:
                continue
            if len(self._accepted) >= self.max_frontier:
                self.frontier_limited = True
                break
            self._accepted.add(fp)
            accepted.append(transition)
            if steps:
                self.stutter_steps_total += steps
                if self._stutter_counter is not None:
                    self._stutter_counter.inc(steps)
        if accepted:
            self._level_states = []
        return accepted

    def empty_reason(self) -> StopReason:
        # The drain hook: flush the final level's frontier-size sample.
        if self._observe_frontier is not None and self._level >= 0:
            self._observe_frontier(self._level_popped)
        return StopReason.COMPLETE

    # -- matching -----------------------------------------------------------

    def _advance(self, level: int) -> None:
        if self._observe_frontier is not None and self._level >= 0:
            self._observe_frontier(self._level_popped)
        self._level = level
        self._level_popped = 0
        self._level_states = []
        self._accepted = set()

    def _actions_for(self, event: LogEvent) -> Tuple[_Actions, _Actions]:
        """The actions that can explain ``event``, without and with the
        stutter actions (``None`` = every action), memoised per
        ``(name, kind)``."""
        key = (event.name, event.kind)
        sets = self._action_sets.get(key)
        if sets is None:
            if event.name is not None:
                explain: _Actions = frozenset((event.name,))
            elif event.kind:
                explain = frozenset(
                    name for name, kind in self._kinds.items() if kind == event.kind
                )
            else:
                explain = None
            sets = (explain, None if explain is None else explain | self._stutter_actions)
            self._action_sets[key] = sets
        return sets

    def _match(
        self,
        state: Rec,
        event: LogEvent,
        actions: Tuple[_Actions, _Actions],
        misses: Optional[List[NearMiss]] = None,
    ) -> List[Tuple[Transition, int]]:
        """Transitions explaining ``event`` from ``state``, with their
        stutter distance (internal steps inserted before the match).

        ``actions`` is the filter pair of :meth:`_actions_for`; transitions
        of the other actions can neither match nor extend the stutter
        closure.  Rejected transitions are appended to ``misses`` when
        one is given.
        """
        explain, closure = actions
        matched: List[Tuple[Transition, int]] = []
        queue: deque = deque(((state, 0),))
        seen = {self._fp(state)}
        spec_successors = self._spec.successors
        stutter_depth = self.stutter_depth
        stutter_actions = self._stutter_actions
        while queue:
            origin, depth = queue.popleft()
            stutters = depth < stutter_depth
            # Positional, like the engine's own call: a wrapped spec
            # forwards ``*args``.
            for transition in spec_successors(origin, closure if stutters else explain):
                why = self._classify(transition, event)
                if why is None:
                    matched.append((transition, depth))
                elif misses is not None:
                    misses.append(NearMiss(transition.action, tuple(transition.args), *why))
                if stutters and transition.action in stutter_actions:
                    fp = self._fp(transition.target)
                    if fp not in seen:
                        seen.add(fp)
                        queue.append((transition.target, depth + 1))
        return matched

    def _classify(self, transition: Transition, event: LogEvent) -> Optional[tuple]:
        """``None`` when the transition explains the event, else why not:
        the :class:`NearMiss` fields after the action and arguments (a
        constant tuple except for observed values, so a miss allocates
        no :class:`NearMiss` until the divergence replay)."""
        if event.name is not None:
            if transition.action != event.name:
                return ("action",)
        elif event.kind and self._kinds.get(transition.action) != event.kind:
            return ("action",)
        if event.args:
            prefix = tuple(transition.args[: len(event.args)])
            if prefix != tuple(event.args):
                return ("args",)
        target = transition.target
        for var, want in event.obs.items():
            try:
                actual = project(target, var, event.node)
            except KeyError:
                return ("missing-var", var)
            if actual != want:
                return ("obs", var, want, actual)
        return None

    def _near_misses(self, event: LogEvent) -> List[NearMiss]:
        """The rejected transitions of the divergence level, replayed.

        Nothing matched at the last level reached, so its candidates are
        matched once more over every action.  Observed-variable
        disagreements are the interesting evidence; they are kept in
        preference to action and argument mismatches, each in the order
        the search met them.
        """
        obs: List[NearMiss] = []
        other: List[NearMiss] = []
        for state in self._level_states:
            misses: List[NearMiss] = []
            self._match(state, event, (None, None), misses)
            for miss in misses:
                bucket = obs if miss.reason in ("obs", "missing-var") else other
                if len(bucket) < self.keep_misses:
                    bucket.append(miss)
        return (obs + other)[: self.keep_misses]

    # -- outcome ------------------------------------------------------------

    def report(
        self, spec_name: str = "", stats: Optional[Dict[str, Any]] = None
    ) -> ValidationReport:
        conforms = self.completed > 0
        total = len(self.events)
        matched = total if conforms else max(self._level, 0)
        divergence = None if conforms else matched
        diverged_at_event = divergence is not None and divergence < total
        return ValidationReport(
            conforms=conforms,
            events_total=total,
            events_matched=matched,
            divergence_index=divergence,
            divergence_event=(
                self.events[divergence].label if diverged_at_event else None
            ),
            last_frontier=(
                [] if conforms else self._level_states[: self.keep_states]
            ),
            near_misses=(
                self._near_misses(self.events[divergence]) if diverged_at_event else []
            ),
            frontier_limited=self.frontier_limited,
            stutter_depth=self.stutter_depth,
            max_frontier=self.max_frontier,
            spec_name=spec_name,
            stats=dict(stats or {}),
        )


def validate_log(
    spec: Spec,
    log: Union[TraceLog, Sequence[LogEvent]],
    stutter_depth: int = 0,
    max_frontier: int = DEFAULT_MAX_FRONTIER,
    stutter_kinds: Iterable[str] = DEFAULT_STUTTER_KINDS,
    compiled: bool = True,
    metrics: Any = None,
) -> ValidationReport:
    """Validate an event log against a spec; returns the verdict report.

    ``log`` is a parsed :class:`~repro.tracecheck.logfmt.TraceLog` or a
    bare event sequence.  The search runs over the compiled spec unless
    ``compiled`` is false (the reference path of the tests and
    benchmarks); verdicts are identical either way.
    """
    if isinstance(log, TraceLog):
        events = log.events
        spec_name = log.header.spec
    else:
        events = list(log)
        spec_name = getattr(spec, "name", "") or ""
    run_spec = maybe_compile(spec, compiled)
    strategy = TraceMatchFrontier(
        events,
        stutter_depth=stutter_depth,
        max_frontier=max_frontier,
        stutter_kinds=stutter_kinds,
    )
    engine = ExplorationEngine(
        run_spec,
        strategy,
        store=NullStateStore(),
        checker=StepChecker(run_spec, check_invariants=False),
        metrics=metrics,
    )
    result = engine.run()
    stats = {
        "candidate_states": result.stats.distinct_states,
        "transitions": result.stats.transitions,
        "max_depth": result.stats.max_depth,
        "elapsed": result.stats.elapsed,
        "stutter_steps": strategy.stutter_steps_total,
    }
    return strategy.report(spec_name=spec_name, stats=stats)
