"""Guided execution of a specification along a chosen scenario.

Model checking finds traces automatically; sometimes the opposite is
needed — driving the spec down a *known* event sequence (regenerating the
paper's Figure 6/7 timing diagrams, seeding conformance-checking runs, or
writing regression tests for a specific interleaving).

A scenario is a list of *picks*.  Each pick selects one enabled transition
of the current state:

* ``"ActionName"`` — the unique enabled transition of that action;
* ``("ActionName", arg0, arg1, ...)`` — prefix-match on the transition's
  arguments (e.g. ``("ReceiveMessage", "n1", "n2")`` delivers the head of
  the n1->n2 channel);
* a callable ``pick(transition) -> bool``.

Invariants are checked after every step; the scenario run reports the
first violation together with the trace so far.  Guided runs execute on
the shared exploration kernel (:mod:`repro.core.engine`) under a
:class:`~repro.core.engine.ScenarioFrontier` strategy.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple, Union

from .compile import compile_spec
from .engine import (
    ExplorationEngine,
    ScenarioError,
    ScenarioFrontier,
    SearchStats,
    StepChecker,
    StopReason,
)
from .spec import Spec, Transition
from .trace import Trace
from .violation import Violation

__all__ = ["ScenarioError", "ScenarioResult", "run_scenario"]

Pick = Union[str, Tuple, Callable[[Transition], bool]]


@dataclasses.dataclass
class ScenarioResult:
    """The trace driven by a scenario, plus any invariant violation."""

    trace: Trace
    violation: Optional[Violation] = None
    stop_reason: StopReason = StopReason.COMPLETE
    stats: Optional[SearchStats] = None

    @property
    def final_state(self):
        return self.trace.final_state

    @property
    def found_violation(self) -> bool:
        return self.violation is not None


def run_scenario(
    spec: Spec,
    picks: Sequence[Pick],
    check_invariants: bool = True,
    allow_ambiguous: bool = False,
    stop_on_violation: bool = True,
) -> ScenarioResult:
    """Drive ``spec`` through ``picks``, one transition per pick.

    Raises :class:`ScenarioError` if a pick matches nothing, or matches
    more than one transition while ``allow_ambiguous`` is false (in which
    case the first match would be taken).
    """
    spec = compile_spec(spec)
    strategy = ScenarioFrontier(picks, allow_ambiguous=allow_ambiguous)
    engine = ExplorationEngine(
        spec,
        strategy,
        checker=StepChecker(spec, check_invariants=check_invariants),
        stop_on_violation=stop_on_violation,
    )
    result = engine.run()
    violation = result.violation
    if violation is not None and stop_on_violation:
        # The run stopped at the violation: its trace (which includes the
        # violating step) is the scenario trace so far.
        trace = violation.trace
    else:
        trace = strategy.trace
    return ScenarioResult(
        trace=trace,
        violation=violation,
        stop_reason=result.stop_reason,
        stats=result.stats,
    )
