"""Deterministic bug replay and fix validation (§3.4).

A safety violation found at the specification level is only reported as a
bug after the triggering event sequence replays at the implementation
level without discrepancies: the implementation then provably reaches the
same (violating) state, so the bug is real — this is how SandTable avoids
false alarms.

After the developer fixes the bug (in both levels), :func:`validate_fix`
re-runs conformance checking (no regression between the levels) and model
checking (the violation is gone) — the paper's fix-validation loop.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Optional

from ..core.engine import SearchResult
from ..core.explorer import bfs_explore
from ..obs.metrics import TIME_BOUNDS
from ..core.violation import Violation
from .checker import ConformanceChecker, ConformanceReport, ReplayReport

__all__ = ["BugConfirmation", "FixValidation", "BugReplayer"]


@dataclasses.dataclass
class BugConfirmation:
    """The §3.4 verdict for one specification-level violation."""

    violation: Violation
    replay: ReplayReport
    confirmed: bool

    def describe(self) -> str:
        verdict = "CONFIRMED" if self.confirmed else "NOT REPRODUCED"
        lines = [
            f"{verdict}: {self.violation.invariant} at depth {self.violation.depth}",
        ]
        if not self.confirmed:
            if self.replay.engine_error:
                lines.append(f"  replay stopped: {self.replay.engine_error}")
            for discrepancy in self.replay.discrepancies:
                lines.append(f"  {discrepancy.describe()}")
        return "\n".join(lines)


@dataclasses.dataclass
class FixValidation:
    """Fix validation: conformance plus re-model-checking."""

    conformance: ConformanceReport
    model_checking: SearchResult

    @property
    def passed(self) -> bool:
        return self.conformance.passed and not self.model_checking.found_violation


class BugReplayer:
    """Confirms spec-level violations at the implementation level."""

    def __init__(self, checker: ConformanceChecker, metrics: Optional[Any] = None):
        self.checker = checker
        self.metrics = metrics

    def confirm(self, violation: Violation) -> BugConfirmation:
        """Replay the violation's trace; the bug is confirmed when the
        implementation tracks the specification through the entire
        bug-triggering sequence (so it reaches the violating state too).

        An implementation crash along the way still confirms *a* bug —
        the crash itself — but not the safety violation being checked,
        so it is reported as not reproduced for this violation.
        """
        metrics = self.metrics
        started = time.monotonic() if metrics is not None else 0.0
        replay = self.checker.replay(violation.trace)
        if metrics is not None:
            elapsed = time.monotonic() - started
            metrics.counter("replay.traces").inc()
            metrics.counter("replay.steps").inc(replay.steps_executed)
            metrics.histogram("replay.trace_seconds", TIME_BOUNDS).observe(elapsed)
            if replay.steps_executed:
                metrics.histogram("replay.step_seconds", TIME_BOUNDS).observe(
                    elapsed / replay.steps_executed
                )
        return BugConfirmation(violation, replay, confirmed=replay.conforms)

    def validate_fix(
        self,
        fixed_checker: ConformanceChecker,
        quiet_period: float = 2.0,
        max_traces: Optional[int] = 50,
        max_states: Optional[int] = 50_000,
        time_budget: Optional[float] = 30.0,
        symmetry: bool = False,
    ) -> FixValidation:
        """Validate a fix: the fixed spec and implementation still conform,
        and model checking no longer finds the violation."""
        conformance = fixed_checker.run(
            quiet_period=quiet_period, max_traces=max_traces
        )
        model_checking = bfs_explore(
            fixed_checker.spec,
            max_states=max_states,
            time_budget=time_budget,
            symmetry=symmetry,
        )
        return FixValidation(conformance, model_checking)
