"""Specification-level bug detection driver (the Table 2 run).

For each verification-stage bug the registry records the configuration
and budget constraint the paper's Algorithm 1 would pick; this module
runs the corresponding exploration — exhaustive BFS for the shallow bugs
(minimal-depth counterexamples, §5.1.1), random-walk simulation for the
bugs whose paper-reported depth (20+) is beyond what the pure-Python BFS
reaches in test budgets (see EXPERIMENTS.md for the substitution note).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Optional

from ..core.engine import SearchStats, StopReason
from ..core.explorer import bfs_explore
from ..core.simulation import simulate
from ..core.violation import Violation
from .registry import Bug

__all__ = ["DetectionResult", "detect"]


@dataclasses.dataclass
class DetectionResult:
    """Outcome of a specification-level detection run for one bug."""

    bug: Bug
    found: bool
    violation: Optional[Violation]
    elapsed: float
    distinct_states: int = 0  # BFS runs
    walks: int = 0  # simulation runs
    method: str = "bfs"
    #: unified exploration counters, comparable across BFS and simulation
    stats: Optional[SearchStats] = None
    stop_reason: Optional[StopReason] = None

    @property
    def depth(self) -> Optional[int]:
        return self.violation.depth if self.violation else None

    def as_row(self) -> dict:
        stats = self.stats
        return {
            "bug": self.bug.bug_id,
            "consequence": self.bug.consequence,
            "found": self.found,
            "time_s": round(self.elapsed, 2),
            "depth": self.depth,
            "states": self.distinct_states or None,
            "walks": self.walks or None,
            "states_per_s": (
                round(stats.states_per_second)
                if stats and stats.elapsed > 0
                else None
            ),
            "stop": str(self.stop_reason) if self.stop_reason else None,
            "paper_time": self.bug.paper_time,
            "paper_depth": self.bug.paper_depth,
            "paper_states": self.bug.paper_states,
        }


def detect(
    bug: Bug,
    time_budget: float = 120.0,
    max_states: int = 2_000_000,
    n_walks: int = 20_000,
    max_depth: int = 40,
    seed: int = 0,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> DetectionResult:
    """Run the registry-recorded detection for one verification bug."""
    if bug.stage != "verification":
        raise ValueError(f"{bug.bug_id} is found by conformance checking, not exploration")
    spec = bug.make_spec()
    started = time.monotonic()
    if bug.method == "bfs":
        result = bfs_explore(
            spec,
            max_states=max_states,
            time_budget=time_budget,
            metrics=metrics,
            progress=progress,
        )
        return DetectionResult(
            bug=bug,
            found=result.found_violation,
            violation=result.violation,
            elapsed=time.monotonic() - started,
            distinct_states=result.stats.distinct_states,
            method="bfs",
            stats=result.stats,
            stop_reason=result.stop_reason,
        )
    sim = simulate(
        spec,
        n_walks=n_walks,
        max_depth=max_depth,
        seed=seed,
        stop_on_violation=True,
        time_budget=time_budget,
        metrics=metrics,
    )
    violation = sim.first_violation
    return DetectionResult(
        bug=bug,
        found=violation is not None,
        violation=violation,
        elapsed=time.monotonic() - started,
        walks=sim.n_walks,
        method="simulate",
        stats=sim.stats,
        stop_reason=sim.stop_reason,
    )
