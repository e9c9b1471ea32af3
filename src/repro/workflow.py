"""The end-to-end SandTable workflow (Figure 1).

One call wires the four phases together for a target system:

1. **Conformance checking** (§3.2) — random-walk traces are replayed
   against the implementation until the quiet period passes; any
   discrepancy aborts the run with the triggering event sequence.
2. **Constraint selection** (§3.3, Algorithm 1) — candidate budget
   constraints are ranked by random-walk coverage metrics, and the top
   ones are kept for checking.
3. **Model checking** — BFS explores each selected constraint's space
   until a safety violation, exhaustion, or budget expiry.
4. **Bug confirmation** (§3.4) — each violation's trace is replayed
   deterministically at the implementation level; only confirmed
   violations are reported as bugs.

The result object carries everything a bug report needs, including the
Markdown rendering from :mod:`repro.conformance.report`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Mapping, Optional, Sequence

from .conformance import (
    BugConfirmation,
    BugReplayer,
    ConformanceChecker,
    ConformanceReport,
    mapping_for,
)
from .conformance.report import BugReport
from .core import bfs_explore, rank_constraints
from .core.engine import SearchResult
from .core.ranking import RankedConstraints
from .systems import SYSTEMS

__all__ = ["WorkflowResult", "CheckOutcome", "run_workflow"]


@dataclasses.dataclass
class CheckOutcome:
    """Model checking + confirmation for one selected constraint."""

    constraint: Mapping[str, Any]
    exploration: SearchResult
    confirmation: Optional[BugConfirmation] = None
    #: per-property :class:`repro.temporal.TemporalResult`, when the
    #: workflow was asked to check temporal properties
    temporal: List[Any] = dataclasses.field(default_factory=list)

    @property
    def found_bug(self) -> bool:
        return self.confirmation is not None and self.confirmation.confirmed


@dataclasses.dataclass
class WorkflowResult:
    """Everything one SandTable run produced."""

    system: str
    conformance: ConformanceReport
    ranking: Optional[RankedConstraints]
    checks: List[CheckOutcome]

    @property
    def passed_conformance(self) -> bool:
        return self.conformance.passed

    @property
    def confirmed_bugs(self) -> List[CheckOutcome]:
        return [c for c in self.checks if c.found_bug]

    def bug_reports(self, consequence: str = "", watch: Sequence[str] = ()) -> List[BugReport]:
        """Markdown-ready reports for every confirmed bug."""
        reports = []
        for outcome in self.confirmed_bugs:
            violation = outcome.confirmation.violation
            reports.append(
                BugReport(
                    title=f"{self.system}: {violation.invariant} violated",
                    system=self.system,
                    consequence=consequence or violation.invariant,
                    violation=violation,
                    confirmation=outcome.confirmation,
                    watch=watch,
                )
            )
        return reports

    def summary(self) -> str:
        lines = [
            f"SandTable workflow for {self.system}:",
            f"  conformance: {'PASSED' if self.passed_conformance else 'FAILED'}"
            f" ({self.conformance.traces_checked} traces)",
        ]
        if not self.passed_conformance:
            failure = self.conformance.failure
            reason = (
                failure.crash
                or failure.engine_error
                or failure.resource_leak
                or (failure.discrepancies and failure.discrepancies[0].describe())
            )
            lines.append(f"  discrepancy: {reason}")
            return "\n".join(lines)
        for outcome in self.checks:
            stats = outcome.exploration.stats
            verdict = "clean"
            if outcome.exploration.found_violation:
                verdict = outcome.exploration.violation.invariant
                if outcome.confirmation is not None:
                    verdict += (
                        " (CONFIRMED)" if outcome.confirmation.confirmed
                        else " (not reproduced)"
                    )
            lines.append(
                f"  {dict(outcome.constraint)}: {stats.describe()},"
                f" stop: {outcome.exploration.stop_reason}, {verdict}"
            )
            for tres in outcome.temporal:
                lines.append(f"    {tres.describe()}")
        return "\n".join(lines)


def run_workflow(
    system: str,
    spec_factory: Callable[[Mapping[str, Any]], Any],
    constraints: Sequence[Mapping[str, Any]],
    impl_bugs: Optional[Sequence[str]] = None,
    conformance_quiet: float = 3.0,
    conformance_traces: Optional[int] = 100,
    rank_walks: int = 30,
    top_constraints: int = 2,
    max_states: int = 200_000,
    time_budget: float = 60.0,
    seed: int = 0,
    workers: int = 1,
    run_dir: Optional[Any] = None,
    metrics: Optional[Any] = None,
    temporal: Sequence[str] = (),
) -> WorkflowResult:
    """Run the Figure 1 workflow for one target system.

    ``spec_factory(constraint)`` builds the spec for a candidate budget
    constraint; the first constraint is used for the conformance phase.
    ``temporal`` names properties from :mod:`repro.temporal` to check
    over each explored graph after the safety pass, serial or with
    ``workers``, through :func:`repro.temporal.explore_and_check`; any
    lasso found is reported per check and saved as a replayable artifact
    in durable runs.
    With ``run_dir`` the workflow is durable: the conformance report,
    every violation trace (as a replayable artifact), the confirmed-bug
    Markdown reports, the summary, and a metrics sink
    (``artifacts/metrics.jsonl``) land in the run directory.  Durable
    workflows are instrumented by default; pass ``metrics`` to supply
    (and keep) your own :class:`~repro.obs.metrics.MetricsRegistry`.
    """
    factory = SYSTEMS[system]
    rd = None
    if run_dir is not None and metrics is None:
        from .obs import MetricsRegistry  # instrument durable runs by default

        metrics = MetricsRegistry()
    if run_dir is not None:
        from .persist import RunDir  # local import: persist imports core

        rd = RunDir.create(
            run_dir,
            config={
                "workflow": system,
                "seed": seed,
                "workers": workers,
                "max_states": max_states,
                "time_budget": time_budget,
            },
        )

    # -- phase 1: conformance checking -------------------------------------
    conformance_spec = spec_factory(constraints[0])
    checker = ConformanceChecker(
        conformance_spec,
        factory,
        mapping_for(system, conformance_spec.nodes),
        impl_bugs=impl_bugs,
    )
    conformance = checker.run(
        quiet_period=conformance_quiet, max_traces=conformance_traces, seed=seed
    )
    if not conformance.passed:
        result = WorkflowResult(system, conformance, None, [])
        _save_workflow_artifacts(rd, result, metrics)
        return result

    # -- phase 2: constraint selection (Algorithm 1) ------------------------
    ranked = rank_constraints(
        lambda _config, constraint: spec_factory(constraint),
        configs=[{}],
        constraints=constraints,
        n_walks=rank_walks,
        seed=seed,
    )[0]

    # -- phases 3 and 4: model checking + confirmation ----------------------
    search = dict(
        max_states=max_states, time_budget=time_budget, workers=workers, metrics=metrics
    )
    checks: List[CheckOutcome] = []
    for score in ranked.top(top_constraints):
        spec = spec_factory(score.constraint)
        temporal_results: List[Any] = []
        if temporal:
            from .temporal import explore_and_check, resolve_property

            # The lasso search needs the full budgeted census, so this
            # exploration keeps going past safety violations; the first
            # one is still collected and confirmed below.
            temporal_results, exploration = explore_and_check(
                spec, [resolve_property(spec, name) for name in temporal], **search
            )
        else:
            exploration = bfs_explore(spec, **search)
        confirmation = None
        if exploration.found_violation:
            bug_checker = ConformanceChecker(
                spec, factory, mapping_for(system, spec.nodes), impl_bugs=impl_bugs
            )
            confirmation = BugReplayer(bug_checker, metrics=metrics).confirm(
                exploration.violation
            )
        checks.append(
            CheckOutcome(score.constraint, exploration, confirmation, temporal_results)
        )
    result = WorkflowResult(system, conformance, ranked, checks)
    _save_workflow_artifacts(rd, result, metrics)
    return result


def _save_workflow_artifacts(
    rd: Optional[Any], result: WorkflowResult, metrics: Optional[Any] = None
) -> None:
    """Write a workflow's durable leftovers into its run directory."""
    if rd is None:
        return
    from .persist import save_lasso, save_violation, write_text_artifact

    if metrics is not None:
        from .obs import MetricsSink

        MetricsSink(
            rd.artifact_path("metrics.jsonl"),
            metrics,
            meta={"workflow": result.system},
        ).close()

    write_text_artifact(rd.artifact_path("summary.md"), result.summary() + "\n")
    conformance = result.conformance
    if not result.passed_conformance and conformance.failure is not None:
        write_text_artifact(
            rd.artifact_path("conformance-failure.md"),
            "# Conformance failure\n\n"
            + "\n".join(d.describe() for d in conformance.failure.discrepancies)
            + "\n\n"
            + conformance.failure.trace.summary()
            + "\n",
        )
        rd.update_manifest(status="conformance-failed")
        return
    for index, outcome in enumerate(result.checks):
        if outcome.exploration.found_violation:
            save_violation(
                rd.artifact_path(f"check-{index}-violation.json"),
                outcome.exploration.violation,
                constraint=dict(outcome.constraint),
            )
        for tres in outcome.temporal:
            if tres.lasso is not None:
                save_lasso(
                    rd.artifact_path(f"check-{index}-lasso-{tres.property.name}.json"),
                    tres.lasso,
                    tres.property.name,
                    constraint=dict(outcome.constraint),
                )
    for index, report in enumerate(result.bug_reports()):
        write_text_artifact(
            rd.artifact_path(f"bug-report-{index}.md"), report.to_markdown()
        )
    rd.update_manifest(
        status="bugs-confirmed" if result.confirmed_bugs else "complete"
    )
