"""Tests for the end-to-end SandTable workflow driver (Figure 1)."""

from repro.persist import RunDir, load_violation
from repro.specs.raft import RaftConfig, RaftOSSpec, XraftSpec
from repro.workflow import run_workflow

NODES = ("n1", "n2")

CONSTRAINTS = [
    {"max_timeouts": 3, "max_requests": 1, "max_partitions": 1, "max_buffer": 4},
    {"max_timeouts": 2, "max_requests": 1, "max_partitions": 0, "max_buffer": 3},
]


def raftos_factory(bugs):
    def build(constraint):
        return RaftOSSpec(
            RaftConfig(
                nodes=NODES,
                values=("v1",),
                max_crashes=0,
                max_restarts=0,
                max_drops=1,
                max_dups=1,
                max_term=2,
                **constraint,
            ),
            bugs=bugs,
        )

    return build


class TestHealthySystem:
    def test_clean_run(self, tmp_path):
        result = run_workflow(
            "raftos",
            raftos_factory(()),
            CONSTRAINTS,
            conformance_quiet=2.0,
            conformance_traces=40,
            max_states=30_000,
            time_budget=30.0,
            run_dir=tmp_path / "wf",
        )
        assert result.passed_conformance
        assert result.ranking is not None
        assert len(result.checks) == 2
        assert result.confirmed_bugs == []
        assert "clean" in result.summary()
        # The durable run directory captured the outcome.
        rd = RunDir.open(tmp_path / "wf")
        assert rd.manifest()["status"] == "complete"
        summary = rd.artifact_path("summary.md").read_text()
        assert "clean" in summary
        assert not list(rd.artifacts_dir.glob("bug-report-*.md"))

    def test_constraints_ranked(self):
        result = run_workflow(
            "raftos",
            raftos_factory(()),
            CONSTRAINTS,
            conformance_quiet=1.0,
            conformance_traces=20,
            max_states=10_000,
            time_budget=20.0,
        )
        coverages = [s.branch_coverage for s in result.ranking.scores]
        assert coverages == sorted(coverages, reverse=True)


class TestBuggySystem:
    def test_bug_found_and_confirmed(self, tmp_path):
        result = run_workflow(
            "raftos",
            raftos_factory(("R1",)),
            CONSTRAINTS,
            conformance_quiet=2.0,
            conformance_traces=40,
            max_states=150_000,
            time_budget=90.0,
            run_dir=tmp_path / "wf",
        )
        assert result.passed_conformance  # bug seeded in both levels
        assert result.confirmed_bugs, result.summary()
        outcome = result.confirmed_bugs[0]
        assert outcome.exploration.violation.invariant == "MatchIndexMonotonic"
        assert "CONFIRMED" in result.summary()
        # Replayable artifacts: the violation trace and the rendered report.
        rd = RunDir.open(tmp_path / "wf")
        assert rd.manifest()["status"] == "bugs-confirmed"
        saved = sorted(rd.artifacts_dir.glob("check-*-violation.json"))
        assert saved
        loaded = [load_violation(path) for path in saved]
        assert outcome.exploration.violation.trace in [v.trace for v in loaded]
        reports = sorted(rd.artifacts_dir.glob("bug-report-*.md"))
        assert reports
        assert "MatchIndexMonotonic" in reports[0].read_text()

    def test_bug_reports_render(self):
        result = run_workflow(
            "raftos",
            raftos_factory(("R1",)),
            CONSTRAINTS,
            conformance_quiet=1.0,
            conformance_traces=20,
            max_states=150_000,
            time_budget=90.0,
        )
        reports = result.bug_reports(
            consequence="Match index is not monotonic", watch=("matchIndex",)
        )
        assert reports
        text = reports[0].to_markdown()
        assert "MatchIndexMonotonic" in text
        assert "confirmed by deterministic replay" in text


class TestDivergentImplementation:
    def test_workflow_stops_at_conformance(self, tmp_path):
        def xraft_factory(constraint):
            return XraftSpec(
                RaftConfig(nodes=("n1", "n2", "n3"), **constraint)
            )

        # X2 needs a second client request while one is replicating, so
        # the conformance constraint must allow several requests.
        constraints = [
            {"max_timeouts": 4, "max_requests": 3, "max_partitions": 0, "max_buffer": 5},
        ]
        result = run_workflow(
            "xraft",
            xraft_factory,
            constraints,
            impl_bugs=("X2",),  # implementation-only crash
            conformance_quiet=20.0,
            conformance_traces=300,
            seed=3,
            run_dir=tmp_path / "wf",
        )
        assert not result.passed_conformance
        assert result.checks == []
        assert "FAILED" in result.summary()
        rd = RunDir.open(tmp_path / "wf")
        assert rd.manifest()["status"] == "conformance-failed"
        assert rd.artifact_path("conformance-failure.md").exists()


class TestTemporalWorkflow:
    def test_sharded_workflow_checks_liveness(self, tmp_path):
        """``temporal`` takes ``workers``: a sharded census yields the
        lasso the serial one does, saved as the check's artifact."""
        from repro.obs import MetricsRegistry
        from repro.persist import load_lasso
        from repro.specs.raft import PySyncObjSpec
        from repro.temporal import explore_and_check, resolve_property

        def pysyncobj_factory(constraint):
            # Both nodes may crash and none restarts: the election can
            # stall forever, a fair stutter lasso (274 states in all).
            return PySyncObjSpec(
                RaftConfig(
                    nodes=NODES, values=("v1",), max_requests=1, max_partitions=0,
                    max_restarts=0, max_drops=0, max_dups=0, max_buffer=5,
                    max_term=2, **constraint,
                )
            )

        constraint = {"max_timeouts": 2, "max_crashes": 2}
        metrics = MetricsRegistry()
        result = run_workflow(
            "pysyncobj",
            pysyncobj_factory,
            [constraint],
            conformance_quiet=1.0,
            conformance_traces=10,
            top_constraints=1,
            workers=2,
            run_dir=tmp_path / "wf",
            metrics=metrics,
            temporal=("eventually-elects-leader",),
        )
        assert result.passed_conformance and len(result.checks) == 1
        assert metrics.snapshot()["counters"].get("parallel.rounds", 0) > 0
        (tres,) = result.checks[0].temporal
        assert tres.lasso is not None and tres.lasso.stuttering
        spec = pysyncobj_factory(constraint)
        (serial,), _ = explore_and_check(
            spec, [resolve_property(spec, "eventually-elects-leader")]
        )
        assert tres.lasso.to_json() == serial.lasso.to_json()
        artifact = RunDir.open(tmp_path / "wf").artifact_path(
            "check-0-lasso-eventually-elects-leader.json"
        )
        assert load_lasso(artifact)[1].to_json() == serial.lasso.to_json()
