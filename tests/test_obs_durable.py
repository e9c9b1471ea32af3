"""Metrics across durable runs: checkpointed counters and the JSONL sink.

The invariant under test mirrors the persist layer's own: *interrupted +
resumed == uninterrupted*, extended to the observability state.  Counter
snapshots ride in every checkpoint, a resumed run restores them and
re-executes exactly the steps past the checkpoint, so the cumulative
counts at the end must be byte-identical to a run that was never killed
— even though the resumed session starts from a fresh, empty registry,
as a fresh process would.
"""

import multiprocessing

import pytest

from repro.cli import main
from repro.core import bfs_explore
from repro.obs import (
    ACTION_FIRES,
    MetricsRegistry,
    coverage_from_sink,
    read_sink,
    resolve_sink_path,
)
from repro.persist import run_check

from test_obs import UnreachableActionSpec
from toy_specs import CounterSpec, TokenRingSpec

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel BFS requires the fork start method",
)


class Interrupted(Exception):
    """Stands in for a kill arriving right after a checkpoint commits."""


def kill_after(n):
    def hook(checkpointer):
        if checkpointer.checkpoints_written == n:
            raise Interrupted

    return hook


def fires_of(registry):
    return dict(registry.counts(ACTION_FIRES))


class TestSerialDurableMetrics:
    def test_resumed_counters_match_uninterrupted(self, tmp_path):
        baseline = MetricsRegistry()
        bfs_explore(CounterSpec(3, 3), metrics=baseline)

        killed = MetricsRegistry()
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                memory_budget=16,
                on_checkpoint=kill_after(2),
                metrics=killed,
            )
        # The resumed session starts with an empty registry, exactly as a
        # fresh process would; the checkpoint snapshot alone must rebuild it.
        resumed = MetricsRegistry()
        run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            resume=True,
            checkpoint_states=10,
            memory_budget=16,
            metrics=resumed,
        )
        assert fires_of(resumed) == fires_of(baseline)
        assert (
            resumed.histogram("engine.fanout").to_dict()
            == baseline.histogram("engine.fanout").to_dict()
        )

    def test_sink_survives_the_kill(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                run_dir,
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
                metrics=MetricsRegistry(),
                progress_interval=20,
            )
        events = read_sink(resolve_sink_path(run_dir))
        # The kill left the file without a final snapshot; every flushed
        # line before it is intact.
        assert events[0]["event"] == "open"
        assert events[0]["meta"]["resumed"] is False
        assert "final" not in [e["event"] for e in events]

        resumed = MetricsRegistry()
        run_check(
            CounterSpec(3, 3),
            run_dir,
            resume=True,
            checkpoint_states=10,
            metrics=resumed,
            progress_interval=20,
        )
        events = read_sink(resolve_sink_path(run_dir))
        opens = [e for e in events if e["event"] == "open"]
        finals = [e for e in events if e["event"] == "final"]
        assert len(opens) == 2 and opens[1]["meta"]["resumed"] is True
        assert len(finals) == 1 and finals[0]["status"] == "complete"
        # The final snapshot is cumulative over both sessions.
        assert finals[0]["metrics"]["counts"][ACTION_FIRES] == fires_of(resumed)

    def test_violation_run_sink_records_status(self, tmp_path):
        registry = MetricsRegistry()
        result = run_check(
            TokenRingSpec(3, buggy=True),
            tmp_path / "run",
            checkpoint_states=50,
            metrics=registry,
        )
        assert result.found_violation
        events = read_sink(resolve_sink_path(tmp_path / "run"))
        assert events[-1]["event"] == "final"
        assert events[-1]["status"] == "violation"

    def test_coverage_round_trips_through_the_run_dir(self, tmp_path):
        registry = MetricsRegistry()
        run_check(
            UnreachableActionSpec(2, 2),
            tmp_path / "run",
            checkpoint_states=50,
            metrics=registry,
        )
        report = coverage_from_sink(resolve_sink_path(tmp_path / "run"))
        assert report.counts() == fires_of(registry)
        # The counts are exact, not merely self-consistent: the testkit
        # oracle's independent per-action census is the ground truth.
        from repro.testkit import oracle_explore

        oracle = oracle_explore(UnreachableActionSpec(2, 2))
        assert report.counts() == oracle.action_fires
        assert report.never_fired == ["Decrement"]
        assert not report.complete


class TestParallelDurableMetrics:
    @needs_fork
    def test_parallel_counters_match_serial(self, tmp_path):
        serial = MetricsRegistry()
        bfs_explore(CounterSpec(3, 3), metrics=serial)
        parallel = MetricsRegistry()
        run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            workers=2,
            checkpoint_states=10_000,
            metrics=parallel,
        )
        assert fires_of(parallel) == fires_of(serial)
        assert (
            parallel.histogram("engine.fanout").to_dict()
            == serial.histogram("engine.fanout").to_dict()
        )
        shards = parallel.counts("parallel.shard_states")
        expected = bfs_explore(CounterSpec(3, 3)).stats.distinct_states
        assert sum(shards.values()) == expected

    @needs_fork
    def test_parallel_resume_matches_uninterrupted(self, tmp_path):
        baseline = MetricsRegistry()
        bfs_explore(CounterSpec(3, 3), metrics=baseline)
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                workers=2,
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
                metrics=MetricsRegistry(),
            )
        resumed = MetricsRegistry()
        run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            resume=True,
            workers=2,
            checkpoint_states=10,
            metrics=resumed,
        )
        assert fires_of(resumed) == fires_of(baseline)
        assert resumed.counter("parallel.rounds").value > 0
        # The exchange counters are exact across the kill, too: equal to
        # an undisturbed parallel run's, not merely non-zero.
        calm = MetricsRegistry()
        run_check(
            CounterSpec(3, 3),
            tmp_path / "calm",
            workers=2,
            checkpoint_states=10,
            metrics=calm,
        )
        for name in (
            "parallel.rounds",
            "parallel.claims",
            "parallel.rebalanced_states",
            "parallel.batch_bytes",
        ):
            assert resumed.counter(name).value == calm.counter(name).value > 0, name
        assert resumed.counts("parallel.shard_states") == calm.counts(
            "parallel.shard_states"
        )


class TestCoverageCommandOnRunDir:
    def test_cli_coverage_reads_a_durable_run(self, tmp_path, capsys):
        run_check(
            UnreachableActionSpec(2, 2),
            tmp_path / "run",
            checkpoint_states=50,
            metrics=MetricsRegistry(),
        )
        assert main(["coverage", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "Increment" in out and "Decrement" in out
        assert "NEVER FIRED" in out
        # --strict turns the never-fired action into a failing exit code.
        assert main(["coverage", str(tmp_path / "run"), "--strict"]) == 1

    def test_cli_coverage_on_uninstrumented_run_fails_cleanly(
        self, tmp_path, capsys
    ):
        run_check(CounterSpec(2, 2), tmp_path / "run", checkpoint_states=50)
        assert main(["coverage", str(tmp_path / "run")]) == 2
        assert "metrics.jsonl" in capsys.readouterr().err
