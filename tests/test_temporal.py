"""Tests for :mod:`repro.temporal` — lasso detection over the explored graph.

The unit half drives a five-state toy (a line with an optional closing
loop and an optional escape hatch) through every lasso shape: plain fair
cycle, fairness-killed cycle, disabled-action witness, stuttering sink,
and the budget-bounded case where a false stutter lasso must NOT appear.
The system half checks the planted Raft-family liveness bugs end to end:
the buggy cell yields an exact, replayable lasso at a known minimal
prefix depth while the fixed control holds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core import Action, BFSExplorer, Rec, Spec
from repro.core.engine import CompactStore, FingerprintOnlyStore, TracelessStoreError
from repro.core.spec import WeakFairness
from repro.persist import (
    DiskStore,
    DiskStoreReader,
    RunDir,
    RunDirError,
    atomic_write_json,
    load_lasso,
    load_violation,
    run_check,
    save_lasso,
)
from repro.specs.raft import PySyncObjSpec, RaftConfig, RaftOSSpec, RaftSpec
from repro.temporal import (
    LassoTrace,
    TemporalProperty,
    always_eventually,
    eventually,
    explore_and_check,
    leads_to,
    materialize_graph,
    resolve_property,
)
from repro.testkit import (
    TemporalFuzzFailure,
    oracle_check_temporal,
    oracle_validate_lasso,
    replay_artifact,
    run_temporal_fuzz,
    sample_params,
)
from toy_specs import CounterSpec

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class LineLoopSpec(Spec):
    """x walks 0→1→2→3; ``Loop`` closes 3→1; ``Escape`` jumps to sink 9.

    Every lasso shape the checker distinguishes is reachable by toggling
    the loop, the escape states, and the weak-fairness declarations.
    """

    name = "line-loop"
    nodes = ("n1",)

    def __init__(self, loop=True, escape_from=(), fairness=()):
        self.loop = loop
        self.escape_from = frozenset(escape_from)
        self._fairness = tuple(fairness)

    def init_states(self):
        yield Rec(x=0)

    def actions(self):
        acts = [Action("Step", self._step, kind="internal")]
        if self.loop:
            acts.append(Action("Loop", self._loop, kind="internal"))
        if self.escape_from:
            acts.append(Action("Escape", self._escape, kind="internal"))
        return acts

    def _step(self, state):
        if state["x"] < 3:
            yield (), state.set("x", state["x"] + 1)

    def _loop(self, state):
        if state["x"] == 3:
            yield (), state.set("x", 1)

    def _escape(self, state):
        if state["x"] in self.escape_from:
            yield (), state.set("x", 9)

    def invariants(self):
        return ()

    def weak_fairness(self):
        return self._fairness


WF_ESCAPE = (WeakFairness.of("wf-escape", "Escape"),)
WF_STEP = (WeakFairness.of("wf-step", "Step"),)


def ev9():
    return eventually(lambda s: s["x"] == 9, name="ev9")


def never():
    return eventually(lambda s: s["x"] == 42, name="never")


def check_one(spec, prop, **kwargs):
    results, search = explore_and_check(spec, [prop], **kwargs)
    return results[0], search


class TestPropertyDSL:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown temporal kind"):
            TemporalProperty("p", "until", lambda s: True)

    def test_goal_arity_enforced(self):
        with pytest.raises(ValueError, match="exactly"):
            TemporalProperty("p", "leads_to", lambda s: True)  # missing goal
        with pytest.raises(ValueError, match="exactly"):
            TemporalProperty(
                "p", "eventually", lambda s: True, goal=lambda s: True
            )

    def test_constructors(self):
        assert eventually(lambda s: True, name="e").kind == "eventually"
        assert always_eventually(lambda s: True, name="a").kind == "always_eventually"
        prop = leads_to(
            lambda s: True, lambda s: False, name="l", fairness=WF_STEP
        )
        assert prop.kind == "leads_to" and prop.goal is not None
        assert prop.fairness == WF_STEP

    def test_resolve_unknown_name(self):
        with pytest.raises(ValueError, match="eventually-elects-leader"):
            resolve_property(LineLoopSpec(), "no-such-property")


class TestLassoSearch:
    def test_simple_fair_cycle(self):
        # No fairness declared: the 1→2→3→1 cycle is a lasso for <>x=9.
        result, _ = check_one(LineLoopSpec(), ev9())
        assert not result.holds
        lasso = result.lasso
        assert lasso.prefix_length == 1
        assert lasso.cycle_length == 3
        assert not lasso.stuttering
        states = list(lasso.trace.states())
        assert [s["x"] for s in states] == [0, 1, 2, 3, 1]
        assert states[-1] == states[lasso.cycle_start]

    def test_unfair_cycle_is_no_lasso(self):
        # Escape is enabled at every cycle state and never taken: weak
        # fairness for it kills the only cycle, so the property holds.
        spec = LineLoopSpec(escape_from={1, 2, 3}, fairness=WF_ESCAPE)
        result, _ = check_one(spec, ev9())
        assert result.holds and result.lasso is None
        assert "no fair cycle" in result.describe()

    def test_disabled_action_is_a_fairness_witness(self):
        # Escape exists only at x=2: it is raw-disabled at 1 and 3, so
        # the cycle satisfies WF(Escape) without ever firing it.
        spec = LineLoopSpec(escape_from={2}, fairness=WF_ESCAPE)
        result, _ = check_one(spec, ev9())
        assert not result.holds
        assert result.lasso.cycle_length == 3

    def test_stutter_lasso_at_sink(self):
        # Without the loop the line dead-ends at x=3, where Step is
        # disabled: stuttering there is fair, so <>x=42 is violated.
        spec = LineLoopSpec(loop=False, fairness=WF_STEP)
        result, _ = check_one(spec, never())
        lasso = result.lasso
        assert lasso.stuttering
        assert lasso.prefix_length == 3 and lasso.cycle_length == 1
        assert [s["x"] for s in lasso.trace.states()] == [0, 1, 2, 3]

    def test_budget_bound_prevents_false_stutter(self):
        # With only 2 of 4 states explored, the frontier state still has
        # Step enabled — it must not masquerade as a fair sink, and the
        # verdict must be flagged as bounded by the explored graph.
        spec = LineLoopSpec(loop=False, fairness=WF_STEP)
        result, search = check_one(spec, never(), max_states=2)
        assert result.holds and result.lasso is None
        assert search.stats.distinct_states == 2
        assert "bounded" in result.describe()

    def test_always_eventually(self):
        # The cycle visits x=1 infinitely often but never x=0.
        holds, _ = check_one(
            LineLoopSpec(), always_eventually(lambda s: s["x"] == 1, name="ae1")
        )
        assert holds.holds
        violated, _ = check_one(
            LineLoopSpec(), always_eventually(lambda s: s["x"] == 0, name="ae0")
        )
        assert not violated.holds and not violated.lasso.stuttering

    def test_leads_to(self):
        # x=0 never reaches the unreachable 9; x=2 always steps to 3.
        violated, _ = check_one(
            LineLoopSpec(),
            leads_to(lambda s: s["x"] == 0, lambda s: s["x"] == 9, name="lt09"),
        )
        assert not violated.holds
        holds, _ = check_one(
            LineLoopSpec(),
            leads_to(lambda s: s["x"] == 2, lambda s: s["x"] == 3, name="lt23"),
        )
        assert holds.holds

    def test_oracle_agrees_with_engine(self):
        # The naive testkit oracle grades the same toy cells the same way
        # and accepts the engine's lasso as a genuine counterexample.
        cells = [
            (LineLoopSpec(), ev9()),
            (LineLoopSpec(escape_from={1, 2, 3}, fairness=WF_ESCAPE), ev9()),
            (LineLoopSpec(loop=False, fairness=WF_STEP), never()),
        ]
        for spec, prop in cells:
            result, _ = check_one(spec, prop)
            verdict = oracle_check_temporal(spec, prop)
            assert verdict.violated == (not result.holds)
            if result.lasso is not None:
                assert verdict.min_prefix == result.lasso.prefix_length
                assert oracle_validate_lasso(spec, prop, result.lasso) is None


class TestArtifacts:
    def test_json_roundtrip_is_byte_stable(self):
        result, _ = check_one(LineLoopSpec(), ev9())
        text = result.lasso.to_json()
        assert LassoTrace.from_json(text).to_json() == text

    def test_version_checked(self):
        result, _ = check_one(LineLoopSpec(), ev9())
        data = result.lasso.to_dict()
        data["lasso_version"] = 99
        with pytest.raises(ValueError, match="version"):
            LassoTrace.from_dict(data)

    def test_save_load_lasso(self, tmp_path):
        result, _ = check_one(LineLoopSpec(), ev9())
        path = tmp_path / "lasso.json"
        save_lasso(path, result.lasso, "ev9")
        name, loaded = load_lasso(path)
        assert name == "ev9"
        assert loaded.to_json() == result.lasso.to_json()

    def test_lasso_artifact_is_a_violation_superset(self, tmp_path):
        # The same file replays as a safety trace: prefix+cycle steps are
        # genuine transitions, so load_violation must read it too.
        result, _ = check_one(LineLoopSpec(), ev9())
        path = tmp_path / "lasso.json"
        save_lasso(path, result.lasso, "ev9")
        violation = load_violation(path)
        assert violation.invariant == "ev9"
        assert violation.trace.depth == result.lasso.trace.depth


class TestStores:
    def _graph_fingerprint(self, graph):
        return (
            sorted(graph.states),
            {fp: tuple(succ) for fp, succ in graph.succ.items()},
            list(graph.roots),
            set(graph.stuttering),
        )

    def test_diskstore_reopen_matches_compact(self, tmp_path):
        # A close→reopen DiskStore run dir must materialize the identical
        # graph a CompactStore run produces, even with the memory index
        # squeezed hard enough to spill every segment.
        spec = CounterSpec(n_nodes=2, maximum=2)
        compact = CompactStore()
        BFSExplorer(spec, store=compact, stop_on_violation=False).run()
        reference = materialize_graph(spec, compact)

        disk = DiskStore(tmp_path / "store", memory_budget=4)
        BFSExplorer(spec, store=disk, stop_on_violation=False).run()
        disk.close()
        reopened = materialize_graph(spec, DiskStoreReader(tmp_path / "store"))

        assert len(reference) == 9  # (maximum + 1) ** n_nodes
        assert self._graph_fingerprint(reopened) == self._graph_fingerprint(
            reference
        )
        assert reopened.unreached == 0 and reopened.boundary_edges == 0

    def test_traceless_store_is_rejected(self):
        spec = CounterSpec(n_nodes=2, maximum=2)
        store = FingerprintOnlyStore()
        BFSExplorer(spec, store=store, stop_on_violation=False).run()
        with pytest.raises(TracelessStoreError):
            materialize_graph(spec, store)


_HASHSEED_PROGRAM = """
import random
from repro.temporal import explore_and_check
from repro.testkit import generate_spec, property_from_descriptor, sample_params

params = sample_params(random.Random("hash-stability-params"))
generated = generate_spec("hash-stability", params)
# <>false is violated on every finite graph: each behavior ends in a
# sink or a cycle, and the spec declares no fairness to break them.
descriptor = {
    "kind": "eventually",
    "name": "never",
    "target": [[-1], -1],
    "negate": False,
    "fairness": [],
}
spec = generated.spec(invariants=False)
results, _ = explore_and_check(spec, [property_from_descriptor(descriptor)])
assert results[0].lasso is not None
print(results[0].lasso.to_json())
"""


class TestHashSeedStability:
    def test_lasso_bytes_identical_across_hash_seeds(self):
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_PROGRAM],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestRaftLiveness:
    """The planted Raft-family liveness bugs, buggy cell vs fixed control."""

    PYSYNCOBJ = RaftConfig(
        nodes=("n1", "n2"),
        values=("v1",),
        max_timeouts=3,
        max_requests=1,
        max_partitions=0,
        max_crashes=0,
        max_restarts=0,
        max_drops=0,
        max_dups=0,
        max_buffer=5,
        max_term=2,
    )
    RAFTOS = RaftConfig(
        nodes=("n1", "n2"),
        values=("v1",),
        max_timeouts=3,
        max_requests=2,
        max_partitions=0,
        max_crashes=0,
        max_restarts=0,
        max_drops=0,
        max_dups=0,
        max_buffer=5,
        max_term=3,
    )

    def test_pysyncobj_p4_starves_commit(self):
        # P4 drops the commit-index advance: a follower keeps an
        # uncommitted replicated entry forever.  Minimal prefix depth 12
        # (oracle-verified BFS distance), stuttering at the starved state.
        buggy = PySyncObjSpec(self.PYSYNCOBJ, bugs={"P4"})
        prop = resolve_property(buggy, "always-commit-caught-up")
        result, _ = check_one(buggy, prop)
        assert not result.holds
        assert result.lasso.stuttering
        assert result.lasso.prefix_length == 12
        assert oracle_validate_lasso(buggy, prop, result.lasso) is None
        text = result.lasso.to_json()
        assert LassoTrace.from_json(text).to_json() == text

        fixed = PySyncObjSpec(self.PYSYNCOBJ)
        control, _ = check_one(fixed, resolve_property(fixed, "always-commit-caught-up"))
        assert control.holds and control.lasso is None

    def test_raftos_r4_starves_commit(self):
        buggy = RaftOSSpec(self.RAFTOS, bugs={"R4"})
        prop = resolve_property(buggy, "always-commit-caught-up")
        result, _ = check_one(buggy, prop)
        assert not result.holds
        assert result.lasso.stuttering
        assert result.lasso.prefix_length == 17
        assert oracle_validate_lasso(buggy, prop, result.lasso) is None

        fixed = RaftOSSpec(self.RAFTOS)
        control, _ = check_one(fixed, resolve_property(fixed, "always-commit-caught-up"))
        assert control.holds and control.lasso is None

    def test_fixed_pysyncobj_elects_leader(self):
        config = RaftConfig(
            nodes=("n1", "n2"),
            values=("v1",),
            max_timeouts=1,
            max_requests=1,
            max_partitions=0,
            max_crashes=0,
            max_restarts=0,
            max_drops=0,
            max_dups=0,
            max_buffer=5,
            max_term=2,
        )
        spec = PySyncObjSpec(config)
        result, search = check_one(
            spec, resolve_property(spec, "eventually-elects-leader")
        )
        assert result.holds and result.lasso is None
        assert search.stats.distinct_states < 100

    #: both nodes may crash, and no restart is budgeted
    CRASHES = RaftConfig(
        nodes=("n1", "n2"),
        values=("v1",),
        max_timeouts=2,
        max_requests=1,
        max_partitions=0,
        max_crashes=2,
        max_restarts=0,
        max_drops=0,
        max_dups=0,
        max_buffer=5,
        max_term=2,
    )

    def test_crashes_without_restarts_stall_the_election(self):
        # A fair stutter lasso proves the election really can stall forever.
        spec = PySyncObjSpec(self.CRASHES)
        prop = resolve_property(spec, "eventually-elects-leader")
        result, _ = check_one(spec, prop, max_states=800)
        assert not result.holds and result.lasso.stuttering
        assert "VIOLATED" in result.describe()

    def test_budget_starved_census_reports_no_cycle(self):
        # With only 2 states explored, the frontier still has fair
        # actions enabled: the search must not fabricate a lasso.
        spec = PySyncObjSpec(self.CRASHES)
        prop = resolve_property(spec, "eventually-elects-leader")
        result, _ = check_one(spec, prop, max_states=2)
        assert result.holds and result.lasso is None
        assert "no fair cycle" in result.describe()

    def test_quorum_commit_counts_majority(self):
        spec = RaftSpec(RaftConfig(nodes=("n1", "n2", "n3"), values=("v1",)))
        prop = resolve_property(spec, "eventually-quorum-commits")
        init = next(spec.init_states())
        one = init.set("commitIndex", init["commitIndex"].set("n1", 1))
        assert not prop.predicate(one)
        two = one.set("commitIndex", one["commitIndex"].set("n2", 1))
        assert prop.predicate(two)


class TestTemporalCLI:
    def test_inline_temporal_saves_lasso(self, tmp_path, capsys):
        out = tmp_path / "lasso.json"
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--max-states",
                "600",
                "--temporal",
                "eventually-elects-leader",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out
        name, lasso = load_lasso(out)
        assert name == "eventually-elects-leader"
        assert lasso.stuttering

    def test_inline_temporal_stats_reach_the_explorer(self, monkeypatch, capsys):
        # check --temporal explores through explore_and_check into a run
        # directory, and run_check hands the --stats progress reporter to
        # the BFSExplorer (composed with the run's metrics sink).
        import repro.persist.runner as runner_module

        given = []

        class Recording(runner_module.BFSExplorer):
            def __init__(self, *args, **kwargs):
                given.append(kwargs.get("progress"))
                kwargs["progress_interval"] = 100
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner_module, "BFSExplorer", Recording)
        argv = ["check", "--system", "pysyncobj", "--nodes", "2", "--max-states",
                "600", "--temporal", "eventually-elects-leader", "--stats"]
        assert main(argv) == 1
        assert len(given) == 1 and given[0] is not None
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out and "action coverage" in captured.out
        # The reporter's own lines, one per 100 new states until the budget.
        assert "sandtable: 500 states" in captured.err

    def test_check_liveness_on_finished_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "check",
                    "--system",
                    "pysyncobj",
                    "--nodes",
                    "2",
                    "--max-states",
                    "600",
                    "--run-dir",
                    str(run_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "check-liveness",
                str(run_dir),
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--temporal",
                "eventually-elects-leader",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "VIOLATED" in captured.out
        artifact = run_dir / "artifacts" / "lasso-eventually-elects-leader.json"
        assert artifact.exists()
        name, lasso = load_lasso(artifact)
        assert name == "eventually-elects-leader"
        spec = _cli_spec()
        prop = resolve_property(spec, "eventually-elects-leader")
        assert oracle_validate_lasso(spec, prop, lasso) is None
        # The artifact is a violation-schema superset: the same file
        # replays deterministically at the implementation level.
        code = main(
            [
                "replay",
                "--trace",
                str(artifact),
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "CONFIRMED" in captured.out

    def test_check_liveness_refuses_fast_runs(self, tmp_path, capsys):
        run_dir = tmp_path / "fastrun"
        main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--max-states",
                "200",
                "--fast",
                "--run-dir",
                str(run_dir),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "check-liveness",
                str(run_dir),
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
            ]
        )
        assert code == 2
        assert "--fast" in capsys.readouterr().err


    LIVENESS = ["--system", "pysyncobj", "--nodes", "2", "--temporal", "eventually-elects-leader"]

    @pytest.mark.parametrize("cadence", [[], ["--checkpoint-states", "150"]])
    def test_check_liveness_covers_a_finished_parallel_run(self, tmp_path, capsys, cadence):
        # A finished run dir holds its census: the last round boundary is
        # committed whatever the periodic cadence got to.
        run_dir = tmp_path / "run"
        check = ["check", "--system", "pysyncobj", "--nodes", "2", "--workers", "2"]
        assert main(check + ["--max-states", "600", "--run-dir", str(run_dir)] + cadence) == 0
        recorded = RunDir.open(run_dir).manifest()["result"]["stats"]["distinct_states"]
        capsys.readouterr()
        assert main(["check-liveness", str(run_dir)] + self.LIVENESS) == 1
        out = capsys.readouterr().out
        assert f"materialized {recorded} states" in out
        assert "graph covers" not in out

    def test_check_liveness_says_what_a_cut_round_left_uncommitted(self, tmp_path, capsys):
        from test_core_parallel import InlineTransport

        result = run_check(
            _cli_spec(),
            tmp_path / "run",
            workers=2,
            transport=InlineTransport(cut=(1, 5)),
            time_budget=3600,
            checkpoint_states=1,
        )
        main(["check-liveness", str(tmp_path / "run")] + self.LIVENESS)
        out = capsys.readouterr().out
        covered = int(out.split("materialized ")[1].split()[0])
        assert covered < result.stats.distinct_states
        assert (
            f"graph covers {covered} of {result.stats.distinct_states} recorded"
            " states (last committed checkpoint)"
        ) in out

    @pytest.mark.parametrize("log", ["actions.txt", "roots.log"])
    def test_check_liveness_refuses_unflushed_logs(self, tmp_path, capsys, log):
        run_dir = tmp_path / "run"
        check = ["check", "--system", "pysyncobj", "--nodes", "2", "--max-states", "300"]
        assert main(check + ["--run-dir", str(run_dir)]) == 0
        os.truncate(run_dir / "store" / log, 0)
        capsys.readouterr()
        assert main(["check-liveness", str(run_dir)] + self.LIVENESS) == 2
        captured = capsys.readouterr()
        assert "killed before its logs were flushed" in captured.err
        assert "--resume" in captured.err and "Traceback" not in captured.err
        assert "materialized" not in captured.out

    def test_check_liveness_refuses_a_sigkilled_run(self, tmp_path):
        # The small logs sit in their write buffers until the first
        # checkpoint; the edge log outgrows its buffer in a moment.  Kill
        # the run once it has, and the directory is what a real crash leaves.
        run_dir = tmp_path / "run"
        env = dict(os.environ, PYTHONPATH=SRC)
        cli = [sys.executable, "-m", "repro.cli"]
        child = subprocess.Popen(
            cli + ["check", "--system", "raftos", "--run-dir", str(run_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        try:
            edges = run_dir / "store" / "edges.log"
            deadline = time.monotonic() + 60
            while not (edges.exists() and edges.stat().st_size > 50_000):
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            child.kill()
            child.wait()
        assert (run_dir / "store" / "actions.txt").stat().st_size == 0
        done = subprocess.run(
            cli + ["check-liveness", str(run_dir), "--system", "raftos"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert "killed before its logs were flushed" in done.stderr
        assert "Traceback" not in done.stderr


def _cli_spec():
    from repro.dist.specref import make_spec

    return make_spec("pysyncobj", 2, (), None)


class TestTemporalFuzz:
    def test_small_sweep_is_clean(self):
        report = run_temporal_fuzz(n_specs=2, seed="pytest-temporal", serial_only=True)
        assert report.specs == 2
        assert report.graded > 0
        assert report.ok, report.describe()

    def test_replay_artifact_roundtrip(self, tmp_path):
        params = sample_params(random.Random("pytest-replay-params"))
        failure = TemporalFuzzFailure(
            spec_seed="pytest-replay",
            params=params,
            cell="serial",
            prop={
                "kind": "eventually",
                "name": "never",
                "target": [[-1], -1],
                "negate": False,
                "fairness": [],
            },
            message="synthetic disagreement for the replay test",
        )
        path = tmp_path / "artifact.json"
        atomic_write_json(path, failure.to_dict())
        original, fresh = replay_artifact(path)
        assert original == failure and original.kind == TemporalFuzzFailure.kind
        # Oracle and engine agree that the unreachable target is never
        # reached: the synthetic disagreement does not reproduce.
        assert fresh == []

    def test_replay_rejects_other_artifacts(self, tmp_path):
        path = tmp_path / "other.json"
        atomic_write_json(path, {"kind": "something-else"})
        with pytest.raises(RunDirError, match="not a selftest artifact"):
            replay_artifact(path)

    def test_selftest_cli(self, capsys):
        code = main(
            [
                "selftest",
                "--temporal",
                "--specs",
                "2",
                "--seed",
                "pytest-cli",
                "--serial-only",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert "temporal" in captured.out
