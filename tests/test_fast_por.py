"""Fast (traceless) mode end to end.

* :class:`~repro.core.engine.FingerprintOnlyStore` — the flat 8-byte
  fingerprint set behind ``--fast`` (spill/merge, exact dedup, the
  traceless error surface, the bytes-per-state estimate);
* bounded re-search — a fast run's :class:`~repro.core.trace.PendingTrace`
  resolved into the byte-identical counterexample of a full-store run;
* the store seam the refactor touched: ``CompactStore`` action-name
  interning under symmetry.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random

import pytest
from toy_specs import CounterSpec, TokenRingSpec

from repro.core import (
    BFSExplorer,
    CompactStore,
    ExplorationEngine,
    FIFOFrontier,
    FingerprintOnlyStore,
    PendingTrace,
    Rec,
    StopReason,
    TracelessStoreError,
    bfs_explore,
    fingerprint,
    research_violation,
)
from repro.obs.metrics import STORE_BYTES, MetricsRegistry

fork_available = "fork" in multiprocessing.get_all_start_methods()


def trace_json(result):
    return json.dumps(result.violation.trace.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# FingerprintOnlyStore
# ---------------------------------------------------------------------------


class TestFingerprintOnlyStore:
    def test_exact_membership_across_spills(self):
        store = FingerprintOnlyStore(spill_threshold=64)
        rng = random.Random(7)
        fps = [rng.getrandbits(64) for _ in range(5_000)]
        # the store's contract: callers guard with seen() before record,
        # exactly as the engine and checkpoint restore do
        for fp in fps:
            if not store.seen(fp):
                store.record(fp, None, "")
        distinct = set(fps)
        assert len(store) == len(distinct)
        assert all(store.seen(fp) for fp in distinct)
        assert not store.seen((distinct.pop() ^ 0x5A5A5A5A5A5A5A5A) or 1)

    def test_segments_merge_geometrically(self):
        store = FingerprintOnlyStore(spill_threshold=16)
        for fp in range(1_000):
            store.record(fp, None, "")
        store._spill()
        # LSM invariant: sorted segments, sizes decaying by more than 2x
        sizes = [len(seg) for seg in store._segments]
        assert sum(sizes) == 1_000 and len(store) == 1_000
        assert all(sizes[i] > 2 * sizes[i + 1] for i in range(len(sizes) - 1))
        for seg in store._segments:
            assert list(seg) == sorted(seg)

    def test_rejects_non_integer_and_oversized_fingerprints(self):
        store = FingerprintOnlyStore()
        with pytest.raises(TypeError):
            store.record(b"not-an-int", None, "")
        with pytest.raises(TypeError):
            store.record(1 << 64, None, "")
        with pytest.raises(TypeError):
            store.record(-1, None, "")

    def test_traceless_surface(self):
        store = FingerprintOnlyStore()
        assert store.traceless
        store.record_init(3, Rec(x=1))
        store.record(4, 3, "Step")
        assert store.seen(3) and store.seen(4)
        with pytest.raises(TracelessStoreError):
            store.chain(4)
        with pytest.raises(TracelessStoreError):
            store.init_state(3)
        assert list(store.roots()) == []
        assert sorted(store.edges()) == [(3, None, "<fp>"), (4, None, "<fp>")]

    def test_estimated_bytes_within_budget(self):
        store = FingerprintOnlyStore()
        rng = random.Random(11)
        for _ in range(200_000):
            fp = rng.getrandbits(64)
            if not store.seen(fp):
                store.record(fp, None, "")
        store._spill()
        assert store.estimated_bytes() / len(store) <= 16


class TestPendingTrace:
    def test_pending_semantics(self):
        trace = PendingTrace(5)
        assert trace.pending and trace.depth == 5
        assert "pending" in trace.summary()
        with pytest.raises(RuntimeError):
            trace.to_dict()
        with pytest.raises(RuntimeError):
            trace.extend(None)


# ---------------------------------------------------------------------------
# fast exploration + bounded re-search
# ---------------------------------------------------------------------------


class TestFastMode:
    def test_census_matches_full_store(self):
        spec = CounterSpec(n_nodes=3, maximum=3)
        full = BFSExplorer(CounterSpec(n_nodes=3, maximum=3)).run()
        fast = BFSExplorer(spec, fast=True).run()
        assert fast.stop_reason == StopReason.EXHAUSTED
        assert fast.stats.distinct_states == full.stats.distinct_states == 4**3
        assert fast.stats.transitions == full.stats.transitions
        assert fast.stats.max_depth == full.stats.max_depth

    def test_symmetry_census_matches(self):
        full = BFSExplorer(CounterSpec(n_nodes=3, maximum=3), symmetry=True).run()
        fast = BFSExplorer(
            CounterSpec(n_nodes=3, maximum=3), symmetry=True, fast=True
        ).run()
        assert fast.stats.distinct_states == full.stats.distinct_states == 20
        assert fast.stats.transitions == full.stats.transitions

    def test_research_reproduces_byte_identical_trace(self):
        full = BFSExplorer(CounterSpec(n_nodes=2, maximum=4, bound=5)).run()
        fast = BFSExplorer(CounterSpec(n_nodes=2, maximum=4, bound=5), fast=True).run()
        assert fast.stop_reason == StopReason.VIOLATION
        assert not fast.violation.trace.pending
        assert trace_json(fast) == trace_json(full)

    def test_engine_leaves_pending_for_research(self):
        spec = TokenRingSpec(buggy=True)
        result = ExplorationEngine(
            spec, FIFOFrontier(), store=FingerprintOnlyStore()
        ).run()
        assert result.violation.trace.pending
        assert result.violation.depth == 2
        resolved = research_violation(spec, result.violation)
        assert not resolved.trace.pending
        assert resolved.depth == 2
        full = BFSExplorer(spec).run()
        assert json.dumps(resolved.trace.to_dict(), sort_keys=True) == trace_json(full)

    def test_research_detects_unreachable_depth(self):
        from repro.core.violation import Violation

        bogus = Violation("SumWithinBound", PendingTrace(1), kind="state")
        with pytest.raises(RuntimeError, match="re-search"):
            research_violation(CounterSpec(n_nodes=2, maximum=4, bound=5), bogus)

    def test_fast_rejects_edge_keeping_store(self):
        with pytest.raises(ValueError, match="traceless"):
            BFSExplorer(CounterSpec(), fast=True, store=CompactStore())

    def test_store_bytes_gauge_published(self):
        registry = MetricsRegistry()
        BFSExplorer(
            CounterSpec(n_nodes=3, maximum=3),
            fast=True,
            metrics=registry,
            progress=lambda stats: None,
            progress_interval=10,
        ).run()
        assert registry.gauge(STORE_BYTES).value > 0

    @pytest.mark.skipif(not fork_available, reason="needs fork")
    def test_parallel_fast_census_and_trace(self):
        full = BFSExplorer(CounterSpec(n_nodes=3, maximum=3)).run()
        fast = bfs_explore(CounterSpec(n_nodes=3, maximum=3), workers=2, fast=True)
        assert fast.stats.distinct_states == full.stats.distinct_states
        assert fast.stats.transitions == full.stats.transitions

        reference = BFSExplorer(CounterSpec(n_nodes=2, maximum=4, bound=5)).run()
        found = bfs_explore(
            CounterSpec(n_nodes=2, maximum=4, bound=5), workers=2, fast=True
        )
        assert found.stop_reason == StopReason.VIOLATION
        assert trace_json(found) == trace_json(reference)


# ---------------------------------------------------------------------------
# store seams: compact interning
# ---------------------------------------------------------------------------


class TestCompactInterning:
    def test_action_names_interned_once(self):
        store = CompactStore()
        store.record_init(0, Rec(x=0))
        for fp in range(1, 1001):
            store.record(fp, fp - 1, "OnlyAction" if fp % 2 else "OtherAction")
        assert sorted(store._action_names) == ["OnlyAction", "OtherAction"]
        assert len(store._action_ids) == 2
        assert len(store.chain(1000)) == 1001

    def test_interning_under_symmetry_reconstructs_traces(self):
        result = BFSExplorer(
            CounterSpec(n_nodes=3, maximum=4, bound=5),
            symmetry=True,
            store=CompactStore(),
        ).run()
        assert result.stop_reason == StopReason.VIOLATION
        trace = result.violation.trace
        assert trace.depth == 6
        # replay the reconstructed trace action-by-action from the init
        state = trace.initial
        for step in trace.steps:
            assert step.action == "Increment"
            state = step.state
        assert sum(state["counters"].values()) == 6

    def test_symmetric_census_interns_single_action(self):
        store = CompactStore()
        BFSExplorer(CounterSpec(n_nodes=3, maximum=3), symmetry=True, store=store).run()
        assert store._action_names == ["Increment"]


# ---------------------------------------------------------------------------
# durable fast runs: kill, resume, artifacts
# ---------------------------------------------------------------------------


class _Killed(RuntimeError):
    pass


def _kill_after(n):
    count = 0

    def hook(_info):
        nonlocal count
        count += 1
        if count >= n:
            raise _Killed(f"checkpoint {count}")

    return hook


class TestFastDurable:
    def test_kill_and_resume_fast_census(self, tmp_path):
        from repro.persist import run_check

        baseline = BFSExplorer(CounterSpec(n_nodes=2, maximum=4), fast=True).run()
        run_dir = tmp_path / "run"
        with pytest.raises(_Killed):
            run_check(
                CounterSpec(n_nodes=2, maximum=4),
                run_dir,
                fast=True,
                checkpoint_states=7,
                memory_budget=16,
                on_checkpoint=_kill_after(2),
            )
        resumed = run_check(
            CounterSpec(n_nodes=2, maximum=4),
            run_dir,
            resume=True,
            fast=True,
            checkpoint_states=7,
            memory_budget=16,
        )
        assert resumed.stats.distinct_states == baseline.stats.distinct_states == 25
        assert resumed.stats.transitions == baseline.stats.transitions
        assert resumed.stats.max_depth == baseline.stats.max_depth

    def test_resume_refuses_fast_flip(self, tmp_path):
        from repro.persist import RunDirError, run_check

        run_dir = tmp_path / "run"
        with pytest.raises(_Killed):
            run_check(
                CounterSpec(n_nodes=2, maximum=4),
                run_dir,
                fast=True,
                checkpoint_states=7,
                memory_budget=16,
                on_checkpoint=_kill_after(1),
            )
        with pytest.raises(RunDirError):
            run_check(
                CounterSpec(n_nodes=2, maximum=4),
                run_dir,
                resume=True,
                fast=False,
                checkpoint_states=7,
                memory_budget=16,
            )

    def test_fast_violation_artifact_is_researched(self, tmp_path):
        from repro.persist import load_violation, run_check

        reference = BFSExplorer(CounterSpec(n_nodes=2, maximum=4, bound=5)).run()
        result = run_check(
            CounterSpec(n_nodes=2, maximum=4, bound=5),
            tmp_path / "run",
            fast=True,
            checkpoint_states=7,
            memory_budget=16,
        )
        assert result.stop_reason == StopReason.VIOLATION
        assert not result.violation.trace.pending
        assert trace_json(result) == trace_json(reference)
        saved = load_violation(tmp_path / "run" / "artifacts" / "violation.json")
        assert json.dumps(saved.trace.to_dict(), sort_keys=True) == trace_json(
            reference
        )


# ---------------------------------------------------------------------------
# differential matrix coverage of the new cells
# ---------------------------------------------------------------------------


class TestDifferentialCells:
    def test_matrix_includes_reducer_cells(self):
        from repro.testkit import build_matrix, generate_spec

        generated = generate_spec("fastpor:matrix", None)
        names = {config.name for config in build_matrix(generated, parallel=True)}
        expected = {
            "census/fast-serial",
            "census/fast-disk",
            "census/fast-resume",
        }
        assert expected <= names
        if generated.planted is not None:
            assert {
                "violation/fast-serial",
                "violation/exhaustive-serial",
                "violation/fast-exhaustive-resume",
            } <= names

    def test_forced_flags_drop_incompatible_cells(self):
        from repro.testkit import build_matrix, generate_spec

        generated = generate_spec("fastpor:forced", None)
        forced = build_matrix(generated, parallel=True, fast=True)
        assert forced, "forced matrix must not be empty"
        for config in forced:
            assert config.fast
        # forcing collapses cells that became one configuration
        distinct = {dataclasses.replace(config, name="") for config in forced}
        assert len(distinct) == len(forced)

    def test_small_sweep_is_clean(self):
        from repro.testkit import run_differential

        report = run_differential(2, seed="fastpor:sweep", parallel=False)
        assert report.ok, report.describe()


# ---------------------------------------------------------------------------
# fingerprints stay plain ints end to end (fast-store contract)
# ---------------------------------------------------------------------------


def test_fingerprint_fits_fast_store():
    fp = fingerprint(Rec(x=1, y=Rec(z=(1, 2, 3))))
    store = FingerprintOnlyStore()
    store.record(fp, None, "")
    assert store.seen(fp)
