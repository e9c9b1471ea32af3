"""Persistence overhead: disk-backed durable runs vs. in-memory BFS.

TLC's disk fingerprint set is what lets model checking outgrow RAM; the
cost is extra I/O on the hot path.  This benchmark measures that cost
for the ``repro.persist`` layer on a real spec: the same BFS run with
(a) the in-memory store, (b) the disk store with a roomy memory
budget (edge log only), (c) the disk store with a tiny budget (constant
segment spills and probes), and (d) a full durable run — disk store
plus periodic checkpoints.  All four must report identical exploration
results; the table records the throughput each one sustains.
"""

import time

import pytest

from repro.core import bfs_explore
from repro.core.engine import CompactStore, ExplorationEngine, FIFOFrontier, StepChecker
from repro.persist import DiskStore, run_check
from repro.specs.raft import RaftConfig, RaftOSSpec

from conftest import fmt_row

MAX_STATES = 20_000
WIDTHS = (26, 10, 12, 10, 10)


def make_spec():
    return RaftOSSpec(RaftConfig(nodes=("n1", "n2")))


def run_engine(store):
    spec = make_spec()
    engine = ExplorationEngine(
        spec,
        FIFOFrontier(),
        store=store,
        checker=StepChecker(spec),
        max_states=MAX_STATES,
    )
    started = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - started


def test_disk_store_overhead(tmp_path, emit):
    rows = []

    baseline, base_s = run_engine(CompactStore())

    roomy = DiskStore(tmp_path / "roomy", memory_budget=1_000_000)
    roomy_result, roomy_s = run_engine(roomy)
    roomy.close()

    tiny = DiskStore(tmp_path / "tiny", memory_budget=2_000, max_segments=4)
    tiny_result, tiny_s = run_engine(tiny)
    tiny.close()

    started = time.perf_counter()
    durable = run_check(
        make_spec(),
        tmp_path / "durable",
        max_states=MAX_STATES,
        checkpoint_states=5_000,
        memory_budget=1_000_000,
    )
    durable_s = time.perf_counter() - started

    for result in (roomy_result, tiny_result, durable):
        assert result.stats.distinct_states == baseline.stats.distinct_states
        assert result.stats.transitions == baseline.stats.transitions
        assert result.stop_reason == baseline.stop_reason

    header = fmt_row(
        ("store", "states", "states/s", "time s", "vs mem"), WIDTHS
    )
    rows.append(header)
    rows.append("-" * len(header))
    for label, result, elapsed in (
        ("in-memory dict", baseline, base_s),
        ("disk (log only)", roomy_result, roomy_s),
        ("disk (segment spills)", tiny_result, tiny_s),
        ("disk + checkpoints", durable, durable_s),
    ):
        rows.append(
            fmt_row(
                (
                    label,
                    result.stats.distinct_states,
                    f"{result.stats.distinct_states / elapsed:,.0f}",
                    f"{elapsed:.2f}",
                    f"{elapsed / base_s:.2f}x",
                ),
                WIDTHS,
            )
        )
    emit("persist_overhead", rows)
