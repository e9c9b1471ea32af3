"""Fast-mode memory ceiling.

A million-state census through the traceless
:class:`~repro.core.engine.FingerprintOnlyStore` must cost at most 16
bytes per state of store memory (8 bytes of payload + amortized
set/segment overhead), measured by the store's own ``estimated_bytes``
and cross-checked against process peak RSS.

Results go to ``BENCH_fast.json`` at the repo root.  CI shrinks the
memory cell with ``SANDTABLE_BENCH_FAST_STATES``.
"""

import json
import math
import os
import pathlib
import resource
import time

from repro.core import Action, BFSExplorer, StopReason
from repro.core.engine import FingerprintOnlyStore
from repro.core.state import Rec

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_fast.json"

#: The acceptance measurement is one million distinct states; CI boxes
#: shrink it (the bytes/state bound must hold at every size).
TARGET_STATES = int(os.environ.get("SANDTABLE_BENCH_FAST_STATES", "1000000"))


def make_grid_spec(target_states: int):
    """A ``(maximum + 1) ** n`` counter grid sized to ``target_states``.

    Independent per-node counters give a dense, cheap state space whose
    exact size is known in closed form — the memory cell measures the
    store, not the spec.
    """
    from repro.core import Spec

    maximum = 9
    n_nodes = max(2, math.ceil(math.log(target_states, maximum + 1)))

    class GridCounterSpec(Spec):
        name = "grid-counters"

        def __init__(self):
            self.nodes = tuple(f"n{i}" for i in range(1, n_nodes + 1))

        def init_states(self):
            yield Rec(counters=Rec({n: 0 for n in self.nodes}))

        def actions(self):
            return [Action("Increment", self._increment)]

        def _increment(self, state):
            counters = state["counters"]
            for node in self.nodes:
                if counters[node] < maximum:
                    yield (
                        (node,),
                        state.set("counters", counters.apply(node, lambda c: c + 1)),
                    )

    return GridCounterSpec(), (maximum + 1) ** n_nodes


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def bench_memory():
    spec, expected_states = make_grid_spec(TARGET_STATES)
    explorer = BFSExplorer(spec, fast=True)
    start = time.perf_counter()
    result = explorer.run()
    elapsed = time.perf_counter() - start
    assert result.stop_reason == StopReason.EXHAUSTED
    assert result.stats.distinct_states == expected_states
    store = explorer.store
    assert isinstance(store, FingerprintOnlyStore)
    bytes_per_state = store.estimated_bytes() / len(store)
    return {
        "cell": "fast-memory",
        "states": result.stats.distinct_states,
        "transitions": result.stats.transitions,
        "elapsed_sec": round(elapsed, 2),
        "states_per_sec": round(result.stats.distinct_states / elapsed, 1),
        "store_bytes": store.estimated_bytes(),
        "bytes_per_state": round(bytes_per_state, 2),
        "peak_rss_kb": peak_rss_kb(),
    }, bytes_per_state


def test_fast_memory(emit):
    memory_cell, bytes_per_state = bench_memory()
    report = {
        "benchmark": "fast_mode",
        "target_states": TARGET_STATES,
        "cells": [memory_cell],
        "peak_rss_kb": peak_rss_kb(),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    emit(
        "fast_mode",
        [
            f"fast-memory: {memory_cell['states']} states at "
            f"{memory_cell['bytes_per_state']} bytes/state "
            f"({memory_cell['states_per_sec']:.0f} states/sec, "
            f"peak RSS {memory_cell['peak_rss_kb']} kB)",
            f"written: {BENCH_PATH}",
        ],
    )
    # Acceptance: <= 16 bytes/state at any size.
    assert bytes_per_state <= 16, memory_cell
