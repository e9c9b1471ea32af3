"""Layer microbenches: public functions of one module driven on real data.

Each group belongs to the workload whose layer it measures and runs in
that workload's traced child, after the verdict, on corpora harvested
from the workload's own spec — so ``core.state.encode_delta_us`` on
``raft_deeplog_serial`` is the deep-log corpus and on
``pysyncobj_exhaust_serial`` the small-state one, under one name.
Everything is best-of-``REPEATS`` (the minimum is the least-interference
estimate of a fixed cost); ``--seed`` draws the random fingerprints and
probe samples, the BFS harvest itself is deterministic.
"""

import random
import time
from collections import deque, namedtuple

from repro.core import bfs_explore
from repro.core.compile import compile_spec
from repro.core.engine import (
    CompactStore,
    FingerprintOnlyStore,
    InMemoryStateStore,
    SearchStats,
)
from repro.core.state import decode, encode, fingerprint, set_delta_codec
from repro.core.symmetry import SymmetryReducer
from repro.dist.wire import decode_message, encode_message
from repro.persist import DiskStore
from repro.persist.checkpoint import read_checkpoint, write_checkpoint
from repro.tracecheck.logfmt import parse_lines, render_lines

REPEATS = 5
#: corpus sizes at full scale; the smoke scale divides them all
SMOKE_DIVISOR = 20
CORPUS_STATES = 2_000
#: resident fingerprints per store; the two spilling stores get ten times
#: more so they hold several sorted segments
STORE_RESIDENT = 100_000
STORE_PROBES = 100_000
WIRE_BATCH = 1_024
CHECKPOINT_FRONTIER = 10_000


#: what a group gets: the set-up workload, the run's seed, a scratch
#: directory, the child's ``Calibrator.slowdown`` and the size divisor
Context = namedtuple("Context", "workload seed scratch slowdown div")


def best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def harvest(spec, limit, canonical=None):
    """The first ``limit`` states in BFS order, with their fingerprint,
    parent fingerprint, action and depth — a hand-rolled BFS over the
    public spec surface, so the corpus does not depend on the engine."""
    seen = set()
    rows = []
    queue = deque()
    for init in spec.init_states():
        state = canonical(init) if canonical else init
        fp = fingerprint(state)
        if fp not in seen:
            seen.add(fp)
            rows.append((state, fp, None, "<init>", 0))
            queue.append((state, fp, 0))
    while queue and len(rows) < limit:
        state, fp, depth = queue.popleft()
        if not spec.state_constraint(state):
            continue
        for transition in spec.successors(state):
            child = canonical(transition.target) if canonical else transition.target
            child_fp = fingerprint(child)
            if child_fp in seen:
                continue
            seen.add(child_fp)
            rows.append((child, child_fp, fp, transition.action, depth + 1))
            queue.append((child, child_fp, depth + 1))
            if len(rows) >= limit:
                break
    return rows


def codec_group(ctx):
    """encode (delta on/off), decode and encoded size on the first 2,000
    BFS states and their fresh successors."""
    spec = ctx.workload.spec
    parents = [row[0] for row in harvest(spec, CORPUS_STATES // ctx.div)]

    def encode_pass():
        # Successors are regenerated untimed for every pass: only a child
        # still carrying its functional-update chain can be delta-encoded.
        total = 0.0
        count = 0
        clock = time.perf_counter
        for parent in parents:
            children = [t.target for t in spec.successors(parent)]
            started = clock()
            for child in children:
                encode(child)
            total += clock() - started
            count += len(children)
        return total, count

    def best_encode(delta):
        previous = set_delta_codec(delta)
        try:
            passes = [encode_pass() for _ in range(REPEATS)]
        finally:
            set_delta_codec(previous)
        total, count = min(passes)
        return total / count * 1e6

    encoded = [encode(state) for state in parents]
    decode_s = best_of(lambda: [decode(data) for data in encoded])
    return {
        "core.state.encode_delta_us": best_encode(True),
        "core.state.encode_full_us": best_encode(False),
        "core.state.decode_us": decode_s / len(encoded) * 1e6,
        "core.state.encoded_bytes_mean": sum(map(len, encoded)) / len(encoded),
    }


def _store_factories(scratch, resident):
    return {
        "inmemory": (InMemoryStateStore, resident),
        "compact": (CompactStore, resident),
        "fingerprintonly": (FingerprintOnlyStore, resident * 10),
        "disk": (
            lambda: DiskStore(scratch / "microstore", memory_budget=resident),
            resident * 10,
        ),
    }


def store_group(ctx):
    """seen/record of every store at a fixed residency, random 64-bit fps."""
    out = {}
    probes = STORE_PROBES // ctx.div
    factories = _store_factories(ctx.scratch, STORE_RESIDENT // ctx.div)
    for label, (factory, resident) in factories.items():
        rng = random.Random(ctx.seed)
        fps = [rng.getrandbits(64) for _ in range(resident)]
        hits = rng.sample(fps, probes)
        misses = [rng.getrandbits(64) for _ in range(probes)]
        parent = fps[0]
        store = factory()
        record = store.record
        started = time.perf_counter()
        for fp in fps:
            record(fp, parent, "Act")
        insert_s = time.perf_counter() - started
        seen = store.seen
        hit_s = best_of(lambda: [seen(fp) for fp in hits])
        miss_s = best_of(lambda: [seen(fp) for fp in misses])
        prefix = f"core.engine.store.{label}."
        out[prefix + "insert_ns"] = insert_s / resident * 1e9
        out[prefix + "probe_hit_ns"] = hit_s / probes * 1e9
        out[prefix + "probe_miss_ns"] = miss_s / probes * 1e9
        footprint = store.estimated_bytes()
        if isinstance(store, DiskStore):
            # its estimate is the resident index only; the states are on disk
            store.close()
            footprint += sum(path.stat().st_size for path in store.path.iterdir())
        out[prefix + "bytes_per_state"] = footprint / resident
    return out


def wire_group(ctx):
    """encode_message/decode_message on absorb batches of real codec bytes."""
    rows = harvest(ctx.workload.spec, WIRE_BATCH // ctx.div)
    batch = [
        (encode(state), fp, parent, action, depth)
        for state, fp, parent, action, depth in rows
    ]
    message = ("absorb", batch)
    payload = encode_message(message)
    return {
        "dist.wire.encode_message_us_per_state": best_of(lambda: encode_message(message))
        / len(batch)
        * 1e6,
        "dist.wire.decode_message_us_per_state": best_of(lambda: decode_message(payload))
        / len(batch)
        * 1e6,
    }


def symmetry_group(ctx):
    """canonical() cost and mean orbit size on the first 2,000 canonical states."""
    spec = ctx.workload.spec
    reducer = SymmetryReducer(spec.symmetry_sets())
    states = [row[0] for row in harvest(spec, CORPUS_STATES // ctx.div, reducer.canonical)]
    canonical = reducer.canonical
    canon_s = best_of(lambda: [canonical(state) for state in states], repeats=3)
    orbit = sum(len(reducer.orbit(state)) for state in states) / len(states)
    return {
        "core.symmetry.us_per_canonical": canon_s / len(states) * 1e6,
        "core.symmetry.reduction_ratio": orbit,
    }


def persist_group(ctx):
    """Checkpoint write/read at a 10k-state frontier, and the in-memory
    serial run of the same spec the durable run is compared against."""
    workload = ctx.workload
    rows = harvest(workload.spec, CHECKPOINT_FRONTIER // ctx.div)
    store = InMemoryStateStore()
    for state, fp, parent, action, _depth in rows:
        if parent is None:
            store.record_init(fp, state)
        else:
            store.record(fp, parent, action)
    frontier = [(state, fp, depth) for state, fp, _p, _a, depth in rows]
    path = ctx.scratch / "micro.ckpt"
    write_s = best_of(
        lambda: write_checkpoint(path, stats=SearchStats(), store=store, frontier=frontier)
    )
    size = path.stat().st_size
    read_s = best_of(lambda: read_checkpoint(path).frontier_items())
    # One long run, not a best-of: corrected by the spin like the run it
    # is compared with (``slowdown`` is the child's Calibrator.slowdown).
    started = time.monotonic()
    reference = bfs_explore(workload.spec, max_depth=workload.size["max_depth"])
    ended = time.monotonic()
    reference_s = (ended - started) / ctx.slowdown(started, ended)
    return {
        "persist.checkpoint.write_ms_10k_frontier": write_s * 1e3,
        "persist.checkpoint.read_ms_10k_frontier": read_s * 1e3,
        "persist.checkpoint.bytes_10k_frontier": size * CHECKPOINT_FRONTIER / len(rows),
        "inmemory_reference_s": reference_s,
        "inmemory_reference_states": reference.stats.distinct_states,
    }


def logfmt_group(ctx):
    texts = ctx.workload.logs
    logs = [parse_lines(text) for text in texts]
    lines = sum(len(text) for text in texts)
    parse_s = best_of(lambda: [parse_lines(text) for text in texts])
    render_s = best_of(lambda: [render_lines(log.header, log.events) for log in logs])
    return {
        "tracecheck.logfmt.parse_lines_per_s": lines / parse_s,
        "tracecheck.logfmt.render_lines_per_s": lines / render_s,
    }


GROUPS = {
    "raft_deeplog_serial": codec_group,
    "grid_fast_serial": store_group,
    "pysyncobj_exhaust_serial": codec_group,
    "pysyncobj_exhaust_workers2": wire_group,
    "raftos_exhaust_symmetry": symmetry_group,
    "raftos_durable_liveness": persist_group,
    "pysyncobj_tracecheck_walklogs": logfmt_group,
}


def run_group(ctx):
    """Run the microbench of the workload's layer; every traced child also
    times ``compile_spec`` on its own source spec."""
    out = GROUPS[ctx.workload.name](ctx)
    source = ctx.workload.source
    out["core.compile.compile_spec_s"] = best_of(lambda: compile_spec(source))
    return out
