"""The seven workloads: what each sets up, runs, and reports as its verdict.

Every workload is a class with

* ``sizes`` — the committed caps, per scale (``full`` is what is
  benchmarked, ``smoke`` is ~1/20 of it for ``test_suite_smoke.py``);
* ``setup(size, seed)`` — spec construction, compilation, seed/log
  generation: everything ``setup_s`` pays for;
* ``run(harness)`` — the measured part.  Untraced, it calls the public
  API the way a user does (``bfs_explore``, ``run_check``,
  ``validate_log``); traced (``harness.tracer`` set), it builds the same
  run from the public constructors with timing proxies on the seams.
  Either way it returns the verdict dict that ``expected.json`` gates,
  and the traced and untraced verdicts must be identical.

``run`` brackets each top-level call in ``harness.phase(name)``; the
phase named ``explore`` is the exploration call ``states_per_s`` is
defined over.
"""

import random

from repro.core import BFSExplorer, Rec, bfs_explore
from repro.core.compile import compile_spec
from repro.core.engine import (
    ExplorationEngine,
    FIFOFrontier,
    FingerprintOnlyStore,
    InMemoryStateStore,
    StepChecker,
    action_kinds,
)
from repro.core.spec import Action, Spec
from repro.core.state import fingerprint
from repro.core.symmetry import SymmetryReducer
from repro.obs.metrics import MetricsRegistry
from repro.persist import DiskStoreReader, run_check
from repro.persist.rundir import RunDir
from repro.specs.raft import PySyncObjSpec, RaftConfig, RaftOSSpec
from repro.specs.raft import messages as msg
from repro.specs.raft.base import LEADER
from repro.temporal import check_graph, materialize_graph, resolve_property
from repro.tracecheck.logfmt import LogEvent, LogHeader, observe, parse_lines, render_lines
from repro.tracecheck.matcher import validate_log

#: Table 3 experiment #1 constraints (benchmarks/test_table3_exploration.py).
EXP1_KW = dict(
    values=("v1",),
    max_timeouts=2,
    max_requests=1,
    max_crashes=0,
    max_restarts=0,
    max_partitions=1,
    max_drops=0,
    max_dups=0,
    max_buffer=3,
    max_term=2,
)


def census(result):
    stats = result.stats
    return {
        "distinct_states": stats.distinct_states,
        "transitions": stats.transitions,
        "max_depth": stats.max_depth,
        "stop_reason": str(result.stop_reason),
        "violation": result.violation.invariant if result.violation else None,
    }


def traced_bfs(harness, compiled, store, symmetry=False, **bounds):
    """``BFSExplorer(...).run()`` rebuilt from its public parts, traced.

    The reducer keeps the raw ``fingerprint`` as its key so the |G|-1
    fingerprints it takes per transition stay inside the ``canonical``
    span; the engine's own fingerprint call is the ``fingerprint`` span.
    The frontier is read at every 1,000th new state through the progress
    seam, so its peak is sampled at the same points on every run.
    """
    tracer = harness.tracer
    spec = tracer.spec(compiled, "explore")
    reducer = None
    if symmetry:
        reducer = tracer.reducer(
            SymmetryReducer(compiled.symmetry_sets(), key=fingerprint), "explore"
        )
    strategy = FIFOFrontier()
    peak = [0]

    def watch_frontier(stats):
        peak[0] = max(peak[0], len(strategy.frontier))

    engine = ExplorationEngine(
        spec,
        strategy,
        store=tracer.store(store, "explore"),
        checker=StepChecker(spec),
        reducer=reducer,
        fingerprint_fn=tracer.fn(fingerprint, "explore", "fingerprint"),
        progress=watch_frontier,
        progress_interval=1_000,
        **bounds,
    )
    result = engine.run()
    harness.counts["frontier_peak"] = peak[0]
    return result


class Workload:
    name = ""
    sizes = {}

    def setup(self, size, seed):
        raise NotImplementedError

    def run(self, harness):
        raise NotImplementedError


# -- 1. deep-log Raft ----------------------------------------------------------


def deep_log_seed(spec, log_len):
    """``log_len`` entries replicated and committed on every node,
    ``nodes[0]`` leading at term 2, all budgets unspent (the
    BENCH_compile.json cell, benchmarks/test_compile_speedup.py)."""
    (init,) = list(spec.init_states())
    nodes = spec.nodes
    values = spec.config.values
    terms = tuple(1 if i < log_len // 2 else 2 for i in range(log_len))
    log = tuple(msg.entry(t, values[i % len(values)]) for i, t in enumerate(terms))
    leader = nodes[0]
    return init.update(
        role=init["role"].set(leader, LEADER),
        currentTerm=Rec({n: 2 for n in nodes}),
        votedFor=Rec({n: leader for n in nodes}),
        log=Rec({n: log for n in nodes}),
        commitIndex=Rec({n: log_len for n in nodes}),
        nextIndex=init["nextIndex"].set(
            leader, Rec({p: log_len + 1 for p in nodes if p != leader})
        ),
        matchIndex=init["matchIndex"].set(
            leader, Rec({p: log_len for p in nodes if p != leader})
        ),
        votesGranted=init["votesGranted"].set(leader, frozenset(nodes)),
    )


def deep_log_spec(log_len=28):
    config = RaftConfig(
        nodes=("n1", "n2", "n3", "n4", "n5"),
        values=("v1", "v2"),
        max_timeouts=2,
        max_requests=2,
        max_crashes=0,
        max_restarts=0,
        max_partitions=0,
        max_drops=0,
        max_dups=0,
        max_buffer=4,
        max_term=3,
    )
    seed_state = deep_log_seed(PySyncObjSpec(config), log_len)

    class SeededPySyncObjSpec(PySyncObjSpec):
        def init_states(self):
            return [seed_state]

    return SeededPySyncObjSpec(config)


class RaftDeepLogSerial(Workload):
    name = "raft_deeplog_serial"
    sizes = {"full": {"max_states": 20_000}, "smoke": {"max_states": 1_000}}

    def setup(self, size, seed):
        self.max_states = size["max_states"]
        self.source = deep_log_spec()
        self.spec = compile_spec(self.source)

    def run(self, harness):
        with harness.phase("explore"):
            if harness.tracer:
                result = traced_bfs(
                    harness, self.spec, InMemoryStateStore(), max_states=self.max_states
                )
            else:
                result = bfs_explore(self.spec, max_states=self.max_states)
        return census(result)


# -- 2. counter grid, fast mode ------------------------------------------------


class GridCounterSpec(Spec):
    """``values ** counters`` states in closed form, no invariants."""

    name = "grid-counters"

    def __init__(self, counters, values):
        self.nodes = tuple(f"n{i}" for i in range(1, counters + 1))
        self.maximum = values - 1

    def init_states(self):
        yield Rec(counters=Rec({n: 0 for n in self.nodes}))

    def actions(self):
        return [Action("Increment", self._increment)]

    def _increment(self, state):
        counters = state["counters"]
        for node in self.nodes:
            if counters[node] < self.maximum:
                yield (node,), state.set("counters", counters.apply(node, lambda c: c + 1))


class GridFastSerial(Workload):
    name = "grid_fast_serial"
    sizes = {"full": {"counters": 6, "values": 7}, "smoke": {"counters": 4, "values": 9}}

    def setup(self, size, seed):
        self.expected_states = size["values"] ** size["counters"]
        self.source = GridCounterSpec(size["counters"], size["values"])
        self.spec = compile_spec(self.source)

    def run(self, harness):
        with harness.phase("explore"):
            if harness.tracer:
                store = FingerprintOnlyStore()
                result = traced_bfs(harness, self.spec, store)
            else:
                explorer = BFSExplorer(self.spec, fast=True)
                result = explorer.run()
                store = explorer.store
        verdict = census(result)
        verdict["closed_form_states"] = self.expected_states
        harness.counts["store_bytes_per_state"] = store.estimated_bytes() / len(store)
        return verdict


# -- 3/4. PySyncObj Table 3 exp #1, serial and two workers ----------------------


class PySyncObjExhaustSerial(Workload):
    name = "pysyncobj_exhaust_serial"
    #: the smoke cap is a depth, not a state count: only a level cut gives
    #: the serial and the two-worker run the same census
    sizes = {"full": {"max_depth": None}, "smoke": {"max_depth": 7}}
    workers = 1

    def setup(self, size, seed):
        self.max_depth = size["max_depth"]
        self.source = PySyncObjSpec(RaftConfig(**EXP1_KW))
        self.spec = compile_spec(self.source)

    def run(self, harness):
        with harness.phase("explore"):
            if harness.tracer:
                result = traced_bfs(
                    harness, self.spec, InMemoryStateStore(), max_depth=self.max_depth
                )
            else:
                result = bfs_explore(self.spec, max_depth=self.max_depth)
        return census(result)


class PySyncObjExhaustWorkers2(PySyncObjExhaustSerial):
    name = "pysyncobj_exhaust_workers2"
    workers = 2

    def run(self, harness):
        # Workers are forked processes: spec proxies would time nothing the
        # parent can read.  The traced round observes this layer through the
        # MetricsRegistry seam instead.
        metrics = MetricsRegistry() if harness.tracer else None
        with harness.phase("explore"):
            result = bfs_explore(
                self.spec, workers=self.workers, max_depth=self.max_depth, metrics=metrics
            )
        harness.counts["engine_elapsed_s"] = result.stats.elapsed
        if metrics is not None:
            harness.counts["registry"] = metrics.snapshot()
        return census(result)


# -- 5. RaftOS under symmetry reduction -----------------------------------------


class RaftOSExhaustSymmetry(Workload):
    name = "raftos_exhaust_symmetry"
    sizes = {"full": {"max_states": 3_000}, "smoke": {"max_states": 150}}

    def setup(self, size, seed):
        self.max_states = size["max_states"]
        self.source = RaftOSSpec(RaftConfig(**EXP1_KW))
        self.spec = compile_spec(self.source)

    def run(self, harness):
        with harness.phase("explore"):
            if harness.tracer:
                result = traced_bfs(
                    harness,
                    self.spec,
                    InMemoryStateStore(),
                    symmetry=True,
                    max_states=self.max_states,
                )
            else:
                result = bfs_explore(self.spec, symmetry=True, max_states=self.max_states)
        harness.counts["group_size"] = SymmetryReducer(self.spec.symmetry_sets()).group_size
        return census(result)


# -- 6. durable run, then post-hoc liveness on the run dir ----------------------


class RaftOSDurableLiveness(Workload):
    name = "raftos_durable_liveness"
    sizes = {
        "full": {"max_depth": None, "memory_budget": 8_000, "checkpoint_states": 5_000},
        "smoke": {"max_depth": 6, "memory_budget": 400, "checkpoint_states": 250},
    }
    property_name = "eventually-elects-leader"

    def setup(self, size, seed):
        self.size = size
        self.source = RaftOSSpec(RaftConfig(**EXP1_KW))
        self.spec = compile_spec(self.source)
        self.prop = resolve_property(self.spec, self.property_name)

    def run(self, harness):
        tracer = harness.tracer
        run_dir = harness.scratch / "run"
        # run_check builds its own DiskStore and fingerprints with the
        # module default, so of the engine seams only the spec is reachable
        # in a traced run; the store shows through the registry.
        spec = tracer.spec(self.spec, "explore") if tracer else self.spec
        metrics = MetricsRegistry() if tracer else None
        checkpoints = []
        with harness.phase("explore"):
            result = run_check(
                spec,
                run_dir,
                max_depth=self.size["max_depth"],
                memory_budget=self.size["memory_budget"],
                checkpoint_states=self.size["checkpoint_states"],
                compiled=not tracer,
                metrics=metrics,
                on_checkpoint=checkpoints.append,
            )
        verdict = census(result)
        store_dir = RunDir.open(run_dir).store_dir
        harness.counts["disk_bytes"] = sum(
            path.stat().st_size for path in store_dir.iterdir() if path.is_file()
        )
        with harness.phase("reader_open"):
            reader = DiskStoreReader(store_dir)
        with harness.phase("materialize"):
            if tracer:
                graph = materialize_graph(
                    tracer.spec(self.spec, "materialize"),
                    reader,
                    fp_fn=tracer.fn(fingerprint, "materialize", "fingerprint"),
                )
            else:
                graph = materialize_graph(self.spec, reader)
        with harness.phase("check_graph"):
            temporal = check_graph(graph, self.prop)
        verdict.update(
            graph_states=len(graph),
            graph_unreached=graph.unreached,
            property_holds=temporal.holds,
            lasso_prefix_len=temporal.lasso.prefix_length if temporal.lasso else None,
            scc_count=temporal.scc_count,
        )
        harness.counts["checkpoints"] = len(checkpoints)
        if tracer:
            harness.counts["registry"] = metrics.snapshot()
        return verdict


# -- 7. trace validation of random-walk logs ------------------------------------


def walk_events(spec, kinds, rng, length, observed):
    """One random walk of ``spec`` as a clean log: every event keeps only
    its coarse ``kind`` and the ``observed`` projection of the post-state,
    so the matcher has real nondeterminism to track."""
    nodes = frozenset(spec.nodes)
    state = next(iter(spec.init_states()))
    events = []
    for _ in range(length):
        transitions = list(spec.successors(state))
        if not transitions:
            break
        transition = transitions[rng.randrange(len(transitions))]
        node = transition.args[0] if transition.args and transition.args[0] in nodes else ""
        events.append(
            LogEvent(
                node=node,
                kind=kinds[transition.action],
                obs=observe(transition.target, node, observed),
            )
        )
        state = transition.target
    return events


class PySyncObjTracecheckWalklogs(Workload):
    name = "pysyncobj_tracecheck_walklogs"
    #: many short logs, not few long ones: a 60-event walk's frontier is
    #: heavy-tailed (five logs of 160 were a third of the work), which made
    #: the work differ by 17 % between seeds; at 10 events it differs by <2 %
    sizes = {"full": {"logs": 600, "length": 10}, "smoke": {"logs": 30, "length": 10}}
    observed = ("currentTerm", "role")

    def setup(self, size, seed):
        self.source = PySyncObjSpec(RaftConfig())
        self.spec = compile_spec(self.source)
        kinds = action_kinds(self.spec)
        rng = random.Random(seed)
        header = LogHeader(
            spec=self.spec.name, nodes=tuple(self.spec.nodes), observed=self.observed
        )
        self.logs = [
            render_lines(
                header, walk_events(self.spec, kinds, rng, size["length"], self.observed)
            )
            for _ in range(size["logs"])
        ]

    def run(self, harness):
        tracer = harness.tracer
        spec = tracer.spec(self.spec, "explore") if tracer else self.spec
        metrics = MetricsRegistry() if tracer else None
        conforming = events = candidates = transitions = 0
        for lines in self.logs:
            with harness.phase("parse"):
                log = parse_lines(lines)
            with harness.phase("explore"):
                report = validate_log(spec, log, compiled=not tracer, metrics=metrics)
            conforming += report.conforms
            events += report.events_total
            candidates += report.stats["candidate_states"]
            transitions += report.stats["transitions"]
        harness.counts["lines"] = sum(len(lines) for lines in self.logs)
        if tracer:
            harness.counts["registry"] = metrics.snapshot()
        return {
            "logs": len(self.logs),
            "conforming": conforming,
            "events": events,
            "distinct_states": candidates,
            "transitions": transitions,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        RaftDeepLogSerial,
        GridFastSerial,
        PySyncObjExhaustSerial,
        PySyncObjExhaustWorkers2,
        RaftOSExhaustSymmetry,
        RaftOSDurableLiveness,
        PySyncObjTracecheckWalklogs,
    )
}
