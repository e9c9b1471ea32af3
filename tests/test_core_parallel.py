"""Sharded parallel BFS: equivalence with the serial explorer.

The parallel driver partitions the canonical fingerprint space across
forked workers; on every toy spec it must reach exactly the serial
explorer's distinct-state count, transition count, stop reason, and
minimal-depth counterexamples.
"""

import gc
import itertools
import json
import multiprocessing
import os
import random
import signal
import threading
import time
import warnings
from collections import Counter, deque
from multiprocessing.connection import wait
from types import SimpleNamespace

import pytest

from repro.core import (
    Action,
    CompactStore,
    Invariant,
    Rec,
    Spec,
    StopReason,
    TransitionInvariant,
    Violation,
    bfs_explore,
)
from repro.core import engine as engine_module
from repro.core import parallel as parallel_module
from repro.core.engine import ExplorationEngine, FIFOFrontier, StepChecker
from repro.core.parallel import (
    REBALANCE_SLACK,
    ForkTransport,
    ParallelBFS,
    ShardWorker,
    WorkerDied,
    rebalance_plan,
)
from repro.core.state import fingerprint
from repro.obs.metrics import (
    BATCH_BYTES,
    CLAIMS,
    FALLBACK_SERIAL,
    REBALANCED_STATES,
    VERDICT_MEMO,
    MetricsRegistry,
)
from repro.persist import (
    DiskStore,
    RunDir,
    load_graph_stores,
    parse_checkpoint,
    run_check,
)
from repro.specs.raft import PySyncObjSpec, RaftConfig

from toy_specs import CounterSpec, TokenRingSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel BFS requires the fork start method",
)


class BadEdgeSpec(Spec):
    """Two increments; the second step violates a transition invariant."""

    name = "bad-edge"
    nodes = ("n1",)

    def init_states(self):
        yield Rec(x=0)

    def actions(self):
        return [Action("Inc", self._inc)]

    def _inc(self, state):
        if state["x"] < 3:
            yield (), state.set("x", state["x"] + 1)

    def transition_invariants(self):
        return (
            TransitionInvariant(
                "SmallSteps", lambda pre, tr: tr.target["x"] < 2
            ),
        )


def assert_equivalent(serial, par):
    assert par.stats.distinct_states == serial.stats.distinct_states
    assert par.stats.transitions == serial.stats.transitions
    assert par.stats.max_depth == serial.stats.max_depth
    assert par.exhausted == serial.exhausted
    assert par.stop_reason == serial.stop_reason


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_counter_space(self, workers):
        serial = bfs_explore(CounterSpec(2, 3))
        par = bfs_explore(CounterSpec(2, 3), workers=workers)
        assert_equivalent(serial, par)
        assert serial.exhausted

    def test_token_ring_clean(self):
        serial = bfs_explore(TokenRingSpec(3))
        par = bfs_explore(TokenRingSpec(3), workers=2)
        assert_equivalent(serial, par)
        assert par.violation is None

    def test_max_depth_bound(self):
        serial = bfs_explore(CounterSpec(2, 5), max_depth=3)
        par = bfs_explore(CounterSpec(2, 5), max_depth=3, workers=2)
        assert_equivalent(serial, par)

    def test_symmetry_reduction(self):
        serial = bfs_explore(CounterSpec(3, 3), symmetry=True)
        par = bfs_explore(CounterSpec(3, 3), symmetry=True, workers=2)
        assert_equivalent(serial, par)
        # C(maximum + n, n) multisets under full node symmetry
        assert par.stats.distinct_states == 20

    def test_bfs_explore_workers_kwarg(self):
        result = bfs_explore(CounterSpec(2, 3), workers=2)
        assert result.stats.distinct_states == 16
        assert result.exhausted


class TestSerialFallback:
    """``workers > 1`` on a platform without ``fork`` runs serially and
    says so — one RuntimeWarning and one ``parallel.fallback_serial`` —
    through ``bfs_explore`` and the durable ``run_check`` alike."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

    @staticmethod
    def assert_one_loud_fallback(run):
        registry = MetricsRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(registry)
        loud = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(loud) == 1 and "serial" in str(loud[0].message)
        assert registry.counter(FALLBACK_SERIAL).value == 1
        assert census(result) == census(bfs_explore(CounterSpec(2, 3)))
        assert result.exhausted

    def test_bfs_explore_without_fork_warns_and_counts(self, no_fork):
        self.assert_one_loud_fallback(
            lambda registry: bfs_explore(CounterSpec(2, 3), workers=2, metrics=registry)
        )

    def test_run_check_without_fork_warns_and_counts(self, no_fork, tmp_path):
        self.assert_one_loud_fallback(
            lambda registry: run_check(
                CounterSpec(2, 3), tmp_path / "run", workers=2, metrics=registry
            )
        )
        config = RunDir.open(tmp_path / "run").manifest()["config"]
        assert (config["mode"], config["workers"]) == ("serial", 1)

    def test_workers_1_is_serial_and_counts_nothing(self):
        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = bfs_explore(CounterSpec(2, 3), workers=1, metrics=registry)
        assert registry.snapshot()["counters"].get(FALLBACK_SERIAL, 0) == 0
        assert result.stats.distinct_states == 16 and result.exhausted


class TestStops:
    def test_max_states(self):
        par = bfs_explore(CounterSpec(3, 5), max_states=50, workers=2)
        assert par.stop_reason is StopReason.MAX_STATES
        # parallel checks the bound between levels, so it may overshoot
        # by at most one BFS level — never stop short of the bound
        assert par.stats.distinct_states >= 50
        assert not par.exhausted

    def test_time_budget(self):
        par = bfs_explore(CounterSpec(3, 6), time_budget=0.0, workers=2)
        assert par.stop_reason is StopReason.TIME_BUDGET
        assert not par.exhausted


class TestViolations:
    def test_state_violation_minimal_depth(self):
        serial = bfs_explore(TokenRingSpec(3, buggy=True))
        par = bfs_explore(TokenRingSpec(3, buggy=True), workers=2)
        assert par.stop_reason is StopReason.VIOLATION
        assert par.violation is not None
        assert par.violation.invariant == serial.violation.invariant == "MutualExclusion"
        assert par.violation.kind == "state"
        assert par.violation.depth == serial.violation.depth == 2

    def test_violation_trace_replays(self):
        spec = TokenRingSpec(3, buggy=True)
        par = bfs_explore(TokenRingSpec(3, buggy=True), workers=2)
        trace = par.violation.trace
        state = trace.initial
        assert state in list(spec.init_states())
        for step in trace:
            matches = [
                tr
                for tr in spec.successors(state)
                if tr.action == step.action and tr.target == step.state
            ]
            assert matches, f"step {step.label} does not replay"
            state = step.state
        assert len(state["critical"]) > 1

    def test_transition_violation(self):
        serial = bfs_explore(BadEdgeSpec())
        par = bfs_explore(BadEdgeSpec(), workers=2)
        assert par.violation is not None
        assert par.violation.kind == "transition"
        assert par.violation.invariant == "SmallSteps"
        assert par.violation.depth == serial.violation.depth == 2
        assert par.violation.trace.final_state == Rec(x=2)

    def test_keep_searching_past_violations(self):
        par = bfs_explore(
            TokenRingSpec(3, buggy=True), workers=2, stop_on_violation=False
        )
        serial = bfs_explore(TokenRingSpec(3, buggy=True), stop_on_violation=False)
        assert par.stats.distinct_states == serial.stats.distinct_states
        assert par.exhausted and serial.exhausted
        assert par.violation is not None and par.violation.depth == 2


#: Store factories for the equivalence suite; the disk-backed store gets
#: a deliberately tiny memory budget so every run exercises segment
#: spills and merge compaction, not just the in-memory fast path.
STORE_FACTORIES = [
    pytest.param(lambda tmp: CompactStore(), id="compact"),
    pytest.param(
        lambda tmp: DiskStore(tmp / "store", memory_budget=8, max_segments=3),
        id="disk",
    ),
]


class TestStoreEquivalence:
    """The in-memory and disk stores yield identical BFS results."""

    @pytest.mark.parametrize("spec_fn", [lambda: CounterSpec(2, 3), lambda: TokenRingSpec(3)])
    @pytest.mark.parametrize("store_factory", STORE_FACTORIES)
    def test_identical_results(self, spec_fn, store_factory, tmp_path):
        spec = spec_fn()
        baseline = bfs_explore(spec)
        engine = ExplorationEngine(
            spec, FIFOFrontier(), store=store_factory(tmp_path), checker=StepChecker(spec)
        )
        result = engine.run()
        assert result.stats.distinct_states == baseline.stats.distinct_states
        assert result.stats.transitions == baseline.stats.transitions
        assert result.exhausted == baseline.exhausted

    @pytest.mark.parametrize("store_factory", STORE_FACTORIES)
    def test_violation_traces_match(self, store_factory, tmp_path):
        spec = TokenRingSpec(3, buggy=True)
        baseline = bfs_explore(spec)
        engine = ExplorationEngine(
            spec, FIFOFrontier(), store=store_factory(tmp_path), checker=StepChecker(spec)
        )
        result = engine.run()
        assert result.violation is not None
        assert result.violation.invariant == baseline.violation.invariant
        assert result.violation.depth == baseline.violation.depth
        assert result.violation.trace == baseline.violation.trace


class TestStores:
    def test_compact_store_chain(self):
        store = CompactStore()
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        store.record(101, fingerprint(root), "Inc")
        store.record(202, 101, "Inc")
        chain = store.chain(202)
        assert [fp for fp, _ in chain] == [fingerprint(root), 101, 202]
        assert [action for _, action in chain][1:] == ["Inc", "Inc"]
        assert store.init_state(fingerprint(root)) == root

    def test_compact_store_interns_actions(self):
        store = CompactStore()
        for fp in range(100):
            store.record(fp, None if fp == 0 else fp - 1, "Tick")
        assert len(store._action_names) == 1

    def test_edges_and_roots_merge_seam(self):
        store = CompactStore()
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        store.record(7, fingerprint(root), "Inc")
        edges = dict((fp, (parent, action)) for fp, parent, action in store.edges())
        assert edges[7] == (fingerprint(root), "Inc")
        assert edges[fingerprint(root)][0] is None
        roots = list(store.roots())
        assert roots == [(fingerprint(root), root)]


# -- the claim→settle exchange -----------------------------------------------


class InlineTransport:
    """The shard workers in this process, answered synchronously.

    Deterministic and fast, and a test can look inside every worker.
    ``die=(op, nth)`` loses the worker about to receive the run's nth
    ``op`` (``send`` raises :class:`WorkerDied`, like a broken pipe);
    ``cut=(wid, nth)`` hands worker ``wid`` the budget ``cut_budget``
    seconds — by default none at all — with its nth ``expand``.
    """

    #: where in each reply its violations (``Violation.to_dict`` records) sit
    VIOLATIONS_AT = {"restored": 3, "expanded": 6, "settled": 2}

    def __init__(self, die=None, cut=None, cut_budget=0.0):
        self.die = die
        self.cut = cut
        self.cut_budget = cut_budget
        self.cut_reply = None
        #: (reply kind, Violation) per violation a reply carried
        self.found = []
        self.sent = Counter()
        self.replies = deque()

    def start(self, config):
        self.config = config
        self.workers = [self.spawn(wid) for wid in range(config["workers"])]

    def spawn(self, wid):
        config = self.config
        return ShardWorker(config["spec"], wid, config["workers"], **config["options"])

    def send(self, wid, msg):
        op = msg[0]
        self.sent[op] += 1
        self.sent[op, wid] += 1
        if self.die == (op, self.sent[op]):
            raise WorkerDied(wid, "injected")
        cutting = op == "expand" and self.cut == (wid, self.sent[op, wid])
        if cutting:
            msg = ("expand", self.cut_budget)
        reply = self.workers[wid].handle(msg)
        if cutting:
            self.cut_reply = reply
        if reply[0] in self.VIOLATIONS_AT:
            for raw in reply[self.VIOLATIONS_AT[reply[0]]]:
                self.found.append((reply[0], Violation.from_dict(raw)))
        self.replies.append(reply)

    def recv(self, timeout=1.0):
        return self.replies.popleft()

    def replace(self, wid):
        self.workers[wid] = self.spawn(wid)
        return True

    def close(self):
        pass


class LatePongs(InlineTransport):
    """Worker 1 dies on the first recovery's ping, after worker 0 has
    answered it; worker 0's replies are delivered only when no other
    worker's is waiting, so its pong to that ping reaches the next drain
    (each worker's replies still arrive in order)."""

    def send(self, wid, msg):
        if msg[0] == "ping" and wid == 1 and self.sent["ping"] == 1:
            self.sent["ping"] += 1
            raise WorkerDied(wid, "injected during the drain")
        super().send(wid, msg)

    def recv(self, timeout=1.0):
        for i, reply in enumerate(self.replies):
            if reply[1] != 0:
                del self.replies[i]
                return reply
        return self.replies.popleft()


class Tap:
    """Wrap a real transport; keep the ``checkpointed`` replies: without a
    checkpointer, the shard stores the master merges for the result."""

    def __init__(self, inner):
        self.inner = inner
        self.shards = []

    def recv(self, timeout=1.0):
        msg = self.inner.recv(timeout)
        if msg is not None and msg[0] == "checkpointed":
            self.shards.append(msg)
        return msg

    def merged_edges(self):
        """The per-shard edge lists in worker order, as one JSON string."""
        shards = []
        for _, wid, data in sorted(self.shards, key=lambda m: m[1]):
            parsed = parse_checkpoint(data)
            roots = [(fp, bytes(enc).hex()) for fp, enc in parsed.roots]
            shards.append((wid, list(parsed.edges), roots))
        return json.dumps(shards)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class DieAt:
    """Wrap a real transport: the worker about to receive the run's nth
    ``op`` is sent the test-only ``("die",)`` op in its place."""

    def __init__(self, inner, op, nth):
        self.inner = inner
        self.op = op
        self.nth = nth
        self.seen = 0
        self.victim = None

    def send(self, wid, msg):
        if msg[0] == self.op:
            self.seen += 1
            if self.seen == self.nth:
                self.victim = wid
                msg = ("die",)
        self.inner.send(wid, msg)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def census(result):
    stats = result.stats
    return (stats.distinct_states, stats.transitions, stats.max_depth, stats.pruned)


def trace_json(result):
    return json.dumps(result.violation.trace.to_dict(), sort_keys=True)


def merged_depths(workers):
    """fp -> BFS depth, from the parent edges of every worker's store."""
    parents = {fp: parent for w in workers for fp, parent, _ in w.store.edges()}
    depths = {}

    def depth_of(fp):
        if fp not in depths:
            parent = parents[fp]
            depths[fp] = 0 if parent is None else depth_of(parent) + 1
        return depths[fp]

    for fp in parents:
        depth_of(fp)
    return depths


class TestRebalancePlan:
    def test_quiet_within_slack(self):
        assert rebalance_plan({0: 110, 1: 90}) == {}
        assert rebalance_plan({0: 1, 1: 0}) == {}
        assert rebalance_plan({0: 0, 1: 0, 2: 0}) == {}

    @pytest.mark.parametrize(
        "sizes",
        [{0: 5, 1: 0}, {0: 0, 1: 7, 2: 0}, {0: 120, 1: 80}, {0: 9, 1: 40, 2: 3, 3: 12}],
    )
    def test_levels_to_within_one_state(self, sizes):
        plan = rebalance_plan(sizes)
        assert plan
        after = dict(sizes)
        for donor, moves in plan.items():
            for recipient, count in moves:
                assert count > 0 and recipient != donor
                after[donor] -= count
                after[recipient] += count
        assert sum(after.values()) == sum(sizes.values())
        assert max(after.values()) - min(after.values()) <= 1
        assert rebalance_plan(after) == {}


class TestClaimSettle:
    def test_restore_drops_pending_children(self):
        workers = [ShardWorker(CounterSpec(3, 3), wid, 2) for wid in range(2)]
        root = next(iter(CounterSpec(3, 3).init_states()))
        owner = workers[fingerprint(root) % 2]
        other = workers[1 - owner.wid]
        assert other.restore(None) == ("restored", other.wid, 0, [], 0)
        assert owner.restore(None) == ("restored", owner.wid, 1, [], 1)
        reply = owner.expand(None)
        assert reply[5], "the root must have foreign children for this test"
        assert owner._pending
        assert owner.restore(None) == ("restored", owner.wid, 1, [], 1)
        assert owner._pending == {} and len(owner.store) == 1
        assert [fp for _, fp, _ in owner.frontier] == [fingerprint(root)]

    @pytest.mark.parametrize("op", ["claim", "settle", "donate", "adopt"])
    def test_round_aborted_mid_exchange_recovers_exactly(self, op):
        # Dying between claim and settle leaves edges recorded by the
        # owners for children whose claimer is gone; the rollback must
        # drop both sides or the re-run would see them as duplicates.
        serial = bfs_explore(CounterSpec(3, 4))
        transport = InlineTransport(die=(op, 3))
        with pytest.warns(RuntimeWarning, match="died"):
            par = bfs_explore(CounterSpec(3, 4), workers=2, transport=transport)
        assert_equivalent(serial, par)
        assert sum(len(w.store) for w in transport.workers) == serial.stats.distinct_states

    def test_pong_to_an_earlier_drain_is_discarded(self):
        # A second death during the drain leaves the survivor's pong in
        # flight; taken for its answer to the next drain, it would leave
        # the fresh pong to arrive in the middle of the rollback.
        serial = bfs_explore(CounterSpec(3, 4))
        transport = LatePongs(die=("claim", 3))
        with pytest.warns(RuntimeWarning, match="died"):
            par = bfs_explore(CounterSpec(3, 4), workers=2, transport=transport)
        assert_equivalent(serial, par)
        assert transport.sent["ping"] == 4 and not transport.replies

    def test_truncated_expand_still_settles_its_round(self):
        # Worker 1 runs out of time at once in round 3; worker 0's claims
        # on worker 1's shard are still recorded there, so they must
        # still be settled: every state recorded in the cut round is on
        # exactly one frontier.
        transport = InlineTransport(cut=(1, 3))
        par = bfs_explore(
            CounterSpec(3, 4), workers=2, transport=transport, time_budget=3600
        )
        assert par.stop_reason is StopReason.TIME_BUDGET
        workers = transport.workers
        assert all(not w._pending for w in workers)
        held = [fp for w in workers for _, fp, _ in w.frontier]
        depths = merged_depths(workers)
        newest = {fp for fp, depth in depths.items() if depth == max(depths.values())}
        assert newest and sorted(held) == sorted(newest)
        assert len(depths) == par.stats.distinct_states


    def test_deadline_expiring_mid_level_still_settles_its_round(self, monkeypatch):
        # One clock for master, workers and engine, a second per reading:
        # worker 0's fourth expand gets a budget a few states long.
        ticks = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: float(next(ticks)))
        monkeypatch.setattr(engine_module, "time", clock)
        monkeypatch.setattr(parallel_module, "time", clock)
        transport = InlineTransport(cut=(0, 4), cut_budget=5)
        par = bfs_explore(
            CounterSpec(3, 4), workers=2, transport=transport, time_budget=10**6
        )
        assert par.stop_reason is StopReason.TIME_BUDGET
        _, _, transitions, _, _, claims, _, _, truncated, _ = transport.cut_reply
        assert truncated and transitions and claims, "cut before or after the level"
        workers = transport.workers
        assert all(not w._pending for w in workers)
        held = [fp for w in workers for _, fp, _ in w.frontier]
        depths = merged_depths(workers)
        newest = {fp for fp, depth in depths.items() if depth == max(depths.values())}
        assert newest and sorted(held) == sorted(newest)
        assert len(depths) == par.stats.distinct_states


class ChainSpec(Spec):
    """``x`` counts up from 0; the invariant forbids ``x == bad``."""

    name = "chain"
    nodes = ("n1",)

    def __init__(self, bad):
        self.bad = bad

    def init_states(self):
        yield Rec(x=0)

    def actions(self):
        return [Action("Inc", self._inc)]

    def _inc(self, state):
        if state["x"] <= self.bad:
            yield (), state.set("x", state["x"] + 1)

    def invariants(self):
        return (Invariant("NeverBad", lambda state: state["x"] != self.bad),)


class TestViolationFoundInSettle:
    def test_same_violation_whether_the_child_is_foreign_or_local(self):
        # A chain never rebalances: every state stays with the owner of
        # the root, so x == bad is a foreign child exactly when its
        # fingerprint belongs to another shard than the root's.
        def home(x, workers):
            return fingerprint(Rec(x=x)) % workers

        bad = next(
            x
            for x in range(1, 200)
            if home(x, 2) != home(0, 2) and home(x, 3) == home(0, 3)
        )
        spec = ChainSpec(bad)
        serial = bfs_explore(spec)
        assert serial.violation.depth == bad
        for workers, phase in ((2, "settled"), (3, "expanded")):
            transport = InlineTransport()
            par = bfs_explore(ChainSpec(bad), workers=workers, transport=transport)
            ((found_in, found),) = transport.found
            assert found_in == phase
            # a violating state is anchored at its own fingerprint
            assert found.trace.anchor == fingerprint(Rec(x=bad))
            assert found.trace.step is None and found.depth == bad
            assert par.stop_reason is StopReason.VIOLATION
            assert par.violation.invariant == "NeverBad"
            assert par.violation.kind == "state"
            assert par.violation.depth == bad
            assert par.violation.trace == serial.violation.trace
            state = par.violation.trace.initial
            for step in par.violation.trace:
                assert step.state in [tr.target for tr in spec.successors(state)]
                state = step.state
            assert state["x"] == bad


class TestBalance:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_single_root_frontiers_stay_level(self, workers):
        spec = CounterSpec(4, 4)
        assert len(list(spec.init_states())) == 1
        registry = MetricsRegistry()
        bfs = ParallelBFS(
            spec, workers=workers, transport=InlineTransport(), metrics=registry
        )
        rounds = []
        bfs.progress = lambda stats: rounds.append(dict(bfs.frontier_sizes))
        result = bfs.run()
        assert_equivalent(bfs_explore(CounterSpec(4, 4)), result)
        assert len(rounds) == registry.counter("parallel.rounds").value > 10
        for sizes in rounds:
            mean = sum(sizes.values()) / workers
            assert max(sizes.values()) <= mean * (1 + REBALANCE_SLACK) + 1, sizes
        # the second round already has work on every worker
        assert all(rounds[1].values())
        assert registry.counter(REBALANCED_STATES).value > 0
        shards = registry.counts("parallel.shard_states")
        assert sum(shards.values()) == result.stats.distinct_states


class CountingRaft(PySyncObjSpec):
    """Small PySyncObj whose state invariants count their evaluations."""

    calls = 0

    def __init__(self):
        super().__init__(
            RaftConfig(
                nodes=("n1", "n2", "n3"),
                values=("v1",),
                max_timeouts=2,
                max_requests=1,
                max_crashes=0,
                max_restarts=0,
                max_partitions=0,
                max_drops=0,
                max_dups=0,
                max_buffer=3,
                max_term=2,
            )
        )

    def invariants(self):
        def counted(inv):
            def fn(state):
                self.calls += 1
                return inv.fn(state)

            return Invariant(inv.name, fn, inv.reads)

        return tuple(counted(inv) for inv in super().invariants())


class TestExchangeVolume:
    def test_small_pysyncobj_routes_fingerprints_not_states(self, monkeypatch):
        monkeypatch.setattr("repro.core.state.CheckedMemo.VERIFY_EVERY", 64)
        serial_spec = CountingRaft()
        serial_registry = MetricsRegistry()
        serial = bfs_explore(serial_spec, max_depth=8, metrics=serial_registry)
        spec = CountingRaft()
        registry = MetricsRegistry()
        par = bfs_explore(
            spec, workers=2, max_depth=8, transport=InlineTransport(), metrics=registry
        )
        assert_equivalent(serial, par)
        states = par.stats.distinct_states
        counters = registry.snapshot()["counters"]
        assert 0 < counters[BATCH_BYTES] < 100 * states
        assert counters[CLAIMS] > states // 4
        # Foreign children are checked by their generator with the
        # incremental ``changed`` set, like local ones and like the
        # serial engine: far below one full check per foreign state
        # (which alone would be ~2 lookups per state here).  A lookup is
        # a check the ``changed`` set did not skip; the verdict memo
        # answers most of them, and each worker keeps its own, so the
        # predicates run at most once per worker and read projection.
        def lookups(metrics):
            counts = metrics.counts(VERDICT_MEMO)
            return counts["hits"] + counts["misses"]

        full = states * len(spec.invariants())
        assert lookups(registry) < full // 2
        assert lookups(registry) <= lookups(serial_registry) * 1.25
        assert spec.calls <= serial_spec.calls * 2 < lookups(serial_registry)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_repeated_runs_are_byte_identical(self, workers):
        runs = set()
        for _ in range(5):
            tap = Tap(ForkTransport())
            result = bfs_explore(
                CounterSpec(4, 4, bound=9), workers=workers, transport=tap
            )
            runs.add((tap.merged_edges(), trace_json(result), census(result)))
        assert len(runs) == 1


class TestWorkerDeathAtEveryBoundary:
    """ROADMAP 5c: a worker killed at each message boundary of a round,
    and at the one after the last: the ``checkpoint`` exchange whose
    shard stores the master merges to resolve the result's trace."""

    OPS = ["expand", "claim", "settle", "donate", "adopt", "checkpoint"]

    @staticmethod
    def spec():
        # single root: rebalancing (donate/adopt) happens from round one
        return CounterSpec(4, 4, bound=9)

    @pytest.fixture(scope="class")
    def undisturbed(self):
        result = bfs_explore(self.spec(), workers=2)
        assert result.stop_reason is StopReason.VIOLATION
        return census(result), result.stop_reason, trace_json(result)

    @pytest.fixture(scope="class")
    def durable_checkpoints(self, tmp_path_factory):
        """How many ``checkpoint`` ops a calm durable run sends: its
        commits, then the two of the merge behind its result."""
        counting = InlineTransport()
        run_dir = tmp_path_factory.mktemp("calm") / "run"
        run_check(self.spec(), run_dir, workers=2, transport=counting, checkpoint_states=1)
        return counting.sent["checkpoint"]

    @pytest.mark.parametrize("op", OPS)
    def test_recovers_from_the_seeds(self, op, undisturbed):
        # Without a checkpointer the only ``checkpoint`` op is the merge.
        transport = DieAt(ForkTransport(), op, nth=1 if op == "checkpoint" else 3)
        bfs = ParallelBFS(self.spec(), workers=2, transport=transport)
        with pytest.warns(RuntimeWarning, match="died"):
            result = bfs.run()
        assert transport.victim is not None
        assert [event["recovered"] for event in bfs.membership] == ["seed"]
        assert (census(result), result.stop_reason, trace_json(result)) == undisturbed

    @pytest.mark.parametrize("op", OPS)
    def test_recovers_from_a_committed_checkpoint(
        self, op, undisturbed, durable_checkpoints, tmp_path
    ):
        # a "checkpoint" cell dies in the merge, not in a periodic commit
        nth = durable_checkpoints - 1 if op == "checkpoint" else 3
        transport = DieAt(ForkTransport(), op, nth=nth)
        with pytest.warns(RuntimeWarning, match="died"):
            result = run_check(
                self.spec(),
                tmp_path / "run",
                workers=2,
                transport=transport,
                checkpoint_states=1,
            )
        assert transport.victim is not None
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert [e["recovered"] for e in manifest["reassignments"]] == ["checkpoint"]
        assert (census(result), result.stop_reason, trace_json(result)) == undisturbed

    @pytest.mark.parametrize("which", ["second", "last"])
    def test_recovers_from_a_death_during_a_commit(
        self, which, undisturbed, durable_checkpoints, tmp_path
    ):
        # The master writes a generation's files only once every shard
        # has answered, so a worker lost on a "checkpoint" op — the one
        # behind the final commit included — costs the rounds since the
        # last commit and nothing else.  (The merge's two come after it.)
        nth = 3 if which == "second" else durable_checkpoints - 3
        transport = DieAt(ForkTransport(), "checkpoint", nth=nth)
        with pytest.warns(RuntimeWarning, match="died"):
            result = run_check(
                self.spec(),
                tmp_path / "run",
                workers=2,
                transport=transport,
                checkpoint_states=1,
            )
        assert transport.victim is not None
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert [e["recovered"] for e in manifest["reassignments"]] == ["checkpoint"]
        assert (census(result), result.stop_reason, trace_json(result)) == undisturbed
        held, recorded = committed_states(tmp_path / "run")
        assert held == recorded == result.stats.distinct_states


# -- a finished run directory holds its census ----------------------------------


def committed_states(run_dir):
    """How many states the committed generation of ``run_dir`` holds."""
    stores, recorded = load_graph_stores(RunDir.open(run_dir))
    return sum(len(store) for store in stores), recorded


class TestFinalCommit:
    @staticmethod
    def spec():
        return CounterSpec(3, 4)  # 125 states, 13 levels

    @pytest.mark.parametrize(
        "stop",
        [{}, {"max_states": 40}, {"max_depth": 4}, {"time_budget": 0.0}],
        ids=["exhausted", "max_states", "max_depth", "budget-between-rounds"],
    )
    def test_a_run_stopped_at_a_round_boundary_commits_it(self, stop, tmp_path):
        # default cadence: no periodic checkpoint ever comes due
        transport = InlineTransport()
        result = run_check(
            self.spec(), tmp_path / "run", workers=2, transport=transport, **stop
        )
        assert transport.sent["checkpoint"] == 2, "one commit: the last boundary"
        assert committed_states(tmp_path / "run") == (
            result.stats.distinct_states,
            result.stats.distinct_states,
        )

    def test_a_violation_run_commits_before_its_trace_is_built(self, tmp_path):
        result = run_check(
            CounterSpec(4, 4, bound=9), tmp_path / "run", workers=2, checkpoint_states=50
        )
        assert result.stop_reason is StopReason.VIOLATION
        held, recorded = committed_states(tmp_path / "run")
        assert held == recorded == result.stats.distinct_states

    def test_no_commit_after_a_round_the_budget_cut_short(self, tmp_path):
        # What the cut round dropped of its level is recorded but on no
        # frontier: a commit there would lose it on resume.  The run dir
        # keeps the generation before it and says how much that covers.
        transport = InlineTransport(cut=(1, 3))
        result = run_check(
            self.spec(),
            tmp_path / "run",
            workers=2,
            transport=transport,
            time_budget=3600,
            checkpoint_states=1,
        )
        assert result.stop_reason is StopReason.TIME_BUDGET
        # one commit before each round (cadence 1), none after the last
        assert transport.sent["checkpoint"] == 2 * transport.sent["expand", 0] == 6
        held, recorded = committed_states(tmp_path / "run")
        assert held < recorded == result.stats.distinct_states
        whole = run_check(
            self.spec(), tmp_path / "run", workers=2, resume=True, time_budget=3600
        )
        assert census(whole) == census(bfs_explore(self.spec(), workers=2))

    def test_resuming_a_finished_run_expands_nothing(self, tmp_path):
        spec = CounterSpec(4, 4, bound=9)
        first = run_check(spec, tmp_path / "run", workers=2, metrics=MetricsRegistry())
        transport, registry = InlineTransport(), MetricsRegistry()
        again = run_check(
            spec,
            tmp_path / "run",
            workers=2,
            resume=True,
            transport=transport,
            metrics=registry,
        )
        assert transport.sent["expand"] == 0
        assert (census(again), again.stop_reason, trace_json(again)) == (
            census(first),
            first.stop_reason,
            trace_json(first),
        )
        assert again.exhausted == first.exhausted

    def test_a_larger_budget_extends_a_max_states_stop(self, tmp_path):
        run_check(self.spec(), tmp_path / "run", workers=2, max_states=40)
        extended = run_check(
            self.spec(), tmp_path / "run", workers=2, resume=True, max_states=90
        )
        straight = bfs_explore(self.spec(), workers=2, max_states=90)
        assert (census(extended), extended.stop_reason) == (
            census(straight),
            straight.stop_reason,
        )


class TestRunDirOwnership:
    def test_no_worker_process_holds_a_file_of_the_run_dir(self, tmp_path):
        self.assert_workers_hold_no_run_dir_file(tmp_path)

    def test_no_worker_process_holds_the_metrics_sink(self, tmp_path):
        self.assert_workers_hold_no_run_dir_file(tmp_path, metrics=MetricsRegistry())

    @staticmethod
    def assert_workers_hold_no_run_dir_file(tmp_path, **options):
        """At every commit of a durable 2-worker run, no worker process
        holds a descriptor of a file under the run dir."""
        run_dir = str(tmp_path / "run")
        held, looks = [], []

        def look(checkpointer):
            looks.append(checkpointer.checkpoints_written)
            children = multiprocessing.active_children()
            assert len(children) == 2
            for child in children:
                fds = f"/proc/{child.pid}/fd"
                held.extend(
                    target
                    for target in (os.readlink(f"{fds}/{fd}") for fd in os.listdir(fds))
                    if target.startswith(run_dir)
                )

        transport = Tap(ForkTransport())
        result = run_check(
            CounterSpec(4, 4),
            run_dir,
            workers=2,
            transport=transport,
            checkpoint_states=100,
            on_checkpoint=look,
            **options,
        )
        commits = len(list((tmp_path / "run" / "checkpoint").glob("worker-0-*.ckpt")))
        assert result.exhausted and commits == 1, "superseded generations pruned"
        assert looks == list(range(1, len(looks) + 1)) and len(looks) >= 4
        assert held == []


# -- real kills ---------------------------------------------------------------


def within(seconds, fn):
    """``fn()`` on a thread of its own, so that a hang fails the test
    instead of hanging it."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the test's own thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        for child in multiprocessing.active_children():
            child.kill()
        pytest.fail(f"hung: no result within {seconds} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class SigkillAt(ForkTransport):
    """SIGKILLs worker ``victim`` — no hook, no flush, whatever it is doing
    — ``delay`` seconds into the run's ``level``-th expand round (level 0:
    as soon as the fleet is up), or never (``level=None``).

    Disarmed once the master asks for the shard stores it merges for the
    result — in a ``durable`` run, the second ``checkpoint`` in a row,
    after the final commit's: a worker that dies after its last reply
    was read is a death nobody can see, and the test wants one
    membership event per kill, exactly.
    """

    def __init__(self, level, delay=0.0, victim=0, durable=False):
        super().__init__()
        self.level = level
        self.victim = victim
        self.durable = durable
        self.kills = 0
        self.levels = 0
        self._last_op = None
        self._gate = threading.Lock()
        self._armed = True
        self._timer = threading.Timer(delay, self._kill)

    def _kill(self):
        with self._gate:
            if self._armed:
                os.kill(self._procs[self.victim].pid, signal.SIGKILL)
                self.kills += 1

    def _disarm(self):
        self._timer.cancel()
        with self._gate:
            self._armed = False

    def start(self, config):
        super().start(config)
        if self.level == 0:
            self._timer.start()

    def send(self, wid, msg):
        if wid == 0:
            if msg[0] == "expand":
                self.levels += 1
                if self.levels == self.level:
                    self._timer.start()
            elif msg[0] == "checkpoint" and (
                not self.durable or self._last_op == "checkpoint"
            ):
                self._disarm()
            self._last_op = msg[0]
        super().send(wid, msg)

    def close(self):
        self._disarm()
        super().close()


def fork_fleet():
    """Two forked workers on a toy spec, started; the caller closes."""
    transport = ForkTransport()
    transport.start(
        {"workers": 2, "spec": CounterSpec(2, 2), "options": {}, "metrics": None}
    )
    return transport


def open_fds():
    gc.collect()  # what earlier tests left to the collector is not a leak here
    return len(os.listdir("/proc/self/fd"))


def sigkill_loops(seeds, tmp_path):
    """One ``workers=2`` run per seed with a worker SIGKILLed at a drawn
    instant of a drawn level; odd seeds run durably, so that a kill
    after the first commit recovers from a checkpoint.  Returns the
    recoveries seen.
    """

    def spec():
        return CounterSpec(5, 5, bound=14)  # 5,414 states, 16 levels, a violation

    counting = SigkillAt(None)
    started = time.monotonic()
    calm = bfs_explore(spec(), workers=2, transport=counting)
    per_level = (time.monotonic() - started) / counting.levels
    expected = census(calm), calm.stop_reason, trace_json(calm)
    recoveries = []
    for seed in seeds:
        rng = random.Random(seed)
        transport = SigkillAt(
            rng.randrange(counting.levels),
            rng.uniform(0.0, per_level),
            rng.randrange(2),
            durable=bool(seed % 2),
        )
        fds = open_fds()

        def run():
            if seed % 2:
                run_dir = tmp_path / f"run-{seed}"
                result = run_check(
                    spec(), run_dir, workers=2, transport=transport, checkpoint_states=400
                )
                manifest = json.loads((run_dir / "manifest.json").read_text())
                return result, manifest.get("reassignments", [])
            bfs = ParallelBFS(spec(), workers=2, transport=transport)
            return bfs.run(), bfs.membership

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result, events = within(40, run)
        got = census(result), result.stop_reason, trace_json(result)
        assert got == expected, f"seed {seed}"
        died = [event["wid"] for event in events]
        assert died == [transport.victim] * transport.kills, f"seed {seed}: {events}"
        assert multiprocessing.active_children() == [], f"seed {seed}"
        assert open_fds() <= fds, f"seed {seed}: descriptors leaked"
        recoveries += [event["recovered"] for event in events]
    return recoveries


class TestSigkill:
    """ROADMAP 5a: a fork worker killed by the kernel, at any instant, is
    the recoverable event a dropped socket is."""

    def test_killed_at_random_instants_recovers_exactly(self, tmp_path):
        recoveries = sigkill_loops(range(25), tmp_path)
        assert len(recoveries) >= 20, "the kills mostly missed their runs"
        assert set(recoveries) == {"seed", "checkpoint"}

    def test_killed_while_the_master_reads_its_reply(self):
        # The reply to a wide claim batch is far larger than the pipe
        # buffer, so the worker blocks in the middle of writing it; it is
        # stopped there, the master starts reading, and then it is killed:
        # end of file arrives inside a message.
        transport = fork_fleet()
        try:
            pid = transport._procs[0].pid
            batch = [(fp, 0, "Increment") for fp in range(0, 600_000, 2)]
            transport.send(0, ("claim", [(1, batch)]))
            assert wait([transport._channels[0]], 30), "no reply begun"
            time.sleep(0.2)  # the pipe fills; the worker blocks
            os.kill(pid, signal.SIGSTOP)
            killer = threading.Timer(0.3, os.kill, [pid, signal.SIGKILL])
            killer.start()
            with pytest.raises(WorkerDied) as death:
                within(40, lambda: transport.recv(timeout=30))
            killer.join()
            assert death.value.wid == 0
            assert isinstance(death.value.__cause__, OSError), death.value.__cause__
        finally:
            transport.close()
        assert multiprocessing.active_children() == []


class TestTransportLifecycle:
    def test_recv_on_a_closed_transport_is_a_plain_error(self):
        transport = fork_fleet()
        transport.close()
        with pytest.raises(RuntimeError) as error:
            transport.recv(timeout=0.1)
        assert not isinstance(error.value, WorkerDied)

    def test_half_started_fleet_leaves_no_child(self):
        class SecondForkFails(ForkTransport):
            def _spawn(self, wid):
                if wid == 1:
                    raise OSError("fork: resource temporarily unavailable")
                super()._spawn(wid)

        bfs = ParallelBFS(CounterSpec(2, 2), workers=2, transport=SecondForkFails())
        with pytest.raises(OSError, match="temporarily unavailable"):
            bfs.run()
        assert multiprocessing.active_children() == []
