"""Tests for the shared exploration kernel (:mod:`repro.core.engine`).

Covers the pieces the mode-specific suites do not reach directly: trace
reconstruction under symmetry reduction (including the fallback-step
path), the unified termination-reason enum across the exploration
modes, and the StateStore / StepChecker seams.
"""

import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import Action, Rec, Spec, Violation, bfs_explore, run_scenario, simulate
from repro.core import engine as engine_module
from repro.core.engine import (
    CompactStore,
    ExplorationEngine,
    FIFOFrontier,
    RandomWalkFrontier,
    SearchStats,
    StepChecker,
    StopReason,
    find_matching_step,
    reconstruct_trace,
)
from repro.core.explorer import BFSExplorer
from repro.core.simulation import random_walk
from repro.core.state import fingerprint
from repro.obs.metrics import MetricsRegistry

from toy_specs import CounterSpec, TokenRingSpec


class TwoRoadsSpec(Spec):
    """Two distinct actions reach the same successor state from x=0.

    Used to exercise ``find_matching_step``'s fallback: when the recorded
    action name matches no successor, any fingerprint-matching transition
    must do (under symmetry reduction two actions can land in one orbit).
    """

    name = "two-roads"
    nodes = ("n1",)

    def init_states(self):
        yield Rec(x=0)

    def actions(self):
        return [Action("Inc", self._inc), Action("Jump", self._jump)]

    def _inc(self, state):
        if state["x"] < 2:
            yield ("n1",), state.set("x", state["x"] + 1)

    def _jump(self, state):
        if state["x"] == 0:
            yield ("n1",), state.set("x", 1)


class TestTraceReconstructionUnderSymmetry:
    def test_violation_trace_replays_under_symmetry(self):
        """A counterexample found with symmetry reduction must still be a
        real path through the (unreduced) spec, up to orbit equivalence:
        every step lands in the orbit of some successor of the previous
        state (the concrete representatives may be permuted variants)."""
        spec = CounterSpec(n_nodes=3, maximum=3, bound=2)
        explorer = BFSExplorer(spec, symmetry=True)
        result = explorer.run()
        assert result.found_violation
        trace = result.violation.trace
        state = trace.initial

        def orbit_fp(s):
            return fingerprint(explorer.reducer.canonical(s))

        for step in trace:
            successor_orbits = {orbit_fp(t.target) for t in spec.successors(state)}
            assert orbit_fp(step.state) in successor_orbits
            state = step.state
        assert sum(state["counters"].values()) > 2
        # BFS depth is minimal: bound+1 increments violate "sum <= bound".
        assert result.violation.depth == 3

    def test_trace_to_reaches_every_stored_fingerprint(self):
        spec = CounterSpec(n_nodes=2, maximum=2)
        explorer = BFSExplorer(spec, symmetry=True)
        explorer.run()
        canonical = explorer.reducer.canonical
        for fp in list(explorer.store._parents):
            trace = reconstruct_trace(spec, explorer.store, fp, canonical)
            assert fingerprint(canonical(trace.final_state)) == fp

    def test_find_step_prefers_recorded_action(self):
        spec = TwoRoadsSpec()
        init = next(iter(spec.init_states()))
        target_fp = fingerprint(Rec(x=1))
        step = find_matching_step(spec, init, target_fp, "Jump")
        assert step is not None and step.action == "Jump"
        step = find_matching_step(spec, init, target_fp, "Inc")
        assert step is not None and step.action == "Inc"

    def test_find_step_falls_back_on_fingerprint_match(self):
        """An action name that matches no successor still resolves, as long
        as some transition reaches the target fingerprint."""
        spec = TwoRoadsSpec()
        init = next(iter(spec.init_states()))
        target_fp = fingerprint(Rec(x=1))
        step = find_matching_step(spec, init, target_fp, "Teleport")
        assert step is not None
        assert step.action in ("Inc", "Jump")
        assert step.state == Rec(x=1)

    def test_find_step_returns_none_when_unreachable(self):
        spec = TwoRoadsSpec()
        init = next(iter(spec.init_states()))
        assert find_matching_step(spec, init, fingerprint(Rec(x=7)), "Inc") is None


class TestUnifiedStopReasons:
    """Every mode reports termination through the one StopReason enum,
    and its members stay string-comparable (the historical API)."""

    def test_bfs_reasons(self):
        assert bfs_explore(CounterSpec(2, 2)).stop_reason is StopReason.EXHAUSTED
        assert (
            bfs_explore(TokenRingSpec(buggy=True)).stop_reason
            is StopReason.VIOLATION
        )
        bounded = bfs_explore(CounterSpec(3, 5), max_states=50)
        assert bounded.stop_reason is StopReason.MAX_STATES

    def test_walk_reasons(self):
        # Depth bound: plenty of room to keep incrementing.
        walk = random_walk(CounterSpec(2, 100), random.Random(0), max_depth=5)
        assert walk.terminated is StopReason.MAX_DEPTH
        # Deadlock: both counters saturate before the depth bound.
        walk = random_walk(CounterSpec(2, 2), random.Random(0), max_depth=50)
        assert walk.terminated is StopReason.DEADLOCK
        # State constraint: the ring's step budget expires first.
        walk = random_walk(
            TokenRingSpec(max_steps=4), random.Random(0), max_depth=50
        )
        assert walk.terminated is StopReason.CONSTRAINT
        # Violation: a buggy walk that trips MutualExclusion stops there.
        rng = random.Random(0)
        reasons = {
            str(random_walk(TokenRingSpec(buggy=True), rng, max_depth=30).terminated)
            for _ in range(30)
        }
        assert "violation" in reasons

    def test_scenario_reasons(self):
        spec = TokenRingSpec(n_nodes=3, buggy=True)
        done = run_scenario(spec, ["PassToken"])
        assert done.stop_reason is StopReason.COMPLETE
        violated = run_scenario(spec, [("Enter", "n1"), ("Enter", "n3")])
        assert violated.stop_reason is StopReason.VIOLATION
        assert violated.found_violation

    def test_simulate_batch_reasons(self):
        result = simulate(CounterSpec(2, 2), n_walks=20, max_depth=50, seed=0)
        assert result.stop_reason is StopReason.COMPLETE
        assert set(result.stop_reasons) == {"deadlock"}
        assert result.stats.walks == 20

    def test_members_compare_as_strings(self):
        assert StopReason.MAX_STATES == "max_states"
        assert StopReason.DEADLOCK in ("deadlock", "constraint")
        assert f"{StopReason.TIME_BUDGET}" == "time_budget"
        assert {StopReason.EXHAUSTED: 1}["exhausted"] == 1


class BarrenSpec(Spec):
    """Forty initial states and no transition out of any of them."""

    name = "barren"
    nodes = ("n1",)

    def __init__(self, constrained=False):
        self.constrained = constrained

    def init_states(self):
        return [Rec(x=i) for i in range(40)]

    def actions(self):
        return [Action("Never", lambda state: iter(()))]

    def state_constraint(self, state):
        return not self.constrained


class TestTimeBudget:
    @pytest.mark.parametrize(
        "spec, bounds",
        [
            pytest.param(BarrenSpec(constrained=True), {}, id="pruned"),
            pytest.param(BarrenSpec(), {"max_depth": 0}, id="at-max-depth"),
            pytest.param(BarrenSpec(), {}, id="no-successors"),
        ],
    )
    def test_expires_on_a_frontier_that_generates_no_child(
        self, spec, bounds, monkeypatch
    ):
        # The clock advances a second per reading, so the budget runs out
        # a few states into a frontier that never produces a transition.
        ticks = itertools.count()
        clock = SimpleNamespace(monotonic=lambda: float(next(ticks)))
        monkeypatch.setattr(engine_module, "time", clock)
        result = bfs_explore(spec, time_budget=10.0, **bounds)
        assert result.stop_reason is StopReason.TIME_BUDGET
        assert not result.exhausted
        assert result.stats.distinct_states == 40 and result.stats.transitions == 0
        assert result.stats.pruned < 40


class TestDeferSeam:
    def test_deferred_children_bypass_the_store(self):
        asked = Counter()
        checked = []

        class DeferOdd(FIFOFrontier):
            def defer(self, child, child_fp, depth, parent_fp, transition, changed):
                if child_fp % 2 == 0:
                    return False
                asked[child_fp] += 1
                return True

        class Recording(StepChecker):
            def check_state(self, state, fp, transition, changed=None):
                checked.append(fingerprint(state))
                return super().check_state(state, fp, transition, changed)

        spec = CounterSpec(3, 3)
        store = CompactStore()
        engine = ExplorationEngine(spec, DeferOdd(), store=store, checker=Recording(spec))
        result = engine.run()

        edges = {fp: parent for fp, parent, _ in store.edges()}
        # asked before the store: every time the child is generated ...
        assert asked and max(asked.values()) > 1
        # ... and then never recorded, counted, checked or expanded
        assert not set(edges) & set(asked)
        assert result.stats.distinct_states == len(edges)
        assert sorted(checked) == sorted(edges)
        assert not set(edges.values()) & set(asked)


class TestStateStore:
    def test_in_memory_store_round_trip(self):
        store = CompactStore()
        init = Rec(x=0)
        store.record_init("fp0", init)
        store.record("fp1", "fp0", "Inc")
        store.record("fp2", "fp1", "Inc")
        assert store.seen("fp1") and "fp2" in store
        assert not store.seen("fp9")
        assert len(store) == 3
        assert store.init_state("fp0") == init
        assert store.chain("fp2") == [
            ("fp0", "<init>"),
            ("fp1", "Inc"),
            ("fp2", "Inc"),
        ]

    def test_stateless_strategies_run_without_a_store(self):
        spec = CounterSpec(2, 3)
        walk = RandomWalkFrontier(random.Random(0))
        engine = ExplorationEngine(spec, walk, max_depth=4, metrics=MetricsRegistry())
        assert engine.store is None
        result = engine.run()
        assert result.stop_reason is StopReason.MAX_DEPTH
        assert result.stats.distinct_states == 5
        assert ExplorationEngine(spec, FIFOFrontier()).store is not None


class TestStepChecker:
    def test_collects_violations_with_tracer_trace(self):
        spec = CounterSpec(n_nodes=1, maximum=2, bound=-1)
        checker = StepChecker(spec)
        sentinel = object()
        checker.tracer = lambda invariant, kind, fp, step: Violation(
            invariant, sentinel, kind
        )
        bad_state = next(iter(spec.init_states()))
        violation = checker.check_state(bad_state, "fp0", None)
        assert violation is not None
        assert violation.invariant == "SumWithinBound"
        assert violation.trace is sentinel
        assert checker.first_violation is violation
        assert checker.violations == [violation]

    def test_check_invariants_off_is_a_no_op(self):
        spec = CounterSpec(n_nodes=1, maximum=2, bound=-1)
        checker = StepChecker(spec, check_invariants=False)
        bad_state = next(iter(spec.init_states()))
        assert checker.check_state(bad_state, "fp0", None) is None
        assert checker.first_violation is None


class TestSearchStats:
    def test_describe_and_rate(self):
        stats = SearchStats(distinct_states=100, transitions=250, elapsed=2.0)
        assert stats.states_per_second == 50.0
        assert "100 states" in stats.describe()
        assert SearchStats(elapsed=0.0).states_per_second == float("inf")
        walked = SearchStats(distinct_states=10, elapsed=1.0, walks=5)
        assert "5 walks" in walked.describe()
