"""The compiled spec pipeline: behaviourally invisible, only faster.

Every test here is an equivalence claim: a :class:`CompiledSpec` must
produce the same transitions, the same invariant verdicts, the same
census, and the same fingerprints as the interpreted spec it wraps.
"""

import pytest

from repro.core import Action, Invariant, Rec, Spec, SpecError, TransitionInvariant
from repro.core.compile import (
    ActionMeta,
    CompiledSpec,
    compile_spec,
    maybe_compile,
)
from repro.core.explorer import bfs_explore
from repro.core.state import set_delta_codec
from repro.obs.metrics import ACTION_FIRES, CODEC_CHUNKS, MetricsRegistry
from repro.specs.raft import PySyncObjSpec, RaftConfig


class CounterSpec(Spec):
    """Two counters; one action declares everything, one declares nothing."""

    name = "counter"

    def __init__(self, limit=3):
        self.limit = limit

    def init_states(self):
        yield Rec(a=0, b=0)

    def actions(self):
        return [
            Action(
                "BumpA",
                self._bump_a,
                kind="internal",
                reads=("a",),
                writes=("a",),
                guard=lambda s: s["a"] < self.limit,
            ),
            Action("BumpB", self._bump_b, kind="internal"),
        ]

    def _bump_a(self, state):
        # The body honors the same bound as the guard: a guard promises
        # the body yields nothing when it is false.
        if state["a"] < self.limit:
            yield (), state.set("a", state["a"] + 1)

    def _bump_b(self, state):
        if state["b"] < self.limit:
            yield (), state.set("b", state["b"] + 1), "grow"

    def invariants(self):
        return (
            Invariant("ABounded", lambda s: s["a"] <= self.limit, reads=("a",)),
            Invariant("BBounded", lambda s: s["b"] <= self.limit),
        )

    def transition_invariants(self):
        return (
            TransitionInvariant(
                "AMonotonic",
                lambda pre, t: t.target["a"] >= pre["a"],
                reads=("a",),
            ),
        )


def small_raft():
    return PySyncObjSpec(
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


class TestCompileSpec:
    def test_idempotent(self):
        compiled = compile_spec(CounterSpec())
        assert compile_spec(compiled) is compiled
        assert maybe_compile(compiled) is compiled

    def test_maybe_compile_respects_flag(self):
        spec = CounterSpec()
        assert maybe_compile(spec, compiled=False) is spec
        assert isinstance(maybe_compile(spec), CompiledSpec)

    def test_delegates_spec_attributes(self):
        spec = small_raft()
        compiled = compile_spec(spec)
        assert compiled.nodes == spec.nodes
        assert compiled.config is spec.config
        assert compiled.name == spec.name
        with pytest.raises(AttributeError):
            compiled._no_such_private_attr

    def test_refresh_actions_rejected(self):
        compiled = compile_spec(CounterSpec())
        with pytest.raises(SpecError):
            compiled.refresh_actions()


class TestActionMeta:
    def test_declared_sets_pass_through(self):
        compiled = compile_spec(CounterSpec())
        meta = {m.name: m for m in compiled.action_meta}
        assert meta["BumpA"] == ActionMeta(
            name="BumpA",
            kind="internal",
            reads=frozenset({"a"}),
            writes=frozenset({"a"}),
            writes_inferred=False,
        )

    def test_undeclared_writes_inferred_from_init(self):
        compiled = compile_spec(CounterSpec())
        meta = {m.name: m for m in compiled.action_meta}
        assert meta["BumpB"].writes == frozenset({"b"})
        assert meta["BumpB"].writes_inferred

    def test_inference_can_be_disabled(self):
        compiled = compile_spec(CounterSpec(), infer_writes=False)
        meta = {m.name: m for m in compiled.action_meta}
        assert meta["BumpB"].writes is None
        assert not meta["BumpB"].writes_inferred


class TestSuccessorEquivalence:
    def test_same_transitions_same_order(self):
        spec = small_raft()
        compiled = compile_spec(spec)
        frontier = list(spec.init_states())
        for _ in range(3):
            nxt = []
            for state in frontier[:20]:
                interpreted = list(spec.successors(state))
                fast = list(compiled.successors(state))
                assert [(t.action, t.args, t.branch) for t in interpreted] == [
                    (t.action, t.args, t.branch) for t in fast
                ]
                assert [t.target for t in interpreted] == [t.target for t in fast]
                nxt.extend(t.target for t in interpreted)
            frontier = nxt

    def test_guard_short_circuits(self):
        spec = CounterSpec(limit=0)
        compiled = compile_spec(spec)
        (init,) = list(spec.init_states())
        assert list(compiled.successors(init)) == list(spec.successors(init))
        assert list(compiled.successors(init)) == []

    def test_malformed_yield_diagnosed(self):
        class Bad(CounterSpec):
            def actions(self):
                return [Action("Bad", lambda s: iter([((), s, "x", "y")]))]

        compiled = compile_spec(Bad())
        with pytest.raises(SpecError):
            list(compiled.successors(Rec(a=0, b=0)))

    def test_non_rec_target_diagnosed(self):
        class Bad(CounterSpec):
            def actions(self):
                return [Action("Bad", lambda s: iter([((), {"a": 1})]))]

        compiled = compile_spec(Bad())
        with pytest.raises(SpecError):
            list(compiled.successors(Rec(a=0, b=0)))


class TestIncrementalChecking:
    def test_incremental_flag_set_by_declared_reads(self):
        assert compile_spec(CounterSpec()).incremental
        assert not compile_spec(_no_reads_spec()).incremental

    def test_check_state_skips_disjoint_reads(self):
        compiled = compile_spec(CounterSpec(limit=1))
        bad = Rec(a=5, b=0)
        # Full check sees the violation; a changed-set disjoint from
        # ABounded's reads skips it (soundly, had the parent been checked).
        assert compiled.check_state(bad) == "ABounded"
        assert compiled.check_state(bad, changed=frozenset({"b"})) is None
        assert compiled.check_state(bad, changed=frozenset({"a"})) == "ABounded"

    def test_undeclared_invariants_always_run(self):
        compiled = compile_spec(CounterSpec(limit=1))
        bad = Rec(a=0, b=5)
        assert compiled.check_state(bad, changed=frozenset()) == "BBounded"

    def test_check_transition_stutter_safety(self):
        from repro.core.spec import Transition

        compiled = compile_spec(CounterSpec())
        pre = Rec(a=2, b=0)
        shrink = Transition("BumpA", (), Rec(a=1, b=0))
        assert compiled.check_transition(pre, shrink) == "AMonotonic"
        assert (
            compiled.check_transition(pre, shrink, changed=frozenset({"b"})) is None
        )


def _no_reads_spec():
    class NoReads(CounterSpec):
        def invariants(self):
            return (Invariant("BBounded", lambda s: s["b"] <= self.limit),)

        def transition_invariants(self):
            return ()

    return NoReads()


class TestEngineEquivalence:
    def test_census_and_action_fires_match(self):
        results = {}
        for compiled in (False, True):
            registry = MetricsRegistry()
            result = bfs_explore(
                small_raft(), compiled=compiled, max_states=3000, metrics=registry
            )
            results[compiled] = (
                result.stats.distinct_states,
                result.stats.transitions,
                result.stats.max_depth,
                dict(registry.counts(ACTION_FIRES)),
            )
        assert results[False] == results[True]

    def test_interpreted_without_delta_matches(self):
        previous = set_delta_codec(False)
        try:
            baseline = bfs_explore(small_raft(), compiled=False, max_states=2000)
        finally:
            set_delta_codec(previous)
        fast = bfs_explore(small_raft(), compiled=True, max_states=2000)
        assert baseline.stats.distinct_states == fast.stats.distinct_states
        assert baseline.stats.transitions == fast.stats.transitions

    def test_codec_chunk_counters_reported(self):
        registry = MetricsRegistry()
        bfs_explore(small_raft(), compiled=True, max_states=500, metrics=registry)
        chunks = registry.counts(CODEC_CHUNKS)
        assert chunks, "compiled run should report codec chunk-cache traffic"
        assert set(chunks) <= {
            "delta_hits",
            "delta_misses",
            "full_encodes",
            "fp_delta_hits",
            "fp_full",
            "pair_memo_hits",
            "pair_memo_misses",
            "pair_memo_clears",
        }
        assert chunks.get("fp_delta_hits", 0) > 0
        assert chunks.get("pair_memo_hits", 0) > 0
        assert chunks.get("pair_memo_misses", 0) > 0


class TestCachedActions:
    def test_cached_actions_memoized(self):
        spec = CounterSpec()
        first = spec.cached_actions()
        assert spec.cached_actions() is first

    def test_refresh_actions_rebuilds(self):
        spec = CounterSpec()
        first = spec.cached_actions()
        spec.refresh_actions()
        second = spec.cached_actions()
        assert second is not first
        assert [a.name for a in second] == [a.name for a in first]
