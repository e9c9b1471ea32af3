"""The compiled spec pipeline: behaviourally invisible, only faster.

Every test here is an equivalence claim: a :class:`CompiledSpec` must
produce the same transitions, the same invariant verdicts, the same
census, and the same fingerprints as the interpreted spec it wraps.
"""

import random

import pytest

from repro.core import Action, Invariant, Rec, Spec, SpecError, TransitionInvariant
from repro.core import compile as compile_module
from repro.core.compile import CompiledSpec, compile_spec, maybe_compile
from repro.core.explorer import BFSExplorer, bfs_explore
from repro.core.simulation import simulate
from repro.core.state import set_delta_codec
from repro.dist.specref import SPEC_CLASSES
from repro.obs.metrics import ACTION_FIRES, CODEC_CHUNKS, VERDICT_MEMO, MetricsRegistry
from repro.specs.raft import LEADER, PySyncObjSpec, RaftConfig
from repro.testkit.genspec import generate_spec, sample_params


class CounterSpec(Spec):
    """Two counters; one action declares a guard, one does not."""

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


class TestSuccessorEquivalence:
    def test_same_transitions_same_order(self):
        spec = small_raft()
        compiled = compile_spec(spec)
        # ``None`` is every action; a filter must keep the unfiltered order.
        filters = (None, frozenset({"ReceiveMessage", "ClientRequest", "NoSuchAction"}))
        frontier = list(spec.init_states())
        for _ in range(3):
            nxt = []
            for state in frontier[:20]:
                every = list(spec.successors(state))
                for actions in filters:
                    interpreted = list(spec.successors(state, actions))
                    fast = list(compiled.successors(state, actions))
                    kept = [t for t in every if actions is None or t.action in actions]
                    assert [(t.action, t.args, t.branch) for t in interpreted] == [
                        (t.action, t.args, t.branch) for t in fast
                    ] == [(t.action, t.args, t.branch) for t in kept]
                    assert [t.target for t in interpreted] == [t.target for t in fast]
                nxt.extend(t.target for t in every)
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


#: the seven Raft-family specs; ZAB declares no reads
RAFT_FAMILY = sorted(set(SPEC_CLASSES) - {"zookeeper"})


def leader_trap(system):
    """``system``'s spec plus a declared invariant BFS violates at depth 4."""

    class Trapped(SPEC_CLASSES[system]):
        def _build_invariants(self):
            return super()._build_invariants() + [
                Invariant(
                    "NoLeader",
                    lambda s: LEADER not in s["role"].values(),
                    reads=("role",),
                )
            ]

    return Trapped(RaftConfig(nodes=("n1", "n2", "n3")))


def found(spec, compiled, **kwargs):
    """What a run reports: every violation's name, depth and trace; the census."""
    explorer = BFSExplorer(spec, compiled=compiled, **kwargs)
    result = explorer.run()
    return (
        [(v.invariant, v.kind, v.depth, v.trace.to_json()) for v in explorer.violations],
        result.stats.distinct_states,
        result.stats.transitions,
        result.stop_reason,
    )


@pytest.fixture(params=[compile_module._VERDICT_MEMO_CAP, 2])
def verdict_cap(request, monkeypatch):
    monkeypatch.setattr(compile_module, "_VERDICT_MEMO_CAP", request.param)
    return request.param


class TestVerdictMemoProperty:
    """Compiled (memoised) and interpreted checking report the same thing."""

    @pytest.mark.parametrize("system", RAFT_FAMILY)
    def test_raft_family(self, system, verdict_cap):
        first = found(leader_trap(system), True)
        assert first == found(leader_trap(system), False)
        ((name, kind, depth, _),) = first[0]
        assert (name, kind) == ("NoLeader", "state") and depth <= 6
        # every state, every invariant: violations keep being reported
        spec = leader_trap(system)
        compiled = compile_spec(spec)
        every = found(compiled, True, stop_on_violation=False, max_states=2500)
        assert every == found(spec, False, stop_on_violation=False, max_states=2500)
        assert len(every[0]) > 1
        stats = compiled.verdict_stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        for entry in compiled._inv_entries:
            assert entry[4] is None or len(entry[4]) <= verdict_cap
        if verdict_cap == 2:
            assert stats["clears"] > 0
        else:
            assert stats["hits"] > stats["misses"] and stats["clears"] == 0

    def test_generated_specs(self, verdict_cap):
        rng = random.Random("verdict-sweep-params")
        planted = 0
        for index in range(20):
            generated = generate_spec(f"verdict-sweep:{index}", sample_params(rng))
            if generated.planted is None:
                continue
            planted += 1
            first = found(generated.spec(), True)
            assert first == found(generated.spec(), False)
            ((name, _, depth, _),) = first[0]
            assert (name, depth) == (generated.planted.invariant, generated.planted.depth)
            assert found(generated.spec(), True, stop_on_violation=False) == found(
                generated.spec(), False, stop_on_violation=False
            )
        assert planted >= 10


class UnderDeclaredSpec(CounterSpec):
    """``SumBounded`` reads ``a`` and ``b`` and declares ``a`` alone."""

    def invariants(self):
        return (
            Invariant("SumBounded", lambda s: s["a"] + s["b"] < 5, reads=("a",)),
        )


class TestVerdictMemo:
    def test_under_declared_reads_raise_naming_the_invariant(self, monkeypatch):
        # At the shipped sampling rate (every 64th hit) a wrong declaration
        # is only *probably* caught; with every hit re-evaluated it must be.
        monkeypatch.setattr(compile_module, "_VERDICT_VERIFY_EVERY", 1)
        with pytest.raises(SpecError, match=r"SumBounded.*declared reads \['a'\]"):
            bfs_explore(UnderDeclaredSpec(), stop_on_violation=False)
        compiled = compile_spec(UnderDeclaredSpec())
        assert compiled.check_state(Rec(a=2, b=0)) is None
        with pytest.raises(SpecError, match="SumBounded"):
            compiled.check_state(Rec(a=2, b=3))

    def test_unsampled_hit_trusts_the_declaration(self, monkeypatch):
        monkeypatch.setattr(compile_module, "_VERDICT_VERIFY_EVERY", 64)
        compiled = compile_spec(UnderDeclaredSpec())
        assert compiled.check_state(Rec(a=2, b=0)) is None
        assert compiled.check_state(Rec(a=2, b=3)) is None  # the stale verdict
        assert UnderDeclaredSpec().check_state(Rec(a=2, b=3)) == "SumBounded"

    def test_cached_false_verdict_is_reported_again(self, monkeypatch):
        monkeypatch.setattr(compile_module, "_VERDICT_VERIFY_EVERY", 64)
        compiled = compile_spec(CounterSpec(limit=1))
        assert compiled.check_state(Rec(a=5, b=0)) == "ABounded"
        assert compiled.check_state(Rec(a=5, b=1)) == "ABounded"
        assert compiled.check_state(Rec(a=5, b=1), frozenset({"a"})) == "ABounded"
        assert compiled.verdict_stats() == {
            "hits": 2, "misses": 1, "clears": 0, "verified": 0
        }

    def test_raising_invariant_is_not_cached(self):
        calls = []

        def flaky(state):
            calls.append(state)
            if len(calls) == 1:
                raise RuntimeError("first evaluation fails")
            return True

        class Flaky(CounterSpec):
            def invariants(self):
                return (Invariant("Flaky", flaky, reads=("a",)),)

        compiled = compile_spec(Flaky())
        with pytest.raises(RuntimeError):
            compiled.check_state(Rec(a=0, b=0))
        assert compiled.check_state(Rec(a=0, b=0)) is None
        assert len(calls) == 2 and compiled.verdict_stats()["misses"] == 1

    def test_absent_variable_is_part_of_the_key(self):
        class MaybeC(CounterSpec):
            def invariants(self):
                return (
                    Invariant("AbsentOrSmall", lambda s: s.get("c", 0) < 2, reads=("c",)),
                )

        compiled = compile_spec(MaybeC())
        assert compiled.check_state(Rec(a=0, b=0)) is None
        assert compiled.check_state(Rec(a=0, b=0, c=5)) == "AbsentOrSmall"
        assert compiled.check_state(Rec(a=1, b=1)) is None
        assert compiled.verdict_stats()["hits"] == 1

    def test_memo_is_per_compiled_spec_and_survives_recompilation(self):
        strict, loose = compile_spec(CounterSpec(limit=1)), compile_spec(CounterSpec(limit=9))
        state = Rec(a=5, b=0)
        assert strict.check_state(state) == "ABounded"
        assert loose.check_state(state) is None  # same variable names, own verdicts
        assert compile_spec(strict) is strict and maybe_compile(strict) is strict
        assert strict.check_state(state) == "ABounded"
        assert strict.verdict_stats()["hits"] == 1
        assert loose.verdict_stats()["hits"] == 0

    def test_undeclared_invariants_and_edges_bypass_the_memo(self):
        compiled = compile_spec(_no_reads_spec())
        for _ in range(3):
            assert compiled.check_state(Rec(a=0, b=9)) == "BBounded"
        assert compiled.verdict_stats() == {
            "hits": 0, "misses": 0, "clears": 0, "verified": 0
        }

    def test_random_walks_hit_the_memo(self):
        registry = MetricsRegistry()
        result = simulate(small_raft(), n_walks=20, max_depth=12, metrics=registry)
        assert result.first_violation is None
        counts = registry.counts(VERDICT_MEMO)
        assert counts["hits"] > counts["misses"] > 0

    def test_counters_reach_the_registry_serial_and_sharded(self):
        serial = MetricsRegistry()
        result = bfs_explore(small_raft(), max_states=1500, metrics=serial)
        counts = serial.counts(VERDICT_MEMO)
        assert set(counts) <= {"hits", "misses", "clears", "verified"}
        assert counts["hits"] > counts["misses"] > 0
        assert counts["verified"] == counts["hits"] // compile_module._VERDICT_VERIFY_EVERY
        sharded = MetricsRegistry()
        parallel = bfs_explore(small_raft(), max_depth=6, workers=2, metrics=sharded)
        assert parallel.stats.distinct_states > 0 and result.stats.distinct_states > 0
        merged = sharded.counts(VERDICT_MEMO)
        assert merged["hits"] > 0 and merged["misses"] > 0

    def test_no_declared_reads_no_family(self):
        registry = MetricsRegistry()
        bfs_explore(_no_reads_spec(), metrics=registry)
        bfs_explore(small_raft(), compiled=False, max_states=200, metrics=registry)
        assert VERDICT_MEMO not in registry.snapshot()["counts"]


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
