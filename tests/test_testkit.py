"""Tier-1 coverage for :mod:`repro.testkit` — the self-checking toolkit."""

from __future__ import annotations

import math

import pytest

from repro.core import bfs_explore
from repro.testkit import (
    Disagreement,
    GenParams,
    MatrixConfig,
    build_matrix,
    check_spec,
    generate_spec,
    oracle_explore,
    replay_artifact,
    run_differential,
    sample_params,
    signature,
    write_artifact,
)
from repro.persist.rundir import RunDirError, read_json
from toy_specs import CounterSpec, TokenRingSpec

# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generation_is_deterministic():
    a = generate_spec("det:1")
    b = generate_spec("det:1")
    assert a.local_tables == b.local_tables
    assert a.pair_tables == b.pair_tables
    assert a.global_tables == b.global_tables
    assert a.planted == b.planted


def test_different_seeds_differ():
    a = generate_spec("det:1")
    b = generate_spec("det:2")
    assert (
        a.local_tables != b.local_tables
        or a.pair_tables != b.pair_tables
        or a.global_tables != b.global_tables
    )


def test_sample_params_deterministic():
    import random

    drawn = [sample_params(random.Random("p:0")) for _ in range(2)]
    assert drawn[0] == drawn[1]
    assert isinstance(drawn[0], GenParams)


def test_generated_space_is_bounded():
    params = GenParams(n_nodes=2, local_states=3, global_states=3)
    generated = generate_spec("bound:0", params)
    census = oracle_explore(generated.spec(invariants=False))
    assert census.states <= 3**2 * 3


def test_planted_violation_depth_is_minimal():
    generated = generate_spec("plant:0")
    assert generated.planted is not None
    planted = generated.planted
    # The oracle on the invariant-carrying spec must rediscover exactly
    # the planted depth and invariant name.
    checked = oracle_explore(generated.spec(invariants=True))
    assert checked.min_violation_depth == planted.depth
    assert checked.violation_invariants == (planted.invariant,)
    assert planted.depth >= 1


def test_signature_is_node_symmetric():
    from repro.core import Rec
    from repro.core.state import substitute

    state = Rec(locals=Rec(n1=2, n2=0, n3=1), glob=1)
    swapped = substitute(state, {"n1": "n2", "n2": "n1"})
    assert signature(state) == signature(swapped)


# ---------------------------------------------------------------------------
# oracle, graded against closed-form toy specs and the real engine
# ---------------------------------------------------------------------------


def test_oracle_counter_closed_form():
    spec = CounterSpec(n_nodes=2, maximum=3)
    result = oracle_explore(spec, compute_orbits=True)
    assert result.states == (3 + 1) ** 2 == 16
    assert result.diameter == 2 * 3
    assert result.orbit_states == math.comb(3 + 2, 2) == 10
    assert result.min_violation_depth is None


def test_oracle_matches_engine_on_counter():
    spec = CounterSpec(n_nodes=3, maximum=2)
    oracle = oracle_explore(spec, compute_orbits=True)
    serial = bfs_explore(spec)
    assert serial.stats.distinct_states == oracle.states
    assert serial.stats.transitions == oracle.transitions
    assert serial.stats.max_depth == oracle.diameter
    reduced = bfs_explore(spec, symmetry=True)
    assert reduced.stats.distinct_states == oracle.orbit_states
    assert reduced.stats.transitions == oracle.orbit_transitions
    assert reduced.stats.max_depth == oracle.orbit_diameter


def test_oracle_token_ring_violation_depth():
    # The buggy ring's minimal MutualExclusion counterexample is depth 2.
    result = oracle_explore(TokenRingSpec(buggy=True))
    assert result.min_violation_depth == 2
    assert "MutualExclusion" in result.violation_invariants
    engine = bfs_explore(TokenRingSpec(buggy=True))
    assert engine.found_violation
    assert engine.violation.depth == 2


def test_oracle_counts_constraint_pruning():
    # TokenRing prunes at steps == max_steps; the oracle's census must
    # match the engine's stats including pruned frontier states.
    spec = TokenRingSpec(buggy=False, max_steps=6)
    oracle = oracle_explore(spec)
    engine = bfs_explore(spec)
    assert engine.stats.distinct_states == oracle.states
    assert engine.stats.transitions == oracle.transitions
    assert engine.stats.max_depth == oracle.diameter
    assert engine.stats.pruned == oracle.pruned
    assert oracle.pruned > 0


# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------


def test_matrix_covers_required_cells():
    generated = generate_spec("matrix:0")
    names = {config.name for config in build_matrix(generated, parallel=True)}
    assert {
        "census/serial-memory",
        "census/serial-memo-cap-2",
        "census/serial-disk",
        "census/durable-resume",
    } <= names
    if generated.symmetric:
        assert "census/serial-symmetry" in names
        assert "census/serial-symmetry-memo-cap-2" in names
    if generated.planted is not None:
        assert "violation/serial-memory" in names
        assert "violation/serial-memo-cap-2" in names
        assert "violation/durable-resume" in names


def test_channel_specs_are_deterministic():
    params = GenParams(n_channels=2, channel_states=3, n_channel_actions=2)
    first = generate_spec("chan:7", params)
    second = generate_spec("chan:7", params)
    a = oracle_explore(first.spec(invariants=False))
    b = oracle_explore(second.spec(invariants=False))
    assert a.to_dict() == b.to_dict()
    init = next(iter(first.spec(invariants=False).init_states()))
    assert init["chan0"] == 0 and init["chan1"] == 0


def test_default_params_generate_no_channels():
    generated = generate_spec("chan:8", GenParams())
    init = next(iter(generated.spec(invariants=False).init_states()))
    assert "chan0" not in init


def test_channel_actions_touch_only_their_variables():
    """An uncoupled channel action rebinds only its channel, so the
    planted invariant (declared over ``locals`` and ``glob``) is skipped
    on its successors; a coupled one also rebinds ``glob``."""
    from repro.core.state import changed_keys

    params = GenParams(
        n_channels=2, channel_states=2, n_channel_actions=4, couple_p=0.5
    )
    generated = generate_spec("chan:9", params)
    spec = generated.spec(invariants=True)
    (invariant,) = spec.invariants()
    assert invariant.reads == {"locals", "glob"}
    allowed = {
        f"Chan{index}": {f"chan{channel}"} | ({"glob"} if coupled else set())
        for index, (channel, coupled, _) in enumerate(generated.channel_tables)
    }
    fired = set()
    for state in oracle_explore(spec).depths:
        for transition in spec.successors(state):
            if transition.action in allowed:
                fired.add(transition.action)
                touched = changed_keys(transition.target, state)
                assert touched <= allowed[transition.action], transition.label
    # Both kinds fired, so both footprints were checked.
    assert {"glob" in allowed[name] for name in fired} == {True, False}


def test_channel_spec_agrees_across_matrix():
    params = GenParams(
        n_channels=2, channel_states=2, n_channel_actions=2, couple_p=1.0
    )
    generated = generate_spec("chan:10", params)
    _, disagreements = check_spec(generated, parallel=False)
    assert disagreements == [], [d.describe() for d in disagreements]


def test_check_spec_agrees_on_a_few_seeds():
    for index in range(3):
        generated = generate_spec(f"agree:{index}")
        _, disagreements = check_spec(generated, parallel=False)
        assert disagreements == [], [d.describe() for d in disagreements]


def test_a_retired_compact_cell_runs_on_the_default_store():
    # Artifacts written before the store merge name store="compact".
    generated = generate_spec("agree:0")
    retired = MatrixConfig("census/serial-compact", "census", store="compact")
    _, disagreements = check_spec(generated, parallel=False, configs=[retired])
    assert disagreements == [], [d.describe() for d in disagreements]


@pytest.mark.slow
def test_check_spec_agrees_with_workers():
    generated = generate_spec("agree-parallel:0")
    _, disagreements = check_spec(generated, parallel=True)
    assert disagreements == [], [d.describe() for d in disagreements]


def test_matrix_includes_socket_distributed_cells():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("parallel cells require the fork start method")
    generated = generate_spec("dist:0")
    names = {config.name for config in build_matrix(generated, parallel=True)}
    assert {"census/dist-2", "census/fast-dist-2", "census/dist-kill"} <= names
    if generated.planted is not None:
        assert {"violation/dist-2", "violation/dist-kill"} <= names


def test_run_differential_report_and_determinism(tmp_path):
    report = run_differential(2, seed="sweep", parallel=False)
    assert report.ok
    assert report.specs == 2
    assert report.graded > 0
    again = run_differential(2, seed="sweep", parallel=False)
    assert again.cells == report.cells


def test_artifact_round_trip(tmp_path):
    # Force a disagreement by grading against a config the harness can't
    # run: an oracle mismatch is simulated with a doctored planted depth.
    generated = generate_spec("artifact:0")
    assert generated.planted is not None
    import dataclasses

    from repro.testkit import OracleResult

    item = Disagreement(
        spec_seed=generated.seed,
        params=generated.params,
        config=MatrixConfig("violation/serial-memory", "violation"),
        field="violation_depth",
        expected=generated.planted.depth + 1,
        actual=generated.planted.depth,
    )
    oracle = OracleResult(
        states=1,
        transitions=0,
        diameter=0,
        pruned=0,
        min_violation_depth=None,
        violation_invariants=(),
    )
    path = write_artifact(tmp_path, item, oracle=oracle.to_dict())
    raw = read_json(path)
    assert raw["kind"] == Disagreement.kind == item.kind
    assert raw["cell"] == "violation/serial-memory"
    assert raw["oracle"]["states"] == 1
    assert raw["spec_seed"] == generated.seed
    assert GenParams.from_dict(raw["params"]) == generated.params
    original, fresh = replay_artifact(path)
    assert original.field == "violation_depth"
    assert dataclasses.asdict(original.config) == raw["config"]
    # The engine is healthy, so the (fabricated) disagreement does not
    # reproduce: the replayed cell agrees with the oracle.
    assert fresh == []


def test_matrix_config_drops_or_refuses_the_retired_pipeline_key():
    raw = MatrixConfig("census/serial-memory", "census").to_dict()
    assert MatrixConfig.from_dict({**raw, "compiled": True}) == MatrixConfig.from_dict(raw)
    retired = {**raw, "name": "census/serial-interpreted", "compiled": False}
    with pytest.raises(ValueError, match="census/serial-interpreted"):
        MatrixConfig.from_dict(retired)


def test_replay_artifact_rejects_foreign_json(tmp_path):
    from repro.persist.rundir import atomic_write_json

    path = tmp_path / "other.json"
    atomic_write_json(path, {"kind": "something-else"})
    with pytest.raises(RunDirError, match="not a selftest artifact"):
        replay_artifact(path)


# ---------------------------------------------------------------------------
# action-fire coverage: oracle ground truth vs. engine counters
# ---------------------------------------------------------------------------


def test_oracle_action_fires_partition_transitions():
    oracle = oracle_explore(TokenRingSpec(3), compute_orbits=False)
    assert set(oracle.action_fires) == {"PassToken", "Enter", "Leave"}
    assert sum(oracle.action_fires.values()) == oracle.transitions


def test_oracle_orbit_action_fires_partition_quotient():
    oracle = oracle_explore(CounterSpec(3, 2), compute_orbits=True)
    assert sum(oracle.action_fires.values()) == oracle.transitions
    assert sum(oracle.orbit_action_fires.values()) == oracle.orbit_transitions
    assert oracle.orbit_action_fires["Increment"] < oracle.action_fires["Increment"]


def test_oracle_action_fires_serialized_in_to_dict():
    oracle = oracle_explore(CounterSpec(2, 1), compute_orbits=True)
    rendered = oracle.to_dict()
    assert rendered["action_fires"] == oracle.action_fires
    assert rendered["orbit_action_fires"] == oracle.orbit_action_fires


def test_engine_fire_counters_match_oracle():
    from repro.obs import ACTION_FIRES, MetricsRegistry

    spec = TokenRingSpec(3)
    oracle = oracle_explore(spec)
    registry = MetricsRegistry()
    bfs_explore(spec, metrics=registry)
    assert dict(registry.counts(ACTION_FIRES)) == oracle.action_fires


def test_engine_fire_counters_match_oracle_under_symmetry():
    from repro.obs import ACTION_FIRES, MetricsRegistry

    spec = CounterSpec(3, 2)
    oracle = oracle_explore(spec, compute_orbits=True)
    registry = MetricsRegistry()
    bfs_explore(spec, symmetry=True, metrics=registry)
    assert dict(registry.counts(ACTION_FIRES)) == oracle.orbit_action_fires


def test_grade_flags_a_discontinuous_counterexample():
    import dataclasses

    from repro.core import Trace
    from repro.testkit.differential import _grade

    generated = generate_spec("plant:0")
    config = next(
        c
        for c in build_matrix(generated, parallel=False)
        if c.name == "violation/serial-memory"
    )
    oracle = oracle_explore(generated.spec(invariants=False))
    result = bfs_explore(generated.spec())
    assert _grade(generated, config, oracle, result) == []

    # A last step that no transition of the state before it takes — the
    # shape of a step glued onto a permutation of its pre-state.
    trace = result.violation.trace
    stray = dataclasses.replace(trace[-1], args=("nowhere",))
    result.violation.trace = Trace(trace.initial, [*trace.steps[:-1], stray])
    bad = _grade(generated, config, oracle, result)
    assert [(d.field, d.expected, d.actual) for d in bad] == [
        ("continuity", None, trace.depth - 1)
    ]


def test_grade_flags_corrupted_fire_counters():
    from repro.obs import ACTION_FIRES, MetricsRegistry
    from repro.testkit.differential import _grade

    generated = generate_spec("fires:0")
    config = next(
        c for c in build_matrix(generated, parallel=False) if c.phase == "census"
    )
    oracle = oracle_explore(generated.spec(), compute_orbits=config.symmetry)
    registry = MetricsRegistry()
    result = bfs_explore(
        generated.spec(),
        symmetry=config.symmetry,
        stop_on_violation=False,  # census cells complete the space
        metrics=registry,
    )
    assert _grade(generated, config, oracle, result, registry) == []

    # An off-by-one in any action's counter is a graded disagreement.
    fires = registry.counts(ACTION_FIRES)
    victim = next(iter(fires))
    fires[victim] += 1
    bad = _grade(generated, config, oracle, result, registry)
    assert [d.field for d in bad] == ["action_fires"]
    assert bad[0].actual[victim] == bad[0].expected[victim] + 1
