"""Ablations for the design choices DESIGN.md calls out.

* Symmetry reduction (§3.3): canonical-state storage shrinks the space
  by up to |nodes|! — measured on an exhaustible Raft model.
* Stateful vs. stateless exploration (§2.1): revisiting states without a
  fingerprint set multiplies work; measured as the ratio of transitions
  fired to distinct states.
* Fast vs. collision-resistant fingerprints: the explorer's default
  64-bit hash against blake2b.
* Conformance comparison granularity: comparing after every event vs.
  only at the end of the trace.
"""

from repro.conformance import ConformanceChecker, mapping_for
from repro.core import bfs_explore
from repro.core.simulation import simulate
from repro.specs.raft import PySyncObjSpec, RaftConfig
from repro.systems import PySyncObjNode

SMALL = RaftConfig(
    nodes=("n1", "n2", "n3"),
    values=("v1",),
    max_timeouts=2,
    max_requests=1,
    max_crashes=0,
    max_restarts=0,
    max_partitions=0,
    max_buffer=3,
    max_term=2,
)


def test_symmetry_reduction(benchmark, emit):
    def run():
        plain = bfs_explore(PySyncObjSpec(SMALL))
        reduced = bfs_explore(PySyncObjSpec(SMALL), symmetry=True)
        return plain, reduced

    plain, reduced = benchmark.pedantic(run, rounds=1, iterations=1)
    assert plain.exhausted and reduced.exhausted
    assert reduced.stats.distinct_states < plain.stats.distinct_states
    ratio = plain.stats.distinct_states / reduced.stats.distinct_states
    emit(
        "ablation_symmetry",
        [
            f"plain BFS:     {plain.stats.distinct_states} states in {plain.stats.elapsed:.2f}s",
            f"with symmetry: {reduced.stats.distinct_states} states in {reduced.stats.elapsed:.2f}s",
            f"reduction:     {ratio:.2f}x (group size 3! = 6 upper bound)",
        ],
    )


def test_stateful_vs_stateless(benchmark, emit):
    """Stateful BFS expands each state once; random walks (the stateless
    proxy) revisit the same prefixes over and over."""

    def run():
        stateful = bfs_explore(PySyncObjSpec(SMALL))
        stateless = simulate(
            PySyncObjSpec(SMALL), n_walks=500, max_depth=30, check_invariants=False
        )
        steps = 0
        visited = set()
        for walk in stateless.walks:
            steps += walk.depth
            for state in walk.trace.states():
                visited.add(hash(state))
        return stateful, steps, len(visited)

    stateful, steps, unique = benchmark.pedantic(run, rounds=1, iterations=1)
    distinct = stateful.stats.distinct_states
    emit(
        "ablation_stateful",
        [
            f"stateful BFS: {distinct} distinct states, each expanded once",
            f"500 random walks: {steps} state visits but only {unique} distinct states",
            f"stateless redundancy: {steps / unique:.1f}x revisits"
            f" (and {unique / distinct:.1%} coverage of the space)",
        ],
    )
    assert steps > unique  # the stateless proxy revisits states


def test_conformance_granularity(benchmark, emit):
    """Per-event comparison costs more but localizes discrepancies; the
    paper compares after each action (§A.4)."""

    spec = PySyncObjSpec(RaftConfig(nodes=("n1", "n2", "n3")))
    mapping = mapping_for("pysyncobj", spec.nodes)

    def run():
        per_step = ConformanceChecker(spec, PySyncObjNode, mapping)
        final_only = ConformanceChecker(
            spec, PySyncObjNode, mapping, compare_every_step=False
        )
        a = per_step.run(quiet_period=3.0, max_traces=40, seed=1)
        b = final_only.run(quiet_period=3.0, max_traces=40, seed=1)
        return a, b

    per_step, final_only = benchmark.pedantic(run, rounds=1, iterations=1)
    assert per_step.passed and final_only.passed
    emit(
        "ablation_conformance_granularity",
        [
            f"per-event comparison:  {per_step.traces_checked} traces in {per_step.elapsed:.2f}s",
            f"final-state comparison: {final_only.traces_checked} traces in {final_only.elapsed:.2f}s",
        ],
    )
