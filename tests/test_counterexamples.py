"""Counterexample continuity: every BFS violation becomes a trace by one
rule (:func:`repro.core.explorer.resolve_violation`), and in that trace
every step is a transition of the state before it — the same action,
arguments and target — whether the run is serial, sharded, fast or
killed and resumed, with symmetry reduction or without.

The implementation replayer (§3.4) follows a counterexample step by
step, so a step glued onto a permutation of the state it was taken from
is a counterexample that cannot be confirmed.
"""

import pytest

from repro.core import (
    PendingTrace,
    SymmetryReducer,
    Trace,
    TransitionInvariant,
    Violation,
    bfs_explore,
    resolve_violation,
)
from repro.core.engine import continuity_break
from repro.persist import run_check

from toy_specs import CounterSpec


class EdgeCounterSpec(CounterSpec):
    """:class:`CounterSpec` with its bound checked on edges instead."""

    name = "counters-edge"

    def invariants(self):
        return ()

    def transition_invariants(self):
        bound = self.bound

        def within_bound(pre, transition):
            return sum(transition.target["counters"].values()) <= bound

        return (TransitionInvariant("StepWithinBound", within_bound),)


#: violation kind -> a 4-node spec whose minimal counterexample is 10 steps
SPECS = {
    "state": lambda: CounterSpec(4, 4, bound=9),
    "transition": lambda: EdgeCounterSpec(4, 4, bound=9),
}


class Killed(RuntimeError):
    pass


def kill_at_second_checkpoint(checkpointer):
    if checkpointer.checkpoints_written == 2:
        raise Killed


def durable_resumed(spec, symmetry, tmp_path):
    """A durable run killed at its second checkpoint, then resumed."""
    run_dir = tmp_path / "run"
    with pytest.raises(Killed):
        run_check(
            spec,
            run_dir,
            symmetry=symmetry,
            checkpoint_states=10,
            on_checkpoint=kill_at_second_checkpoint,
        )
    return run_check(
        spec, run_dir, resume=True, symmetry=symmetry, checkpoint_states=10
    )


MODES = {
    "serial": lambda spec, symmetry, _: bfs_explore(spec, symmetry=symmetry),
    "workers-2": lambda spec, symmetry, _: bfs_explore(
        spec, symmetry=symmetry, workers=2
    ),
    "workers-3": lambda spec, symmetry, _: bfs_explore(
        spec, symmetry=symmetry, workers=3
    ),
    "fast": lambda spec, symmetry, _: bfs_explore(spec, symmetry=symmetry, fast=True),
    "durable-resume": durable_resumed,
}


@pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", SPECS)
def test_every_step_follows_from_the_state_before_it(kind, mode, symmetry, tmp_path):
    spec = SPECS[kind]()
    violation = MODES[mode](spec, symmetry, tmp_path).violation
    assert violation is not None and violation.kind == kind
    trace = violation.trace
    assert not trace.pending and violation.depth == 10
    assert continuity_break(spec, trace) is None
    assert sum(trace.final_state["counters"].values()) == 10


def test_a_step_from_another_state_is_a_break():
    spec = SPECS["state"]()
    trace = bfs_explore(spec).violation.trace
    assert continuity_break(spec, trace) is None
    swapped = Trace(trace.initial, [trace[1], trace[0], *trace.steps[2:]])
    assert continuity_break(spec, swapped) == 0
    tail = Trace(trace.initial, [*trace.steps[:-1], trace[-2]])
    assert continuity_break(spec, tail) == trace.depth - 1


def test_a_concrete_trace_passes_through_the_resolver():
    spec = SPECS["transition"]()
    violation = bfs_explore(spec, symmetry=True).violation
    assert resolve_violation(spec, violation) is violation


def test_an_unanchored_pending_trace_is_researched():
    # what a fast serial run wrote into its checkpoint header before
    # violations were anchored
    spec = SPECS["state"]()
    reference = bfs_explore(spec, symmetry=True).violation
    pending = Violation(reference.invariant, PendingTrace(10), reference.kind)
    reducer = SymmetryReducer(spec.symmetry_sets())
    resolved = resolve_violation(spec, pending, reducer=reducer)
    assert resolved.trace.to_dict() == reference.trace.to_dict()


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="ROADMAP item 9: the UDP datagram bag is not closed under node"
    " permutations, so a replayed permutation of a stored state can have no"
    " successor in the stored state's orbit ('trace re-execution failed')",
)
@pytest.mark.parametrize("bug_id", ["DaosRaft#1", "RaftOS#2"])
def test_symmetric_udp_counterexample_replays(bug_id):
    """A registry bug found under ``--symmetry`` resolves to a trace whose
    every step follows from the state before it."""
    from repro.bugs import BUGS

    result = bfs_explore(BUGS[bug_id].make_spec(), symmetry=True)
    assert result.found_violation
    assert continuity_break(BUGS[bug_id].make_spec(), result.violation.trace) is None
