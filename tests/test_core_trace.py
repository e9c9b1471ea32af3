"""Tests for traces and violations."""

import json

import pytest

from repro.core import PendingTrace, Rec, Trace, TraceStep, Violation, bfs_explore
from repro.temporal import LassoTrace

from toy_specs import TokenRingSpec


def make_trace():
    s0 = Rec(x=0)
    s1 = Rec(x=1)
    s2 = Rec(x=2)
    return Trace(
        s0,
        [
            TraceStep("Inc", ("n1",), s1),
            TraceStep("Inc", ("n2",), s2, branch="fast"),
        ],
    )


class TestTrace:
    def test_depth_and_iteration(self):
        trace = make_trace()
        assert trace.depth == len(trace) == 2
        assert [s.action for s in trace] == ["Inc", "Inc"]

    def test_states_includes_initial(self):
        trace = make_trace()
        states = list(trace.states())
        assert len(states) == 3
        assert states[0]["x"] == 0
        assert states[-1]["x"] == 2

    def test_final_state(self):
        assert make_trace().final_state["x"] == 2
        assert Trace(Rec(x=9)).final_state["x"] == 9

    def test_extend_is_persistent(self):
        trace = make_trace()
        longer = trace.extend(TraceStep("Inc", ("n1",), Rec(x=3)))
        assert trace.depth == 2
        assert longer.depth == 3

    def test_labels(self):
        assert make_trace().labels() == ["Inc(n1)", "Inc(n2)"]

    def test_json_serialization(self):
        data = json.loads(make_trace().to_json())
        assert data["initial"] == {"x": 0}
        assert data["steps"][1]["branch"] == "fast"
        assert data["steps"][1]["state"] == {"x": 2}

    def test_hashable_consistent_with_equality(self):
        a, b = make_trace(), make_trace()
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "found"}[b] == "found"

    def test_summary_mentions_every_step(self):
        summary = make_trace().summary()
        assert "Inc(n1)" in summary
        assert "Inc(n2)" in summary

    def test_indexing(self):
        assert make_trace()[0].action == "Inc"


class TestViolation:
    def test_describe_includes_invariant_and_depth(self):
        result = bfs_explore(TokenRingSpec(n_nodes=3, buggy=True))
        text = result.violation.describe()
        assert "MutualExclusion" in text
        assert "depth 2" in text

    def test_violation_repr(self):
        violation = Violation("Inv", make_trace())
        assert "Inv" in repr(violation)
        assert violation.depth == 2


def _shapes():
    """A violation of every shape ``Violation.to_dict`` writes."""
    msg = Rec(type="Append", term=1, entries=(Rec(term=1),))
    step = TraceStep("Receive", ("n1", msg), Rec(term=1), branch="ok")
    return {
        "real": Violation("Inv", make_trace(), detail="x is 2"),
        "pending": Violation("Inv", PendingTrace(3)),
        "anchored": Violation("Inv", PendingTrace(2, 2**64 - 1)),
        "anchored-step": Violation(
            "TermStaysZero", PendingTrace(1, 12345, step), kind="transition"
        ),
        "liveness": LassoTrace(make_trace(), cycle_start=1).violation("ev"),
    }


class TestViolationRecord:
    """``Violation.to_dict``/``from_dict`` is the one serialised form: a
    worker reply, ``parallel.json``, a checkpoint header and an artifact."""

    @pytest.mark.parametrize("shape", sorted(_shapes()))
    def test_round_trip(self, shape):
        violation = _shapes()[shape]
        raw = json.loads(json.dumps(violation.to_dict()))
        back = Violation.from_dict(raw)
        assert back.to_dict() == violation.to_dict() == raw
        assert (back.invariant, back.kind, back.detail, back.depth) == (
            violation.invariant, violation.kind, violation.detail, violation.depth
        )
        trace = back.trace
        assert trace.pending == violation.trace.pending
        if trace.pending:
            assert (trace.anchor, trace.step) == (
                violation.trace.anchor, violation.trace.step
            )
        else:
            assert trace == violation.trace

    def test_record_args_survive(self):
        step = Violation.from_dict(_shapes()["anchored-step"].to_dict()).trace.step
        assert step.args == ("n1", Rec(type="Append", term=1, entries=(Rec(term=1),)))
        assert step.branch == "ok"

    def test_liveness_record_describes_the_lasso(self):
        raw = _shapes()["liveness"].to_dict()
        assert raw["kind"] == "liveness"
        assert raw["detail"].startswith("lasso: prefix of 1")

    def test_record_without_depth_loads(self):
        # a serial checkpoint header written before the record carried
        # its depth
        old = {"invariant": "Inv", "kind": "state", "detail": "",
               "trace": {"pending_depth": 2}}
        assert Violation.from_dict(old).depth == 2

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda raw: list(raw.values()), id="not-object"),
            pytest.param(lambda raw: {**raw, "invariant": None}, id="no-invariant"),
            pytest.param(lambda raw: {**raw, "depth": 2}, id="depth-not-trace"),
            pytest.param(
                lambda raw: {**raw, "trace": {**raw["trace"], "anchor": 2**64}},
                id="anchor-too-big",
            ),
            pytest.param(
                lambda raw: {**raw, "trace": {**raw["trace"], "anchor": "12345"}},
                id="anchor-str",
            ),
            pytest.param(
                lambda raw: {**raw, "trace": {
                    k: v for k, v in raw["trace"].items() if k != "anchor"
                }},
                id="step-without-anchor",
            ),
            pytest.param(
                lambda raw: {**raw, "trace": {**raw["trace"], "step": {"args": []}}},
                id="step-without-action",
            ),
            pytest.param(
                lambda raw: {**raw, "trace": {**raw["trace"], "step": {
                    **raw["trace"]["step"], "state_codec": "zz"
                }}},
                id="step-bad-hex",
            ),
            # the 8-tuple shard workers sent before the one record form
            pytest.param(
                lambda raw: ["transition", "Inv", 1, 5, "Act", [], "", None],
                id="descriptor",
            ),
        ],
    )
    def test_refused(self, change):
        raw = json.loads(json.dumps(_shapes()["anchored-step"].to_dict()))
        with pytest.raises(ValueError):
            Violation.from_dict(change(raw))
