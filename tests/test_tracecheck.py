"""Tests for :mod:`repro.tracecheck`: log format, matcher, and fuzzer.

The matcher is graded two ways: directly on generated specs with
planted divergences whose first-divergence index the testkit oracle
knows, and differentially against :func:`repro.testkit.naive_validate`
(which shares no code with the matcher on the answer path).
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import Action, Rec, Spec
from repro.core.engine import action_kinds
from repro.dist.specref import make_spec
from repro.persist import RunDir
from repro.testkit import (
    MUTATION_KINDS,
    generate_spec,
    naive_validate,
    plant_divergence,
    run_log_fuzz,
    sample_params,
    walk_log,
)
from repro.tracecheck import (
    FORMAT_VERSION,
    LogEvent,
    LogHeader,
    TraceLogError,
    ValidationReport,
    observe,
    parse_lines,
    read_log,
    render_lines,
    validate_log,
    write_log,
    write_report_artifact,
)


def _generated(seed):
    params = sample_params(random.Random(f"{seed}-params"))
    return generate_spec(f"{seed}-spec", params), params


def _malformed(line, key, value):
    """A valid two-event log with ``key`` of line ``line`` set to ``value``."""
    records = [
        {"k": "header", "v": FORMAT_VERSION, "spec": "pysyncobj", "nodes": ["n1"]},
        {"k": "event", "i": 0, "node": "n1", "seq": 1, "kind": "timeout", "args": ["n1"]},
        {"k": "event", "i": 1, "node": "n1", "seq": 2, "kind": "timeout", "obs": {}},
    ]
    records[line - 1][key] = value
    return b"".join(json.dumps(record).encode() + b"\n" for record in records), line


_VALID, _ = _malformed(1, "meta", {})


#: Hostile logs that used to escape as untyped errors or parse wrongly:
#: name -> (file bytes, the line the error must name).
_MALFORMED = {
    "obs-list": _malformed(3, "obs", [1]),
    "args-int": _malformed(2, "args", 5),
    "nodes-int": _malformed(1, "nodes", 3),
    "rec-int": _malformed(2, "args", [{"$rec": 5}]),
    "bytes-hex": _malformed(3, "obs", {"currentTerm": {"$bytes": "zz"}}),
    "meta-str": _malformed(1, "meta", "ab"),
    "seq-bool": _malformed(2, "seq", True),
    "index-bool": _malformed(3, "i", True),
    "node-int": _malformed(2, "node", 5),
    "name-int": _malformed(3, "name", 5),
    "deep": (_VALID + b"[" * 100_000 + b"\n", 4),
    "not-utf8": (_VALID.replace(b'"n1", "seq": 2', b'"\xff", "seq": 2'), 3),
}

#: Arbitrary JSON values, biased towards the tags of the value codec.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["$tuple", "$set", "$rec", "$bytes", "$codec", "$str", "k"]),
        inner,
        max_size=2,
    ),
    max_leaves=6,
)


def _slots(node):
    """Every ``(container, key)`` position inside a decoded JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    slots = []
    for key, child in list(items):
        slots.append((node, key))
        if isinstance(child, (dict, list)):
            slots.extend(_slots(child))
    return slots


_PIN_OBSERVED = ("currentTerm", "role")


def _system_walk(spec, kinds, rng, length, named, hidden=frozenset()):
    """A seeded random walk of a system spec as an event log.

    Events carry the kind only, or (``named``) the action name and the
    node argument.  Transitions of ``hidden`` actions leave no event, so
    matching the log needs the stutter closure.
    """
    nodes = set(spec.nodes)
    state = next(iter(spec.init_states()))
    events = []
    for _ in range(3 * length):
        transitions = list(spec.successors(state))
        if not transitions or len(events) == length:
            break
        transition = transitions[rng.randrange(len(transitions))]
        state = transition.target
        if transition.action in hidden:
            continue
        args = transition.args
        node = args[0] if args and args[0] in nodes else ""
        events.append(
            LogEvent(
                node=node,
                kind=kinds[transition.action],
                name=transition.action if named else None,
                args=tuple(args[:1]) if named else (),
                obs=observe(state, node, _PIN_OBSERVED),
            )
        )
    return events


def _pin_logs():
    """Seeded PySyncObj and WRaft logs: clean, one kind swapped, one
    event dropped; kind-only and named."""
    for system, hidden in (("pysyncobj", ()), ("wraft", ("CompactLog",))):
        spec = make_spec(system, 3, (), None)
        kinds = action_kinds(spec)
        all_kinds = sorted(set(kinds.values()))
        for seed in range(2):
            for named in (False, True):
                rng = random.Random(f"pin-{system}-{seed}-{named}")
                events = _system_walk(spec, kinds, rng, 10, named, frozenset(hidden))
                at = rng.randrange(len(events))
                swapped = list(events)
                other = [k for k in all_kinds if k != events[at].kind]
                swapped[at] = dataclasses.replace(
                    events[at], kind=rng.choice(other), name=None, args=()
                )
                dropped = events[:at] + events[at + 1 :]
                for log in (events, swapped, dropped):
                    yield spec, log


class _Uncompiled:
    """A raw spec behind a front that is not a ``Spec``.

    ``compile_spec`` hands anything that is not a ``Spec`` back as is,
    so :func:`validate_log` runs its engine over the raw spec's
    ``successors``: the interpreted reference the compiled matcher is
    held to.
    """

    def __init__(self, spec):
        self.spec = spec

    def __getattr__(self, name):
        return getattr(self.spec, name)


def _pin_digest():
    """SHA-256 over the reports of the pin corpus, ``stats.elapsed`` aside,
    across stutter depths 0-2, ``max_frontier`` 1,024 and 2, compiled and
    interpreted."""
    digest = hashlib.sha256()
    for spec, log in _pin_logs():
        for stutter in (0, 1, 2):
            for max_frontier in (1024, 2):
                for run_spec in (spec, _Uncompiled(spec)):
                    payload = validate_log(
                        run_spec,
                        log,
                        stutter_depth=stutter,
                        max_frontier=max_frontier,
                    ).to_dict()
                    del payload["stats"]["elapsed"]
                    digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def _walk(seed, length=8):
    generated, params = _generated(seed)
    events = walk_log(generated, random.Random(f"{seed}-walk"), length=length)
    return generated.spec(invariants=False), params, events


class TestLogFormat:
    def test_round_trip_is_byte_stable(self):
        _, _, events = _walk("fmt-0")
        header = LogHeader(spec="testkit", nodes=("n1", "n2"), observed=("glob",))
        lines = render_lines(header, events)
        log = parse_lines(lines)
        assert log.lines() == lines
        # And once more through the parsed representation.
        assert parse_lines(log.lines()).lines() == lines

    def test_file_round_trip(self, tmp_path):
        _, _, events = _walk("fmt-1")
        header = LogHeader(spec="testkit", nodes=("n1",))
        path = tmp_path / "events.log"
        write_log(path, header, events)
        log = read_log(path)
        assert log.header.spec == "testkit"
        assert log.lines() == render_lines(header, events)

    def test_render_assigns_per_node_sequences(self):
        events = [
            LogEvent(node="a", kind="internal"),
            LogEvent(node="b", kind="internal"),
            LogEvent(node="a", kind="internal"),
        ]
        lines = render_lines(LogHeader(spec="s"), events)
        seqs = [(json.loads(x)["node"], json.loads(x)["seq"]) for x in lines[1:]]
        assert seqs == [("a", 1), ("b", 1), ("a", 2)]

    def test_render_rejects_stale_sequence(self):
        events = [
            LogEvent(node="a", kind="internal", seq=2),
            LogEvent(node="a", kind="internal", seq=2),
        ]
        with pytest.raises(TraceLogError, match="not greater"):
            render_lines(LogHeader(spec="s"), events)

    def test_missing_header_rejected(self):
        with pytest.raises(TraceLogError, match="no header"):
            parse_lines([])

    def test_event_before_header_rejected(self):
        line = json.dumps({"k": "event", "i": 0, "node": "a", "seq": 1, "kind": "x"})
        with pytest.raises(TraceLogError, match="before header"):
            parse_lines([line])

    def test_unsupported_version_rejected(self):
        header = json.dumps({"k": "header", "v": FORMAT_VERSION + 1, "spec": "s"})
        with pytest.raises(TraceLogError, match="version"):
            parse_lines([header])

    def test_index_gap_rejected(self):
        header = json.dumps({"k": "header", "v": FORMAT_VERSION, "spec": "s"})
        event = json.dumps(
            {"k": "event", "i": 3, "node": "a", "seq": 1, "kind": "internal"}
        )
        with pytest.raises(TraceLogError, match="expected 0"):
            parse_lines([header, event])

    def test_non_monotonic_sequence_rejected(self):
        header = json.dumps({"k": "header", "v": FORMAT_VERSION, "spec": "s"})
        e0 = json.dumps(
            {"k": "event", "i": 0, "node": "a", "seq": 2, "kind": "internal"}
        )
        e1 = json.dumps(
            {"k": "event", "i": 1, "node": "a", "seq": 1, "kind": "internal"}
        )
        with pytest.raises(TraceLogError, match="monotonically"):
            parse_lines([header, e0, e1])

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_log_is_a_typed_error_naming_the_line(self, case, tmp_path):
        data, lineno = _MALFORMED[case]
        path = tmp_path / "bad.log"
        path.write_bytes(data)
        with pytest.raises(TraceLogError, match=f"line {lineno}"):
            read_log(path)

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_validate_trace_refuses_malformed_log(self, case, tmp_path, capsys):
        path = tmp_path / "bad.log"
        path.write_bytes(_MALFORMED[case][0])
        assert cli_main(["validate-trace", str(path)]) == 2
        assert "bad event log" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_mutation_parses_or_raises_trace_log_error(self, data):
        _, _, events = _walk("fmt-mut")
        header = LogHeader(spec="testkit", nodes=("n1", "n2"), observed=("glob",))
        lines = render_lines(header, events)
        at = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(("value", "text", "line")))
        if how == "value":
            record = json.loads(lines[at])
            container, key = data.draw(st.sampled_from(_slots(record)))
            container[key] = data.draw(_JSON_VALUES)
            lines[at] = json.dumps(record)
        elif how == "text":
            start = data.draw(st.integers(0, len(lines[at])))
            stop = data.draw(st.integers(start, len(lines[at])))
            lines[at] = lines[at][:start] + data.draw(st.text(max_size=4)) + lines[at][stop:]
        else:
            lines.insert(data.draw(st.integers(0, len(lines))), lines.pop(at))
        try:
            parse_lines(lines)
        except TraceLogError:
            pass


class TestMatcher:
    def test_clean_walk_conforms(self):
        spec, _, events = _walk("clean-0")
        assert events, "walk produced no events"
        report = validate_log(spec, events)
        assert report.conforms
        assert report.events_matched == len(events)
        assert report.divergence_index is None
        assert not report.frontier_limited

    def test_planted_corruption_reported_at_oracle_index(self):
        for seed in range(8):
            spec, params, events = _walk(f"corrupt-{seed}")
            planted = plant_divergence(
                spec, params, events, "corrupt", random.Random(f"m-{seed}")
            )
            if planted is None:
                continue
            report = validate_log(spec, planted.events)
            assert not report.conforms
            assert report.divergence_index == planted.oracle_index
            assert planted.oracle_index >= planted.planted_index
            # The frontier was non-empty at every level before the
            # divergence: the last consistent frontier is retained.
            assert report.last_frontier
            return
        pytest.fail("no seed produced a plantable corruption")

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(MUTATION_KINDS),
    )
    def test_verdict_agrees_with_naive_oracle(self, seed, kind):
        spec, params, events = _walk(f"hyp-{seed}")
        planted = plant_divergence(
            spec, params, events, kind, random.Random(f"hyp-m-{seed}")
        )
        candidates = events if planted is None else planted.events
        report = validate_log(spec, candidates)
        conforms, index = naive_validate(spec, candidates)
        assert report.conforms == conforms
        if not conforms and not report.frontier_limited:
            assert report.divergence_index == index

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_no_compile_verdict_identical(self, seed):
        spec, params, events = _walk(f"nc-{seed}")
        planted = plant_divergence(
            spec, params, events, "corrupt", random.Random(f"nc-m-{seed}")
        )
        candidates = events if planted is None else planted.events
        fast = validate_log(spec, candidates)
        slow = validate_log(_Uncompiled(spec), candidates)
        assert fast.conforms == slow.conforms
        assert fast.divergence_index == slow.divergence_index

    def test_stutter_verdict_agrees_with_naive(self):
        checked = 0
        for seed in range(10):
            spec, _, events = _walk(f"st-{seed}")
            internal = [
                i for i, e in enumerate(events[:-1]) if e.kind == "internal"
            ]
            if not internal:
                continue
            gapped = events[: internal[0]] + events[internal[0] + 1 :]
            report = validate_log(spec, gapped, stutter_depth=1)
            conforms, index = naive_validate(spec, gapped, stutter_depth=1)
            assert report.conforms == conforms
            if not conforms and not report.frontier_limited:
                assert report.divergence_index == index
            checked += 1
        assert checked > 0

    def test_partial_observation_projections(self):
        generated, _ = _generated("proj-0")
        spec = generated.spec(invariants=False)
        for observed in [("locals",), ("glob",)]:
            events = walk_log(
                generated, random.Random("proj-walk"), length=6, observed=observed
            )
            if not events:
                continue
            assert all(set(e.obs) <= set(observed) for e in events)
            assert validate_log(spec, events).conforms

    def test_hash_seed_independence(self):
        script = (
            "import json, random\n"
            "from repro.testkit import generate_spec, sample_params,"
            " walk_log, plant_divergence\n"
            "from repro.tracecheck import validate_log\n"
            "params = sample_params(random.Random('hs-params'))\n"
            "gen = generate_spec('hs-spec', params)\n"
            "events = walk_log(gen, random.Random('hs-walk'), length=8)\n"
            "spec = gen.spec(invariants=False)\n"
            "p = plant_divergence(spec, params, events, 'corrupt',"
            " random.Random('hs-m'))\n"
            "report = validate_log(spec, events if p is None else p.events)\n"
            "print(json.dumps({'conforms': report.conforms,"
            " 'index': report.divergence_index}, sort_keys=True))\n"
        )
        outputs = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env.setdefault("PYTHONPATH", "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1


class TestReport:
    def test_dict_round_trip(self):
        spec, params, events = _walk("rep-0")
        planted = plant_divergence(
            spec, params, events, "corrupt", random.Random("rep-m")
        )
        report = validate_log(spec, events if planted is None else planted.events)
        clone = ValidationReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.verdict == report.verdict

    def test_artifact_written_to_run_dir(self, tmp_path):
        spec, _, events = _walk("art-0")
        report = validate_log(spec, events)
        run = RunDir.create(tmp_path / "run", config={"mode": "validate-trace"})
        path = write_report_artifact(run, report)
        payload = json.loads(path.read_text())
        assert payload["conforms"] == report.conforms
        assert run.manifest()["status"] == report.verdict


#: ``_pin_digest()`` of the matcher that expanded every action and
#: recorded near misses while matching.  Generating only the actions an
#: event can name, and replaying near misses at the divergence level,
#: must leave every report byte for byte as it was.
_PIN = "2ff8b91248d54ba7034f58e04e35b57f5dd3596ae153c33056a3b8bffa513862"


class _ProbeSpec(Spec):
    """A counter stepped by client events, and a probe whose kind no
    event names and whose body counts its runs."""

    name = "probe"

    def __init__(self):
        self.probes = 0

    def init_states(self):
        yield Rec(n=0, p=0)

    def actions(self):
        return [
            Action("Step", self._step, kind="client"),
            Action("Probe", self._probe, kind="timeout"),
        ]

    def _step(self, state):
        yield (), state.set("n", state["n"] + 1)
        yield (), state.set("n", state["n"] + 2)

    def _probe(self, state):
        self.probes += 1
        yield (), state.set("p", state["p"] + 1)


class TestCandidateActions:
    def test_reports_match_the_pin(self):
        assert _pin_digest() == _PIN

    @pytest.mark.parametrize("compiled", [True, False])
    def test_unnamed_action_runs_only_to_explain_a_divergence(self, compiled):
        spec = _ProbeSpec()
        run_spec = spec if compiled else _Uncompiled(spec)
        events = [LogEvent(node="", kind="client") for _ in range(3)]
        assert validate_log(run_spec, events).conforms
        assert spec.probes == 0
        # Event 2 observes a value no candidate has: the level-2
        # candidates n = 2, 3, 4 are each replayed once over all actions.
        events[2] = LogEvent(node="", kind="client", obs={"n": 99})
        report = validate_log(run_spec, events)
        assert report.divergence_index == 2
        assert spec.probes == 3
        assert [(m.action, m.reason) for m in report.near_misses] == (
            [("Step", "obs")] * 6 + [("Probe", "action")] * 3
        )


class TestLogFuzz:
    def test_small_sweep_has_zero_false_verdicts(self):
        report = run_log_fuzz(n_specs=4, seed="unit", length=8)
        assert report.ok, report.describe()
        assert report.graded > 0
        # Every mutation kind was exercised at least once.
        graded_kinds = {k for k, n in report.cells.items() if n}
        assert "clean" in graded_kinds
        assert graded_kinds & set(MUTATION_KINDS)

    def test_seed_determinism(self):
        first = run_log_fuzz(n_specs=2, seed="det", length=6)
        second = run_log_fuzz(n_specs=2, seed="det", length=6)
        assert first.cells == second.cells
        assert first.skipped == second.skipped
        assert [f.describe() for f in first.findings] == [
            f.describe() for f in second.findings
        ]
