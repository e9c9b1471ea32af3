"""Tests for the socket worker transport, agents, and elastic membership."""

import json
import socket
import threading
import time

import pytest

from repro.core.explorer import BFSExplorer, bfs_explore
from repro.core.parallel import ForkTransport, WorkerDied
from repro.core.state import Rec
from repro.dist.agent import WorkerAgent
from repro.dist.specref import resolve_spec, system_ref
from repro.dist.specref import testkit_ref as make_testkit_ref  # noqa: N813
from repro.dist.transport import SocketTransport, TransportError, parse_address
from repro.dist.wire import PROTOCOL_VERSION
from repro.obs.metrics import (
    ACTION_FIRES,
    WIRE_BYTES_RECEIVED,
    WIRE_BYTES_SENT,
    MetricsRegistry,
)
from repro.persist.runner import run_check
from repro.testkit.genspec import GenParams, generate_spec

from test_core_parallel import DieAt, Tap, trace_json


def start_agents(n, **kwargs):
    agents = [WorkerAgent(**kwargs) for _ in range(n)]
    for agent in agents:
        threading.Thread(target=agent.serve_forever, daemon=True).start()
    return agents


@pytest.fixture
def gen():
    # 81 states, diameter 5, planted violation: big enough that a
    # die_after_ops agent dies mid-exchange, small enough to stay fast.
    return generate_spec("dist-transport:1", GenParams())


def census(result):
    return (
        result.stats.distinct_states,
        result.stats.transitions,
        result.stats.max_depth,
        result.stats.pruned,
    )


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:8801") == ("10.0.0.1", 8801)

    def test_bare_port(self):
        assert parse_address("8801") == ("127.0.0.1", 8801)

    def test_empty_host_defaults_to_loopback(self):
        assert parse_address(":8801") == ("127.0.0.1", 8801)

    def test_bad_port_rejected(self):
        with pytest.raises(TransportError):
            parse_address("host:notaport")
        with pytest.raises(TransportError):
            parse_address("host:0")
        with pytest.raises(TransportError):
            parse_address("host:70000")


class TestSocketEquivalence:
    def test_census_matches_serial(self, gen):
        spec = gen.spec(invariants=False)
        serial = BFSExplorer(gen.spec(invariants=False)).run()
        agents = start_agents(2)
        try:
            transport = SocketTransport(
                [a.address for a in agents],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            dist = bfs_explore(spec, workers=2, transport=transport)
        finally:
            for agent in agents:
                agent.close()
        assert census(dist) == census(serial)

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork transport unavailable",
    )
    def test_violation_trace_matches_fork_parallel(self, gen):
        if gen.planted is None:
            pytest.skip("no planted violation in this spec")
        fork = bfs_explore(gen.spec(invariants=True), workers=2)
        agents = start_agents(2)
        try:
            transport = SocketTransport(
                [a.address for a in agents],
                make_testkit_ref(gen.seed, gen.params, invariants=True),
            )
            dist = bfs_explore(gen.spec(invariants=True), workers=2, transport=transport)
        finally:
            for agent in agents:
                agent.close()
        assert fork.violation is not None and dist.violation is not None
        assert json.dumps(dist.violation.trace.to_dict(), sort_keys=True) == json.dumps(
            fork.violation.trace.to_dict(), sort_keys=True
        )

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork transport unavailable",
    )
    def test_merged_edges_match_fork_parallel(self, gen):
        # Byte-identical, not merely equivalent: every owner recorded
        # the same edges in the same order whichever transport carried
        # the claims.
        fork_tap = Tap(ForkTransport())
        fork = bfs_explore(gen.spec(invariants=True), workers=2, transport=fork_tap)
        agents = start_agents(2)
        try:
            socket_tap = Tap(
                SocketTransport(
                    [a.address for a in agents],
                    make_testkit_ref(gen.seed, gen.params, invariants=True),
                )
            )
            dist = bfs_explore(
                gen.spec(invariants=True), workers=2, transport=socket_tap
            )
        finally:
            for agent in agents:
                agent.close()
        assert fork.violation is not None
        assert socket_tap.merged_edges() == fork_tap.merged_edges()
        assert trace_json(dist) == trace_json(fork)
        assert census(dist) == census(fork)

    def test_wire_byte_counters_accumulate(self, gen):
        registry = MetricsRegistry()
        agents = start_agents(2)
        try:
            transport = SocketTransport(
                [a.address for a in agents],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
                metrics=registry,
            )
            bfs_explore(
                gen.spec(invariants=False),
                workers=2,
                transport=transport,
                metrics=registry,
            )
        finally:
            for agent in agents:
                agent.close()
        snap = registry.snapshot()["counters"]
        assert snap[WIRE_BYTES_SENT] > 0
        assert snap[WIRE_BYTES_RECEIVED] > 0


class TestMessageCarryingViolation:
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork transport unavailable",
    )
    def test_raftos_edge_violation_matches_fork_and_serial(self):
        # MatchIndexMonotonic breaks on delivering a stale
        # AppendEntriesResponse: the violating step's args hold the
        # message record, which a worker must ship to the master.
        ref = system_ref("raftos", 2, ["R1"], "MatchIndexMonotonic")
        serial = bfs_explore(resolve_spec(ref))
        fork = bfs_explore(resolve_spec(ref), workers=2)
        agents = start_agents(2)
        try:
            transport = SocketTransport([a.address for a in agents], ref)
            dist = bfs_explore(resolve_spec(ref), workers=2, transport=transport)
        finally:
            for agent in agents:
                agent.close()
        assert trace_json(dist) == trace_json(fork)
        assert census(dist) == census(fork)
        # The parallel runs finish the level and pick by fingerprint, the
        # serial run stops at the first violation: one violation, at one
        # depth, not always through the same states.
        found = [
            (r.violation.invariant, r.violation.kind, r.violation.depth)
            for r in (serial, fork, dist)
        ]
        assert found == [("MatchIndexMonotonic", "transition", 9)] * 3
        spec = resolve_spec(ref)
        (invariant,) = spec.transition_invariants()
        state = dist.violation.trace.initial
        for step in dist.violation.trace:
            transition = next(
                t for t in spec.successors(state)
                if (t.action, t.args, t.target) == (step.action, step.args, step.state)
            )
            pre, state = state, step.state
        assert any(isinstance(arg, Rec) for arg in step.args)
        assert not invariant.fn(pre, transition)


class TestHandshakeRefusal:
    def test_wrong_fingerprint_refused(self, gen):
        agents = start_agents(1)
        try:
            ref = make_testkit_ref(gen.seed, gen.params, invariants=False)
            transport = SocketTransport([agents[0].address], ref)
            transport.spec_ref = dict(ref, seed=str(ref["seed"]) + "-other")
            # The handshake carries the *tampered* ref; the agent derives
            # a different fingerprint for it than the one we claim.
            transport._config = {"workers": 1}
            transport.n = 1
            hello_ref = dict(ref)  # claim the original fingerprint...
            import repro.dist.transport as transport_module

            with pytest.raises(TransportError, match="refused"):
                # ...by making make_handshake see the original ref but the
                # agent resolve the tampered one.
                original = transport_module.make_handshake

                def tampered(spec_ref, **kwargs):
                    hello = original(hello_ref, **kwargs)
                    hello["spec_ref"] = transport.spec_ref
                    return hello

                transport_module.make_handshake = tampered
                try:
                    transport._connect(0, 0)
                finally:
                    transport_module.make_handshake = original
        finally:
            agents[0].close()

    def test_protocol_mismatch_refused(self, gen, monkeypatch):
        import repro.dist.transport as transport_module

        agents = start_agents(1)
        try:
            ref = make_testkit_ref(gen.seed, gen.params, invariants=False)
            original = transport_module.make_handshake

            def wrong_proto(spec_ref, **kwargs):
                hello = original(spec_ref, **kwargs)
                hello["proto"] = PROTOCOL_VERSION + 1
                return hello

            monkeypatch.setattr(transport_module, "make_handshake", wrong_proto)
            transport = SocketTransport([agents[0].address], ref)
            with pytest.raises(TransportError, match="protocol version"):
                transport.start({"workers": 1})
        finally:
            agents[0].close()

    def test_unresolvable_spec_refused(self):
        agents = start_agents(1)
        try:
            bad_ref = {"kind": "system", "system": "no-such-system"}
            transport = SocketTransport([agents[0].address], bad_ref)
            with pytest.raises(TransportError, match="refused"):
                transport.start({"workers": 1})
        finally:
            agents[0].close()


class TestElasticMembership:
    def test_kill_and_reassign_census_identical(self, gen):
        spec = gen.spec(invariants=False)
        baseline = BFSExplorer(gen.spec(invariants=False)).run()
        # Agent for shard 1 dies mid-run; the extra agent is a warm spare.
        agents = start_agents(1) + start_agents(1, die_after_ops=5) + start_agents(1)
        try:
            transport = SocketTransport(
                [a.address for a in agents],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            with pytest.warns(RuntimeWarning, match="died"):
                dist = bfs_explore(spec, workers=2, transport=transport)
        finally:
            for agent in agents:
                agent.close()
        assert census(dist) == census(baseline)

    def test_kill_with_checkpoints_rolls_back_to_commit(self, gen, tmp_path):
        baseline = BFSExplorer(gen.spec(invariants=False)).run()
        agents = start_agents(1) + start_agents(1, die_after_ops=6) + start_agents(1)
        try:
            transport = SocketTransport(
                [a.address for a in agents],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            with pytest.warns(RuntimeWarning, match="died"):
                result = run_check(
                    gen.spec(invariants=False),
                    tmp_path / "run",
                    workers=2,
                    transport=transport,
                    checkpoint_states=7,
                    metrics=MetricsRegistry(),
                )
        finally:
            for agent in agents:
                agent.close()
        assert census(result) == census(baseline)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        reassignments = manifest.get("reassignments", [])
        assert reassignments, "the membership event must be recorded"
        assert reassignments[0]["wid"] == 1

    def test_fork_and_socket_runs_write_the_same_run_dir(self, gen, tmp_path):
        # One checkpoint path: whichever transport carried the container
        # bytes, the master wrote them, so the files are byte-identical.
        def files(run_dir):
            ckpt = run_dir / "checkpoint"
            manifest = json.loads((ckpt / "parallel.json").read_text())
            manifest["stats"]["elapsed"] = None
            shards = {p.name: p.read_bytes() for p in sorted(ckpt.glob("worker-*.ckpt"))}
            return manifest, shards

        history = {"fork": [], "socket": []}
        for name in history:
            agents = start_agents(2) if name == "socket" else []
            try:
                transport = (
                    SocketTransport(
                        [a.address for a in agents],
                        make_testkit_ref(gen.seed, gen.params, invariants=True),
                    )
                    if agents
                    else ForkTransport()
                )
                run_dir = tmp_path / name
                run_check(
                    gen.spec(invariants=True),
                    run_dir,
                    workers=2,
                    transport=transport,
                    checkpoint_states=7,
                    on_checkpoint=lambda _cp: history[name].append(files(run_dir)),
                )
            finally:
                for agent in agents:
                    agent.close()
        assert len(history["fork"]) >= 3
        assert history["fork"] == history["socket"]

    @pytest.mark.parametrize("first, then", [("fork", "socket"), ("socket", "fork")])
    def test_resume_switches_transport(self, gen, tmp_path, first, then):
        # run_check's promise: the transport is not part of a run's
        # configuration, so a run killed under one resumes under the other.
        def transport(name, agents):
            if name == "fork":
                return ForkTransport()
            agents += start_agents(2)
            ref = make_testkit_ref(gen.seed, gen.params, invariants=True)
            return SocketTransport([a.address for a in agents[-2:]], ref)

        def outcome(result, registry):
            fires = dict(registry.counts(ACTION_FIRES))
            return census(result), result.stop_reason, trace_json(result), fires

        class Killed(Exception):
            pass

        def kill_at_second_commit(checkpointer):
            if checkpointer.checkpoints_written == 2:
                raise Killed

        agents = []
        try:
            registry = MetricsRegistry()
            calm = bfs_explore(gen.spec(invariants=True), workers=2, metrics=registry)
            expected = outcome(calm, registry)
            with pytest.raises(Killed):
                run_check(
                    gen.spec(invariants=True),
                    tmp_path / "run",
                    workers=2,
                    transport=transport(first, agents),
                    checkpoint_states=7,
                    on_checkpoint=kill_at_second_commit,
                    metrics=MetricsRegistry(),
                )
            registry = MetricsRegistry()
            resumed = run_check(
                gen.spec(invariants=True),
                tmp_path / "run",
                workers=2,
                resume=True,
                transport=transport(then, agents),
                checkpoint_states=7,
                metrics=registry,
            )
        finally:
            for agent in agents:
                agent.close()
        assert outcome(resumed, registry) == expected

    def test_killed_between_claim_and_settle_recovers_exactly(self, gen):
        # The fork suite kills a worker at every message boundary; over
        # sockets one boundary suffices to show the agent's ("die",) hook
        # and the rollback behave the same: the victim's peers have
        # recorded edges for claims it will never settle.
        ref = make_testkit_ref(gen.seed, gen.params, invariants=True)
        agents = start_agents(2)
        try:
            calm = bfs_explore(
                gen.spec(invariants=True),
                workers=2,
                transport=SocketTransport([a.address for a in agents], ref),
            )
        finally:
            for agent in agents:
                agent.close()
        agents = start_agents(3)
        try:
            transport = DieAt(
                SocketTransport([a.address for a in agents], ref), "settle", nth=3
            )
            with pytest.warns(RuntimeWarning, match="died"):
                hurt = bfs_explore(
                    gen.spec(invariants=True), workers=2, transport=transport
                )
        finally:
            for agent in agents:
                agent.close()
        assert transport.victim is not None
        assert census(hurt) == census(calm)
        assert hurt.stop_reason == calm.stop_reason
        assert trace_json(hurt) == trace_json(calm)

    def test_no_spare_left_raises(self, gen):
        agents = start_agents(1) + start_agents(1, die_after_ops=4)
        try:
            transport = SocketTransport(
                [a.address for a in agents],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            with pytest.raises(RuntimeError, match="no replacement worker"):
                bfs_explore(
                    gen.spec(invariants=False), workers=2, transport=transport
                )
        finally:
            for agent in agents:
                agent.close()


class TestTransportLifecycle:
    def test_recv_on_a_closed_transport_is_a_plain_error(self, gen):
        agents = start_agents(1)
        try:
            transport = SocketTransport(
                [agents[0].address],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            transport.start({"workers": 1})
            transport.close()
            with pytest.raises(RuntimeError) as error:
                transport.recv(timeout=0.1)
            assert not isinstance(error.value, WorkerDied)
        finally:
            agents[0].close()

    def test_half_started_fleet_is_stopped(self, gen):
        # Worker 0 shakes hands, worker 1's address refuses the connection:
        # the run fails, and agent 0 must be back in accept() — not held in
        # a session by a transport nobody closed (which this test keeps
        # referenced, so that no finalizer does it instead).
        agents = start_agents(1)
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            refusing = f"127.0.0.1:{unused.getsockname()[1]}"
        try:
            transport = SocketTransport(
                [agents[0].address, refusing],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            with pytest.raises(TransportError, match="cannot reach worker 1"):
                bfs_explore(gen.spec(invariants=False), workers=2, transport=transport)
            deadline = time.monotonic() + 2.0
            while agents[0].sessions_served != 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert agents[0].sessions_served == 1
        finally:
            agents[0].close()


class TestAgentLifecycle:
    def test_agent_serves_multiple_sessions(self, gen):
        spec_params = make_testkit_ref(gen.seed, gen.params, invariants=False)
        agents = start_agents(2)
        try:
            results = []
            for _ in range(2):
                transport = SocketTransport([a.address for a in agents], spec_params)
                results.append(
                    bfs_explore(gen.spec(invariants=False), workers=2, transport=transport)
                )
        finally:
            for agent in agents:
                agent.close()
        assert census(results[0]) == census(results[1])
        # The session count increments after the agent notices the stop,
        # which races transport.close(); give it a moment.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(agent.sessions_served == 2 for agent in agents):
                break
            time.sleep(0.02)
        assert all(agent.sessions_served == 2 for agent in agents)

    def test_once_serves_one_session(self):
        agent = WorkerAgent(max_sessions=1)
        thread = threading.Thread(target=agent.serve_forever, daemon=True)
        thread.start()
        ref = system_ref("pysyncobj", 3)
        transport = SocketTransport([agent.address], ref)
        transport.start({"workers": 1})
        transport.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert agent.sessions_served == 1

    def test_resolve_spec_rejects_unknown_kind(self):
        from repro.dist.specref import SpecRefError

        with pytest.raises(SpecRefError):
            resolve_spec({"kind": "martian"})


class TestSerialFallback:
    def test_transport_suppresses_fallback(self, gen):
        # An explicit transport means the caller wants distribution even
        # for one shard; no silent serial fallback.
        agents = start_agents(1)
        try:
            transport = SocketTransport(
                [agents[0].address],
                make_testkit_ref(gen.seed, gen.params, invariants=False),
            )
            result = bfs_explore(
                gen.spec(invariants=False), workers=1, transport=transport
            )
        finally:
            agents[0].close()
        serial = BFSExplorer(gen.spec(invariants=False)).run()
        assert census(result) == census(serial)
