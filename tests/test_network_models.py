"""Tests for the reusable TCP/UDP specification network modules."""

from hashlib import blake2b
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core import BFSExplorer, Rec
from repro.core.state import CheckedMemo
from repro.core.spec import SpecError
from repro.specs.network import TcpModel, UdpModel, _msg_key, bipartitions
from repro.dist.specref import SPEC_CLASSES
from repro.specs.raft import RaftConfig
from repro.specs.zab import ZabConfig, ZabSpec

NODES = ("n1", "n2", "n3")


def msg(tag):
    return Rec(type="M", tag=tag)


@pytest.fixture
def tcp_state():
    model = TcpModel(NODES)
    return model, Rec(model.init_vars())


@pytest.fixture
def udp_state():
    model = UdpModel(NODES)
    return model, Rec(model.init_vars())


class TestBipartitions:
    def test_three_nodes(self):
        splits = bipartitions(NODES)
        assert len(splits) == 3  # {1}, {1,2}, {1,3}
        assert all("n1" in group for group in splits)

    def test_two_nodes(self):
        assert bipartitions(("a", "b")) == [frozenset({"a"})]

    def test_no_full_group(self):
        for group in bipartitions(NODES):
            assert 0 < len(group) < len(NODES)


class TestTcpModel:
    def test_kind(self):
        assert TcpModel(NODES).kind == "tcp"

    def test_send_appends_fifo(self, tcp_state):
        model, state = tcp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n1", "n2", msg(2))
        queue = state[model.MSGS][("n1", "n2")]
        assert [m["tag"] for m in queue] == [1, 2]

    def test_only_head_deliverable(self, tcp_state):
        model, state = tcp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n1", "n2", msg(2))
        deliverable = list(model.deliverable(state))
        assert len(deliverable) == 1
        assert deliverable[0][2]["tag"] == 1

    def test_consume_pops_head(self, tcp_state):
        model, state = tcp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n1", "n2", msg(2))
        state = model.consume(state, "n1", "n2", msg(1))
        assert [m["tag"] for m in state[model.MSGS][("n1", "n2")]] == [2]

    def test_consume_empty_raises(self, tcp_state):
        model, state = tcp_state
        with pytest.raises(ValueError):
            model.consume(state, "n1", "n2", msg(1))

    def test_partition_clears_crossing_queues(self, tcp_state):
        model, state = tcp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n2", "n3", msg(2))
        state = model.apply_partition(state, frozenset({"n1"}))
        assert state[model.MSGS][("n1", "n2")] == ()
        assert len(state[model.MSGS][("n2", "n3")]) == 1  # same side

    def test_partition_blocks_sends(self, tcp_state):
        model, state = tcp_state
        state = model.apply_partition(state, frozenset({"n1"}))
        state = model.send(state, "n1", "n2", msg(1))
        assert state[model.MSGS][("n1", "n2")] == ()

    def test_heal_restores_connectivity(self, tcp_state):
        model, state = tcp_state
        state = model.apply_partition(state, frozenset({"n1"}))
        assert model.is_partitioned(state)
        state = model.heal(state)
        assert not model.is_partitioned(state)
        state = model.send(state, "n1", "n2", msg(1))
        assert len(state[model.MSGS][("n1", "n2")]) == 1

    def test_clear_node_drops_both_directions(self, tcp_state):
        model, state = tcp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n2", "n1", msg(2))
        state = model.send(state, "n2", "n3", msg(3))
        state = model.clear_node(state, "n1")
        assert state[model.MSGS][("n1", "n2")] == ()
        assert state[model.MSGS][("n2", "n1")] == ()
        assert len(state[model.MSGS][("n2", "n3")]) == 1

    def test_queue_metrics(self, tcp_state):
        model, state = tcp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n1", "n2", msg(2))
        state = model.send(state, "n3", "n2", msg(3))
        assert model.max_queue_length(state) == 2
        assert sum(map(len, state[model.MSGS].values())) == 3

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=8))
    def test_fifo_order_preserved(self, tags):
        model = TcpModel(NODES)
        state = Rec(model.init_vars())
        for tag in tags:
            state = model.send(state, "n1", "n2", msg(tag))
        received = []
        while state[model.MSGS][("n1", "n2")]:
            (_, _, popped), = model.deliverable(state)
            state = model.consume(state, "n1", "n2", popped)
            received.append(popped["tag"])
        assert received == tags


class TestUdpModel:
    def test_kind(self):
        assert UdpModel(NODES).kind == "udp"

    def test_all_messages_deliverable(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n1", "n2", msg(2))
        deliverable = {m["tag"] for _, _, m in model.deliverable(state)}
        assert deliverable == {1, 2}

    def test_send_order_is_canonical(self, udp_state):
        model, _ = udp_state
        a = Rec(model.init_vars())
        a = model.send(a, "n1", "n2", msg(1))
        a = model.send(a, "n1", "n2", msg(2))
        b = Rec(model.init_vars())
        b = model.send(b, "n1", "n2", msg(2))
        b = model.send(b, "n1", "n2", msg(1))
        assert a == b  # multiset semantics: states identical

    def test_consume_removes_one_occurrence(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.duplicate(state, "n1", "n2", msg(1))
        state = model.consume(state, "n1", "n2", msg(1))
        assert len(state[model.MSGS]) == 1

    def test_duplicates_collapse_in_deliverable(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.duplicate(state, "n1", "n2", msg(1))
        assert len(list(model.deliverable(state))) == 1

    def test_drop(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.drop(state, "n1", "n2", msg(1))
        assert state[model.MSGS] == ()

    def test_drop_missing_raises(self, udp_state):
        model, state = udp_state
        with pytest.raises(ValueError):
            model.drop(state, "n1", "n2", msg(9))

    def test_partition_drops_crossing_datagrams(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n1", "n2", msg(1))
        state = model.send(state, "n2", "n3", msg(2))
        state = model.apply_partition(state, frozenset({"n1"}))
        tags = {m["tag"] for _, _, m in state[model.MSGS]}
        assert tags == {2}

    def test_crash_keeps_datagrams_in_flight(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n1", "n2", msg(1))
        assert model.clear_node(state, "n2") == state

    def test_blocked_not_deliverable(self, udp_state):
        model, state = udp_state
        state = model.send(state, "n2", "n3", msg(1))
        state = model.apply_partition(state, frozenset({"n1", "n2"}))
        # n2->n3 crosses the partition: dropped by apply_partition
        assert list(model.deliverable(state)) == []

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_pending_count_matches_sends(self, tags):
        model = UdpModel(NODES)
        state = Rec(model.init_vars())
        for tag in tags:
            state = model.send(state, "n1", "n3", msg(tag))
        assert len(state[model.MSGS]) == len(tags)


def reference_add(in_flight, packet):
    """What ``send`` and ``duplicate`` computed before the key memo."""
    return tuple(sorted(in_flight + (packet,), key=_msg_key))


def reference_deliverable(model, state):
    """What ``deliverable`` yielded before the key memo."""
    seen, out = set(), []
    for src, dst, message in state[model.MSGS]:
        key = _msg_key((src, dst, message))
        if key in seen or model.blocked(state, src, dst):
            continue
        seen.add(key)
        out.append((src, dst, message))
    return out


# Tags of one and of several digits: their keys sort as strings
# ('10' < '9'), not as numbers.
datagrams = st.tuples(
    st.sampled_from([(a, b) for a in NODES for b in NODES if a != b]),
    st.builds(
        lambda kind, tag: Rec(type=kind, tag=tag),
        st.sampled_from(["Vote", "Append"]),
        st.sampled_from([1, 9, 10, 11, 99, 100]),
    ),
).map(lambda drawn: drawn[0] + (drawn[1],))
network_ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), datagrams),
        st.tuples(st.sampled_from(["duplicate", "consume"]), st.integers(0, 63)),
        st.tuples(st.just("partition"), st.sampled_from(bipartitions(NODES))),
        st.just(("heal", None)),
    ),
    max_size=40,
)


class TestUdpKeyMemo:
    """The memoised datagram key orders and dedupes exactly as ``_msg_key``."""

    @pytest.mark.parametrize("cap", [CheckedMemo.CAP, 2], ids=["default-cap", "cap-2"])
    @given(ops=network_ops)
    def test_memoised_order_is_the_msg_key_order(self, cap, ops):
        model = UdpModel(NODES)
        state = Rec(model.init_vars())
        with mock.patch.object(CheckedMemo, "CAP", cap):
            for op, arg in ops:
                in_flight = state[model.MSGS]
                expected = None
                if op == "send":
                    src, dst, message = arg
                    state = model.send(state, src, dst, message)
                    if not model.blocked(state, src, dst):
                        expected = reference_add(in_flight, arg)
                elif op in ("duplicate", "consume") and in_flight:
                    packet = in_flight[arg % len(in_flight)]
                    state = getattr(model, op)(state, *packet)
                    if op == "duplicate":
                        expected = reference_add(in_flight, packet)
                elif op == "partition":
                    state = model.apply_partition(state, arg)
                elif op == "heal":
                    state = model.heal(state)
                if expected is not None:
                    assert state[model.MSGS] == expected
                    assert list(map(_msg_key, state[model.MSGS])) == list(
                        map(_msg_key, expected)
                    )
                assert list(model.deliverable(state)) == reference_deliverable(
                    model, state
                )
            assert len(model._keys.table) <= cap

    def test_a_field_holding_true_then_one_is_a_spec_error(self):
        model = UdpModel(NODES)
        state = Rec(model.init_vars())
        with mock.patch.object(CheckedMemo, "VERIFY_EVERY", 1):
            state = model.send(state, "n1", "n2", Rec(type="M", flag=True))
            with pytest.raises(SpecError, match="netMsgs"):
                model.send(state, "n1", "n2", Rec(type="M", flag=1))


@pytest.mark.parametrize(
    "system, census, digest",
    [
        ("pysyncobj", (3000, 6121), "eceb563d06fdf1e9"),
        ("wraft", (3000, 5486), "210a253a6bda3a28"),
        ("redisraft", (3000, 6178), "c186221401457579"),
        ("daosraft", (3000, 6178), "c186221401457579"),
        ("raftos", (3000, 5486), "8562f4203510782a"),
        ("xraft", (3000, 7432), "8f68845424c09ef9"),
        ("xraft-kv", (3000, 6088), "456c5b627b91e7ba"),
        ("zookeeper", (3000, 5701), "1fa2a9bb9495a276"),
    ],
    ids=[
        "PySyncObj", "WRaft", "RedisRaft", "DaosRaft", "RaftOS", "Xraft", "Xraft-KV",
        "ZooKeeper",
    ],
)
def test_specs_visit_the_pinned_fingerprints(system, census, digest):
    """The visited set of a capped BFS over each system spec at its default
    budgets — crashes, restarts, partitions and (over UDP) drops and
    duplicates all on — pinned across ``PYTHONHASHSEED`` values and
    versions: the cluster environment and, over UDP, the datagram order
    are part of every state, so a change to either changes these digests."""
    spec_class = SPEC_CLASSES[system]
    config = ZabConfig() if spec_class is ZabSpec else RaftConfig()
    explorer = BFSExplorer(spec_class(config), max_states=3000)
    stats = explorer.run().stats
    fps = sorted(fp for fp, _, _ in explorer.store.edges())
    visited = blake2b(b"".join(fp.to_bytes(8, "big") for fp in fps), digest_size=8)
    assert (stats.distinct_states, stats.transitions) == census
    assert visited.hexdigest() == digest
