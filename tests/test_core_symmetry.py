"""Tests for symmetry reduction."""

import dataclasses
import itertools
import random
from collections import deque
from hashlib import blake2b

import pytest
from hypothesis import given, strategies as st

from repro.core import Rec, SymmetryReducer, bfs_explore, canonicalize, encode
from repro.core.compile import compile_spec
from repro.core.explorer import BFSExplorer
from repro.core.spec import Action, Spec, SpecError
from repro.core.state import CheckedMemo, codec_stats, fingerprint, scope_pair_memo
from repro.core.symmetry import permutations_of_sets
from repro.dist.specref import SPEC_CLASSES, make_spec
from repro.obs.metrics import SYMMETRY, SYMMETRY_GROUP_SIZE, MetricsRegistry
from repro.persist import RunDir, load_graph_stores
from repro.specs.raft import RaftConfig
from repro.testkit.genspec import generate_spec, sample_params

#: the seven Raft-family specs; ZAB declares no symmetry set
RAFT_FAMILY = set(SPEC_CLASSES) - {"zookeeper"}


NODES = ("n1", "n2", "n3")


def make_state(role_of):
    return Rec(
        role=Rec(role_of),
        votes=frozenset(n for n, r in role_of.items() if r == "leader"),
    )


class TestPermutations:
    def test_identity_first(self):
        maps = list(permutations_of_sets([NODES]))
        assert maps[0] == {n: n for n in NODES}

    def test_group_size(self):
        maps = list(permutations_of_sets([NODES]))
        assert len(maps) == 6

    def test_product_of_sets(self):
        maps = list(permutations_of_sets([("a", "b"), ("x", "y")]))
        assert len(maps) == 4

    def test_empty_sets(self):
        assert list(permutations_of_sets([])) == [{}]


class TestCanonicalize:
    def test_orbit_members_share_canonical_form(self):
        a = make_state({"n1": "leader", "n2": "follower", "n3": "follower"})
        b = make_state({"n2": "leader", "n1": "follower", "n3": "follower"})
        c = make_state({"n3": "leader", "n2": "follower", "n1": "follower"})
        canon = [canonicalize(s, [NODES]) for s in (a, b, c)]
        assert canon[0] == canon[1] == canon[2]

    def test_distinct_orbits_stay_distinct(self):
        one_leader = make_state({"n1": "leader", "n2": "follower", "n3": "follower"})
        two_leaders = make_state({"n1": "leader", "n2": "leader", "n3": "follower"})
        assert canonicalize(one_leader, [NODES]) != canonicalize(two_leaders, [NODES])

    def test_canonical_is_idempotent(self):
        state = make_state({"n1": "leader", "n2": "candidate", "n3": "follower"})
        canon = canonicalize(state, [NODES])
        assert canonicalize(canon, [NODES]) == canon

    @given(st.permutations(["leader", "follower", "candidate"]))
    def test_any_role_permutation_same_orbit(self, roles):
        base = make_state(dict(zip(NODES, ["leader", "follower", "candidate"])))
        permuted = make_state(dict(zip(NODES, roles)))
        # Both assign the same multiset of roles, so they are in one orbit.
        assert canonicalize(base, [NODES]) == canonicalize(permuted, [NODES])


class TestSymmetryReducer:
    def test_group_size(self):
        assert SymmetryReducer([NODES]).group_size == 6
        assert SymmetryReducer([]).group_size == 1

    def test_no_sets_is_identity(self):
        reducer = SymmetryReducer([])
        state = make_state({"n1": "leader", "n2": "follower", "n3": "follower"})
        assert reducer.canonical(state) is state

    def test_orbit_enumeration(self):
        reducer = SymmetryReducer([NODES])
        state = make_state({"n1": "leader", "n2": "follower", "n3": "follower"})
        orbit = reducer.orbit(state)
        assert len(orbit) == 3  # leader can be any of the three nodes

    def test_canonical_agrees_with_function(self):
        reducer = SymmetryReducer([NODES])
        state = make_state({"n1": "follower", "n2": "leader", "n3": "follower"})
        assert reducer.canonical(state) == canonicalize(state, [NODES])

    def test_canonical_minimizes_fingerprint(self):
        reducer = SymmetryReducer([NODES], key=encode)
        state = make_state({"n1": "follower", "n2": "leader", "n3": "follower"})
        canon = reducer.canonical(state)
        assert encode(canon) == min(encode(s) for s in reducer.orbit(state))

    def test_canonical_minimizes_default_key(self):
        # The default key is the canonical (process-stable) fingerprint,
        # so the chosen representative is the same in every process.
        reducer = SymmetryReducer([NODES])
        state = make_state({"n1": "follower", "n2": "leader", "n3": "follower"})
        canon = reducer.canonical(state)
        assert fingerprint(canon) == min(fingerprint(s) for s in reducer.orbit(state))


# ---------------------------------------------------------------------------
# the orbit memo: same representative as the brute-force loop, always
# ---------------------------------------------------------------------------


def _quotient_bfs(spec, reducer, max_states):
    """BFS the quotient the way the engine does; yield each initial state
    and transition target with what ``reducer`` made of it."""
    scope_pair_memo(spec)
    seen = set()
    queue = deque()

    def visit(state):
        canon = reducer.canonical(state)
        fp = fingerprint(canon)
        if fp not in seen:
            seen.add(fp)
            queue.append(canon)
        return state, canon

    for init in spec.init_states():
        yield visit(init)
    while queue and len(seen) < max_states:
        state = queue.popleft()
        if not spec.state_constraint(state):
            continue
        for transition in spec.successors(state):
            yield visit(transition.target)


def _assert_brute_force_representatives(spec, max_states):
    """``encode``, not ``==``: equality cannot tell ``True`` from ``1``."""
    sets = spec.symmetry_sets()
    reducer = SymmetryReducer(sets)
    cap = CheckedMemo.CAP
    for target, canon in _quotient_bfs(spec, reducer, max_states):
        reference = canonicalize(target, sets)
        assert encode(canon) == encode(reference)
        assert fingerprint(canon) == fingerprint(reference)
        assert (canon is target) == (reference is target)
        assert len(reducer._orbits.table) <= cap and len(reducer._nested.table) <= cap
    return reducer


@pytest.fixture(params=[CheckedMemo.CAP, 2])
def memo_cap(request, monkeypatch):
    monkeypatch.setattr(CheckedMemo, "CAP", request.param)
    return request.param


class TestOrbitMemoProperty:
    def test_generated_specs(self, memo_cap):
        rng = random.Random("symmetry-sweep-params")
        for index in range(20):
            params = dataclasses.replace(sample_params(rng), symmetric=True)
            generated = generate_spec(f"symmetry-sweep:{index}", params)
            _assert_brute_force_representatives(
                generated.spec(invariants=False), max_states=250
            )

    @pytest.mark.parametrize("system", sorted(RAFT_FAMILY))
    def test_raft_family(self, system, memo_cap):
        spec = compile_spec(make_spec(system, 3, [], None))
        reducer = _assert_brute_force_representatives(spec, max_states=120)
        stats = reducer.stats()
        if memo_cap == 2:  # the clear path, not the memo, did the work
            assert stats["orbit_memo_clears"] > stats["canonical_calls"]
        else:
            assert stats["orbit_memo_hits"] > stats["orbit_memo_misses"] > 0


@pytest.mark.parametrize("verify_every", [CheckedMemo.VERIFY_EVERY, 1])
@pytest.mark.parametrize("system", ["raftos", "pysyncobj"])
def test_composed_images_match_the_reference(system, verify_every, memo_cap, monkeypatch):
    """The shapes an orbit miss composes bytes for, graded against the
    brute force: over UDP a bag holding one datagram twice and the
    frozenset of frozensets ``netDisconnected``; over TCP the channel
    record keyed by ``(src, dst)`` tuples, its queues tuples of
    messages.  With ``VERIFY_EVERY = 1`` every memo hit is re-derived."""
    monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", verify_every)
    spec = compile_spec(SPEC_CLASSES[system](RaftConfig(max_dups=1, max_partitions=1)))
    reducer = _assert_brute_force_representatives(spec, max_states=150)
    fresh = SymmetryReducer(spec.symmetry_sets())
    states = [canon for _, canon in _quotient_bfs(spec, fresh, max_states=150)]
    assert any(s["netDisconnected"] for s in states)
    if system == "raftos":
        assert any(len(set(s["netMsgs"])) < len(s["netMsgs"]) for s in states)
    else:
        assert any(any(s["netMsgs"].values()) for s in states)
    assert reducer.stats()["nested_memo_misses"] > 0


class BoolBesideIntSpec(Spec):
    """``alive == {n: True}`` beside ``term == {n: 1}``: the two variables
    hold values that are ``==`` and encode differently, and so do the
    records nested one level down in ``seen`` and ``sent``, which name a
    node and so have images of their own."""

    name = "bool-beside-int"
    nodes = NODES

    def init_states(self):
        yield Rec(
            alive=Rec({n: True for n in NODES}),
            term=Rec({n: 1 for n in NODES}),
            seen=Rec({n: Rec(by=n, ok=True) for n in NODES}),
            sent=Rec({n: Rec(by=n, ok=1) for n in NODES}),
        )

    def actions(self):
        return [Action("Crash", self._crash), Action("Lose", self._lose)]

    def _crash(self, state):
        for n in NODES:
            if state["alive"][n]:
                yield (n,), state.update(
                    alive=state["alive"].set(n, False),
                    seen=state["seen"].set(n, Rec(by=n, ok=False)),
                )

    def _lose(self, state):
        for n in NODES:
            if state["term"][n]:
                yield (n,), state.update(
                    term=state["term"].set(n, 0),
                    sent=state["sent"].set(n, Rec(by=n, ok=0)),
                )

    def symmetry_sets(self):
        return (NODES,)


class TestOrbitMemoRegressions:
    def test_equal_values_of_two_variables_keep_their_types(self, monkeypatch):
        # A memo keyed by value alone serves alive's images for term.
        monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 1)
        spec = BoolBesideIntSpec()
        _assert_brute_force_representatives(spec, max_states=100)
        quotient = bfs_explore(spec, symmetry=True)
        assert quotient.exhausted
        # 4 (alive, term) combinations per node: 4^3 states, C(6, 3) multisets
        assert bfs_explore(spec).stats.distinct_states == 64
        assert quotient.stats.distinct_states == 20

    def test_tuple_record_keys_are_permuted(self):
        reducer = SymmetryReducer([NODES])
        links = {(a, b): int(a == "n2") for a in NODES for b in NODES if a != b}
        state = Rec(links=Rec(links), leader="n2")
        canons = [reducer.canonical(member) for member in reducer.orbit(state)]
        assert len({encode(canon) for canon in canons}) == 1
        canon = canons[0]
        assert encode(canon) == encode(canonicalize(state, [NODES]))
        # the (src, dst) keys moved with the leader they name
        leader = canon["leader"]
        assert {src for (src, _), up in canon["links"].items() if up} == {leader}

    def test_variable_named_like_a_node_takes_the_reference_path(self):
        reducer = SymmetryReducer([NODES])
        state = Rec(n1="leader", n2="follower", n3="follower", votes=frozenset({"n1"}))
        for member in reducer.orbit(state):
            canon = reducer.canonical(member)
            assert encode(canon) == encode(canonicalize(member, [NODES]))
        assert all(var == "votes" for var, _ in reducer._orbits.table)

    def test_custom_key_and_non_record_states_take_the_reference_path(self):
        by_bytes = SymmetryReducer([NODES], key=encode)
        state = make_state({"n1": "follower", "n2": "leader", "n3": "follower"})
        assert encode(by_bytes.canonical(state)) == encode(
            canonicalize(state, [NODES], key=encode)
        )
        assert not by_bytes._orbits.table
        reducer = SymmetryReducer([NODES])
        assert reducer.canonical(("n3", "n1")) == canonicalize(("n3", "n1"), [NODES])
        assert not reducer._orbits.table

    def test_type_unstable_variable_raises_naming_it(self, monkeypatch):
        monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 1)
        reducer = SymmetryReducer([NODES])
        reducer.canonical(Rec(flag=Rec({"n1": True, "n2": False, "n3": False})))
        with pytest.raises(SpecError, match="'flag' is not type-stable"):
            reducer.canonical(Rec(flag=Rec({"n1": 1, "n2": 0, "n3": 0})))

    def test_representative_arrives_fingerprinted(self):
        reducer = SymmetryReducer([NODES])
        states = [
            make_state(dict(zip(NODES, roles)))
            for roles in itertools.permutations(["leader", "follower", "candidate"])
        ]
        moved = [(s, reducer.canonical(s)) for s in states]
        moved = [(s, canon) for s, canon in moved if canon is not s]
        assert len(moved) == 5  # one orbit of six: exactly one member is canonical
        for state, canon in moved:
            expected = fingerprint(canonicalize(state, [NODES]))
            before = codec_stats()
            assert fingerprint(canon) == expected
            after = codec_stats()
            assert after["fp_full"] == before["fp_full"]
            assert after["full_encodes"] == before["full_encodes"]


class TestSymmetryMetrics:
    def test_counters_reach_the_registry_serial_and_sharded(self):
        spec = make_spec("raftos", 3, [], None)
        serial = MetricsRegistry()
        result = bfs_explore(spec, symmetry=True, max_depth=4, metrics=serial)
        counts = serial.counts(SYMMETRY)
        inits = len(list(spec.init_states()))
        assert counts["canonical_calls"] == result.stats.transitions + inits
        assert 0 < counts["identity_wins"] < counts["canonical_calls"]
        lookups = counts["orbit_memo_hits"] + counts["orbit_memo_misses"]
        assert lookups == counts["canonical_calls"] * len(next(iter(spec.init_states())))
        assert 0 < counts["nested_memo_misses"] < counts["nested_memo_hits"]
        assert serial.snapshot()["gauges"][SYMMETRY_GROUP_SIZE] == 6

        sharded = MetricsRegistry()
        parallel = bfs_explore(
            spec, symmetry=True, max_depth=4, workers=2, metrics=sharded
        )
        assert parallel.stats.distinct_states == result.stats.distinct_states
        # workers canonicalise the transition targets; the master's own
        # reducer canonicalises the seeds and is not merged
        merged = sharded.counts(SYMMETRY)
        assert merged["canonical_calls"] == parallel.stats.transitions
        assert 0 < merged["nested_memo_misses"] < merged["nested_memo_hits"]
        seeds = SymmetryReducer(spec.symmetry_sets())
        for init in spec.init_states():
            seeds.canonical(init)
        assert (
            merged["identity_wins"]
            == counts["identity_wins"] - seeds.stats()["identity_wins"]
        )
        assert sharded.snapshot()["gauges"][SYMMETRY_GROUP_SIZE] == 6

    def test_no_reducer_no_family(self):
        registry = MetricsRegistry()
        bfs_explore(BoolBesideIntSpec(), metrics=registry)
        assert SYMMETRY not in registry.snapshot()["counts"]


# ---------------------------------------------------------------------------
# the quotient itself, pinned
# ---------------------------------------------------------------------------

#: Table 3 experiment #1 constraints (benchmarks/test_table3_exploration.py)
EXP1_KW = dict(
    values=("v1",),
    max_timeouts=2,
    max_requests=1,
    max_crashes=0,
    max_restarts=0,
    max_partitions=1,
    max_drops=0,
    max_dups=0,
    max_buffer=3,
    max_term=2,
)


def _edge_digest(stores):
    """One digest over every visited ``(fp, parent, action)`` edge, sorted."""
    edges = sorted(
        (fp, parent or 0, action)
        for store in stores
        for fp, parent, action in store.edges()
    )
    digest = blake2b(digest_size=8)
    for fp, parent, action in edges:
        digest.update(fp.to_bytes(8, "big") + parent.to_bytes(8, "big"))
        digest.update(action.encode() + b"\n")
    return digest.hexdigest()


# The representative of every orbit, and with it the quotient, is the
# orbit member with the smallest fingerprint.  ROADMAP item 9 (closing
# the UDP bag under the symmetry) moves these pins on purpose; nothing
# else should.
@pytest.mark.parametrize(
    "system, cap, census, digest",
    [
        ("raftos", 3000, (3000, 5484), "64d5dd6866ea0495"),
        ("raftos", None, (8557, 25147), "af61fcc0193f12b6"),
        ("wraft", 6000, (6000, 13639), "3b6995678392a504"),
        ("daosraft", 6000, (6000, 11392), "d8ea6b2b2d4b844d"),
        ("pysyncobj", 6000, (6000, 17618), "a10caaa8e0b90db5"),
    ],
    ids=[
        "RaftOS-3000", "RaftOS-exhausted", "WRaft-6000", "DaosRaft-6000", "PySyncObj-6000"
    ],
)
def test_serial_quotient_is_pinned(system, cap, census, digest):
    explorer = BFSExplorer(
        SPEC_CLASSES[system](RaftConfig(**EXP1_KW)), symmetry=True, max_states=cap
    )
    stats = explorer.run().stats
    assert (stats.distinct_states, stats.transitions) == census
    assert _edge_digest([explorer.store]) == digest


@pytest.mark.parametrize(
    "cap, census, digest",
    [
        (3000, (3799, 7417), "df96bc35cc051dcd"),  # stops at a level boundary
        (None, (8557, 25147), "a6ae966d071e94a8"),
    ],
    ids=["RaftOS-3000", "RaftOS-exhausted"],
)
def test_sharded_quotient_is_pinned(cap, census, digest, tmp_path):
    result = bfs_explore(
        SPEC_CLASSES["raftos"](RaftConfig(**EXP1_KW)),
        symmetry=True,
        max_states=cap,
        workers=2,
        run_dir=tmp_path,
    )
    stores, _ = load_graph_stores(RunDir(tmp_path))
    assert (result.stats.distinct_states, result.stats.transitions) == census
    assert _edge_digest(stores) == digest
