"""Canonical state codec and process-stable fingerprints.

The codec is the identity layer everything sharded builds on: two
processes with different ``PYTHONHASHSEED`` (so different ``hash()``)
must produce byte-identical encodings and therefore identical 64-bit
fingerprints for equal states.
"""

import gc
import math
import os
import random
import subprocess
import sys
from collections import deque
from hashlib import blake2b

import pytest
from hypothesis import example, given, strategies as st

import repro.core.state as state_module
from repro.core.spec import Action, Spec, SpecError
from repro.core.state import (
    CheckedMemo,
    Rec,
    changed_keys,
    codec_stats,
    compose,
    decode,
    encode,
    fingerprint,
    reset_codec_stats,
    scope_pair_memo,
    set_delta_codec,
    substitute,
    thaw,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TESTS = os.path.dirname(os.path.abspath(__file__))


def frozen_values():
    """Strategy over the frozen value universe the codec must cover."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.binary(max_size=8),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(lambda xs: frozenset(xs)),
            st.dictionaries(st.text(max_size=4), children, max_size=4).map(
                lambda d: Rec(d)
            ),
        ),
        max_leaves=12,
    )


def typed_equal(a, b):
    """Equal *and* of the same type at every position (floats: same
    sign of zero) — the codec's notion of identity, which is finer than
    ``==`` exactly on ``True``/``1``/``1.0`` and ``0.0``/``-0.0``."""
    if type(a) is not type(b) or a != b:
        return False
    if isinstance(a, float):
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, tuple):
        return all(typed_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, frozenset):
        return all(any(typed_equal(x, y) for y in b) for x in a)
    if isinstance(a, Rec):  # equal keys are same-typed: bool/float keys are rejected
        return all(typed_equal(value, b[key]) for key, value in a.items())
    return True


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            1,
            127,
            128,
            -(2**64) - 3,
            2**100,
            0.0,
            -2.5,
            float("inf"),
            "",
            "héllo",
            b"",
            b"\x00\xff",
            (),
            (1, "a", None),
            frozenset(),
            frozenset({1, 2, 3}),
            Rec(),
            Rec(a=1, b=(True, frozenset({"x"}))),
            Rec({("n1", "n2"): Rec(log=("e1",))}),
        ],
    )
    def test_examples(self, value):
        assert decode(encode(value)) == value

    @given(frozen_values())
    def test_round_trip(self, value):
        assert decode(encode(value)) == value

    @given(frozen_values())
    def test_encoding_is_canonical(self, value):
        # equal values re-built a second way encode identically
        assert encode(value) == encode(decode(encode(value)))

    @given(frozen_values())
    @example(tuple(range(200)))  # a two-byte count
    def test_container_bytes_compose_from_their_parts(self, value):
        """``compose`` joins part encodings by the rule ``encode`` streams:
        what the symmetry reducer builds an image's bytes with."""
        if isinstance(value, Rec):
            fresh = Rec(value)  # nothing cached yet; keeps the composed bytes
            pairs = [encode(key) + encode(item) for key, item in value.items()]
            assert compose(fresh, pairs[::-1]) == encode(value) == fresh._enc
        elif isinstance(value, (tuple, frozenset)):
            assert compose(value, [encode(item) for item in value]) == encode(value)

    def test_key_order_irrelevant(self):
        assert encode(Rec(a=1, b=2)) == encode(Rec(b=2, a=1))

    def test_set_order_irrelevant(self):
        assert encode(frozenset({"a", "b", "c"})) == encode(frozenset({"c", "a", "b"}))

    def test_type_tags_distinguish(self):
        assert encode(1) != encode(True)
        assert encode(0) != encode(False)
        assert encode(1) != encode(1.0)
        assert encode(0.0) != encode(-0.0)
        assert encode("1") != encode(1)
        assert encode(b"x") != encode("x")
        assert encode(()) != encode(frozenset())

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode(encode(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode(b"\xff")

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError):
            encode(object())


class TestDecodeIsStrict:
    """``decode(b)`` returns the ``v`` with ``encode(v) == b`` or raises
    ``ValueError``: bytes that parse but are not what ``encode`` writes
    would otherwise give a decoded state a different fingerprint from an
    equal state built natively."""

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"R",
            b"i\x80",
            b"f\x00",
            b"s\x05ab",
            b"R\x02" + encode("a") + encode(2) + encode("a") + encode(1),
            b"R\x02" + encode("b") + encode(1) + encode("a") + encode(2),
            b"R\x01" + encode("a") + encode(1) + encode("b") + encode(2),
            b"S\x02" + encode(2) + encode(1),
            b"S\x02" + encode(1) + encode(1),
            b"i\x80\x00",
            b"t\x81\x00N",
            b"t\x01" * 100_000 + b"N",
        ],
        ids=[
            "empty",
            "record-no-count",
            "varint-cut",
            "float-cut",
            "str-cut",
            "duplicate-key",
            "misordered-keys",
            "undercounted-pairs",
            "unsorted-set",
            "duplicate-set-item",
            "padded-int",
            "padded-count",
            "nested-too-deep",
        ],
    )
    def test_malformed_bytes_raise_value_error(self, data):
        with pytest.raises(ValueError):
            decode(data)

    @given(
        st.dictionaries(st.text(max_size=4), frozen_values(), min_size=2, max_size=4),
        st.sampled_from(["truncate", "swap", "duplicate", "pad"]),
        st.data(),
    )
    def test_mutated_record_encodings_are_rejected(self, contents, mutation, data):
        count = len(contents)
        pairs = sorted(encode(key) + encode(value) for key, value in contents.items())
        valid = b"R" + bytes([count]) + b"".join(pairs)
        assert encode(Rec(contents)) == valid
        index = st.integers(min_value=0, max_value=count - 1)
        if mutation == "truncate":
            mutant = valid[: data.draw(st.integers(0, len(valid) - 1))]
        elif mutation == "swap":
            i = data.draw(index)
            j = data.draw(index.filter(lambda j: j != i))
            pairs[i], pairs[j] = pairs[j], pairs[i]
            mutant = b"R" + bytes([count]) + b"".join(pairs)
        elif mutation == "duplicate":
            i = data.draw(index)
            pairs.insert(i, pairs[i])
            mutant = b"R" + bytes([count + 1]) + b"".join(pairs)
        else:
            mutant = b"R" + bytes([count | 0x80, 0]) + b"".join(pairs)
        if data.draw(st.booleans()):  # also when nested in a valid value
            mutant = b"t\x02" + mutant + encode(None)
        with pytest.raises(ValueError):
            decode(mutant)

    @given(st.binary(max_size=24))
    def test_whatever_decodes_reencodes_to_the_input(self, data):
        try:
            value = decode(data)
        except ValueError:
            return
        assert encode(value) == data
        assert encode(substitute(value, {})) == data  # not just the cached bytes


class TestFingerprintStability:
    def test_64_bit(self):
        fp = fingerprint(Rec(x=1))
        assert 0 <= fp < 2**64

    def test_cached_on_rec(self):
        rec = Rec(x=(1, 2))
        assert fingerprint(rec) == fingerprint(rec)
        assert rec._fp is not None

    @given(frozen_values(), frozen_values())
    @example(False, 0)
    @example(True, 1)
    @example(1, 1.0)
    @example(0.0, -0.0)
    @example((True, Rec(x=0.0)), (1, Rec(x=-0.0)))
    def test_encoding_refines_equality(self, a, b):
        """The codec is finer than ``==`` only on the pinned conflation
        pairs: equal encodings imply equal values, and values equal with
        the same types throughout encode equally."""
        if encode(a) == encode(b):
            assert a == b
        assert (encode(a) == encode(b)) == typed_equal(a, b)

    @pytest.mark.parametrize("hashseed", ["0", "1", "4242"])
    def test_stable_across_hash_seeds(self, hashseed):
        """fingerprint() must not depend on PYTHONHASHSEED (unlike hash())."""
        program = (
            "from repro.core.state import Rec, fingerprint\n"
            "state = Rec(leader='n2', voted=frozenset({'n1', 'n3'}),\n"
            "            log=(Rec(term=1, cmd='x'),), nums=(0, -7, 2**70))\n"
            "print(fingerprint(state))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", program],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        state = Rec(
            leader="n2",
            voted=frozenset({"n1", "n3"}),
            log=(Rec(term=1, cmd="x"),),
            nums=(0, -7, 2**70),
        )
        assert int(out) == fingerprint(state)


_KEY_HISTORY_PROGRAM = """
import sys
from repro.core.state import Rec, encode

def attempt(key):
    try:
        print(encode(Rec({key: 'x'})).hex())
    except TypeError:
        print('rejected')

for name in sys.argv[1:]:
    attempt({'int': 1, 'bool': True, 'float': 1.0}[name])
"""


class TestRecordKeyTypes:
    """``True == 1 == 1.0`` as dict keys and as interned-layout keys, so
    records cannot hold them apart: bool and float keys are rejected."""

    @pytest.mark.parametrize(
        "key", [True, False, 1.0, (True, "a"), ("a", (0.5,)), frozenset({False})]
    )
    def test_bool_and_float_keys_rejected(self, key):
        with pytest.raises(TypeError, match="record key"):
            Rec({key: "x"})
        with pytest.raises(TypeError, match="record key"):
            Rec(a=1).set(key, "x")
        with pytest.raises(TypeError, match="record key"):
            Rec(a=1).update({key: "x"})

    def test_int_str_and_tuple_keys_stay(self):
        rec = Rec({1: "x", "a": 2, ("n1", 2): 3}).set(0, "y")
        assert decode(encode(rec)) == rec

    def test_decode_rejects_bool_key(self):
        with pytest.raises(ValueError, match="record key"):
            decode(b"R\x01T" + encode("x"))

    @pytest.mark.parametrize(
        "order", [("int",), ("bool", "int"), ("float", "bool", "int")]
    )
    def test_int_key_bytes_do_not_depend_on_process_history(self, order):
        """``_LAYOUT`` is keyed by the key tuple and ``(True,) == (1,)``:
        a bool-keyed record encoded first used to leave its ``T`` key
        bytes behind for the int-keyed one."""
        out = subprocess.run(
            [sys.executable, "-c", _KEY_HISTORY_PROGRAM, *order],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out == ["rejected"] * (len(order) - 1) + [b"R\x01i\x02s\x01x".hex()]


def _generated_specs(n_specs=20):
    """The generated testkit specs of the codec sweep, as (index, spec)."""
    from repro.testkit.genspec import generate_spec, sample_params

    rng = random.Random("codec-sweep-params")
    for index in range(n_specs):
        generated = generate_spec(f"codec-sweep:{index}", sample_params(rng))
        yield index, generated.spec(invariants=False)


def _bfs_fingerprinted(spec, max_states):
    """BFS ``spec`` the way the engine does — fingerprint every initial
    state and successor, keep the new ones — yielding each
    ``(state, fingerprint, is_new)``."""
    scope_pair_memo(spec)
    seen = set()
    queue = deque()

    def visit(state):
        fp = fingerprint(state)
        new = fp not in seen
        if new:
            seen.add(fp)
            queue.append(state)
        return state, fp, new

    for state in spec.init_states():
        yield visit(state)
    while queue and len(seen) < max_states:
        state = queue.popleft()
        if not spec.state_constraint(state):
            continue
        for transition in spec.successors(state):
            yield visit(transition.target)


def _sweep_states(n_specs=20, max_states=250):
    """BFS every generated testkit spec; yield each (spec index, state).

    Successor records carry parent/touched chains, so with
    ``set_delta_codec(True)`` their fingerprints go through the
    table-patching path under test.
    """
    for index, spec in _generated_specs(n_specs):
        for state, _, new in _bfs_fingerprinted(spec, max_states):
            if new:
                yield index, state


_SWEEP_PROGRAM = """
import random
from collections import deque
from hashlib import blake2b
from repro.core.state import fingerprint, set_delta_codec
from repro.testkit.genspec import generate_spec, sample_params

set_delta_codec(True)
rng = random.Random("codec-sweep-params")
digest = blake2b(digest_size=16)
for index in range(20):
    params = sample_params(rng)
    generated = generate_spec(f"codec-sweep:{index}", params)
    spec = generated.spec(invariants=False)
    seen = set()
    queue = deque()
    for state in spec.init_states():
        fp = fingerprint(state)
        if fp not in seen:
            seen.add(fp)
            queue.append(state)
    while queue and len(seen) < 250:
        state = queue.popleft()
        if not spec.state_constraint(state):
            continue
        for transition in spec.successors(state):
            fp = fingerprint(transition.target)
            if fp not in seen:
                seen.add(fp)
                queue.append(transition.target)
    for fp in sorted(seen):
        digest.update(fp.to_bytes(8, "big"))
print(digest.hexdigest())
"""


class TestDeltaCodecProperty:
    """Table patching must be invisible: byte-identical encodings,
    identical fingerprints, in every process."""

    def test_delta_encodings_byte_identical_across_testkit_specs(self):
        for delta in (True, False):
            previous = set_delta_codec(delta)
            reset_codec_stats()
            try:
                states = 0
                for _, state in _sweep_states():
                    states += 1
                    # A cache-free rebuild, encoded and digested pair by
                    # pair, must reproduce the bytes of a state that
                    # reuses nested encodings and the fingerprint of one
                    # that patched its parent's table.
                    fresh = substitute(state, {})
                    assert encode(fresh) == encode(state)
                    assert decode(encode(state)) == state
                    assert fingerprint(fresh) == fingerprint(state)
                stats = codec_stats()
            finally:
                set_delta_codec(previous)
            assert states > 300  # the sweep actually explored
            # ... and the incremental path ran exactly when switched on
            assert (stats["fp_delta_hits"] > 0) == delta
            assert stats["fp_full"] > 0
            # there is one encoder: nothing is ever spliced
            assert stats["delta_hits"] == stats["delta_misses"] == 0

    @pytest.mark.parametrize("hashseed", ["0", "7", "31337"])
    def test_sweep_fingerprints_stable_across_hash_seeds(self, hashseed):
        """Every fingerprint of every state of the 20-spec sweep must be
        identical under a different PYTHONHASHSEED (the sharded stores
        and parallel BFS partition on these)."""
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", _SWEEP_PROGRAM],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if not hasattr(TestDeltaCodecProperty, "_local_digest"):
            previous = set_delta_codec(True)
            try:
                digest = blake2b(digest_size=16)
                fps = {}
                for index, state in _sweep_states():
                    fps.setdefault(index, set()).add(fingerprint(state))
                for index in sorted(fps):
                    for fp in sorted(fps[index]):
                        digest.update(fp.to_bytes(8, "big"))
            finally:
                set_delta_codec(previous)
            TestDeltaCodecProperty._local_digest = digest.hexdigest()
        assert out == TestDeltaCodecProperty._local_digest


def _reference_fingerprint(state):
    """The two-level digest worked out by hand from a from-scratch
    ``encode()``: blake2b over the blake2b-8 digests of the pairs'
    canonical bytes, in key-encoding order."""
    # substitute(x, {}) is a structural copy out of new records: no cached
    # encodings, digest tables or delta chains, and ``state`` is not touched
    fresh = decode(encode(substitute(state, {})))
    assert fresh == state
    pairs = sorted(encode(key) + encode(value) for key, value in fresh.items())
    table = b"".join(blake2b(pair, digest_size=8).digest() for pair in pairs)
    return int.from_bytes(blake2b(table, digest_size=8).digest(), "big")


def _memo_sweep_specs():
    """The 8 real specs (3 nodes) and the 20 generated sweep specs."""
    from repro.dist.specref import SPEC_CLASSES, make_spec

    for system in sorted(SPEC_CLASSES):
        yield system, make_spec(system, 3, (), None)
    yield from _generated_specs()


def _longest_chain(value):
    """Longest ``_base`` chain hanging off any record inside ``value``."""
    longest = 0
    if isinstance(value, Rec):
        cursor = value._base
        while cursor is not None:
            longest += 1
            cursor = cursor._base
        children = list(value.keys()) + list(value.values())
    elif isinstance(value, (tuple, frozenset)):
        children = value
    else:
        return 0
    return max([longest] + [_longest_chain(child) for child in children])


def _empty_memo(monkeypatch):
    """An empty, unowned memo for one test; the real one comes back after."""
    memo = CheckedMemo(state_module._PAIR_MEMO.derive)
    monkeypatch.setattr(state_module, "_PAIR_MEMO", memo)
    monkeypatch.setattr(state_module, "_PAIR_MEMO_OWNER", None)


class _TrueThenOneSpec(Spec):
    """Breaks type stability: ``flag`` holds ``True`` on one path and
    ``1`` on another, which ``==`` cannot tell apart and the codec can."""

    name = "true-then-one"

    def init_states(self):
        # ``fixed`` is never rebound, so successors take the delta path
        yield Rec(flag=False, step=0, fixed="x")

    def actions(self):
        return [Action("SetBool", self._set(True)), Action("SetInt", self._set(1))]

    @staticmethod
    def _set(value):
        def fn(state):
            if state["step"] < 3:
                yield (), state.update(flag=value, step=state["step"] + 1)

        return fn


_FLAG_HISTORY_PROGRAM = """
import sys
from repro.core import bfs_explore
from repro.core.engine import CompactStore
from toy_specs import FlagSpec

for typing in sys.argv[1:]:
    store = CompactStore()
    result = bfs_explore(FlagSpec(typing), store=store)
print(result.stats.distinct_states, *sorted(fp for fp, _, _ in store.edges()))
"""


class TestPairMemoScope:
    """The memo holds one spec's pairs at a time: what an earlier spec in
    the process put in ``flag`` cannot reach a later spec's fingerprints."""

    @pytest.fixture(autouse=True)
    def _delta_on(self):
        previous = set_delta_codec(True)
        yield
        set_delta_codec(previous)

    @pytest.mark.parametrize(
        "history", [("int",), ("bool", "int"), ("float", "bool", "int")]
    )
    def test_census_and_fingerprints_do_not_depend_on_process_history(self, history):
        from toy_specs import FlagSpec

        out = subprocess.run(
            [sys.executable, "-c", _FLAG_HISTORY_PROGRAM, *history],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS])),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        expected = sorted(fingerprint(state) for state in FlagSpec("int").reachable())
        assert [int(word) for word in out] == [len(expected)] + expected

    def test_serial_exploration_rescopes(self):
        from repro.core import bfs_explore
        from repro.core.engine import CompactStore
        from toy_specs import FlagSpec

        for typing in ("bool", "int", "float", "int"):
            spec = FlagSpec(typing)
            store = CompactStore()
            bfs_explore(spec, store=store)
            assert {fp for fp, _, _ in store.edges()} == {
                _reference_fingerprint(state) for state in spec.reachable()
            }, typing

    def test_every_successor_walker_rescopes(self):
        from repro.core import bfs_explore
        from repro.core.engine import CompactStore, find_matching_step
        from repro.core.parallel import ShardWorker
        from repro.temporal.graph import materialize_graph
        from toy_specs import FlagSpec

        ints = FlagSpec("int")
        (init,) = ints.init_states()
        first = _reference_fingerprint(init.update(flag=1, n=1))
        store = CompactStore()
        bfs_explore(ints, store=store)

        def pollute():
            bfs_explore(FlagSpec("bool"))
            assert state_module._PAIR_MEMO_OWNER is not ints

        pollute()
        assert find_matching_step(ints, init, first, "Flip") is not None
        pollute()
        graph = materialize_graph(ints, store)
        assert sorted(graph.states) == sorted(fp for fp, _, _ in store.edges())
        pollute()
        ShardWorker(ints, 0, 1).expand(None)  # every round is an engine run
        assert state_module._PAIR_MEMO_OWNER is ints
        assert not state_module._PAIR_MEMO.table

    def test_recompiling_keeps_the_memo(self):
        from repro.core.compile import compile_spec
        from toy_specs import FlagSpec

        spec = FlagSpec("int")
        scope_pair_memo(compile_spec(spec))
        state_module._PAIR_MEMO.table[("n", 1)] = b"12345678"
        scope_pair_memo(compile_spec(spec))
        scope_pair_memo(spec)
        assert state_module._PAIR_MEMO.table
        scope_pair_memo(FlagSpec("int"))
        assert not state_module._PAIR_MEMO.table

    def test_sampling_survives_reset_codec_stats(self, monkeypatch):
        """The 1-in-N check counts its own hits, not the stats counter:
        zeroing the stats between hits must not keep it from firing."""
        _empty_memo(monkeypatch)
        monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 4)
        base = Rec(flag=False, n=0, fixed="x")
        fingerprint(base)
        fingerprint(base.set("flag", True))  # the miss that fills the memo
        for _ in range(3):
            reset_codec_stats()
            fingerprint(base.set("flag", True))
        reset_codec_stats()
        with pytest.raises(SpecError, match="'flag' is not type-stable"):
            fingerprint(base.set("flag", 1))  # the fourth hit


class TestPairDigestMemo:
    """The pair-digest memo must be invisible in every fingerprint, at
    any capacity, and must not make records retain their ancestry."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch):
        _empty_memo(monkeypatch)
        previous = set_delta_codec(True)
        yield
        set_delta_codec(previous)

    # cap 2: the memo is emptied on every third distinct pair, so every
    # clear boundary is crossed
    @pytest.mark.parametrize("cap", [CheckedMemo.CAP, 2])
    def test_fingerprints_equal_from_scratch_digest(self, monkeypatch, cap):
        monkeypatch.setattr(CheckedMemo, "CAP", cap)
        reset_codec_stats()
        checked = 0
        for name, spec in _memo_sweep_specs():
            for state, fp, _ in _bfs_fingerprinted(spec, max_states=400):
                assert fp == _reference_fingerprint(state), name
                checked += 1
        stats = codec_stats()
        assert checked > 10000
        assert stats["pair_memo_hits"] > 0 and stats["pair_memo_misses"] > 0
        if cap == 2:
            assert stats["pair_memo_clears"] > 1000
        else:
            assert stats["pair_memo_hits"] > stats["pair_memo_misses"]

    def test_random_walk_retains_no_nested_ancestry(self):
        from repro.specs.raft import PySyncObjSpec, RaftConfig

        spec = PySyncObjSpec(RaftConfig(nodes=("n1", "n2", "n3")))
        rng = random.Random("memo-walk")
        inits = list(spec.init_states())
        state = rng.choice(inits)
        fingerprint(state)
        for _ in range(2000):
            choices = (
                list(spec.successors(state)) if spec.state_constraint(state) else []
            )
            if not choices:
                state = rng.choice(inits)
                continue
            state = rng.choice(choices).target
            fingerprint(state)
            assert _longest_chain(state) <= 1
        assert codec_stats()["pair_memo_hits"] > 0

    def test_equal_touched_values_become_one_object(self):
        """Hash-consing: a hit rebinds the pair to the memo's value, so
        two successors that built equal values hold one object, and
        neither its fingerprint nor its bytes move."""
        base = Rec(log=(), n=0, fixed="x")
        fingerprint(base)
        children = [base.set("log", (Rec(term=1, val="v"),)) for _ in range(2)]
        assert children[0]["log"] is not children[1]["log"]
        expected = [
            (_reference_fingerprint(child), encode(substitute(child, {})))
            for child in children
        ]
        reset_codec_stats()
        for child in children:
            fingerprint(child)
        stats = codec_stats()
        assert (stats["pair_memo_misses"], stats["pair_memo_hits"]) == (1, 1)
        assert children[0]["log"] is children[1]["log"]
        assert [(fingerprint(c), encode(c)) for c in children] == expected

    def test_spec_successors_share_their_equal_values(self):
        from repro.specs.raft import PySyncObjSpec, RaftConfig

        states = [
            state
            for state, _, new in _bfs_fingerprinted(
                PySyncObjSpec(RaftConfig(nodes=("n1", "n2", "n3"))), max_states=300
            )
            if new
        ]
        distinct, objects = set(), set()
        for state in states:
            for key, value in state.items():
                distinct.add((key, value))
                objects.add(id(value))
        # every state here but the root was patched from its parent
        assert len(objects) <= len(distinct) + len(states[0])
        for state in states[:50]:
            assert fingerprint(state) == _reference_fingerprint(state)

    def test_planted_true_one_mix_raises_at_the_shipped_cadence(self, monkeypatch):
        monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 64)  # the shipped rate
        base = Rec(flag=False, n=0, fixed="x")
        fingerprint(base)
        fingerprint(base.set("flag", True))  # the miss: True is the canonical value
        for _ in range(CheckedMemo.VERIFY_EVERY - 1):
            child = base.set("flag", 1)
            fingerprint(child)
            assert child["flag"] is True  # rebound, unseen until a hit is sampled
        with pytest.raises(SpecError, match="'flag' is not type-stable"):
            fingerprint(base.set("flag", 1))

    def test_type_unstable_variable_raises(self, monkeypatch):
        from repro.core import bfs_explore

        monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 1)
        with pytest.raises(SpecError, match="'flag' is not type-stable"):
            bfs_explore(_TrueThenOneSpec())

    def test_type_stable_spec_is_sampled_quietly(self, monkeypatch):
        from repro.core import bfs_explore
        from toy_specs import CounterSpec

        monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 1)
        result = bfs_explore(CounterSpec(n_nodes=3, maximum=3))
        assert result.stats.distinct_states == 4**3


class TestChangedKeysAndStats:
    def test_set_records_touched_key(self):
        base = Rec(a=1, b=2)
        child = base.set("a", 3)
        assert changed_keys(child, base) == frozenset({"a"})

    def test_identity_set_is_noop(self):
        base = Rec(a=(1, 2), b="x")
        assert base.set("a", base["a"]) is base
        assert base.update(b="x") is base

    def test_update_skips_identity_rebinds(self):
        base = Rec(a=1, b=2, c=3)
        child = base.update(a=base["a"], b=9)
        assert changed_keys(child, base) == frozenset({"b"})

    def test_update_keyword_wins_over_mapping(self):
        """As in ``dict.update``; the identity shortcut used to compare
        the keyword with the source record and keep the mapping's value."""
        base = Rec(a=1, b=5)
        assert base.update({"a": 2}, a=base["a"]) is base
        child = base.update({"a": 2, "b": 6}, a=base["a"])
        assert child == Rec(a=1, b=6)
        assert changed_keys(child, base) == frozenset({"b"})
        assert base.update({"a": 2}, a=3)._touched == ("a",)  # once, not twice

    def test_fingerprinted_child_does_not_retain_its_parent(self):
        parent = Rec(a=(1, 2), b="x", c=Rec(d=1))
        encode(parent)
        fingerprint(parent)
        child = parent.set("b", "y")
        previous = set_delta_codec(True)
        try:
            reset_codec_stats()
            fingerprint(child)
            assert codec_stats()["fp_delta_hits"] == 1
        finally:
            set_delta_codec(previous)
        # Rec has no __weakref__ slot, so walk what the child refers to
        # (values, not types and the modules behind them).
        seen = set()
        stack = [child]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert obj is not parent
            stack.extend(gc.get_referents(obj))

    def test_counter_names(self):
        reset_codec_stats()
        stats = codec_stats()
        assert set(stats) == {
            "delta_hits",
            "delta_misses",
            "full_encodes",
            "fp_delta_hits",
            "fp_full",
            "pair_memo_hits",
            "pair_memo_misses",
            "pair_memo_clears",
        }
        assert all(n == 0 for n in stats.values())

    def test_fp_counters_move(self):
        previous = set_delta_codec(True)
        try:
            reset_codec_stats()
            base = Rec(a=(1, 2, 3), b="x", c=frozenset({1}))
            fingerprint(base)
            child = base.set("b", "y")
            fingerprint(child)
            stats = codec_stats()
        finally:
            set_delta_codec(previous)
        assert stats["fp_full"] == 1  # the root had no parent
        assert stats["fp_delta_hits"] == 1  # the child patched one pair

    def test_pair_memo_counters_move(self, monkeypatch):
        _empty_memo(monkeypatch)
        monkeypatch.setattr(CheckedMemo, "CAP", 2)
        previous = set_delta_codec(True)
        try:
            reset_codec_stats()
            base = Rec(a=0, b="x")
            fingerprint(base)
            for value in (1, 2, 1, 3):
                fingerprint(base.set("a", value))
            stats = codec_stats()
        finally:
            set_delta_codec(previous)
        # 1 and 2 miss and fill the memo, the second 1 hits, 3 misses
        # into a full memo and empties it first
        assert stats["pair_memo_misses"] == 3
        assert stats["pair_memo_hits"] == 1
        assert stats["pair_memo_clears"] == 1
        assert len(state_module._PAIR_MEMO.table) == 1

    def test_no_delta_bypasses_pair_memo(self, monkeypatch):
        _empty_memo(monkeypatch)
        previous = set_delta_codec(False)
        try:
            reset_codec_stats()
            base = Rec(a=0, b="x")
            fingerprint(base)
            fingerprint(base.set("a", 1))
            stats = codec_stats()
        finally:
            set_delta_codec(previous)
        assert stats["fp_full"] == 2
        assert stats["pair_memo_hits"] == stats["pair_memo_misses"] == 0
        assert not state_module._PAIR_MEMO.table

    def test_delta_fp_equals_full_fp(self):
        previous = set_delta_codec(True)
        try:
            base = Rec(a=(1, 2, 3), b="x", c=frozenset({1, 2}))
            fingerprint(base)  # builds the parent's pair-digest table
            child = base.update(b="yy", c=frozenset({7}))
            incremental = fingerprint(child)
            fresh = decode(encode(child))
        finally:
            set_delta_codec(previous)
        assert fingerprint(fresh) == incremental


class TestThawKeys:
    def test_tuple_keys_flatten(self):
        assert thaw(Rec({("n1", "n2"): 1})) == {"n1|n2": 1}

    def test_colliding_tuple_keys_stay_distinct(self):
        # the old "|".join flattened these to the same key
        rec = Rec({("a", "b|c"): 1, ("a|b", "c"): 2})
        thawed = thaw(rec)
        assert len(thawed) == 2
        assert sorted(thawed.values()) == [1, 2]

    def test_nested_tuple_keys_stay_distinct(self):
        rec = Rec({(("a", "b"), "c"): 1, ("a", ("b", "c")): 2})
        thawed = thaw(rec)
        assert len(thawed) == 2
