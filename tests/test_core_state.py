"""Unit tests for immutable state values and fingerprinting."""

import pytest
from hypothesis import given, strategies as st

from repro.core.state import (
    Rec,
    fingerprint,
    freeze,
    substitute,
    thaw,
)


class TestRec:
    def test_mapping_interface(self):
        rec = Rec(a=1, b="x")
        assert rec["a"] == 1
        assert rec["b"] == "x"
        assert len(rec) == 2
        assert set(rec) == {"a", "b"}
        assert "a" in rec
        assert rec.get("missing") is None

    def test_equality_ignores_insertion_order(self):
        assert Rec(a=1, b=2) == Rec(b=2, a=1)
        assert hash(Rec(a=1, b=2)) == hash(Rec(b=2, a=1))

    def test_set_returns_new_rec(self):
        rec = Rec(a=1)
        other = rec.set("a", 2)
        assert rec["a"] == 1
        assert other["a"] == 2

    def test_update_multiple_keys(self):
        rec = Rec(a=1, b=2, c=3)
        other = rec.update(a=10, c=30)
        assert (other["a"], other["b"], other["c"]) == (10, 2, 30)

    def test_apply_transforms_value(self):
        rec = Rec(count=5)
        assert rec.apply("count", lambda v: v + 1)["count"] == 6

    def test_remove(self):
        rec = Rec(a=1, b=2)
        assert set(rec.remove("a")) == {"b"}

    def test_nested_recs(self):
        rec = Rec(inner=Rec(x=1))
        other = rec.apply("inner", lambda inner: inner.set("x", 2))
        assert rec["inner"]["x"] == 1
        assert other["inner"]["x"] == 2

    def test_rejects_mutable_values(self):
        with pytest.raises(TypeError):
            Rec(a=[1, 2])
        with pytest.raises(TypeError):
            Rec(a={"k": 1})

    def test_tuple_keys_allowed(self):
        rec = Rec({("n1", "n2"): (1, 2)})
        assert rec[("n1", "n2")] == (1, 2)

    def test_equality_with_plain_dict(self):
        assert Rec(a=1) == {"a": 1}

    def test_mixed_key_types_sortable(self):
        rec = Rec({1: "a", "1": "b", ("t",): "c"})
        assert len(rec) == 3
        assert hash(rec) == hash(Rec({("t",): "c", "1": "b", 1: "a"}))


class TestFreezeThaw:
    def test_freeze_dict(self):
        frozen = freeze({"a": [1, 2], "b": {"c": {3}}})
        assert isinstance(frozen, Rec)
        assert frozen["a"] == (1, 2)
        assert frozen["b"]["c"] == frozenset({3})

    def test_thaw_roundtrip(self):
        original = {"a": [1, 2], "b": {"c": 3}}
        assert thaw(freeze(original)) == original

    def test_freeze_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            freeze(object())

    def test_thaw_sorts_frozensets(self):
        assert thaw(frozenset({3, 1, 2})) == [1, 2, 3]

    @given(
        st.recursive(
            st.one_of(st.integers(), st.text(max_size=5), st.booleans(), st.none()),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=3), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_freeze_is_idempotent(self, value):
        frozen = freeze(value)
        assert freeze(frozen) == frozen

    @given(st.dictionaries(st.text(max_size=4), st.integers(), max_size=6))
    def test_freeze_preserves_mapping_contents(self, mapping):
        frozen = freeze(mapping)
        assert dict(frozen) == mapping


class TestFingerprint:
    def test_equal_states_have_equal_fingerprints(self):
        a = Rec(x=1, y=(1, 2))
        b = Rec(y=(1, 2), x=1)
        assert fingerprint(a) == fingerprint(b)

    def test_different_states_differ(self):
        assert fingerprint(Rec(x=1)) != fingerprint(Rec(x=2))

    def test_type_sensitivity(self):
        # 1 and True hash equal in Python; the fingerprint distinguishes
        # them.
        assert fingerprint(Rec(x=1)) != fingerprint(Rec(x=True))

    def test_nested_structures(self):
        a = Rec(q=Rec({("a", "b"): (Rec(m=1),)}))
        b = Rec(q=Rec({("a", "b"): (Rec(m=2),)}))
        assert fingerprint(a) != fingerprint(b)


class TestSubstitute:
    def test_substitutes_atoms(self):
        state = Rec(role=Rec(n1="leader", n2="follower"), votes=frozenset({"n1"}))
        swapped = substitute(state, {"n1": "n2", "n2": "n1"})
        assert swapped["role"]["n2"] == "leader"
        assert swapped["role"]["n1"] == "follower"
        assert swapped["votes"] == frozenset({"n2"})

    def test_substitution_in_tuples(self):
        assert substitute(("n1", "x", "n2"), {"n1": "n2", "n2": "n1"}) == ("n2", "x", "n1")

    def test_substitution_in_keys(self):
        rec = Rec({("n1", "n2"): 5})
        swapped = substitute(rec, {"n1": "n2", "n2": "n1"})
        assert swapped[("n2", "n1")] == 5

    def test_identity_map_is_noop(self):
        state = Rec(a=1, b=("x",))
        assert substitute(state, {}) == state
