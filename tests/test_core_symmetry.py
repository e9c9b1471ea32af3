"""Tests for symmetry reduction."""

from hypothesis import given, strategies as st

from repro.core import Rec, SymmetryReducer, canonicalize, encode
from repro.core.state import fingerprint
from repro.core.symmetry import permutations_of_sets


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
