"""The contract every per-value memo keeps, through its owner's API.

The pair-digest, orbit, nested-orbit, verdict and datagram-key memos and
the Raft message pool are instances of one class,
``core.state.CheckedMemo``.  Each case below drives one of them the way
its owner does (the nested-orbit memo twice: through a record and
through a datagram tuple) and holds it to the class's rules: at most ``CAP``
entries, emptied when full (an exact ``clears`` count), and with every
hit sampled, its own ``SpecError`` on a planted ``True``/``1`` mix (an
under-declared ``reads`` for the verdict memo).
"""

import pytest

import repro.core.state as state_module
from repro.core import Invariant, Rec, SymmetryReducer
from repro.core.compile import compile_spec
from repro.core.spec import SpecError
from repro.core.state import CheckedMemo, fingerprint
from repro.specs.network import UdpModel
from repro.specs.raft import messages

from toy_specs import CounterSpec

NODES = ("n1", "n2")


class PairDigest:
    """Fingerprinting a child patches its one touched pair from the memo."""

    error = "'flag' is not type-stable"

    def __init__(self, monkeypatch):
        self.memo = CheckedMemo(state_module._PAIR_MEMO.derive)
        monkeypatch.setattr(state_module, "_PAIR_MEMO", self.memo)
        self.base = Rec(flag=False, n=0, fixed="x")
        fingerprint(self.base)

    def feed(self, i):
        fingerprint(self.base.set("n", i + 1))

    def plant(self):
        fingerprint(self.base.set("flag", True))
        fingerprint(self.base.set("flag", 1))


class Orbit:
    """One variable, one orbit-memo lookup per canonical call."""

    error = "'flag' is not type-stable"

    def __init__(self, monkeypatch):
        self.reducer = SymmetryReducer([NODES])
        self.memo = self.reducer._orbits

    def feed(self, i):
        self.reducer.canonical(Rec(n=i))

    def plant(self):
        self.reducer.canonical(Rec(flag=Rec(n1=True, n2=False)))
        self.reducer.canonical(Rec(flag=Rec(n1=1, n2=0)))


class NestedOrbit:
    """A record inside a variable's value: one nested lookup per orbit miss."""

    error = "'x' is not type-stable"

    def __init__(self, monkeypatch):
        self.reducer = SymmetryReducer([NODES])
        self.memo = self.reducer._nested

    def feed(self, i):
        self.reducer.canonical(Rec(x=(Rec(by="n1", n=i),)))

    def plant(self):
        self.reducer.canonical(Rec(x=(Rec(by="n1", ok=True),)))
        # a new top-level value, so the orbit memo misses and the nested
        # memo is the one that answers
        self.reducer.canonical(Rec(x=(Rec(by="n1", ok=1), "other")))


class NestedTuple:
    """A datagram tuple inside a bag: one nested lookup per orbit miss.
    The nested memo holds every container below a variable, not only
    records, so a tuple answers for its equal twin."""

    error = "'netMsgs' is not type-stable"

    def __init__(self, monkeypatch):
        self.reducer = SymmetryReducer([NODES])
        self.memo = self.reducer._nested

    def feed(self, i):
        self.reducer.canonical(Rec(netMsgs=(("n1", "n2", i),)))

    def plant(self):
        self.reducer.canonical(Rec(netMsgs=(("n1", "n2", True),)))
        # a new bag, so the orbit memo misses and the datagram's twin is
        # the nested memo's hit
        self.reducer.canonical(Rec(netMsgs=(("n1", "n2", 1), ("n2", "n1", 0))))


class UnderDeclared(CounterSpec):
    """``SumBounded`` reads ``a`` and ``b`` and declares ``a`` alone."""

    def invariants(self):
        return (Invariant("SumBounded", lambda s: s["a"] + s["b"] < 5, reads=("a",)),)


class Verdict:
    """One verdict lookup per state check, keyed on the declared ``a``."""

    error = r"SumBounded.*declared reads \['a'\]"

    def __init__(self, monkeypatch):
        self.spec = compile_spec(UnderDeclared())
        self.memo = self.spec._inv_entries[0][4]

    def feed(self, i):
        self.spec.check_state(Rec(a=-i, b=0))

    def plant(self):
        self.spec.check_state(Rec(a=2, b=0))
        self.spec.check_state(Rec(a=2, b=3))


class DatagramKey:
    """Sending into an empty network sorts one datagram: one key lookup."""

    error = "netMsgs"

    def __init__(self, monkeypatch):
        self.model = UdpModel(NODES)
        self.memo = self.model._keys
        self.empty = Rec(self.model.init_vars())

    def feed(self, i):
        self.model.send(self.empty, "n1", "n2", Rec(type="M", n=i))

    def plant(self):
        self.model.send(self.empty, "n1", "n2", Rec(type="M", flag=True))
        self.model.send(self.empty, "n1", "n2", Rec(type="M", flag=1))


class MessagePool:
    """Each Raft message constructor call is one pool lookup."""

    error = r"RequestVoteResponse arguments \(1, 1, False\).*one type"

    def __init__(self, monkeypatch):
        shipped = messages._MESSAGES
        self.memo = CheckedMemo(shipped.derive, mismatch=shipped.mismatch)
        monkeypatch.setattr(messages, "_MESSAGES", self.memo)

    def feed(self, i):
        messages.entry(i, "v")

    def plant(self):
        messages.request_vote_response(1, True)
        messages.request_vote_response(1, 1)


CASES = [PairDigest, Orbit, NestedOrbit, NestedTuple, Verdict, DatagramKey, MessagePool]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
@pytest.mark.parametrize("cap", [CheckedMemo.CAP, 2], ids=["default-cap", "cap-2"])
def test_full_memo_is_emptied(case, cap, monkeypatch):
    monkeypatch.setattr(CheckedMemo, "CAP", cap)
    owner = case(monkeypatch)
    memo = owner.memo
    for i in range(2 * cap + 1):
        owner.feed(i)
        assert len(memo.table) <= cap
    # 2 * cap + 1 distinct keys: full twice, and one entry left
    assert (memo.misses, memo.hits, memo.clears) == (2 * cap + 1, 0, 2)
    assert len(memo.table) == 1


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_sampled_hit_raises_the_memos_own_error(case, monkeypatch):
    monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 1)
    owner = case(monkeypatch)
    with pytest.raises(SpecError, match=owner.error):
        owner.plant()
    assert owner.memo.verified == 1


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_unsampled_hit_is_trusted(case, monkeypatch):
    monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 64)  # the shipped rate
    owner = case(monkeypatch)
    owner.plant()
    assert (owner.memo.hits, owner.memo.verified) == (1, 0)


def test_nested_tuple_mix_raises_at_the_shipped_cadence(monkeypatch):
    """The 64th nested hit is re-derived: a bag that keeps meeting the
    ``1`` twin of a datagram first seen holding ``True`` fails by then."""
    monkeypatch.setattr(CheckedMemo, "VERIFY_EVERY", 64)  # the shipped rate
    reducer = SymmetryReducer([NODES])
    reducer.canonical(Rec(netMsgs=(("n1", "n2", True),)))
    with pytest.raises(SpecError, match="'netMsgs' is not type-stable"):
        for i in range(64):
            reducer.canonical(Rec(netMsgs=(("n1", "n2", 1), ("n2", "n1", i))))
    assert reducer._nested.hits == 64
