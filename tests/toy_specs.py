"""Small specifications with known state spaces, used by the core tests."""

from __future__ import annotations

from repro.core import Action, Invariant, Rec, Spec, TransitionInvariant


class CounterSpec(Spec):
    """N nodes, each independently incrementing a counter up to ``maximum``.

    The reachable state space has exactly ``(maximum + 1) ** n_nodes``
    states; under full node symmetry it collapses to the number of
    multisets, ``C(maximum + n_nodes, n_nodes)``.
    """

    name = "counters"

    def __init__(self, n_nodes: int = 2, maximum: int = 3, bound: int | None = None):
        self.nodes = tuple(f"n{i}" for i in range(1, n_nodes + 1))
        self.maximum = maximum
        # ``bound``: if set, the invariant "sum of counters <= bound" is
        # checked (and can be made violable for counterexample tests).
        self.bound = bound

    def init_states(self):
        yield Rec(counters=Rec({n: 0 for n in self.nodes}))

    def actions(self):
        return [Action("Increment", self._increment, kind="internal")]

    def _increment(self, state: Rec):
        counters = state["counters"]
        for node in self.nodes:
            if counters[node] < self.maximum:
                yield (node,), state.set("counters", counters.apply(node, lambda c: c + 1))

    def invariants(self):
        if self.bound is None:
            return ()
        bound = self.bound

        def within_bound(state: Rec) -> bool:
            return sum(state["counters"].values()) <= bound

        return (Invariant("SumWithinBound", within_bound),)

    def symmetry_sets(self):
        return (self.nodes,)


class TokenRingSpec(Spec):
    """A token circulating around a ring guards a critical section.

    With ``buggy=True`` a node may enter the critical section without
    holding the token, violating mutual exclusion.  The minimal
    counterexample has a known depth: the buggy node enters immediately
    while the token holder also enters (depth 2).
    """

    name = "token-ring"

    def __init__(self, n_nodes: int = 3, buggy: bool = False, max_steps: int = 12):
        self.nodes = tuple(f"n{i}" for i in range(1, n_nodes + 1))
        self.buggy = buggy
        self.max_steps = max_steps

    def init_states(self):
        yield Rec(
            token=self.nodes[0],
            critical=frozenset(),
            steps=0,
        )

    def actions(self):
        return [
            Action("PassToken", self._pass_token),
            Action("Enter", self._enter),
            Action("Leave", self._leave),
        ]

    def _pass_token(self, state: Rec):
        holder = state["token"]
        if holder in state["critical"]:
            return
        nxt = self.nodes[(self.nodes.index(holder) + 1) % len(self.nodes)]
        yield (holder, nxt), state.update(token=nxt, steps=state["steps"] + 1)

    def _enter(self, state: Rec):
        for node in self.nodes:
            if node in state["critical"]:
                continue
            allowed = node == state["token"]
            if self.buggy and node == self.nodes[-1]:
                allowed = True  # seeded bug: the last node skips the check
            if allowed:
                yield (node,), state.update(
                    critical=state["critical"] | {node}, steps=state["steps"] + 1
                ), ("buggy-enter" if allowed and node != state["token"] else "enter")

    def _leave(self, state: Rec):
        for node in sorted(state["critical"]):
            yield (node,), state.update(
                critical=state["critical"] - {node}, steps=state["steps"] + 1
            )

    def invariants(self):
        return (
            Invariant("MutualExclusion", lambda s: len(s["critical"]) <= 1),
        )

    def transition_invariants(self):
        def steps_monotonic(pre: Rec, transition) -> bool:
            return transition.target["steps"] > pre["steps"]

        return (TransitionInvariant("StepsMonotonic", steps_monotonic),)

    def state_constraint(self, state: Rec) -> bool:
        return state["steps"] < self.max_steps


class FlagSpec(Spec):
    """``flag`` flips between ``off`` and ``on`` while ``n`` counts to ``LIMIT``.

    Type-stable whatever the two values are; instances built with
    ``False/True``, ``0/1`` and ``0.0/1.0`` use the same variable names
    for values that are ``==`` and encode differently.  ``2 * LIMIT + 1``
    reachable states.
    """

    name = "flag"
    LIMIT = 40
    TYPINGS = {"bool": (False, True), "int": (0, 1), "float": (0.0, 1.0)}

    def __init__(self, typing: str = "int"):
        self.off, self.on = self.TYPINGS[typing]

    def init_states(self):
        # ``fixed`` is never rebound, so successors take the delta path
        yield Rec(flag=self.off, n=0, fixed="x")

    def actions(self):
        return [Action("Flip", self._flip), Action("Hold", self._hold)]

    def _flip(self, state: Rec):
        if state["n"] < self.LIMIT:
            flag = self.on if state["flag"] == self.off else self.off
            yield (), state.update(flag=flag, n=state["n"] + 1)

    def _hold(self, state: Rec):
        if state["n"] < self.LIMIT:
            yield (), state.set("n", state["n"] + 1)

    def reachable(self):
        yield Rec(flag=self.off, n=0, fixed="x")
        for n in range(1, self.LIMIT + 1):
            yield Rec(flag=self.off, n=n, fixed="x")
            yield Rec(flag=self.on, n=n, fixed="x")
