"""The specification DSL: state machines for model checking.

A specification (the analogue of a TLA+ module, §3.1 of the paper) is a
subclass of :class:`Spec` that provides:

* ``init_states()`` — the set of initial states (each a :class:`Rec` of
  variable name to frozen value);
* ``actions()`` — a list of :class:`Action` objects; each action enumerates
  the transitions enabled in a given state;
* ``invariants()`` — safety properties, either *state* invariants (checked
  on every reached state) or *transition* invariants (checked on every
  edge; used for monotonicity-style properties without polluting the state
  with history variables);
* ``state_constraint(state)`` — bounds the explored space (the TLA+
  ``StateConstraint``), typically via an ``eventCounter`` variable.

Constants instantiate the model (number of nodes, workload values, budget
constraints); they are plain attributes on the spec instance.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .state import Rec

__all__ = [
    "Transition",
    "Action",
    "Invariant",
    "TransitionInvariant",
    "WeakFairness",
    "Spec",
    "SpecError",
]


class SpecError(Exception):
    """Raised for malformed specifications."""


@dataclasses.dataclass(frozen=True)
class Transition:
    """One enabled transition: an action firing with concrete arguments."""

    action: str
    args: Tuple[Any, ...]
    target: Rec
    branch: str = ""

    @property
    def label(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        suffix = f" [{self.branch}]" if self.branch else ""
        return f"{self.action}({rendered}){suffix}"


class Action:
    """A named transition relation.

    ``fn(state)`` must be a generator yielding ``(args, next_state)`` or
    ``(args, next_state, branch)`` tuples for every way the action is
    enabled in ``state``.  The optional ``branch`` string tags which branch
    of the action body fired; the random-walk explorer aggregates branch
    tags into the branch-coverage metric used by constraint ranking
    (Algorithm 1).

    An action declares no read or write sets: what a transition changed
    is recorded exactly, per successor, by ``Rec.set``/``Rec.update``
    (:func:`repro.core.state.changed_keys`), and that is all the
    incremental invariant checker needs.
    """

    __slots__ = ("name", "fn", "kind", "guard")

    def __init__(
        self,
        name: str,
        fn: Callable[[Rec], Iterable[tuple]],
        kind: str = "internal",
        guard: Optional[Callable[[Rec], bool]] = None,
    ):
        self.name = name
        self.fn = fn
        # ``kind`` classifies the node-level event for event-diversity
        # metrics and trace conversion: one of "message", "timeout",
        # "client", "failure", "internal".
        self.kind = kind
        # Optional cheap enabling predicate: when ``guard(state)`` is
        # False the body provably yields nothing, so the compiled
        # successor loop skips the generator entirely.
        self.guard = guard

    def transitions(self, state: Rec) -> Iterator[Transition]:
        for item in self.fn(state):
            if len(item) == 2:
                args, target = item
                branch = ""
            elif len(item) == 3:
                args, target, branch = item
            else:
                raise SpecError(
                    f"action {self.name} yielded a {len(item)}-tuple;"
                    " expected (args, state) or (args, state, branch)"
                )
            if not isinstance(target, Rec):
                raise SpecError(
                    f"action {self.name}{args} produced a non-Rec state:"
                    f" {type(target).__name__}"
                )
            yield Transition(self.name, tuple(args), target, branch)

    def __repr__(self) -> str:
        return f"Action({self.name!r}, kind={self.kind!r})"


class Invariant:
    """A state invariant: ``fn(state) -> bool`` must hold on every state.

    ``reads`` optionally declares the top-level state variables the
    predicate depends on.  Declaring it asserts that ``fn(state)`` is a
    pure function of those variables' values (a variable the state does
    not have counts as one fixed value).  The compiled checker relies on
    it twice (see :mod:`repro.core.compile`): it skips the invariant on
    successors that provably left every declared variable untouched, and
    it evaluates the predicate once per distinct value of the declared
    variables, answering later states from that verdict.  The contract
    is checked: every 64th answer taken from a remembered verdict is
    re-evaluated, and a predicate that then disagrees — it reads a
    variable it did not declare — raises :class:`SpecError` naming the
    invariant.  A sample, so an under-declared ``reads`` is caught
    probably, not certainly; leave ``reads`` off when in doubt.  Leaving
    it off costs only speed: nothing prunes the search on declarations.
    """

    __slots__ = ("name", "fn", "reads")

    def __init__(
        self,
        name: str,
        fn: Callable[[Rec], bool],
        reads: Optional[Iterable[Any]] = None,
    ):
        self.name = name
        self.fn = fn
        self.reads = frozenset(reads) if reads is not None else None

    def holds(self, state: Rec) -> bool:
        return bool(self.fn(state))

    def __repr__(self) -> str:
        return f"Invariant({self.name!r})"


class TransitionInvariant:
    """An edge invariant: ``fn(pre, transition) -> bool`` on every edge.

    Used for properties over state *changes* — e.g. "commit index is
    monotonic" — which TLA+ specs express with history variables.  Checking
    them on edges keeps the reachable state space smaller.

    ``reads`` optionally declares top-level state variables with a
    *stutter-safety* contract: whenever the transition's target agrees
    with the pre-state on every declared variable, the invariant must
    hold trivially.  Monotonicity properties satisfy this by
    construction (an unchanged variable cannot decrease); declaring
    ``reads`` lets the compiled checker skip the edge check for
    transitions that touch none of the declared variables.

    This is weaker than :class:`Invariant`'s contract and is *not* a
    projection: the predicate may read variables it does not declare
    (Raft's ``LeaderCommitsCurrentTerm`` declares ``commitIndex`` and
    reads ``log`` and ``currentTerm``), so two edges that agree on the
    declared variables can have different verdicts.  Edge verdicts are
    therefore never remembered, and nothing samples this contract.
    """

    __slots__ = ("name", "fn", "reads")

    def __init__(
        self,
        name: str,
        fn: Callable[[Rec, Transition], bool],
        reads: Optional[Iterable[Any]] = None,
    ):
        self.name = name
        self.fn = fn
        self.reads = frozenset(reads) if reads is not None else None

    def holds(self, pre: Rec, transition: Transition) -> bool:
        return bool(self.fn(pre, transition))

    def __repr__(self) -> str:
        return f"TransitionInvariant({self.name!r})"


@dataclasses.dataclass(frozen=True)
class WeakFairness:
    """A weak-fairness declaration over a set of actions (TLA+ ``WF_v``).

    An infinite behavior is *fair* with respect to this declaration when
    the named actions either fire infinitely often or are disabled
    infinitely often — a scheduler may not keep a continuously-enabled
    fair action waiting forever.  Over a lasso counterexample (see
    :mod:`repro.temporal`) this reduces to a per-cycle check: some cycle
    edge fires one of ``actions``, or some cycle state has them all
    disabled.

    ``enabled``, when given, overrides the default enabledness test
    (``spec.successors`` restricted to ``actions`` yields at least one
    transition).  Use it for specs whose budget counters live outside
    the action guards, so budget exhaustion reads as "disabled" rather
    than leaving the fairness obligation dangling.  Actions named here
    that the spec does not define (optional machinery such as UDP
    duplication) count as disabled.
    """

    name: str
    actions: frozenset
    enabled: Optional[Callable[[Rec], bool]] = None

    @staticmethod
    def of(name: str, *actions: str, enabled: Optional[Callable[[Rec], bool]] = None) -> "WeakFairness":
        return WeakFairness(name, frozenset(actions), enabled)


class Spec:
    """Base class for specifications.

    Subclasses override :meth:`init_states`, :meth:`actions` and
    :meth:`invariants`, and may override :meth:`state_constraint` and
    :meth:`symmetry_sets`.
    """

    name: str = "spec"

    #: Lazily-built tuple of this spec's actions; ``successors`` and
    #: ``action_by_name`` read it instead of calling :meth:`actions` per
    #: state / per lookup.  Class-level ``None`` doubles as the unset
    #: marker so subclasses need no cooperation from their ``__init__``.
    _action_cache: Optional[Tuple[Action, ...]] = None

    # -- the state machine ---------------------------------------------------

    def init_states(self) -> Iterable[Rec]:
        raise NotImplementedError

    def actions(self) -> Sequence[Action]:
        raise NotImplementedError

    def invariants(self) -> Sequence[Invariant]:
        return ()

    def transition_invariants(self) -> Sequence[TransitionInvariant]:
        return ()

    def state_constraint(self, state: Rec) -> bool:
        """Return False to prune ``state``'s successors from exploration."""
        return True

    def symmetry_sets(self) -> Sequence[Tuple[Any, ...]]:
        """Sets of interchangeable constants (node ids, workload values).

        Permuting the members of any one set must not affect whether an
        action satisfies an invariant (§3.3).  The explorer canonicalizes
        states under these permutations when symmetry reduction is on.
        """
        return ()

    def weak_fairness(self) -> Sequence[WeakFairness]:
        """Weak-fairness declarations assumed by temporal properties.

        The lasso finder (:mod:`repro.temporal`) only reports cycles
        that are fair with respect to every declared set; an empty
        declaration (the default) means every cycle — including
        stuttering at a state the exploration never expanded — counts,
        so specs that bound their state space should declare fairness
        over their progress actions.  Predicates used in temporal
        properties must be symmetric under :meth:`symmetry_sets`, like
        invariants.
        """
        return ()

    # -- conveniences ---------------------------------------------------------

    def cached_actions(self) -> Tuple[Action, ...]:
        """This spec's actions, materialized once and reused.

        Specs whose action list genuinely changes (none in-tree do) must
        call :meth:`refresh_actions` after mutating it.
        """
        actions = self._action_cache
        if actions is None:
            actions = self._action_cache = tuple(self.actions())
        return actions

    def refresh_actions(self) -> None:
        """Invalidate the cached action list (for dynamic specs)."""
        self._action_cache = None

    def successors(self, state: Rec) -> Iterator[Transition]:
        """All transitions enabled in ``state``, across all actions."""
        for action in self.cached_actions():
            yield from action.transitions(state)

    def action_by_name(self, name: str) -> Action:
        for action in self.cached_actions():
            if action.name == name:
                return action
        available = ", ".join(sorted(a.name for a in self.cached_actions()))
        raise SpecError(
            f"spec {self.name!r} has no action named {name!r};"
            f" available actions: {available or '(none)'}"
        )

    def check_state(self, state: Rec, changed: Optional[frozenset] = None) -> Optional[str]:
        """Return the name of the first violated state invariant, if any.

        ``changed`` (the touched top-level keys relative to an
        already-checked parent) is accepted for interface compatibility
        with the compiled pipeline; the interpreted path ignores it and
        always checks every invariant.
        """
        for inv in self.invariants():
            if not inv.holds(state):
                return inv.name
        return None

    def check_transition(
        self,
        pre: Rec,
        transition: Transition,
        changed: Optional[frozenset] = None,
    ) -> Optional[str]:
        """Return the first violated transition invariant, if any.

        ``changed`` is accepted for interface compatibility with the
        compiled pipeline and ignored here — see :meth:`check_state`.
        """
        for inv in self.transition_invariants():
            if not inv.holds(pre, transition):
                return inv.name
        return None

    def describe(self) -> dict:
        """Static metrics: variable/action/invariant counts (Table 1)."""
        init = next(iter(self.init_states()))
        return {
            "name": self.name,
            "variables": len(init),
            "actions": len(self.actions()),
            "invariants": len(self.invariants()) + len(self.transition_invariants()),
        }


def enumerate_transitions(spec: Spec, state: Rec) -> List[Transition]:
    """Materialize all enabled transitions of ``state`` (helper for tests)."""
    return list(spec.successors(state))
