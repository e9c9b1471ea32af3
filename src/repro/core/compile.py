"""Compiled specifications: the spec->successor->fingerprint hot path.

Interpreted exploration pays generic-Python prices on every transition:
``Spec.successors`` walks the action list through per-action generator
wrappers and every invariant runs on every state/edge.
:func:`compile_spec` builds a :class:`CompiledSpec` once per run that
removes those costs without changing a single observable result:

* **action snapshot** — the action list is materialized once;
* **specialized successor loop** — one flat closure over pre-bound
  ``(name, fn, guard)`` entries replaces the per-action
  ``Action.transitions`` wrappers; declared guards short-circuit
  disabled actions before their generator is even entered;
* **incremental invariant checking** — invariants that declare their
  ``reads`` are skipped on successors whose touched-key set (recorded
  by ``Rec.set``/``Rec.update``, see
  :func:`repro.core.state.changed_keys`) is disjoint from the declared
  reads.  For state invariants this is sound by induction whenever the
  parent state was itself checked (the engine only passes ``changed``
  in configurations where that holds); for transition invariants the
  declaration carries the stutter-safety contract documented on
  :class:`repro.core.spec.TransitionInvariant`;
* **one evaluation per read projection** — a state invariant that
  declares ``reads`` is a pure function of those variables, so
  :meth:`CompiledSpec.check_state` keeps its verdict under the tuple of
  their values (the *verdict memo* below) and calls the predicate only
  for a projection it has not seen.  A deep-log Raft run evaluates
  ``LogMatching`` on 57 distinct projections instead of 4,189 states.
  Transition invariants are *not* memoised: their ``reads`` is the
  weaker stutter-safety contract, not a projection.

Fingerprinting is incremental with or without compilation: a successor
built by ``Rec.set``/``Rec.update`` patches its parent's pair-digest
table (:mod:`repro.core.state`).

A :class:`CompiledSpec` exposes the same ``successors`` /
``state_constraint`` / ``invariants`` surface as the spec it wraps (and
delegates unknown attributes to it), so every consumer is a one-line
change.  Compiling prunes nothing: the compiled spec explores exactly
the states and transitions of the source spec, so :func:`compile_spec`
is idempotent and a compiled and an interpreted run of one spec can
share a run directory.  Callers that pass ``compiled=False`` get the
interpreted pipeline, byte for byte the same results: the testkit's
reference cells and the benchmarks use it; no command-line flag or
environment variable selects it.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterator, Optional, Sequence, Tuple

from .spec import Action, Invariant, Spec, SpecError, Transition, TransitionInvariant
from .state import Rec
from .state import changed_keys as rec_changed_keys

__all__ = ["CompiledSpec", "compile_spec", "maybe_compile"]

#: The verdict memo, one dict per state invariant that declares
#: ``reads``: ``(value of each declared variable, in sorted name order)
#: -> bool``.  Keyed on values, not on the pair digests ``fingerprint()``
#: caches: random walks have no digest table, the digest key measured no
#: faster, and it would couple this module to ``Rec._pairfps``.  One
#: dict per invariant, so a high-cardinality projection (``netMsgs``)
#: cannot evict a low-cardinality one's entries; each is cleared when it
#: reaches ``_VERDICT_MEMO_CAP`` entries, which bounds the values the
#: memo keeps alive.  Lookup is Python equality — the identity state
#: deduplication already uses — so the type-stability rule of
#: :func:`repro.core.state.scope_pair_memo` applies here too.  A hit
#: trusts the declaration; every ``_VERDICT_VERIFY_EVERY``-th hit is
#: re-evaluated, which turns an under-declared ``reads`` (silent
#: skipped checks before the memo existed) into a
#: :class:`~repro.core.spec.SpecError` — *probably*: a wrong
#: declaration is caught only if a sampled hit is one whose verdict it
#: changes.
_VERDICT_MEMO_CAP = 1024
_VERDICT_VERIFY_EVERY = 64
#: Stands in the key for a declared variable the state does not have.
_ABSENT = object()


def _read_names(reads: FrozenSet[Any]) -> Tuple[Any, ...]:
    """The key order of a verdict-memo projection: declared names, sorted."""
    return tuple(sorted(reads, key=repr))


class CompiledSpec(Spec):
    """A spec with a compiled successor loop and incremental checking.

    Built by :func:`compile_spec`; behaviourally identical to the
    wrapped spec — same transitions in the same order, same invariant
    verdicts, same fingerprints — only faster.
    """

    def __init__(self, spec: Spec):
        self._source = spec
        self.name = spec.name
        actions = tuple(spec.cached_actions())
        self._action_cache = actions

        # Pre-bound successor entries: the flat loop in successors()
        # reads these tuples instead of going through Action.transitions.
        self._entries = tuple((a.name, a.fn, a.guard) for a in actions)

        self._invariants = tuple(spec.invariants())
        self._tinvariants = tuple(spec.transition_invariants())
        # (name, fn, reads, projection names, verdict memo); the last
        # two are None for an invariant that declares no reads.
        self._inv_entries = tuple(
            (inv.name, inv.fn, inv.reads)
            + ((None, None) if inv.reads is None else (_read_names(inv.reads), {}))
            for inv in self._invariants
        )
        self._tinv_entries = tuple(
            (inv.name, inv.fn, inv.reads) for inv in self._tinvariants
        )
        self._verdict_counts = {"hits": 0, "misses": 0, "clears": 0, "verified": 0}
        #: True when at least one invariant declares a read set — the
        #: engine only bothers computing per-transition changed keys
        #: when there is something to skip.
        self.incremental = any(
            entry[2] is not None for entry in self._inv_entries + self._tinv_entries
        )

        # Pre-bound delegates, so hot callers pay no extra indirection.
        self.init_states = spec.init_states
        self.state_constraint = spec.state_constraint
        self.symmetry_sets = spec.symmetry_sets

    # -- the compiled surface -------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return self._action_cache

    def refresh_actions(self) -> None:
        raise SpecError(
            "a CompiledSpec snapshots its action list at compile time;"
            " refresh the source spec and re-run compile_spec() instead"
        )

    def invariants(self) -> Sequence[Invariant]:
        return self._invariants

    def transition_invariants(self) -> Sequence[TransitionInvariant]:
        return self._tinvariants

    def successors(
        self, state: Rec, actions: Optional[frozenset] = None
    ) -> Iterator[Transition]:
        """All enabled transitions, via the flat pre-bound action table.

        Yields exactly what the interpreted ``Spec.successors`` yields,
        in the same order, with the same malformed-yield diagnostics.
        ``actions`` (``None`` = every action) selects the table entries
        once, before the loop, so the unrestricted call pays one test.
        """
        make = Transition
        entries = self._entries
        if actions is not None:
            entries = [entry for entry in entries if entry[0] in actions]
        for name, fn, guard in entries:
            if guard is not None and not guard(state):
                continue
            for item in fn(state):
                n = len(item)
                if n == 3:
                    args, target, branch = item
                elif n == 2:
                    args, target = item
                    branch = ""
                else:
                    raise SpecError(
                        f"action {name} yielded a {n}-tuple;"
                        " expected (args, state) or (args, state, branch)"
                    )
                if target.__class__ is not Rec and not isinstance(target, Rec):
                    raise SpecError(
                        f"action {name}{args} produced a non-Rec state:"
                        f" {type(target).__name__}"
                    )
                yield make(
                    name,
                    args if args.__class__ is tuple else tuple(args),
                    target,
                    branch,
                )

    def check_state(self, state: Rec, changed: Optional[frozenset] = None) -> Optional[str]:
        """First violated state invariant, skipping provably-unaffected ones.

        ``changed`` is the exact touched-key superset of ``state``
        relative to an already-checked parent (``None`` = check
        everything).  An invariant with declared ``reads`` disjoint from
        ``changed`` saw the same values on the parent, where it held;
        one that is not skipped is evaluated once per distinct value of
        its declared variables (the verdict memo, see the module
        constants), a ``False`` verdict as much as a ``True`` one.
        """
        get = state.get
        counts = self._verdict_counts
        for name, fn, reads, names, memo in self._inv_entries:
            if reads is None:
                if not fn(state):
                    return name
                continue
            if changed is not None and reads.isdisjoint(changed):
                continue
            key = tuple([get(var, _ABSENT) for var in names])
            holds = memo.get(key)
            if holds is None:
                holds = bool(fn(state))
                if len(memo) >= _VERDICT_MEMO_CAP:
                    memo.clear()
                    counts["clears"] += 1
                memo[key] = holds
                counts["misses"] += 1
            else:
                counts["hits"] += 1
                if counts["hits"] % _VERDICT_VERIFY_EVERY == 0:
                    counts["verified"] += 1
                    if bool(fn(state)) is not holds:
                        raise SpecError(
                            f"invariant {name} is not a function of its declared"
                            f" reads {list(names)}: a state that agrees"
                            f" with an earlier one on all of them evaluates to"
                            f" {not holds}, the earlier one to {holds}; declare"
                            " every state variable the predicate inspects"
                        )
            if not holds:
                return name
        return None

    def verdict_stats(self) -> dict:
        """Cumulative verdict-memo counters of this compiled spec.

        ``hits`` / ``misses`` count lookups by invariants that declare
        ``reads`` and were not skipped by ``changed`` (a miss evaluates
        the predicate), ``clears`` the times a full per-invariant memo
        was emptied, ``verified`` the hits that were re-evaluated.
        """
        return dict(self._verdict_counts)

    def check_transition(
        self,
        pre: Rec,
        transition: Transition,
        changed: Optional[frozenset] = None,
    ) -> Optional[str]:
        """First violated transition invariant, honoring stutter-safety.

        An edge invariant with declared ``reads`` disjoint from
        ``changed`` holds trivially: the target agrees with ``pre`` on
        every variable the invariant may depend on.
        """
        if changed is None:
            for name, fn, _ in self._tinv_entries:
                if not fn(pre, transition):
                    return name
            return None
        for name, fn, reads in self._tinv_entries:
            if reads is not None and reads.isdisjoint(changed):
                continue
            if not fn(pre, transition):
                return name
        return None

    @staticmethod
    def changed_keys(child: Rec, parent: Rec) -> Optional[frozenset]:
        """Touched top-level keys of ``child`` relative to ``parent``.

        Must be called before the child is encoded/fingerprinted — see
        :func:`repro.core.state.changed_keys`.
        """
        return rec_changed_keys(child, parent)

    # -- delegation -----------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Unknown public attributes (spec constants like ``config`` or
        # ``nodes``) resolve against the wrapped spec.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.__dict__["_source"], name)

    def __repr__(self) -> str:
        return f"CompiledSpec({self._source!r})"


def compile_spec(spec: Spec) -> CompiledSpec:
    """Compile ``spec`` into its hot-path form (idempotent)."""
    if isinstance(spec, CompiledSpec):
        return spec
    return CompiledSpec(spec)


def maybe_compile(spec: Spec, compiled: bool = True) -> Spec:
    """Compile ``spec`` unless the caller passed ``compiled=False``."""
    return compile_spec(spec) if compiled else spec
