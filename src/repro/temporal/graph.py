"""Materialize the explored state graph from a state store.

The stores only persist the BFS *spanning tree* — one ``(fp, parent,
action)`` edge per state, the edge it was first discovered through.
Cycle detection needs the full successor adjacency, so the materializer
replays the exploration: it recovers every stored state by breadth-first
re-execution from the stored roots, re-expands each state through
``spec.successors``, and keeps exactly the edges whose (canonical)
target fingerprint is in the stored visited set.  Every edge in the
materialized graph is therefore a genuine spec transition between
explored states; successors the exploration never recorded (possible
only when a run stopped on a budget) are dropped and counted in
``boundary_edges``.

States pruned by the state constraint, and frontier states a stopped
run never expanded, have no outgoing edges here.  Following the TLC
convention, every such sink gets an implicit **stutter** self-loop
(``STUTTER_ACTION``); whether stuttering there forever is a *fair*
behavior is decided later against the weak-fairness declarations, using
raw ``spec.successors`` enabledness — so a state that merely ran into
the exploration boundary, with fair actions still enabled, can never
seed a lasso.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.engine import StateStore, TracelessStoreError
from repro.core.spec import Spec, WeakFairness
from repro.core.state import Rec, fingerprint, scope_pair_memo
from repro.core.symmetry import SymmetryReducer

__all__ = ["STUTTER_ACTION", "TemporalGraph", "materialize_graph"]

#: Label of the implicit self-loop on states with no explored successors.
STUTTER_ACTION = "<stutter>"


@dataclasses.dataclass
class TemporalGraph:
    """The explored state graph, fingerprint-keyed and deterministic.

    ``succ`` lists are sorted by ``(action, target_fp)`` so every walk
    over the graph — SCC computation, prefix BFS, cycle stitching — is
    reproducible across runs, stores, and hash seeds (fingerprints are
    process-stable blake2b digests).
    """

    #: fingerprint -> concrete state (canonical representative under symmetry)
    states: Dict[Any, Rec]
    #: fingerprint -> sorted [(action, target_fp), ...] over explored edges
    succ: Dict[Any, List[Tuple[str, Any]]]
    #: root fingerprints, sorted
    roots: List[Any]
    #: fingerprints with no outgoing explored edges (implicit stutter loop)
    stuttering: frozenset
    #: successors recomputed but not in the visited set (exploration boundary)
    boundary_edges: int
    #: states in the store the replay could not reach (diagnostic; 0 for
    #: any run whose store was written by our own BFS)
    unreached: int
    spec: Spec
    reducer: Optional[SymmetryReducer]
    fp_fn: Callable[[Rec], Any]

    def __len__(self) -> int:
        return len(self.states)

    def nodes(self) -> List[Any]:
        return sorted(self.states)

    def raw_enabled(self, fp: Any, wf: WeakFairness) -> bool:
        """Is the fairness set enabled at ``fp``, ignoring the graph?

        Uses the declaration's ``enabled`` override when present, else
        asks ``spec.successors`` whether any action in the set yields a
        transition.  Actions the spec does not define count as disabled.
        """
        state = self.states[fp]
        if wf.enabled is not None:
            return bool(wf.enabled(state))
        for action in self.spec.cached_actions():
            if action.name not in wf.actions:
                continue
            for _ in action.transitions(state):
                return True
        return False


def _as_stores(store: Union[StateStore, Sequence[StateStore]]) -> List[StateStore]:
    if isinstance(store, StateStore):
        return [store]
    return list(store)


def materialize_graph(
    spec: Spec,
    store: Union[StateStore, Sequence[StateStore]],
    symmetry: bool = False,
    fp_fn: Callable[[Rec], Any] = fingerprint,
) -> TemporalGraph:
    """Rebuild the explored successor graph from one or more stores.

    ``store`` may be a list (the per-worker shards of a parallel run);
    their edges and roots are unioned.  ``symmetry`` must match the
    setting the store was explored under, or the recomputed fingerprints
    will not line up with the stored ones.
    """
    scope_pair_memo(spec)
    stores = _as_stores(store)
    for st in stores:
        if st.traceless:
            raise TracelessStoreError(
                "temporal checking needs the explored state graph, but a"
                " fingerprint-only store keeps no parent edges: drop --fast"
                " (or rerun the exploration without fast mode) before"
                " --temporal / check-liveness"
            )

    visited: set = set()
    root_states: Dict[Any, Rec] = {}
    for st in stores:
        for fp, _parent, _action in st.edges():
            visited.add(fp)
        for fp, state in st.roots():
            root_states[fp] = state

    reducer = SymmetryReducer(spec.symmetry_sets(), key=fp_fn) if symmetry else None
    canonical = reducer.canonical if reducer else (lambda s: s)

    states: Dict[Any, Rec] = {}
    succ: Dict[Any, List[Tuple[str, Any]]] = {}
    boundary = 0

    queue: deque = deque()
    for fp in sorted(root_states):
        state = canonical(root_states[fp])
        if fp not in visited:
            # A root recorded after the edge log was cut (cannot happen
            # with our writers, but keep the union total).
            visited.add(fp)
        states[fp] = state
        queue.append(fp)

    while queue:
        fp = queue.popleft()
        if fp in succ:
            continue
        state = states[fp]
        out: List[Tuple[str, Any]] = []
        if spec.state_constraint(state):
            for transition in spec.successors(state):
                target = canonical(transition.target)
                tfp = fp_fn(target)
                if tfp not in visited:
                    boundary += 1
                    continue
                out.append((transition.action, tfp))
                if tfp not in states:
                    states[tfp] = target
                    queue.append(tfp)
        out = sorted(set(out))
        succ[fp] = out

    stuttering = frozenset(fp for fp, out in succ.items() if not out)
    return TemporalGraph(
        states=states,
        succ=succ,
        roots=sorted(root_states),
        stuttering=stuttering,
        boundary_edges=boundary,
        unreached=len(visited) - len(states),
        spec=spec,
        reducer=reducer,
        fp_fn=fp_fn,
    )
