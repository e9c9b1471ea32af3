"""SCC-based fair-cycle search: the lasso finder.

The algorithm is the standard automata-theoretic one, specialized to
weak fairness so no property automaton product is needed:

1. Restrict the materialized graph to the property's *avoid region* —
   the states a violating cycle must stay inside (¬P for ◇P and □◇P,
   ¬Q for P ⤳ Q).
2. Compute the strongly connected components of the restriction with an
   **iterative** Tarjan (explicit stack; deep graphs must not hit the
   recursion limit).
3. An SCC admits a fair cycle iff it can cycle at all (size > 1, a
   self-edge, or an implicit stutter loop at an unexpanded sink) and,
   for every weak-fairness declaration, it contains an edge firing one
   of the declared actions *or* a state where they are all raw-disabled.
   A stutter loop is fair only when every declaration is raw-disabled
   there — a state that merely hit the exploration boundary, with fair
   actions still enabled, can never seed a lasso.
4. The minimal prefix is a breadth-first search from the (eligible)
   roots to any fair SCC, restricted per property kind; ``leads_to``
   runs the BFS over the ⟨state, pending-obligation⟩ product.
5. A concrete cycle is stitched inside the SCC through the fairness
   witnesses via shortest paths, and the whole lasso is re-executed
   into a replayable :class:`LassoTrace` (every step a genuine spec
   transition, same idiom as safety-trace reconstruction).

All iteration orders are sorted by fingerprint, so the emitted lasso is
byte-stable across runs, stores, and hash seeds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.engine import SearchResult, TracelessStoreError, replay_path
from repro.core.explorer import bfs_explore
from repro.core.spec import Spec, WeakFairness
from repro.core.trace import Trace
from repro.core.violation import Violation

from .graph import TemporalGraph, materialize_graph
from .properties import TemporalProperty

__all__ = [
    "LassoTrace",
    "TemporalResult",
    "check_graph",
    "check_run_dir",
    "explore_and_check",
]

#: Version stamp of the lasso artifact schema.
LASSO_VERSION = 1


@dataclasses.dataclass(frozen=True)
class LassoTrace:
    """A liveness counterexample: finite prefix + fair cycle.

    ``trace`` holds the prefix followed by the cycle as one replayable
    sequence of genuine transitions.  ``cycle_start`` indexes into
    ``trace.states()``: the cycle runs from that state to the final
    state, whose fingerprint equals the cycle-start state's (they may be
    permuted variants under symmetry reduction).  A ``stuttering`` lasso
    has no explicit cycle steps — the behavior repeats the final state
    forever (the TLC stuttering convention); its formal cycle length
    is 1.
    """

    trace: Trace
    cycle_start: int
    stuttering: bool = False

    @property
    def prefix_length(self) -> int:
        return self.cycle_start

    @property
    def cycle_length(self) -> int:
        return 1 if self.stuttering else self.trace.depth - self.cycle_start

    def to_dict(self) -> dict:
        return {
            "lasso_version": LASSO_VERSION,
            "cycle_start": self.cycle_start,
            "stuttering": self.stuttering,
            "trace": self.trace.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "LassoTrace":
        """Rebuild a lasso from :meth:`to_dict` output; anything that
        method would not have written raises :class:`ValueError`."""
        version = raw.get("lasso_version")
        if version != LASSO_VERSION:
            raise ValueError(f"unsupported lasso_version {version!r}")
        trace = Trace.from_dict(raw.get("trace"))
        cycle_start, stuttering = raw.get("cycle_start"), raw.get("stuttering")
        if type(cycle_start) is not int or not 0 <= cycle_start <= trace.depth:
            raise ValueError(f"cycle_start {cycle_start!r} is not a state of the trace")
        if type(stuttering) is not bool:
            raise ValueError(f"stuttering {stuttering!r} is not a boolean")
        return cls(trace=trace, cycle_start=cycle_start, stuttering=stuttering)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    @classmethod
    def from_json(cls, text: str) -> "LassoTrace":
        return cls.from_dict(json.loads(text))

    def violation(self, property_name: str) -> Violation:
        """This lasso as the liveness violation of ``property_name``."""
        return Violation(
            property_name, self.trace, kind="liveness", detail=self.describe()
        )

    def describe(self) -> str:
        if self.stuttering:
            cycle = "stuttering at the final state"
        else:
            labels = ", ".join(
                step.label for step in self.trace.steps[self.cycle_start:]
            )
            cycle = f"cycle of {self.cycle_length} steps ({labels})"
        return f"lasso: prefix of {self.prefix_length} steps, then {cycle}"


@dataclasses.dataclass
class TemporalResult:
    """Outcome of checking one temporal property over an explored graph."""

    property: TemporalProperty
    lasso: Optional[LassoTrace]
    scc_count: int
    graph_size: int
    boundary_edges: int
    elapsed: float = 0.0

    @property
    def holds(self) -> bool:
        """No fair lasso in the explored graph (absence is *bounded*)."""
        return self.lasso is None

    def violation(self) -> Optional[Violation]:
        return None if self.lasso is None else self.lasso.violation(self.property.name)

    def describe(self) -> str:
        verdict = (
            "no fair cycle (holds on the explored graph)"
            if self.lasso is None
            else f"VIOLATED — {self.lasso.describe()}"
        )
        bounded = (
            f"; {self.boundary_edges} boundary edges (absence is bounded)"
            if self.boundary_edges and self.lasso is None
            else ""
        )
        return (
            f"{self.property.describe()}: {verdict}"
            f" [{self.graph_size} states, {self.scc_count} SCCs]{bounded}"
        )


# ---------------------------------------------------------------------------
# iterative Tarjan
# ---------------------------------------------------------------------------


def _tarjan_sccs(adj: Dict[Any, List[Any]], nodes: List[Any]) -> List[List[Any]]:
    """Strongly connected components, iteratively (explicit stack)."""
    index: Dict[Any, int] = {}
    low: Dict[Any, int] = {}
    on_stack: Set[Any] = set()
    stack: List[Any] = []
    sccs: List[List[Any]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Frames: (node, iterator position into adj[node]).
        work: List[List[Any]] = [[root, 0]]
        while work:
            frame = work[-1]
            node, pos = frame
            if pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            targets = adj[node]
            while frame[1] < len(targets):
                child = targets[frame[1]]
                frame[1] += 1
                if child not in index:
                    work.append([child, 0])
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: List[Any] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


# ---------------------------------------------------------------------------
# fair-cycle search
# ---------------------------------------------------------------------------


def _region_adj(graph: TemporalGraph, region: Set[Any]) -> Dict[Any, List[Any]]:
    """Deduplicated, sorted region-restricted successor lists."""
    return {
        u: sorted({v for _a, v in graph.succ[u] if v in region})
        for u in region
    }


def _scc_witnesses(
    graph: TemporalGraph,
    scc: List[Any],
    scc_set: Set[Any],
    fairness: Sequence[WeakFairness],
    stutter: bool,
) -> Optional[List[Tuple]]:
    """Fairness witnesses for an SCC, or None when no fair cycle exists.

    For a real SCC each declaration contributes either ``("node", fp)``
    (a state where the set is raw-disabled) or ``("edge", u, action,
    v)`` (an intra-SCC edge firing a declared action); the stitched
    cycle visits them all.  A stutter singleton needs no witnesses but
    every declaration must be raw-disabled at it.
    """
    witnesses: List[Tuple] = []
    for wf in fairness:
        if stutter:
            if graph.raw_enabled(scc[0], wf):
                return None
            continue
        disabled = None
        for fp in scc:
            if not graph.raw_enabled(fp, wf):
                disabled = fp
                break
        if disabled is not None:
            witnesses.append(("node", disabled))
            continue
        edge = None
        for u in scc:
            for action, v in graph.succ[u]:
                if v in scc_set and action in wf.actions:
                    edge = ("edge", u, action, v)
                    break
            if edge is not None:
                break
        if edge is None:
            return None
        witnesses.append(edge)
    return witnesses


def _shortest_path(
    graph: TemporalGraph, region: Set[Any], src: Any, dst: Any
) -> List[Tuple[str, Any]]:
    """Shortest ``(action, fp)`` step list src→dst inside ``region``."""
    if src == dst:
        return []
    parents: Dict[Any, Tuple[Any, str]] = {src: (None, "")}
    queue: deque = deque([src])
    while queue:
        node = queue.popleft()
        for action, child in graph.succ[node]:
            if child not in region or child in parents:
                continue
            parents[child] = (node, action)
            if child == dst:
                steps: List[Tuple[str, Any]] = []
                cursor = dst
                while cursor != src:
                    parent, act = parents[cursor]
                    steps.append((act, cursor))
                    cursor = parent
                steps.reverse()
                return steps
            queue.append(child)
    raise RuntimeError("no path inside an SCC; the SCC computation is broken")


def _shortest_cycle(
    graph: TemporalGraph, region: Set[Any], entry: Any
) -> List[Tuple[str, Any]]:
    """Shortest non-empty cycle entry→entry inside ``region``."""
    best: Optional[List[Tuple[str, Any]]] = None
    for action, child in graph.succ[entry]:
        if child not in region:
            continue
        if child == entry:
            return [(action, entry)]
        if best is None:
            tail = _shortest_path(graph, region, child, entry)
            best = [(action, child)] + tail
    if best is None:
        raise RuntimeError("entry node cannot cycle; the SCC computation is broken")
    # The first in-region successor plus its shortest tail is minimal up
    # to one step; scan the remaining successors for a strictly shorter
    # closure to keep the cycle canonical.
    for action, child in graph.succ[entry]:
        if child not in region or child == entry:
            continue
        tail = _shortest_path(graph, region, child, entry)
        if 1 + len(tail) < len(best):
            best = [(action, child)] + tail
    return best


def _stitch_cycle(
    graph: TemporalGraph,
    region: Set[Any],
    scc_set: Set[Any],
    entry: Any,
    witnesses: List[Tuple],
) -> List[Tuple[str, Any]]:
    """A fair closed walk entry→…→entry through every witness."""
    inner = scc_set & region
    steps: List[Tuple[str, Any]] = []
    cursor = entry
    for witness in witnesses:
        if witness[0] == "node":
            steps += _shortest_path(graph, inner, cursor, witness[1])
            cursor = witness[1]
        else:
            _, u, action, v = witness
            steps += _shortest_path(graph, inner, cursor, u)
            steps.append((action, v))
            cursor = v
    steps += _shortest_path(graph, inner, cursor, entry)
    if not steps:
        steps = _shortest_cycle(graph, inner, entry)
    return steps


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


def check_graph(
    graph: TemporalGraph,
    prop: TemporalProperty,
    metrics: Optional[Any] = None,
) -> TemporalResult:
    """Search ``graph`` for a fair lasso violating ``prop``."""
    started = time.monotonic()
    spec = graph.spec
    fairness = prop.effective_fairness(spec)
    p_of = {fp: bool(prop.predicate(state)) for fp, state in graph.states.items()}
    if prop.kind == "leads_to":
        q_of = {fp: bool(prop.goal(state)) for fp, state in graph.states.items()}
        region = {fp for fp, q in q_of.items() if not q}
    else:
        q_of = {}
        region = {fp for fp, p in p_of.items() if not p}

    adj = _region_adj(graph, region)
    sccs = _tarjan_sccs(adj, sorted(region))
    scc_of: Dict[Any, int] = {}
    for i, scc in enumerate(sccs):
        for fp in scc:
            scc_of[fp] = i

    # Which SCCs admit a fair cycle, and through which witnesses.
    fair: Dict[int, List[Tuple]] = {}
    scc_has_p: Dict[int, bool] = {}
    for i, scc in enumerate(sccs):
        scc_set = set(scc)
        stutter = len(scc) == 1 and scc[0] in graph.stuttering
        cyclic = len(scc) > 1 or any(
            v == scc[0] for _a, v in graph.succ[scc[0]] if v in region
        )
        if not cyclic and not stutter:
            continue
        witnesses = _scc_witnesses(graph, scc, scc_set, fairness, stutter)
        if witnesses is None:
            continue
        fair[i] = witnesses
        scc_has_p[i] = any(p_of[fp] for fp in scc)

    if metrics is not None:
        from repro.obs.metrics import TEMPORAL_SCC_COUNT

        metrics.gauge(TEMPORAL_SCC_COUNT).set(len(sccs))

    lasso: Optional[LassoTrace] = None
    if fair:
        lasso = _find_minimal_lasso(
            graph, prop, p_of, q_of, region, sccs, scc_of, fair, scc_has_p
        )
    if lasso is not None and metrics is not None:
        from repro.obs.metrics import TEMPORAL_CYCLE_LEN

        metrics.histogram(TEMPORAL_CYCLE_LEN).observe(lasso.cycle_length)
    return TemporalResult(
        property=prop,
        lasso=lasso,
        scc_count=len(sccs),
        graph_size=len(graph),
        boundary_edges=graph.boundary_edges,
        elapsed=time.monotonic() - started,
    )


def _find_minimal_lasso(
    graph: TemporalGraph,
    prop: TemporalProperty,
    p_of: Dict[Any, bool],
    q_of: Dict[Any, bool],
    region: Set[Any],
    sccs: List[List[Any]],
    scc_of: Dict[Any, int],
    fair: Dict[int, List[Tuple]],
    scc_has_p: Dict[int, bool],
) -> Optional[LassoTrace]:
    """Minimal-prefix BFS to a fair SCC, then stitch and re-execute."""
    kind = prop.kind

    def entry_hit(fp: Any, pending: int) -> bool:
        i = scc_of.get(fp)
        if i is None or i not in fair:
            return False
        if kind != "leads_to":
            return True
        return pending == 1 or scc_has_p[i]

    if kind == "eventually":
        roots = [r for r in graph.roots if not p_of[r]]
        allowed = region
    elif kind == "always_eventually":
        roots = list(graph.roots)
        allowed = set(graph.states)
    else:
        roots = list(graph.roots)
        allowed = set(graph.states)

    def pending_of(fp: Any, prev: int) -> int:
        if kind != "leads_to":
            return 0
        if q_of[fp]:
            return 0
        if p_of[fp]:
            return 1
        return prev

    # BFS over (fp, pending); parents reconstruct the prefix path.
    parents: Dict[Tuple[Any, int], Tuple[Optional[Tuple[Any, int]], str]] = {}
    queue: deque = deque()
    hit: Optional[Tuple[Any, int]] = None
    for root in roots:
        key = (root, pending_of(root, 0))
        if key in parents:
            continue
        parents[key] = (None, "")
        if entry_hit(*key):
            hit = key
            break
        queue.append(key)
    while hit is None and queue:
        node, pending = queue.popleft()
        for action, child in graph.succ[node]:
            if child not in allowed:
                continue
            key = (child, pending_of(child, pending))
            if key in parents:
                continue
            parents[key] = ((node, pending), action)
            if entry_hit(*key):
                hit = key
                break
            queue.append(key)
    if hit is None:
        return None

    # Prefix steps, root first.
    prefix: List[Tuple[str, Any]] = []
    cursor: Optional[Tuple[Any, int]] = hit
    while True:
        parent, action = parents[cursor]
        if parent is None:
            break
        prefix.append((action, cursor[0]))
        cursor = parent
    prefix.reverse()
    root_fp = cursor[0]

    entry, entry_pending = hit
    i = scc_of[entry]
    scc_set = set(sccs[i])
    stutter = len(sccs[i]) == 1 and entry in graph.stuttering
    if stutter:
        cycle: List[Tuple[str, Any]] = []
    else:
        witnesses = list(fair[i])
        if kind == "leads_to" and entry_pending == 0:
            # The obligation comes from inside the cycle: route through
            # the smallest P-state of the SCC.
            p_node = min(fp for fp in sccs[i] if p_of[fp])
            witnesses.append(("node", p_node))
        cycle = _stitch_cycle(graph, region, scc_set, entry, witnesses)

    return _assemble(graph, root_fp, prefix, cycle, stuttering=stutter)


def _assemble(
    graph: TemporalGraph,
    root_fp: Any,
    prefix: List[Tuple[str, Any]],
    cycle: List[Tuple[str, Any]],
    stuttering: bool,
) -> LassoTrace:
    """Re-execute the fingerprint path into a replayable concrete trace."""
    canonical = graph.reducer.canonical if graph.reducer else None
    trace = replay_path(
        graph.spec, graph.states[root_fp], prefix + cycle, canonical, graph.fp_fn
    )
    return LassoTrace(trace=trace, cycle_start=len(prefix), stuttering=stuttering)


def explore_and_check(
    spec: Spec,
    properties: Sequence[TemporalProperty],
    run_dir: Optional[Any] = None,
    **search_options: Any,
) -> Tuple[List[TemporalResult], SearchResult]:
    """Explore ``spec`` as ``check`` does, then check each property over
    the graph the run recorded.

    The exploration is :func:`~repro.core.explorer.bfs_explore` into
    ``run_dir`` (a temporary one when ``None``), so every search mode —
    serial, ``workers``, a ``transport``, ``symmetry``, ``resume`` — takes
    ``search_options`` as ``check`` passes them.  It does not stop on
    safety violations: the graph must cover everything reachable within
    the budgets for the cycle search to mean anything.  The properties
    are then checked by :func:`check_run_dir`, as ``check-liveness`` checks
    them.
    """
    if run_dir is None:
        with tempfile.TemporaryDirectory(prefix="sandtable-liveness-") as tmp:
            return explore_and_check(
                spec, properties, os.path.join(tmp, "run"), **search_options
            )
    from repro.persist import RunDir  # local: importing temporal loads no persist

    search = bfs_explore(
        spec, run_dir=run_dir, stop_on_violation=False, **search_options
    )
    _graph, _recorded, results = check_run_dir(
        spec, RunDir.open(run_dir), properties, metrics=search_options.get("metrics")
    )
    return results, search


def check_run_dir(
    spec: Spec,
    run_dir: Any,
    properties: Sequence[TemporalProperty],
    metrics: Optional[Any] = None,
) -> Tuple[TemporalGraph, Optional[int], List[TemporalResult]]:
    """Check each property over the graph a run directory recorded.

    ``run_dir`` is an open :class:`~repro.persist.RunDir` of a serial or
    sharded run; its manifest says whether the run reduced by symmetry,
    and a ``--fast`` run, which kept no parent edges, is refused with
    :class:`~repro.core.engine.TracelessStoreError`.  Returns the
    materialized graph, the distinct-state count the run recorded
    (``None`` if it never finished; see
    :func:`~repro.persist.load_graph_stores`) and one result per property.
    """
    from repro.persist import load_graph_stores  # local, as above

    config = run_dir.manifest().get("config", {})
    if config.get("fast"):
        raise TracelessStoreError(
            f"run {run_dir.path} used --fast (fingerprint-only store): no"
            " parent edges were persisted, so the explored graph cannot be"
            " materialized — rerun the check without --fast, then"
            " check-liveness"
        )
    stores, recorded = load_graph_stores(run_dir)
    graph = materialize_graph(spec, stores, symmetry=bool(config.get("symmetry")))
    return graph, recorded, [check_graph(graph, prop, metrics) for prop in properties]
