"""The reference explorer: deliberately simple ground truth.

The engine under test deduplicates through 64-bit fingerprints of a
canonical codec, reconstructs traces from parent chains, shards the
frontier across processes, and spills visited sets to disk.  The oracle
does none of that: it is a plain breadth-first search over a dict keyed
by the states themselves (``Rec`` equality/hash), entirely independent
of the codec, of fingerprinting, and of the engine's store/strategy
machinery.  If the two disagree, one of them is wrong — and the oracle
is small enough to audit by eye.

The oracle reproduces the engine's *accounting conventions* exactly, so
results are comparable field by field:

* ``states`` counts deduplicated states, including initial states and
  states that fail the state constraint (the engine records a child
  before checking the constraint on pop);
* ``transitions`` counts every enabled transition enumerated from every
  expanded (constraint-passing) state — duplicates included, exactly as
  the engine counts before its ``seen`` check;
* ``diameter`` is the maximum BFS depth over all recorded states — the
  engine's ``max_depth`` for an exhausted run;
* ``min_violation_depth`` is the trace depth of the shallowest
  invariant violation: state invariants at the state's first-record
  depth, transition invariants at parent depth + 1, only along edges
  from constraint-passing states.  BFS minimality means every engine
  configuration must report exactly this depth (and one of
  ``violation_invariants``) when it stops on a violation.

For specs with symmetry sets the oracle also computes the quotient
ground truth — ``orbit_states``, ``orbit_transitions``,
``orbit_diameter`` — by grouping the full reachable space into orbits
with :func:`repro.core.state.substitute` (no fingerprints involved).
Orbit depth equals the minimum full-space depth over the orbit's
members, and, because generated invariants and constraints are
symmetric, the minimal violation depth is the same with and without
reduction.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.spec import Spec, WeakFairness
from ..core.state import Rec, substitute
from ..core.symmetry import permutations_of_sets

__all__ = [
    "OracleResult",
    "OracleTemporalGraph",
    "OracleTemporalVerdict",
    "oracle_check_temporal",
    "oracle_explore",
    "oracle_temporal_graph",
    "oracle_validate_lasso",
]


@dataclasses.dataclass
class OracleResult:
    """Ground truth for one spec: full-space and (optional) quotient."""

    states: int
    transitions: int
    diameter: int
    pruned: int
    min_violation_depth: Optional[int]
    violation_invariants: Tuple[str, ...]
    orbit_states: Optional[int] = None
    orbit_transitions: Optional[int] = None
    orbit_diameter: Optional[int] = None
    #: per-action partition of ``transitions`` (every spec action appears,
    #: never-fired actions at 0) — the ground truth the engines'
    #: ``engine.action_fires`` coverage counters are graded against.
    action_fires: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: per-action partition of ``orbit_transitions`` (symmetry runs).
    orbit_action_fires: Optional[Dict[str, int]] = None
    #: state -> minimal BFS depth (the raw census; not serialized)
    depths: Dict[Rec, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "diameter": self.diameter,
            "pruned": self.pruned,
            "min_violation_depth": self.min_violation_depth,
            "violation_invariants": list(self.violation_invariants),
            "orbit_states": self.orbit_states,
            "orbit_transitions": self.orbit_transitions,
            "orbit_diameter": self.orbit_diameter,
            "action_fires": dict(self.action_fires),
            "orbit_action_fires": (
                dict(self.orbit_action_fires)
                if self.orbit_action_fires is not None
                else None
            ),
        }


def oracle_explore(spec: Spec, compute_orbits: bool = False) -> OracleResult:
    """Exhaustively explore ``spec`` the simple way.

    Unlike the engine the oracle never stops at the first violation: it
    completes the census and reports the *minimal* violation depth, so a
    single oracle run grades both the stop-on-violation and the
    exhaustive configurations.
    """
    invariants = list(spec.invariants())
    transition_invariants = list(spec.transition_invariants())

    depths: Dict[Rec, int] = {}
    violations: List[Tuple[int, str]] = []  # (trace depth, invariant name)

    def check_state(state: Rec, depth: int) -> None:
        for inv in invariants:
            if not inv.holds(state):
                violations.append((depth, inv.name))

    level: List[Rec] = []
    for init in spec.init_states():
        if init in depths:
            continue
        depths[init] = 0
        check_state(init, 0)
        level.append(init)

    transitions = 0
    pruned = 0
    depth = 0
    # Per-action partition of the transition count, seeded so an action
    # that never fires still appears (at zero) in the ground truth.
    action_fires: Dict[str, int] = {action.name: 0 for action in spec.actions()}
    while level:
        next_level: List[Rec] = []
        for state in level:
            if not spec.state_constraint(state):
                pruned += 1
                continue
            for transition in spec.successors(state):
                transitions += 1
                action_fires[transition.action] = (
                    action_fires.get(transition.action, 0) + 1
                )
                for inv in transition_invariants:
                    if not inv.holds(state, transition):
                        violations.append((depth + 1, inv.name))
                child = transition.target
                if child in depths:
                    continue
                depths[child] = depth + 1
                check_state(child, depth + 1)
                next_level.append(child)
        level = next_level
        depth += 1

    diameter = max(depths.values()) if depths else 0
    min_violation_depth: Optional[int] = None
    violated: Tuple[str, ...] = ()
    if violations:
        min_violation_depth = min(depth for depth, _ in violations)
        violated = tuple(
            sorted({name for depth, name in violations if depth == min_violation_depth})
        )

    result = OracleResult(
        states=len(depths),
        transitions=transitions,
        diameter=diameter,
        pruned=pruned,
        min_violation_depth=min_violation_depth,
        violation_invariants=violated,
        action_fires=action_fires,
        depths=depths,
    )
    if compute_orbits and spec.symmetry_sets():
        _compute_orbits(spec, result)
    return result


def _compute_orbits(spec: Spec, result: OracleResult) -> None:
    """Fill in the quotient ground truth for symmetry-reduced runs.

    Soundness requires the spec's constraint and invariants to be
    symmetric under the declared sets (the same requirement the engine
    places on symmetry reduction): then each reachable orbit is explored
    once, at the minimum depth of its members, and every member
    enumerates the same number of successors.
    """
    maps = list(permutations_of_sets(spec.symmetry_sets()))
    orbit_depth: Dict[frozenset, int] = {}
    orbit_member: Dict[frozenset, Rec] = {}
    for state, depth in result.depths.items():
        orbit = frozenset(substitute(state, mapping) for mapping in maps)
        if depth < orbit_depth.get(orbit, depth + 1):
            orbit_depth[orbit] = depth
        orbit_member.setdefault(orbit, state)

    orbit_transitions = 0
    orbit_action_fires: Dict[str, int] = {action.name: 0 for action in spec.actions()}
    for orbit, member in orbit_member.items():
        if not spec.state_constraint(member):
            continue
        for transition in spec.successors(member):
            orbit_transitions += 1
            orbit_action_fires[transition.action] = (
                orbit_action_fires.get(transition.action, 0) + 1
            )

    result.orbit_states = len(orbit_depth)
    result.orbit_transitions = orbit_transitions
    result.orbit_diameter = max(orbit_depth.values()) if orbit_depth else 0
    result.orbit_action_fires = orbit_action_fires


# ---------------------------------------------------------------------------
# the temporal oracle: naive fair-cycle (lasso) ground truth
# ---------------------------------------------------------------------------
#
# The engine's lasso finder (repro.temporal) materializes a
# fingerprint-keyed graph from a state store and runs an iterative Tarjan
# followed by a product BFS.  The oracle shares none of that: it keeps
# the full successor adjacency keyed by the states themselves, groups
# strongly connected components by *mutual reachability* (one plain DFS
# per node — quadratic, auditable, and algorithmically unrelated to
# Tarjan), and answers only the two questions the grading needs: is the
# property violated, and what is the minimal prefix length to a fair
# cycle.  Both tools implement the same semantics — weak fairness over a
# lasso, stutter self-loops at unexpanded sinks only (the TLC
# convention) — so any disagreement is a bug in one of them.


@dataclasses.dataclass
class OracleTemporalGraph:
    """The full reachable successor graph, states kept concrete.

    ``succ[i]`` lists ``(action, j)`` edges out of ``states[i]``; a
    constraint-pruned state keeps an empty list, exactly like the
    engine's materialized graph.  Indices are discovery (BFS) order —
    an implementation convenience, not a fingerprint.
    """

    states: List[Rec]
    succ: List[List[Tuple[str, int]]]
    inits: List[int]
    depths: List[int]


@dataclasses.dataclass
class OracleTemporalVerdict:
    """Ground truth for one temporal property over one spec."""

    violated: bool
    #: BFS length of the shortest prefix reaching a fair SCC (the exact
    #: ``LassoTrace.prefix_length`` every engine cell must report), or
    #: None when the property holds.
    min_prefix: Optional[int]
    fair_sccs: int
    states: int


def oracle_temporal_graph(spec: Spec) -> OracleTemporalGraph:
    """Exhaustively build the reachable successor graph, the simple way."""
    index: Dict[Rec, int] = {}
    states: List[Rec] = []
    succ: List[List[Tuple[str, int]]] = []
    depths: List[int] = []
    inits: List[int] = []
    queue: deque = deque()
    for init in spec.init_states():
        if init in index:
            continue
        index[init] = len(states)
        states.append(init)
        succ.append([])
        depths.append(0)
        inits.append(index[init])
        queue.append(index[init])
    while queue:
        i = queue.popleft()
        if not spec.state_constraint(states[i]):
            continue
        out = succ[i]
        for transition in spec.successors(states[i]):
            j = index.get(transition.target)
            if j is None:
                j = len(states)
                index[transition.target] = j
                states.append(transition.target)
                succ.append([])
                depths.append(depths[i] + 1)
                queue.append(j)
            out.append((transition.action, j))
    return OracleTemporalGraph(states=states, succ=succ, inits=inits, depths=depths)


def _wf_enabled(spec: Spec, state: Rec, wf: WeakFairness) -> bool:
    """Raw enabledness of a weak-fairness set, straight off the spec."""
    if wf.enabled is not None:
        return bool(wf.enabled(state))
    return any(t.action in wf.actions for t in spec.successors(state))


def _mutual_reach_classes(
    nodes: List[int], adj: Dict[int, List[int]]
) -> Tuple[List[List[int]], Dict[int, int], Dict[int, set]]:
    """SCCs by mutual reachability: one DFS per node, no Tarjan.

    ``reach[u]`` is everything reachable from ``u`` by at least one
    edge, so ``u in reach[u]`` holds exactly when ``u`` lies on a cycle.
    """
    reach: Dict[int, set] = {}
    for u in nodes:
        seen: set = set()
        stack = list(adj[u])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
        reach[u] = seen
    classes: List[List[int]] = []
    comp: Dict[int, int] = {}
    for u in nodes:
        if u in comp:
            continue
        members = [u] + [
            v for v in reach[u] if v != u and u in reach[v] and v not in comp
        ]
        for v in members:
            comp[v] = len(classes)
        classes.append(sorted(members))
    return classes, comp, reach


def oracle_check_temporal(
    spec: Spec,
    prop: Any,
    graph: Optional[OracleTemporalGraph] = None,
) -> OracleTemporalVerdict:
    """Naively decide a temporal property over the full reachable graph.

    Implements the same lasso semantics as :func:`repro.temporal.check_graph`
    — avoid region per property kind, weak-fairness witnesses per SCC,
    stutter loops only at sinks, minimal prefix by product BFS — with
    none of its machinery (no fingerprints, no store, no Tarjan).
    """
    g = graph if graph is not None else oracle_temporal_graph(spec)
    fairness = tuple(prop.effective_fairness(spec))
    kind = prop.kind
    p_of = [bool(prop.predicate(s)) for s in g.states]
    if kind == "leads_to":
        q_of = [bool(prop.goal(s)) for s in g.states]
        region = {i for i, q in enumerate(q_of) if not q}
    else:
        q_of = []
        region = {i for i, p in enumerate(p_of) if not p}

    adj = {
        i: sorted({j for _a, j in g.succ[i] if j in region}) for i in region
    }
    classes, comp, reach = _mutual_reach_classes(sorted(region), adj)

    fair: set = set()
    scc_has_p: Dict[int, bool] = {}
    for ci, members in enumerate(classes):
        stutter = len(members) == 1 and not g.succ[members[0]]
        cyclic = len(members) > 1 or members[0] in reach[members[0]]
        if not cyclic and not stutter:
            continue
        member_set = set(members)
        ok = True
        for wf in fairness:
            if stutter:
                if _wf_enabled(spec, g.states[members[0]], wf):
                    ok = False
                    break
                continue
            if any(not _wf_enabled(spec, g.states[i], wf) for i in members):
                continue
            if any(
                action in wf.actions and j in member_set
                for i in members
                for action, j in g.succ[i]
            ):
                continue
            ok = False
            break
        if not ok:
            continue
        fair.add(ci)
        scc_has_p[ci] = any(p_of[i] for i in members)

    if not fair:
        return OracleTemporalVerdict(False, None, 0, len(g.states))

    # Minimal prefix: BFS over the <state, pending-obligation> product,
    # mirroring the engine's root/region restrictions per property kind.
    if kind == "eventually":
        roots = [i for i in g.inits if not p_of[i]]
        allowed = region
    else:
        roots = list(g.inits)
        allowed = None  # every explored state

    def pending_of(i: int, prev: int) -> int:
        if kind != "leads_to":
            return 0
        if q_of[i]:
            return 0
        if p_of[i]:
            return 1
        return prev

    def hit(i: int, pending: int) -> bool:
        ci = comp.get(i)
        if ci is None or ci not in fair:
            return False
        return kind != "leads_to" or pending == 1 or scc_has_p[ci]

    seen: set = set()
    level = []
    for i in roots:
        key = (i, pending_of(i, 0))
        if key not in seen:
            seen.add(key)
            level.append(key)
    distance = 0
    while level:
        if any(hit(i, pending) for i, pending in level):
            return OracleTemporalVerdict(True, distance, len(fair), len(g.states))
        next_level = []
        for i, pending in level:
            for _action, j in g.succ[i]:
                if allowed is not None and j not in allowed:
                    continue
                key = (j, pending_of(j, pending))
                if key not in seen:
                    seen.add(key)
                    next_level.append(key)
        level = next_level
        distance += 1
    # Fair SCCs exist but none is reachable under the property's root
    # and region restrictions: the property holds.
    return OracleTemporalVerdict(False, None, len(fair), len(g.states))


def oracle_validate_lasso(
    spec: Spec,
    prop: Any,
    lasso: Any,
    symmetric: bool = False,
) -> Optional[str]:
    """Independently validate an engine-emitted lasso; None when sound.

    Checks, straight off the spec with no engine machinery: every step
    is a genuine transition; the cycle closes (up to a symmetry
    permutation when ``symmetric``); prefix and cycle respect the
    property's avoid region; a ``leads_to`` obligation is actually
    outstanding; and the cycle satisfies every weak-fairness
    declaration.  Returns a human-readable defect description otherwise.
    """
    states = list(lasso.trace.states())
    labels = [step.action for step in lasso.trace.steps]
    for k, label in enumerate(labels):
        prev, nxt = states[k], states[k + 1]
        if not any(
            t.action == label and t.target == nxt for t in spec.successors(prev)
        ):
            return f"step {k} ({label}) is not a spec transition"

    cs = lasso.cycle_start
    if not 0 <= cs < len(states):
        return f"cycle_start {cs} out of range for {len(states)} states"
    if lasso.stuttering:
        # Stuttering forever is a legal behavior at ANY state — fairness
        # is the only thing that can forbid it, and the per-WF check
        # below rejects a stutter where a fair action stays enabled.  In
        # particular a budget-truncated graph may stutter at a state
        # whose unexplored successors are all non-fair actions; that is
        # still a genuine counterexample.
        if cs != len(states) - 1:
            return "stuttering lasso carries explicit cycle steps"
    else:
        first, last = states[cs], states[-1]
        if symmetric:
            maps = list(permutations_of_sets(spec.symmetry_sets()))
            if all(last != substitute(first, mapping) for mapping in maps):
                return "cycle does not close, even up to symmetry"
        elif first != last:
            return "cycle does not close"

    kind = prop.kind
    predicate = prop.predicate
    if kind == "eventually":
        if any(predicate(s) for s in states):
            return "an eventually-lasso passes through a P-state"
    elif kind == "always_eventually":
        if any(predicate(s) for s in states[cs:]):
            return "cycle contains a P-state"
    else:
        goal = prop.goal
        if any(goal(s) for s in states[cs:]):
            return "cycle contains a Q-state"
        pending = 0
        for s in states:
            if goal(s):
                pending = 0
            elif predicate(s):
                pending = 1
        if pending != 1 and not any(predicate(s) for s in states[cs:]):
            return "no outstanding P-obligation along the lasso"

    for wf in prop.effective_fairness(spec):
        if lasso.stuttering:
            if _wf_enabled(spec, states[-1], wf):
                return f"stuttering unfair: {wf.name} stays enabled"
            continue
        if any(labels[k] in wf.actions for k in range(cs, len(labels))):
            continue
        if any(not _wf_enabled(spec, states[k], wf) for k in range(cs, len(states))):
            continue
        return f"cycle unfair: {wf.name} enabled throughout, never fires"
    return None
