"""The log fuzzer: grade ``validate-trace`` against planted divergences.

A trace-validation verdict is easy to get silently wrong in either
direction — a matcher that accepts everything "conforms", one that
explores too narrowly "diverges".  So the validator gets the same
treatment the checker itself got in :mod:`~repro.testkit.differential`:
seeded random specs, logs with **known ground truth**, and exact
grading.

* :func:`walk_log` random-walks a generated spec
  (:func:`~repro.testkit.genspec.generate_spec`) recording one event per
  transition with an observed-variable projection — by construction a
  *clean* log that must conform;
* the mutators plant a divergence at a known index ``k``: **corrupt**
  (rewrite one observed value at event ``k`` within its domain),
  **reorder** (swap adjacent events of different nodes — within a
  node's concurrency window, so per-node sequence numbers stay
  monotonic), **drop** (remove event ``k``), **phantom** (insert a
  duplicated event at ``k``);
* a mutation may still be explainable by a *different* spec behavior,
  so every mutant is vetted by :func:`naive_validate` — an independent,
  deliberately naive per-event frontier search (the
  :mod:`~repro.testkit.oracle` idiom: plain state sets, no fingerprints,
  no engine) whose first-divergence index is the **oracle truth**; the
  log prefix before ``k`` is untouched walk output, so the oracle index
  is always ``>= k``;
* :func:`run_log_fuzz` grades the real validator across specs ×
  observed-variable projections × mutation kinds, round-tripping every
  log through the JSONL serialization: clean logs must conform, planted
  logs must diverge at exactly the oracle index with an unsaturated
  frontier, and a **stutter** cell (drop one internal event, validate
  with stuttering allowed) must agree with the oracle's stuttering
  verdict.  Everything is derived from the sweep seed — rerunning with
  the same seed replays the identical matrix, and a failure's artifact
  replays its one spec and projection.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.state import Rec
from ..tracecheck.logfmt import (
    LogEvent,
    LogHeader,
    observe,
    parse_lines,
    render_lines,
)
from ..tracecheck.matcher import validate_log
from .genspec import GeneratedSpec, GenParams, generate_spec, sample_params
from .report import Finding, SelftestReport

__all__ = [
    "MUTATION_KINDS",
    "LogFuzzFailure",
    "PlantedLog",
    "naive_validate",
    "plant_divergence",
    "run_log_fuzz",
    "walk_log",
]

#: The planted-divergence mutation kinds, in grading order.
MUTATION_KINDS: Tuple[str, ...] = ("corrupt", "reorder", "drop", "phantom")


# ---------------------------------------------------------------------------
# clean-log generation
# ---------------------------------------------------------------------------


def walk_log(
    generated: GeneratedSpec,
    rng: random.Random,
    length: int = 10,
    observed: Optional[Sequence[str]] = None,
) -> List[LogEvent]:
    """A clean event log: one random walk of the generated spec.

    Every event records the transition's action name, full argument
    tuple, owning node (the first argument when it is a node id), and
    the ``observed`` projection of the post-state.  The walk itself is a
    witness behavior, so the log conforms by construction.
    """
    spec = generated.spec(invariants=False)
    kinds = {action.name: action.kind for action in spec.actions()}
    state = next(iter(spec.init_states()))
    if observed is None:
        observed = tuple(state.keys())
    nodes = frozenset(spec.nodes)
    events: List[LogEvent] = []
    for _ in range(length):
        transitions = list(spec.successors(state))
        if not transitions:
            break
        transition = transitions[rng.randrange(len(transitions))]
        node = (
            transition.args[0]
            if transition.args and transition.args[0] in nodes
            else ""
        )
        events.append(
            LogEvent(
                node=node,
                kind=kinds[transition.action],
                name=transition.action,
                args=tuple(transition.args),
                obs=observe(transition.target, node, observed),
            )
        )
        state = transition.target
    return events


# ---------------------------------------------------------------------------
# the naive reference validator (the oracle)
# ---------------------------------------------------------------------------


def _project(state: Rec, var: str, node: str) -> Any:
    value = state[var]
    if node and isinstance(value, Rec) and node in value:
        return value[node]
    return value


def _explains(kinds: Dict[str, str], transition: Any, event: LogEvent) -> bool:
    if event.name is not None:
        if transition.action != event.name:
            return False
    elif event.kind and kinds.get(transition.action) != event.kind:
        return False
    if event.args:
        if tuple(transition.args[: len(event.args)]) != tuple(event.args):
            return False
    target = transition.target
    for var, want in event.obs.items():
        if var not in target or _project(target, var, event.node) != want:
            return False
    return True


def naive_validate(
    spec: Any,
    events: Sequence[LogEvent],
    stutter_depth: int = 0,
    stutter_kinds: Sequence[str] = ("internal",),
) -> Tuple[bool, Optional[int]]:
    """Ground-truth validation: ``(conforms, first_divergence_index)``.

    Deliberately naive, mirroring :func:`~repro.testkit.oracle.oracle_explore`:
    per-event frontiers of plain states deduplicated by equality — no
    engine, no fingerprints, no breadth cap — so the real matcher and
    this function share no code on the answer path.
    """
    kinds = {action.name: action.kind for action in spec.actions()}
    stutter = frozenset(
        name for name, kind in kinds.items() if kind in set(stutter_kinds)
    )
    frontier: List[Rec] = list(spec.init_states())
    for index, event in enumerate(events):
        matched: List[Rec] = []
        seen_next: set = set()
        for origin in frontier:
            layer: List[Tuple[Rec, int]] = [(origin, 0)]
            seen_stutter = {origin}
            while layer:
                state, depth = layer.pop()
                for transition in spec.successors(state):
                    if _explains(kinds, transition, event):
                        if transition.target not in seen_next:
                            seen_next.add(transition.target)
                            matched.append(transition.target)
                    if (
                        depth < stutter_depth
                        and transition.action in stutter
                        and transition.target not in seen_stutter
                    ):
                        seen_stutter.add(transition.target)
                        layer.append((transition.target, depth + 1))
        if not matched:
            return False, index
        frontier = matched
    return True, None


# ---------------------------------------------------------------------------
# mutation planting
# ---------------------------------------------------------------------------


def _copy_event(event: LogEvent) -> LogEvent:
    return LogEvent(
        node=event.node,
        kind=event.kind,
        name=event.name,
        args=tuple(event.args),
        obs=dict(event.obs),
        seq=event.seq,
    )


def _var_domain(params: GenParams, var: str) -> int:
    if var == "locals":
        return params.local_states
    if var == "glob":
        return params.global_states
    if var.startswith("chan"):
        return params.channel_states
    return 0


def _mutate_corrupt(
    params: GenParams, events: Sequence[LogEvent], rng: random.Random
) -> Optional[Tuple[List[LogEvent], int]]:
    candidates = [
        index
        for index, event in enumerate(events)
        if any(
            isinstance(value, int) and _var_domain(params, var) >= 2
            for var, value in event.obs.items()
        )
    ]
    if not candidates:
        return None
    k = candidates[rng.randrange(len(candidates))]
    event = _copy_event(events[k])
    vars_ = [
        var
        for var, value in event.obs.items()
        if isinstance(value, int) and _var_domain(params, var) >= 2
    ]
    var = vars_[rng.randrange(len(vars_))]
    domain = _var_domain(params, var)
    old = event.obs[var]
    event.obs[var] = (old + 1 + rng.randrange(domain - 1)) % domain
    return [*events[:k], event, *events[k + 1 :]], k


def _mutate_reorder(
    params: GenParams, events: Sequence[LogEvent], rng: random.Random
) -> Optional[Tuple[List[LogEvent], int]]:
    # Swapping two adjacent events of *different* nodes stays within
    # each node's concurrency window: per-node sequence numbers remain
    # monotonic, so the mutant is schema-valid and the divergence (if
    # any) is semantic, not syntactic.
    candidates = [
        index
        for index in range(len(events) - 1)
        if events[index].node != events[index + 1].node
    ]
    if not candidates:
        return None
    k = candidates[rng.randrange(len(candidates))]
    out = [_copy_event(event) for event in events]
    out[k], out[k + 1] = out[k + 1], out[k]
    return out, k


def _mutate_drop(
    params: GenParams, events: Sequence[LogEvent], rng: random.Random
) -> Optional[Tuple[List[LogEvent], int]]:
    # Dropping the final event leaves a clean prefix, which conforms by
    # construction — only earlier positions can plant a divergence.
    if len(events) < 2:
        return None
    k = rng.randrange(len(events) - 1)
    return [*events[:k], *events[k + 1 :]], k


def _mutate_phantom(
    params: GenParams, events: Sequence[LogEvent], rng: random.Random
) -> Optional[Tuple[List[LogEvent], int]]:
    if not events:
        return None
    j = rng.randrange(len(events))
    k = rng.randrange(len(events) + 1)
    out = [_copy_event(event) for event in events]
    out.insert(k, _copy_event(events[j]))
    return out, k


_MUTATORS: Dict[str, Callable] = {
    "corrupt": _mutate_corrupt,
    "reorder": _mutate_reorder,
    "drop": _mutate_drop,
    "phantom": _mutate_phantom,
}


@dataclasses.dataclass
class PlantedLog:
    """One vetted mutant: the events, where it was planted, and truth."""

    kind: str
    events: List[LogEvent]
    planted_index: int
    oracle_index: int


def plant_divergence(
    spec: Any,
    params: GenParams,
    events: Sequence[LogEvent],
    kind: str,
    rng: random.Random,
    tries: int = 24,
    stutter_depth: int = 0,
) -> Optional[PlantedLog]:
    """Mutate until the oracle confirms a genuine divergence.

    A mutation can land on a log the spec still explains (a reordering
    of independent events, a phantom that is genuinely enabled); those
    are *not* divergences, so they are redrawn.  Returns ``None`` when
    the log offers no mutation sites or every try stayed consistent.
    """
    mutate = _MUTATORS[kind]
    for _ in range(tries):
        out = mutate(params, events, rng)
        if out is None:
            return None
        mutated, planted = out
        conforms, index = naive_validate(spec, mutated, stutter_depth)
        if not conforms:
            return PlantedLog(kind, mutated, planted, index)
    return None


# ---------------------------------------------------------------------------
# the grading sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class LogFuzzFailure(Finding):
    """One graded cell whose verdict disagreed with the ground truth."""

    kind = "testkit-log-disagreement"
    CELLS = ("clean", *MUTATION_KINDS, "stutter")

    projection: Tuple[str, ...]
    message: str

    def detail(self) -> str:
        return f"proj={'/'.join(self.projection) or '-'}: {self.message}"

    @classmethod
    def _decode(cls, fields: Dict[str, Any]) -> Dict[str, Any]:
        projection = tuple(fields["projection"])
        if not all(isinstance(var, str) for var in projection):
            raise TypeError("'projection' is not a list of variable names")
        return {**fields, "projection": projection}

    def replay(self, raw: Dict[str, Any]) -> List[Finding]:
        report = SelftestReport("log fuzz", self.spec_seed, 1)
        _grade_projection(
            generate_spec(self.spec_seed, self.params),
            self.projection,
            raw.get("length", _LENGTH),
            raw.get("max_frontier", _MAX_FRONTIER),
            report,
        )
        return [item for item in report.findings if item.cell == self.cell]


_LENGTH = 10
_MAX_FRONTIER = 4096


def _projections(params: GenParams) -> List[Tuple[str, ...]]:
    full = ["locals", "glob"] + [f"chan{i}" for i in range(params.n_channels)]
    projections = [tuple(full), ("locals",), ("glob",)]
    return projections


def _round_trip(
    spec_name: str, observed: Tuple[str, ...], events: Sequence[LogEvent]
) -> Any:
    """Serialize and reparse, so grading exercises the JSONL layer too."""
    header = LogHeader(spec=spec_name, observed=observed)
    return parse_lines(render_lines(header, events))


def _grade_projection(
    generated: GeneratedSpec,
    projection: Tuple[str, ...],
    length: int,
    max_frontier: int,
    report: SelftestReport,
    out_dir: Optional[os.PathLike] = None,
) -> None:
    """Grade every cell of one spec under one observed-variable projection.

    The walk RNG derives from the spec seed (``{sweep seed}-log-{index}``)
    and the projection, so a replay walks the identical log.
    """
    spec, params = generated.spec(invariants=False), generated.params
    sweep_seed, _, index = generated.seed.rpartition("-log-")
    rng = random.Random(f"{sweep_seed}:walk:{index}:{'/'.join(projection)}")

    def fail(cell: str, message: str) -> None:
        failure = LogFuzzFailure(generated.seed, params, cell, projection, message)
        report.add(failure, out_dir, length=length, max_frontier=max_frontier)

    events = walk_log(generated, rng, length=length, observed=projection)
    if not events:
        report.skip("clean")
        return
    log = _round_trip("testkit-random", projection, events)

    # -- clean: must conform (validator and oracle agree) -------------------
    result = validate_log(spec, log, max_frontier=max_frontier)
    report.grade("clean")
    if not result.conforms:
        fail("clean", f"clean log rejected at #{result.divergence_index}")
    conforms, oracle_index = naive_validate(spec, log.events)
    if not conforms:
        fail("clean", f"oracle rejected a clean walk at #{oracle_index} (testkit bug)")

    # -- planted mutants: must diverge at the oracle index ------------------
    for kind in MUTATION_KINDS:
        planted = plant_divergence(spec, params, events, kind, rng)
        if planted is None:
            report.skip(kind)
            continue
        if planted.oracle_index < planted.planted_index:
            fail(
                kind,
                f"oracle index {planted.oracle_index} precedes the"
                f" planted index {planted.planted_index} (testkit bug)",
            )
            continue
        mutant_log = _round_trip("testkit-random", projection, planted.events)
        result = validate_log(spec, mutant_log, max_frontier=max_frontier)
        report.grade(kind)
        if result.conforms:
            fail(
                kind,
                f"planted divergence at #{planted.planted_index}"
                f" (oracle #{planted.oracle_index}) was accepted",
            )
        elif result.frontier_limited:
            fail(kind, f"frontier cap {max_frontier} saturated; verdict unreliable")
        elif result.divergence_index != planted.oracle_index:
            fail(
                kind,
                f"diverged at #{result.divergence_index}, oracle says"
                f" #{planted.oracle_index}",
            )

    # -- stuttering: drop one internal event, allow one stutter -------------
    internal = [
        position for position, event in enumerate(events) if event.kind == "internal"
    ]
    if not internal:
        report.skip("stutter")
        return
    position = internal[rng.randrange(len(internal))]
    stuttered = [*events[:position], *events[position + 1 :]]
    truth, truth_index = naive_validate(spec, stuttered, stutter_depth=1)
    stutter_log = _round_trip("testkit-random", projection, stuttered)
    result = validate_log(
        spec, stutter_log, stutter_depth=1, max_frontier=max_frontier
    )
    report.grade("stutter")
    if result.conforms != truth:
        fail(
            "stutter",
            f"stutter verdict {result.verdict}, oracle says"
            f" {'conforms' if truth else f'diverged at #{truth_index}'}",
        )
    elif not truth and not result.frontier_limited and (
        result.divergence_index != truth_index
    ):
        fail(
            "stutter",
            f"stutter divergence at #{result.divergence_index},"
            f" oracle says #{truth_index}",
        )


def run_log_fuzz(
    n_specs: int = 25,
    seed: str = "0",
    length: int = _LENGTH,
    max_frontier: int = _MAX_FRONTIER,
    progress: Optional[Callable[[str], None]] = None,
    out_dir: Optional[os.PathLike] = None,
) -> SelftestReport:
    """Grade the validator over ``n_specs`` generated specs.

    Per spec and observed-variable projection: one clean log (must
    conform), one planted mutant per kind in :data:`MUTATION_KINDS`
    (must diverge at exactly the oracle index, with the frontier below
    its cap), and one stuttering cell.  Zero tolerance: any disagreement
    is a failure, written as a replayable artifact when ``out_dir`` is
    given.
    """
    report = SelftestReport("log fuzz", seed, n_specs)
    for index in range(n_specs):
        spec_seed = f"{seed}-log-{index}"
        params = sample_params(random.Random(f"{seed}-params-{index}"))
        generated = generate_spec(spec_seed, params)
        if progress is not None:
            progress(f"[{index + 1}/{n_specs}] {spec_seed}")
        for projection in _projections(params):
            _grade_projection(
                generated, projection, length, max_frontier, report, out_dir
            )
    return report
