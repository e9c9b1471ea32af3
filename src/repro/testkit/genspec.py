"""Seeded random specifications: fuzz inputs for the model checker.

The testkit checks the checker, so its inputs must be specifications
whose ground truth is computable by something much simpler than the
engine under test.  This module generates small-scope state machines
from a seed:

* **shape** — ``n_nodes`` nodes each holding a local value in
  ``range(local_states)`` plus one shared global value in
  ``range(global_states)``; the reachable space is bounded by
  ``local_states ** n_nodes * global_states``, so every generated spec
  is exhaustively explorable in milliseconds;
* **actions** — random *per-node* rules (one node reads and rewrites its
  own value), *pair* rules (an ordered pair of nodes models a message:
  the source's value drives an update of the destination's), and
  *global* rules (the shared value alone).  Every rule is a lookup table
  drawn from the seed, with up to ``branching`` nondeterministic update
  options per enabled cell — branching is what makes the frontier wide
  enough to exercise dedup, sharding, and level synchrony;
* **symmetry** — the same table is applied to every node (and every
  ordered pair), so permuting node identities commutes with every
  action: declaring the node set as a symmetry group is sound *by
  construction*, which is what lets the differential harness run the
  same spec with symmetry reduction on and off;
* **planted violation** — a state invariant over the *node-symmetric
  signature* ``(sorted local values, global value)``.  The generator
  explores the reachable space once (via :mod:`repro.testkit.oracle`)
  and plants the invariant on a signature whose minimal BFS depth is
  known exactly, so every configuration of the engine must report a
  violation at precisely that depth.  Signatures are invariant under
  node permutation, so the planted invariant stays sound under symmetry
  reduction.

Generation is fully deterministic: the same ``(seed, params)`` pair
produces byte-identical tables, the same planted signature, and
therefore the same ground truth, in every process and under every
``PYTHONHASHSEED`` — a disagreement artifact that records just the seed
and params is a complete reproducer.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.spec import Action, Invariant, Spec
from ..core.state import Rec

__all__ = [
    "GenParams",
    "PlantedViolation",
    "GeneratedSpec",
    "RandomSpec",
    "signature",
    "generate_spec",
    "sample_params",
]

#: Invariant name used for every planted violation.
PLANTED_INVARIANT = "NoPlantedSignature"


@dataclasses.dataclass(frozen=True)
class GenParams:
    """Tunable knobs for one generated specification.

    ``n_channels`` adds independent top-level ``chan{i}`` variables with
    their own *channel* actions.  An *uncoupled* channel action touches
    only its channel, so the planted invariant (which reads ``locals``
    and ``glob``) is skipped on its successors; a *coupled* one
    (probability ``couple_p``) also reads and writes ``glob``.  The
    defaults generate no channels, so existing seeds keep their exact
    historical state spaces.
    """

    n_nodes: int = 3
    local_states: int = 3
    global_states: int = 3
    n_local_actions: int = 2
    n_pair_actions: int = 1
    n_global_actions: int = 1
    branching: int = 2
    enable_p: float = 0.55
    symmetric: bool = True
    plant_violation: bool = True
    n_channels: int = 0
    channel_states: int = 2
    n_channel_actions: int = 0
    couple_p: float = 0.25

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "GenParams":
        return cls(**raw)


@dataclasses.dataclass(frozen=True)
class PlantedViolation:
    """The planted state invariant and its ground-truth minimal depth."""

    signature: Tuple[Tuple[int, ...], int]
    depth: int
    invariant: str = PLANTED_INVARIANT


def signature(state: Rec) -> Tuple[Tuple[int, ...], int]:
    """The node-symmetric signature of a generated-spec state.

    ``(sorted local values, global value)`` is invariant under any
    permutation of node identities, so predicates over it are sound
    invariants for symmetry-reduced exploration.
    """
    return (tuple(sorted(state["locals"].values())), state["glob"])


class RandomSpec(Spec):
    """A table-driven state machine produced by :func:`generate_spec`."""

    name = "testkit-random"

    def __init__(
        self,
        params: GenParams,
        local_tables: List[dict],
        pair_tables: List[dict],
        global_tables: List[dict],
        planted: Optional[PlantedViolation] = None,
        channel_tables: Optional[List[tuple]] = None,
    ):
        self.params = params
        self.nodes = tuple(f"n{i}" for i in range(1, params.n_nodes + 1))
        self.local_tables = local_tables
        self.pair_tables = pair_tables
        self.global_tables = global_tables
        #: (channel index, coupled, table) triples — see :class:`GenParams`.
        self.channel_tables = channel_tables or []
        self.planted = planted
        self._action_list = self._build_actions()

    # -- the state machine ---------------------------------------------------

    def init_states(self) -> Iterable[Rec]:
        state = {"locals": Rec({node: 0 for node in self.nodes}), "glob": 0}
        for index in range(self.params.n_channels):
            state[f"chan{index}"] = 0
        yield Rec(state)

    def actions(self):
        return self._action_list

    def _build_actions(self) -> List[Action]:
        actions: List[Action] = []
        for index, table in enumerate(self.local_tables):
            fn = self._local_fn(table)
            actions.append(Action(f"Local{index}", fn, kind="internal"))
        for index, table in enumerate(self.pair_tables):
            fn = self._pair_fn(table)
            actions.append(Action(f"Pair{index}", fn, kind="message"))
        for index, table in enumerate(self.global_tables):
            fn = self._global_fn(table)
            actions.append(Action(f"Global{index}", fn, kind="client"))
        for index, (channel, coupled, table) in enumerate(self.channel_tables):
            fn = self._channel_fn(f"chan{channel}", coupled, table)
            actions.append(Action(f"Chan{index}", fn, kind="internal"))
        return actions

    def _local_fn(self, table: dict):
        nodes = self.nodes

        def fn(state: Rec):
            locals_ = state["locals"]
            glob = state["glob"]
            for node in nodes:
                options = table.get((locals_[node], glob), ())
                for branch, (new_local, new_glob) in enumerate(options):
                    yield (
                        (node,),
                        state.update(
                            locals=locals_.set(node, new_local), glob=new_glob
                        ),
                        f"b{branch}",
                    )

        return fn

    def _pair_fn(self, table: dict):
        nodes = self.nodes

        def fn(state: Rec):
            locals_ = state["locals"]
            glob = state["glob"]
            for src in nodes:
                for dst in nodes:
                    if src == dst:
                        continue
                    options = table.get((locals_[src], locals_[dst], glob), ())
                    for branch, (new_dst, new_glob) in enumerate(options):
                        yield (
                            (src, dst),
                            state.update(
                                locals=locals_.set(dst, new_dst), glob=new_glob
                            ),
                            f"b{branch}",
                        )

        return fn

    def _global_fn(self, table: dict):
        def fn(state: Rec):
            options = table.get(state["glob"], ())
            for branch, new_glob in enumerate(options):
                yield ((), state.set("glob", new_glob), f"b{branch}")

        return fn

    def _channel_fn(self, key: str, coupled: bool, table: dict):
        if coupled:

            def fn(state: Rec):
                options = table.get((state[key], state["glob"]), ())
                for branch, (new_chan, new_glob) in enumerate(options):
                    yield (
                        (),
                        state.update({key: new_chan, "glob": new_glob}),
                        f"b{branch}",
                    )

        else:

            def fn(state: Rec):
                options = table.get(state[key], ())
                for branch, new_chan in enumerate(options):
                    yield ((), state.set(key, new_chan), f"b{branch}")

        return fn

    # -- properties ----------------------------------------------------------

    def invariants(self):
        if self.planted is None:
            return ()
        bad_sig = self.planted.signature

        def no_planted_signature(state: Rec) -> bool:
            return signature(state) != bad_sig

        # The signature reads exactly these variables; declaring them
        # lets the checker skip the invariant on channel-only successors
        # and answer it from the verdict memo.
        return (
            Invariant(
                self.planted.invariant,
                no_planted_signature,
                reads=("locals", "glob"),
            ),
        )

    def symmetry_sets(self):
        return (self.nodes,) if self.params.symmetric else ()


@dataclasses.dataclass
class GeneratedSpec:
    """One generated fuzz input: seed, params, tables, and ground truth.

    ``planted`` is ``None`` when no violation could be planted (the
    reachable space has a single depth level); callers skip the
    violation phase for such specs.
    """

    seed: str
    params: GenParams
    local_tables: List[dict]
    pair_tables: List[dict]
    global_tables: List[dict]
    planted: Optional[PlantedViolation]
    channel_tables: List[tuple] = dataclasses.field(default_factory=list)

    def spec(self, invariants: bool = True) -> RandomSpec:
        """Instantiate the spec, with or without the planted invariant."""
        return RandomSpec(
            self.params,
            self.local_tables,
            self.pair_tables,
            self.global_tables,
            planted=self.planted if invariants else None,
            channel_tables=self.channel_tables,
        )

    @property
    def symmetric(self) -> bool:
        return self.params.symmetric and self.params.n_nodes > 1


def _draw_options(rng: random.Random, params: GenParams, draw_one) -> tuple:
    """Zero or more distinct update options for one table cell."""
    if rng.random() >= params.enable_p:
        return ()
    count = rng.randint(1, params.branching)
    options = []
    for _ in range(count):
        option = draw_one()
        if option not in options:
            options.append(option)
    return tuple(options)


def _draw_tables(rng: random.Random, params: GenParams):
    L, G = params.local_states, params.global_states

    def local_update():
        return (rng.randrange(L), rng.randrange(G))

    def global_update():
        return rng.randrange(G)

    local_tables = []
    for _ in range(params.n_local_actions):
        table = {}
        for local in range(L):
            for glob in range(G):
                options = _draw_options(rng, params, local_update)
                if options:
                    table[(local, glob)] = options
        local_tables.append(table)

    pair_tables = []
    for _ in range(params.n_pair_actions):
        table = {}
        for src in range(L):
            for dst in range(L):
                for glob in range(G):
                    options = _draw_options(rng, params, local_update)
                    if options:
                        table[(src, dst, glob)] = options
        pair_tables.append(table)

    global_tables = []
    for _ in range(params.n_global_actions):
        table = {}
        for glob in range(G):
            options = _draw_options(rng, params, global_update)
            if options:
                table[glob] = options
        global_tables.append(table)

    # Channel draws come strictly after the historical ones, and only
    # when channels are enabled — existing (seed, params) pairs keep
    # their byte-identical tables.
    channel_tables = []
    if params.n_channels > 0 and params.n_channel_actions > 0:
        C = params.channel_states

        def channel_update():
            return rng.randrange(C)

        def coupled_update():
            return (rng.randrange(C), rng.randrange(G))

        for _ in range(params.n_channel_actions):
            channel = rng.randrange(params.n_channels)
            coupled = rng.random() < params.couple_p
            table = {}
            if coupled:
                for chan in range(C):
                    for glob in range(G):
                        options = _draw_options(rng, params, coupled_update)
                        if options:
                            table[(chan, glob)] = options
            else:
                for chan in range(C):
                    options = _draw_options(rng, params, channel_update)
                    if options:
                        table[chan] = options
            channel_tables.append((channel, coupled, table))

    return local_tables, pair_tables, global_tables, channel_tables


def generate_spec(seed: Any, params: Optional[GenParams] = None) -> GeneratedSpec:
    """Generate one random spec (and plant its violation) from ``seed``.

    Deterministic: the same ``(seed, params)`` always produces the same
    tables and the same planted signature, independent of process,
    platform, and hash seed.
    """
    params = params or GenParams()
    rng = random.Random(str(seed))
    local_tables, pair_tables, global_tables, channel_tables = _draw_tables(
        rng, params
    )
    generated = GeneratedSpec(
        seed=str(seed),
        params=params,
        local_tables=local_tables,
        pair_tables=pair_tables,
        global_tables=global_tables,
        planted=None,
        channel_tables=channel_tables,
    )
    if params.plant_violation:
        generated.planted = _plant_violation(rng, generated)
    return generated


def _plant_violation(
    rng: random.Random, generated: GeneratedSpec
) -> Optional[PlantedViolation]:
    """Pick a reachable signature at depth >= 1 and record its depth.

    The minimal depth comes from the oracle's census of the invariant-free
    spec: the planted signature's depth is the minimum BFS depth of any
    state carrying it, which is exactly the depth every engine
    configuration must report for the counterexample.
    """
    from .oracle import oracle_explore  # deferred: oracle imports nothing of ours

    census = oracle_explore(generated.spec(invariants=False))
    by_signature: Dict[Tuple[Tuple[int, ...], int], int] = {}
    for state, depth in census.depths.items():
        sig = signature(state)
        if depth < by_signature.get(sig, depth + 1):
            by_signature[sig] = depth
    eligible = [(sig, depth) for sig, depth in by_signature.items() if depth >= 1]
    if not eligible:
        return None
    # Prefer deeper plants: a violation several levels down exercises
    # trace reconstruction and level synchrony harder than a depth-1 one.
    max_depth = max(depth for _, depth in eligible)
    threshold = max(1, max_depth - 1)
    deep = [item for item in eligible if item[1] >= threshold]
    sig, depth = deep[rng.randrange(len(deep))]
    return PlantedViolation(signature=sig, depth=depth)


def sample_params(rng: random.Random) -> GenParams:
    """Draw one parameter point for a fuzzing sweep.

    Bounded so the largest reachable space stays in the low hundreds of
    states: big enough to exercise dedup/sharding/spills, small enough
    that a full engine matrix per spec stays fast.
    """
    n_nodes = rng.choice((2, 2, 3, 3))
    local_states = rng.choice((2, 3)) if n_nodes == 3 else rng.choice((2, 3, 4))
    global_states = rng.choice((2, 3, 4))
    n_local_actions = rng.choice((1, 2, 3))
    n_pair_actions = rng.choice((0, 1, 1, 2))
    n_global_actions = rng.choice((0, 1))
    branching = rng.choice((1, 2, 2, 3))
    enable_p = rng.choice((0.4, 0.5, 0.6, 0.7))
    symmetric = rng.random() < 0.85
    # Channel draws are appended after the historical ones so the same
    # sweep seed keeps every pre-channel parameter unchanged.
    n_channels = rng.choice((0, 0, 1, 2))
    n_channel_actions = rng.choice((1, 2)) if n_channels else 0
    channel_states = rng.choice((2, 3)) if n_channels else 2
    couple_p = rng.choice((0.0, 0.25, 0.5)) if n_channels else 0.25
    return GenParams(
        n_nodes=n_nodes,
        local_states=local_states,
        global_states=global_states,
        n_local_actions=n_local_actions,
        n_pair_actions=n_pair_actions,
        n_global_actions=n_global_actions,
        branching=branching,
        enable_p=enable_p,
        symmetric=symmetric,
        plant_violation=True,
        n_channels=n_channels,
        channel_states=channel_states,
        n_channel_actions=n_channel_actions,
        couple_p=couple_p,
    )
