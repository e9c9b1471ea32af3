"""The temporal fuzzer: grade lasso detection against a planted oracle.

A liveness verdict is even easier to get silently wrong than a safety
one — a fair-cycle finder that misses cycles reports "holds" forever,
one that ignores fairness reports phantom lassos.  So the lasso engine
(:mod:`repro.temporal`) gets the differential treatment: seeded random
specs (:mod:`~repro.testkit.genspec`), temporal properties *planted*
over their signature census with oracle-known ground truth, and exact
grading across the engine matrix.

* :func:`plant_temporal_properties` draws ◇ / □◇ / ⤳ properties whose
  predicates target state signatures observed in the naive census —
  deep targets for ◇ (a long prefix to grade), initial-signature
  escapes, random ⤳ source/goal pairs — each optionally under randomly
  drawn weak-fairness declarations, all reconstructible from a pure-JSON
  descriptor (:func:`property_from_descriptor`);
* the ground truth comes from :func:`~repro.testkit.oracle.oracle_check_temporal`
  — mutual-reachability SCCs over the concrete state graph, no
  fingerprints, no Tarjan — which pins the verdict *and* the minimal
  prefix length;
* :func:`run_temporal_fuzz` grades every cell — serial in-memory,
  DiskStore written then reopened read-only
  (:class:`~repro.persist.DiskStoreReader`), symmetry reduction when the
  spec is symmetric, and a durable parallel run reloaded from its worker
  checkpoints — demanding the oracle verdict, the oracle prefix length,
  a lasso that independently revalidates
  (:func:`~repro.testkit.oracle.oracle_validate_lasso`), byte-stable
  JSON round-trips, and byte-identical lassos across stores.  A
  fingerprint-only store must refuse with
  :class:`~repro.core.engine.TracelessStoreError`.  Any disagreement
  lands as a replayable JSON artifact
  (:func:`replay_temporal_artifact`).  Everything derives from the sweep
  seed — the same seed replays the identical matrix.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.engine import CompactStore, FingerprintOnlyStore, TracelessStoreError
from ..core.explorer import BFSExplorer
from ..core.spec import Spec, WeakFairness
from ..persist import (
    DiskStore,
    DiskStoreReader,
    RunDir,
    atomic_write_json,
    load_graph_stores,
    read_json,
)
from ..persist.runner import run_check
from ..temporal import LassoTrace, check_graph, materialize_graph
from ..temporal.properties import (
    TemporalProperty,
    always_eventually,
    eventually,
    leads_to,
)
from .genspec import GeneratedSpec, GenParams, generate_spec, sample_params, signature
from .oracle import (
    OracleTemporalGraph,
    OracleTemporalVerdict,
    oracle_check_temporal,
    oracle_temporal_graph,
    oracle_validate_lasso,
)

__all__ = [
    "TEMPORAL_ARTIFACT_KIND",
    "PlantedProperty",
    "TemporalFuzzFailure",
    "TemporalFuzzReport",
    "plant_temporal_properties",
    "property_from_descriptor",
    "replay_temporal_artifact",
    "run_temporal_fuzz",
]

TEMPORAL_ARTIFACT_KIND = "testkit-temporal-disagreement"

#: Specs whose census exceeds this are skipped: the quadratic
#: mutual-reachability oracle is the point (simple enough to audit), and
#: the parameter sweep produces plenty of specs under the cap.
_STATE_CAP = 1500

#: Same spill pressure the differential matrix uses: a tiny memory
#: budget forces the disk store through its segment machinery even on
#: small generated specs.
_MEMORY_BUDGET = 16


# ---------------------------------------------------------------------------
# property planting
# ---------------------------------------------------------------------------


def _sig_key(sig: Any) -> Tuple:
    """Canonical comparable form of a signature (tuples or JSON lists)."""
    return (tuple(sig[0]), sig[1])


def _sig_json(sig: Any) -> List:
    return [list(sig[0]), sig[1]]


@dataclasses.dataclass
class PlantedProperty:
    """One planted property: the live object plus its JSON descriptor."""

    descriptor: Dict[str, Any]
    prop: TemporalProperty

    @property
    def name(self) -> str:
        return self.prop.name


def property_from_descriptor(descriptor: Dict[str, Any]) -> TemporalProperty:
    """Rebuild a planted property from its pure-JSON descriptor."""
    kind = descriptor["kind"]
    name = descriptor["name"]
    fairness = tuple(
        WeakFairness.of(f"wf{i}", *actions)
        for i, actions in enumerate(descriptor.get("fairness") or ())
    )
    if kind == "leads_to":
        source = _sig_key(descriptor["source"])
        goal = _sig_key(descriptor["goal"])
        return leads_to(
            lambda state: _sig_key(signature(state)) == source,
            lambda state: _sig_key(signature(state)) == goal,
            name=name,
            fairness=fairness,
        )
    target = _sig_key(descriptor["target"])
    negate = bool(descriptor.get("negate"))
    factory = eventually if kind == "eventually" else always_eventually

    def predicate(state):
        return (_sig_key(signature(state)) == target) != negate

    return factory(predicate, name=name, fairness=fairness)


def _draw_fairness(
    rng: random.Random, action_names: Sequence[str]
) -> List[List[str]]:
    """Zero, one, or two weak-fairness sets over random spec actions."""
    if not action_names or rng.random() < 0.5:
        return []
    sets: List[List[str]] = []
    for _ in range(rng.randrange(1, 3)):
        k = rng.randrange(1, min(3, len(action_names)) + 1)
        sets.append(sorted(rng.sample(list(action_names), k)))
    return sets


def plant_temporal_properties(
    generated: GeneratedSpec,
    graph: OracleTemporalGraph,
    rng: random.Random,
) -> List[PlantedProperty]:
    """Plant one property per kind over the spec's signature census.

    Targets are signatures the census actually reaches, with the ◇
    target drawn from the deepest quartile so a violation carries a
    non-trivial minimal prefix to grade.  The rng draws are a fixed
    sequence per property, so the same sweep seed plants the same
    properties.
    """
    spec = generated.spec(invariants=False)
    action_names = sorted(action.name for action in spec.actions())
    sig_depth: Dict[Tuple, int] = {}
    sig_repr: Dict[Tuple, List] = {}
    for state, depth in zip(graph.states, graph.depths):
        key = _sig_key(signature(state))
        if key not in sig_depth or depth < sig_depth[key]:
            sig_depth[key] = depth
        sig_repr.setdefault(key, _sig_json(signature(state)))
    by_depth = sorted(sig_depth, key=lambda key: (sig_depth[key], key))
    init_sig = _sig_key(signature(graph.states[graph.inits[0]]))

    def pick(keys: Sequence[Tuple]) -> List:
        return sig_repr[keys[rng.randrange(len(keys))]]

    planted: List[PlantedProperty] = []

    # ◇(sig == T): T from the deepest quartile of the census.
    deep = by_depth[max(0, len(by_depth) - max(1, len(by_depth) // 4)):]
    planted.append(
        {
            "kind": "eventually",
            "name": "ev-target",
            "target": pick(deep),
            "negate": False,
            "fairness": _draw_fairness(rng, action_names),
        }
    )
    # ◇(sig != init): does every fair behavior escape the initial signature?
    planted.append(
        {
            "kind": "eventually",
            "name": "ev-escape-init",
            "target": sig_repr[init_sig],
            "negate": True,
            "fairness": _draw_fairness(rng, action_names),
        }
    )
    # □◇(sig == T): T anywhere in the census.
    planted.append(
        {
            "kind": "always_eventually",
            "name": "ae-target",
            "target": pick(by_depth),
            "negate": False,
            "fairness": _draw_fairness(rng, action_names),
        }
    )
    # (sig == A) ⤳ (sig == B), A and B distinct where possible.
    source = pick(by_depth)
    goal = pick(by_depth)
    if len(by_depth) > 1:
        while _sig_key(goal) == _sig_key(source):
            goal = pick(by_depth)
    planted.append(
        {
            "kind": "leads_to",
            "name": "lt-pair",
            "source": source,
            "goal": goal,
            "fairness": _draw_fairness(rng, action_names),
        }
    )
    return [
        PlantedProperty(descriptor, property_from_descriptor(descriptor))
        for descriptor in planted
    ]


# ---------------------------------------------------------------------------
# engine cells
# ---------------------------------------------------------------------------

#: Cell names in grading order (symmetry/workers are conditional).
CELLS = ("serial", "disk", "symmetry", "workers")


def _explore_graph(spec: Spec, store, symmetry: bool = False):
    BFSExplorer(
        spec, store=store, symmetry=symmetry, stop_on_violation=False
    ).run()
    return materialize_graph(spec, store, symmetry=symmetry)


def _cell_graph(generated: GeneratedSpec, cell: str):
    """One exhaustive census through the named engine configuration."""
    spec = generated.spec(invariants=False)
    if cell == "serial":
        return _explore_graph(spec, CompactStore()), spec
    if cell == "symmetry":
        return _explore_graph(spec, CompactStore(), symmetry=True), spec
    if cell == "disk":
        with tempfile.TemporaryDirectory(prefix="sandtable-temporal-") as tmp:
            path = os.path.join(tmp, "store")
            store = DiskStore(path, memory_budget=_MEMORY_BUDGET)
            try:
                BFSExplorer(spec, store=store, stop_on_violation=False).run()
            finally:
                store.close()
            # The post-hoc seam under test: reopen the finished store
            # read-only and materialize from its logs.
            return materialize_graph(spec, DiskStoreReader(path)), spec
    if cell == "workers":
        with tempfile.TemporaryDirectory(prefix="sandtable-temporal-") as tmp:
            run_dir = os.path.join(tmp, "run")
            # The post-hoc seam under test: a finished parallel run's
            # last generation holds its complete census.
            run_check(
                spec,
                run_dir,
                workers=2,
                stop_on_violation=False,
                memory_budget=_MEMORY_BUDGET,
            )
            stores, _ = load_graph_stores(RunDir.open(run_dir))
            return materialize_graph(spec, stores), spec
    raise ValueError(f"unknown temporal fuzz cell {cell!r}")


# ---------------------------------------------------------------------------
# the grading sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TemporalFuzzFailure:
    """One graded cell whose result disagreed with the temporal oracle."""

    spec_seed: str
    params: GenParams
    prop: Optional[Dict[str, Any]]  # descriptor; None for per-spec cells
    cell: str
    message: str

    def describe(self) -> str:
        name = self.prop["name"] if self.prop else "-"
        return f"{self.spec_seed} {name} [{self.cell}]: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": TEMPORAL_ARTIFACT_KIND,
            "spec_seed": self.spec_seed,
            "params": self.params.to_dict(),
            "property": self.prop,
            "cell": self.cell,
            "message": self.message,
        }


@dataclasses.dataclass
class TemporalFuzzReport:
    """The sweep outcome: graded cells, ground-truth mix, and failures."""

    specs: int
    seed: str
    cells: Dict[str, int]
    skipped: Dict[str, int]
    violated: int
    holds: int
    failures: List[TemporalFuzzFailure]
    artifacts: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def graded(self) -> int:
        return sum(self.cells.values())

    def describe(self) -> str:
        lines = [
            f"temporal fuzz: {self.specs} specs (seed {self.seed!r}),"
            f" {self.graded} cells graded"
            f" ({self.violated} violated / {self.holds} holding truths),"
            f" {sum(self.skipped.values())} skipped,"
            f" {len(self.failures)} failures"
        ]
        for cell in sorted(self.cells):
            skip = self.skipped.get(cell, 0)
            lines.append(
                f"  {cell:<10} {self.cells[cell]:>4} graded"
                + (f" ({skip} skipped)" if skip else "")
            )
        for failure in self.failures[:20]:
            lines.append(f"  FAIL {failure.describe()}")
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


def _grade_property(
    spec: Spec,
    cell: str,
    graph,
    prop: TemporalProperty,
    truth: OracleTemporalVerdict,
) -> Tuple[Optional[str], Optional[str]]:
    """Check one property on one cell graph: (failure message, lasso JSON)."""
    result = check_graph(graph, prop)
    if result.holds == truth.violated:
        engine = "holds" if result.holds else "violated"
        oracle = "violated" if truth.violated else "holds"
        return f"engine says {engine}, oracle says {oracle}", None
    if result.lasso is None:
        return None, None
    lasso = result.lasso
    if lasso.prefix_length != truth.min_prefix:
        return (
            f"prefix length {lasso.prefix_length},"
            f" oracle minimum is {truth.min_prefix}",
            None,
        )
    defect = oracle_validate_lasso(spec, prop, lasso, symmetric=cell == "symmetry")
    if defect is not None:
        return f"lasso invalid: {defect}", None
    text = lasso.to_json()
    if LassoTrace.from_json(text).to_json() != text:
        return "lasso JSON round-trip is not byte-stable", None
    return None, text


def run_temporal_fuzz(
    n_specs: int = 25,
    seed: str = "0",
    out_dir: Optional[os.PathLike] = None,
    serial_only: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> TemporalFuzzReport:
    """Grade the lasso engine over ``n_specs`` generated specs.

    Per spec: four planted properties (◇ target, ◇ init-escape, □◇, ⤳)
    graded through every cell — serial, disk-reopened, symmetry (when
    the spec is symmetric), parallel-from-worker-checkpoints (unless
    ``serial_only`` or fork is unavailable) — plus one traceless-store
    rejection cell.  Zero tolerance: any verdict, prefix-length, lasso
    validity, or byte-stability disagreement is a failure, written as a
    replayable artifact when ``out_dir`` is given.
    """
    cells: Dict[str, int] = {}
    skipped: Dict[str, int] = {}
    failures: List[TemporalFuzzFailure] = []
    artifacts: List[str] = []
    violated = holds = 0
    workers_possible = (
        not serial_only and "fork" in multiprocessing.get_all_start_methods()
    )

    def fail(
        spec_seed: str,
        params: GenParams,
        prop: Optional[Dict[str, Any]],
        cell: str,
        message: str,
    ) -> None:
        failure = TemporalFuzzFailure(spec_seed, params, prop, cell, message)
        failures.append(failure)
        if out_dir is not None:
            artifacts.append(_save_artifact(out_dir, failure))

    for index in range(n_specs):
        spec_seed = f"{seed}-temporal-{index}"
        params = sample_params(random.Random(f"{seed}-tparams-{index}"))
        generated = generate_spec(spec_seed, params)
        spec = generated.spec(invariants=False)
        if progress is not None:
            progress(f"[{index + 1}/{n_specs}] {spec_seed}")

        oracle_graph = oracle_temporal_graph(spec)
        if len(oracle_graph.states) > _STATE_CAP:
            skipped["oversize"] = skipped.get("oversize", 0) + 1
            continue
        rng = random.Random(f"{seed}:temporal:{index}")
        planted = plant_temporal_properties(generated, oracle_graph, rng)
        truths = {
            item.name: oracle_check_temporal(spec, item.prop, oracle_graph)
            for item in planted
        }
        for truth in truths.values():
            if truth.violated:
                violated += 1
            else:
                holds += 1

        # -- traceless: the fingerprint-only store must refuse ----------
        cells["traceless"] = cells.get("traceless", 0) + 1
        try:
            materialize_graph(spec, FingerprintOnlyStore())
            fail(
                spec_seed,
                params,
                None,
                "traceless",
                "materialize_graph accepted a fingerprint-only store",
            )
        except TracelessStoreError:
            pass

        active = ["serial", "disk"]
        if generated.symmetric:
            active.append("symmetry")
        if workers_possible:
            active.append("workers")
        reference_json: Dict[str, str] = {}  # property -> serial lasso bytes
        for cell in active:
            graph, cell_spec = _cell_graph(generated, cell)
            if graph.unreached:
                fail(
                    spec_seed,
                    params,
                    None,
                    cell,
                    f"{graph.unreached} stored states unreachable in replay",
                )
                continue
            if graph.boundary_edges:
                fail(
                    spec_seed,
                    params,
                    None,
                    cell,
                    f"{graph.boundary_edges} boundary edges on an exhaustive run",
                )
                continue
            if cell != "symmetry" and len(graph) != len(oracle_graph.states):
                fail(
                    spec_seed,
                    params,
                    None,
                    cell,
                    f"census {len(graph)} states, oracle has"
                    f" {len(oracle_graph.states)}",
                )
                continue
            for item in planted:
                cells[cell] = cells.get(cell, 0) + 1
                message, lasso_json = _grade_property(
                    cell_spec, cell, graph, item.prop, truths[item.name]
                )
                if message is not None:
                    fail(spec_seed, params, item.descriptor, cell, message)
                    continue
                if lasso_json is None:
                    continue
                # Symmetry picks orbit representatives, so its concrete
                # lasso may legitimately differ; every other cell must
                # emit byte-identical JSON.
                if cell == "symmetry":
                    continue
                if item.name not in reference_json:
                    reference_json[item.name] = lasso_json
                elif reference_json[item.name] != lasso_json:
                    fail(
                        spec_seed,
                        params,
                        item.descriptor,
                        cell,
                        "lasso JSON differs from the serial cell's",
                    )

    return TemporalFuzzReport(
        specs=n_specs,
        seed=seed,
        cells=cells,
        skipped=skipped,
        violated=violated,
        holds=holds,
        failures=failures,
        artifacts=artifacts,
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _save_artifact(out_dir: os.PathLike, failure: TemporalFuzzFailure) -> str:
    os.makedirs(out_dir, exist_ok=True)
    name = failure.prop["name"] if failure.prop else "spec"
    path = os.path.join(
        os.fspath(out_dir),
        f"temporal-{failure.spec_seed.replace(':', '_')}-{failure.cell}-{name}.json",
    )
    atomic_write_json(path, failure.to_dict())
    return path


def replay_temporal_artifact(path: os.PathLike) -> Dict[str, Any]:
    """Regenerate a temporal disagreement's spec and re-run its cell.

    Returns the fresh comparison: the oracle verdict, the engine
    verdict, and (when a lasso was found) its prefix length and
    validation defect — everything needed to see whether the
    disagreement still reproduces.
    """
    raw = read_json(path)
    if raw.get("kind") != TEMPORAL_ARTIFACT_KIND:
        raise ValueError(
            f"{os.fspath(path)} is not a {TEMPORAL_ARTIFACT_KIND} artifact"
        )
    params = GenParams.from_dict(raw["params"])
    generated = generate_spec(raw["spec_seed"], params)
    spec = generated.spec(invariants=False)
    cell = raw["cell"]
    if cell == "traceless":
        try:
            materialize_graph(spec, FingerprintOnlyStore())
            refused = False
        except TracelessStoreError:
            refused = True
        return {"cell": cell, "traceless_refused": refused}
    descriptor = raw.get("property")
    graph, cell_spec = _cell_graph(
        generated, cell if cell in CELLS else "serial"
    )
    out: Dict[str, Any] = {
        "cell": cell,
        "graph_states": len(graph),
        "unreached": graph.unreached,
        "boundary_edges": graph.boundary_edges,
    }
    if descriptor is not None:
        prop = property_from_descriptor(descriptor)
        truth = oracle_check_temporal(spec, prop)
        result = check_graph(graph, prop)
        out.update(
            oracle_violated=truth.violated,
            oracle_min_prefix=truth.min_prefix,
            engine_violated=not result.holds,
            prefix_length=(
                result.lasso.prefix_length if result.lasso is not None else None
            ),
            lasso_defect=(
                oracle_validate_lasso(
                    cell_spec, prop, result.lasso, symmetric=cell == "symmetry"
                )
                if result.lasso is not None
                else None
            ),
        )
    return out
