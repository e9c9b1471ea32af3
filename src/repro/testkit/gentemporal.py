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
  spec is symmetric, and a durable parallel run read back through
  :func:`~repro.temporal.check_run_dir`, the one liveness path —
  demanding the oracle verdict, the oracle prefix length, a lasso that
  independently revalidates
  (:func:`~repro.testkit.oracle.oracle_validate_lasso`), byte-stable
  JSON round-trips, and byte-identical lassos across stores.  A
  fingerprint-only store must refuse with
  :class:`~repro.core.engine.TracelessStoreError`.  Any disagreement is
  a :class:`TemporalFuzzFailure` whose artifact
  :func:`~repro.testkit.report.replay_artifact` re-runs.  Everything
  derives from the sweep seed — the same seed replays the identical
  matrix.
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
from ..persist import DiskStore, DiskStoreReader, RunDir
from ..persist.runner import run_check
from ..temporal import LassoTrace, check_graph, check_run_dir, materialize_graph
from ..temporal.properties import (
    TemporalProperty,
    always_eventually,
    eventually,
    leads_to,
)
from .genspec import GeneratedSpec, generate_spec, sample_params, signature
from .oracle import (
    OracleTemporalGraph,
    OracleTemporalVerdict,
    oracle_check_temporal,
    oracle_temporal_graph,
    oracle_validate_lasso,
)
from .report import Finding, SelftestReport

__all__ = [
    "PlantedProperty",
    "TemporalFuzzFailure",
    "plant_temporal_properties",
    "property_from_descriptor",
    "run_temporal_fuzz",
]

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
            # The liveness path `check --temporal` and `check-liveness`
            # ship: a finished parallel run's last generation holds its
            # complete census, read back through check_run_dir.
            run_check(
                spec,
                run_dir,
                workers=2,
                stop_on_violation=False,
                memory_budget=_MEMORY_BUDGET,
            )
            graph, _, _ = check_run_dir(spec, RunDir.open(run_dir), ())
            return graph, spec
    raise ValueError(f"unknown temporal fuzz cell {cell!r}")


# ---------------------------------------------------------------------------
# the grading sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TemporalFuzzFailure(Finding):
    """One graded cell whose result disagreed with the temporal oracle."""

    kind = "testkit-temporal-disagreement"
    CELLS = ("traceless", *CELLS)

    prop: Optional[Dict[str, Any]]  # descriptor; None for per-spec cells
    message: str

    def detail(self) -> str:
        return f"{self.prop['name'] if self.prop else '-'}: {self.message}"

    @classmethod
    def _decode(cls, fields: Dict[str, Any]) -> Dict[str, Any]:
        if fields["prop"] is not None:
            property_from_descriptor(fields["prop"])  # a malformed one raises here
        return fields

    def replay(self, raw: Dict[str, Any]) -> List[Finding]:
        generated = generate_spec(self.spec_seed, self.params)
        planted = []
        if self.prop is not None:
            planted = [PlantedProperty(self.prop, property_from_descriptor(self.prop))]
        # The serial cell runs first, as in the sweep: its lassos are the
        # bytes every later cell must reproduce.
        cells = dict.fromkeys(("serial", self.cell) if self.prop else (self.cell,))
        oracle_graph = oracle_temporal_graph(generated.spec(invariants=False))
        report = SelftestReport("temporal fuzz", self.spec_seed, 1)
        _grade_spec(generated, oracle_graph, planted, list(cells), report)
        return [item for item in report.findings if item.cell == self.cell]


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


def _grade_spec(
    generated: GeneratedSpec,
    oracle_graph: OracleTemporalGraph,
    planted: Sequence[PlantedProperty],
    cells: Sequence[str],
    report: SelftestReport,
    out_dir: Optional[os.PathLike] = None,
) -> None:
    """Grade every planted property of one spec through each of ``cells``."""
    spec = generated.spec(invariants=False)
    truths = {
        item.name: oracle_check_temporal(spec, item.prop, oracle_graph)
        for item in planted
    }
    for truth in truths.values():
        if truth.violated:
            report.violated += 1
        else:
            report.holds += 1
    reference_json: Dict[str, str] = {}  # property -> first cell's lasso bytes

    def fail(cell: str, prop: Optional[Dict[str, Any]], message: str) -> None:
        seed, params = generated.seed, generated.params
        report.add(TemporalFuzzFailure(seed, params, cell, prop, message), out_dir)

    for cell in cells:
        if cell == "traceless":
            # The fingerprint-only store must refuse to materialize a graph.
            report.grade(cell)
            try:
                materialize_graph(spec, FingerprintOnlyStore())
                fail(cell, None, "materialize_graph accepted a fingerprint-only store")
            except TracelessStoreError:
                pass
            continue
        graph, cell_spec = _cell_graph(generated, cell)
        if graph.unreached:
            fail(cell, None, f"{graph.unreached} stored states unreachable in replay")
            continue
        if graph.boundary_edges:
            edges = graph.boundary_edges
            fail(cell, None, f"{edges} boundary edges on an exhaustive run")
            continue
        if cell != "symmetry" and len(graph) != len(oracle_graph.states):
            states = len(oracle_graph.states)
            fail(cell, None, f"census {len(graph)} states, oracle has {states}")
            continue
        for item in planted:
            report.grade(cell)
            message, lasso_json = _grade_property(
                cell_spec, cell, graph, item.prop, truths[item.name]
            )
            if message is not None:
                fail(cell, item.descriptor, message)
                continue
            # Symmetry picks orbit representatives, so its concrete lasso
            # may legitimately differ; every other cell must emit
            # byte-identical JSON.
            if lasso_json is None or cell == "symmetry":
                continue
            if item.name not in reference_json:
                reference_json[item.name] = lasso_json
            elif reference_json[item.name] != lasso_json:
                fail(cell, item.descriptor, "lasso JSON differs from the serial cell's")


def run_temporal_fuzz(
    n_specs: int = 25,
    seed: str = "0",
    out_dir: Optional[os.PathLike] = None,
    serial_only: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SelftestReport:
    """Grade the lasso engine over ``n_specs`` generated specs.

    Per spec: four planted properties (◇ target, ◇ init-escape, □◇, ⤳)
    graded through every cell — serial, disk-reopened, symmetry (when
    the spec is symmetric), parallel-from-worker-checkpoints (unless
    ``serial_only`` or fork is unavailable) — plus one traceless-store
    rejection cell.  Zero tolerance: any verdict, prefix-length, lasso
    validity, or byte-stability disagreement is a failure, written as a
    replayable artifact when ``out_dir`` is given.
    """
    report = SelftestReport("temporal fuzz", seed, n_specs)
    workers_possible = (
        not serial_only and "fork" in multiprocessing.get_all_start_methods()
    )
    for index in range(n_specs):
        spec_seed = f"{seed}-temporal-{index}"
        params = sample_params(random.Random(f"{seed}-tparams-{index}"))
        generated = generate_spec(spec_seed, params)
        spec = generated.spec(invariants=False)
        if progress is not None:
            progress(f"[{index + 1}/{n_specs}] {spec_seed}")

        oracle_graph = oracle_temporal_graph(spec)
        if len(oracle_graph.states) > _STATE_CAP:
            report.skip("oversize")
            continue
        rng = random.Random(f"{seed}:temporal:{index}")
        planted = plant_temporal_properties(generated, oracle_graph, rng)
        cells = ["traceless", "serial", "disk"]
        if generated.symmetric:
            cells.append("symmetry")
        if workers_possible:
            cells.append("workers")
        _grade_spec(generated, oracle_graph, planted, cells, report, out_dir)
    return report
