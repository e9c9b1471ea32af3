"""The ``sandtable`` command line: the paper's workflow from a shell.

Subcommands mirror Figure 1:

* ``bugs`` — list the Table 2 registry;
* ``check`` — specification-level model checking (BFS) for one system;
  ``--temporal NAME`` additionally runs TLC-style liveness checking over
  the explored graph: lasso (prefix + fair cycle) detection against the
  named property (:mod:`repro.temporal`), in any search mode — the
  census goes into ``--run-dir`` (or a temporary run directory) and the
  lasso search reads the graph it recorded;
* ``check-liveness`` — the same lasso search, post hoc, over a finished
  durable run's recorded graph: no re-exploration;
* ``simulate`` — random-walk exploration;
* ``conformance`` — iterative conformance checking of spec vs. impl;
* ``detect`` — run the registry-recorded detection for one bug;
* ``replay`` — detect a bug and confirm it at the implementation level;
* ``validate-trace`` — check a runtime-emitted JSONL event log against
  the spec (:mod:`repro.tracecheck`): conforms, or diverges at event k
  with near-miss evidence;
* ``selftest`` — differential fuzzing of the checker itself
  (:mod:`repro.testkit`): random specs, a naive oracle, the full engine
  configuration matrix; ``--tracecheck`` instead grades the trace
  validator against logs with planted divergences, and ``--temporal``
  grades the lasso finder against a naive fair-cycle oracle on random
  specs; every sweep prints one report, and ``--replay`` re-runs the
  failing cell of any sweep's artifact;
* ``coverage`` — the per-action coverage report of a finished run
  (from a durable run directory's ``metrics.jsonl`` or a ``--stats-out``
  file).

``check``, ``simulate`` and ``detect`` accept ``--stats``/``--stats-out``
to instrument the run (:mod:`repro.obs`): TLC-style live progress lines
on stderr, an end-of-run action-coverage report, and a JSONL metrics
sink.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Optional, Sequence

from .bugs import BUGS, detect
from .conformance import BugReplayer, ConformanceChecker, mapping_for
from .core import bfs_explore, simulate

# SPEC_CLASSES/make_spec moved to repro.dist.specref (spec references
# must resolve without importing the CLI); re-exported here unchanged.
from .dist.specref import SPEC_CLASSES, make_spec  # noqa: F401 - re-export
from .obs import (
    MetricsRegistry,
    MetricsSink,
    ProgressReporter,
    coverage_from_registry,
    coverage_from_sink,
    resolve_sink_path,
)
from .obs.metrics import CODEC_CHUNKS, SYMMETRY, SYMMETRY_GROUP_SIZE, VERDICT_MEMO
from .persist import RunDirError, load_violation, save_lasso, save_violation
from .systems import SYSTEMS
from .temporal import PROPERTY_NAMES


def _positive(kind: Callable[[str], Any], what: str, note: str = "") -> Callable[[str], Any]:
    """An argparse type: an ``int`` or ``float`` above zero, or exit 2."""
    bound = ">= 1, a positive integer" if kind is int else "> 0, a positive number"

    def parse(text: str) -> Any:
        try:
            value = kind(str(text).strip())
        except ValueError:
            value = None
        if value is None or not value > 0:  # NaN included
            raise argparse.ArgumentTypeError(f"{what} must be {bound}; got {text!r}{note}")
        return value

    return parse


_workers_value = _positive(int, "worker count", " (1 means serial)")
_nodes_value = _positive(int, "node count")
_states_value = _positive(int, "state count")
_seconds_value = _positive(float, "seconds")


def _resolve_workers(args: argparse.Namespace) -> int:
    """``--workers``, else ``SANDTABLE_WORKERS``, else 1.

    Raises :class:`WorkersError` (→ exit 2) on a malformed environment
    value; a typo must not silently run serial.
    """
    if args.workers is not None:
        return args.workers
    env = os.environ.get("SANDTABLE_WORKERS", "").strip()
    if not env:
        return 1
    try:
        return _workers_value(env)
    except argparse.ArgumentTypeError as exc:
        raise WorkersError(f"SANDTABLE_WORKERS: {exc}") from None


class WorkersError(ValueError):
    """A malformed worker-count setting (flag validation handles the flag
    itself; this covers the ``SANDTABLE_WORKERS`` environment path)."""


def _make_stats(args: argparse.Namespace):
    """``(registry, reporter)`` for ``--stats``/``--stats-out``, else Nones."""
    if not (getattr(args, "stats", False) or getattr(args, "stats_out", None)):
        return None, None
    registry = MetricsRegistry()
    return registry, ProgressReporter(registry=registry)


def _finish_stats(args: argparse.Namespace, registry, stats=None, spec=None) -> None:
    """Print the action-coverage report and write the ``--stats-out`` sink."""
    if registry is None:
        return
    print(coverage_from_registry(registry, spec).render())
    snap = registry.snapshot()
    counters = snap["counters"]
    rounds = counters.get("parallel.rounds", 0)
    if rounds:
        batch_bytes = counters.get("parallel.batch_bytes", 0)
        wire_sent = counters.get("dist.wire.bytes_sent", 0)
        wire_received = counters.get("dist.wire.bytes_received", 0)
        wait = snap["histograms"].get("parallel.round_wait_ms")
        states = sum(snap["counts"].get("parallel.shard_states", {}).values())
        line = (
            f"exchange: {rounds} rounds, {counters.get('parallel.claims', 0)} claims,"
            f" {counters.get('parallel.rebalanced_states', 0)} states rebalanced,"
            f" {batch_bytes} state bytes routed"
            f" ({batch_bytes / max(states, 1):.1f} B/state)"
        )
        if wire_sent or wire_received:
            line += f", wire {wire_sent}B out / {wire_received}B in"
        if wait and wait.get("count"):
            mean = wait["total"] / wait["count"]
            line += f", master wait mean {mean:.1f} ms max {wait['max']:.1f} ms"
        print(line)
    chunks = snap["counts"].get(CODEC_CHUNKS)
    if chunks:
        hits = chunks.get("pair_memo_hits", 0)
        lookups = hits + chunks.get("pair_memo_misses", 0)
        print(
            f"codec: fp_delta_hits {chunks.get('fp_delta_hits', 0)},"
            f" fp_full {chunks.get('fp_full', 0)},"
            f" pair memo {hits}/{lookups} hits ({hits / max(lookups, 1):.1%}),"
            f" {chunks.get('pair_memo_clears', 0)} clears"
        )
    verdicts = snap["counts"].get(VERDICT_MEMO)
    if verdicts:
        hits = verdicts.get("hits", 0)
        misses = verdicts.get("misses", 0)
        print(
            f"invariants: {misses + verdicts.get('verified', 0)} evaluated,"
            f" {hits} memo hits ({hits / max(hits + misses, 1):.1%}),"
            f" {verdicts.get('clears', 0)} clears"
        )
    sym = snap["counts"].get(SYMMETRY)
    if sym:
        memos = []
        for memo in ("orbit", "nested"):
            hits = sym.get(f"{memo}_memo_hits", 0)
            lookups = hits + sym.get(f"{memo}_memo_misses", 0)
            memos.append(
                f"{memo} memo {hits}/{lookups} hits ({hits / max(lookups, 1):.1%}),"
                f" {sym.get(f'{memo}_memo_clears', 0)} clears"
            )
        print(
            f"symmetry: |G| {snap['gauges'].get(SYMMETRY_GROUP_SIZE, 1):.0f},"
            f" {sym.get('canonical_calls', 0)} calls,"
            f" {sym.get('identity_wins', 0)} identity, " + "; ".join(memos)
        )
    if getattr(args, "stats_out", None):
        sink = MetricsSink(args.stats_out, registry, meta={"command": args.command})
        sink.close(stats=stats)
        print(f"wrote metrics to {args.stats_out}")


def cmd_bugs(args: argparse.Namespace) -> int:
    print(f"{'bug':14s} {'system':10s} {'stage':12s} {'status':6s} consequence")
    for bug in BUGS.values():
        print(
            f"{bug.bug_id:14s} {bug.system:10s} {bug.stage:12s}"
            f" {bug.status:6s} {bug.consequence}"
        )
    return 0


#: ``check`` flag combinations the checker cannot honor, as
#: ``(condition(args, workers), message)`` rows with ``workers`` the
#: resolved worker count.  The first row that applies is refused with
#: exit 2, before any work.
CHECK_CONFLICTS = (
    (
        lambda args, workers: args.temporal and args.fast,
        "--temporal needs the explored state graph, but --fast keeps"
        " a fingerprint-only store with no parent edges: drop --fast"
        " before --temporal",
    ),
    (
        lambda args, workers: args.resume and not args.run_dir,
        "--resume requires --run-dir",
    ),
    (
        lambda args, workers: (
            args.checkpoint_every is not None or args.checkpoint_states is not None
        )
        and not args.run_dir,
        "--checkpoint-every and --checkpoint-states require --run-dir"
        " (checkpoints are written into the run directory)",
    ),
)


def _refused(conflicts, *facts) -> bool:
    """Print the message of the first row of ``conflicts`` whose condition
    holds for ``facts``; return whether one did."""
    for applies, message in conflicts:
        if applies(*facts):
            print(message, file=sys.stderr)
            return True
    return False


def cmd_check(args: argparse.Namespace) -> int:
    try:
        workers = _resolve_workers(args)
    except WorkersError as exc:
        print(exc, file=sys.stderr)
        return 2
    if _refused(CHECK_CONFLICTS, args, workers):
        return 2
    from .dist.transport import TransportError

    transport = None
    if args.worker:
        # Remote socket workers: the spec travels as a reference, the
        # shard count defaults to one shard per address.
        from .dist.specref import system_ref
        from .dist.transport import SocketTransport

        if args.workers is None:
            workers = len(args.worker)
        elif workers > len(args.worker):
            print(
                f"--workers {workers} needs at least {workers} --worker"
                f" addresses, got {len(args.worker)}",
                file=sys.stderr,
            )
            return 2
        try:
            transport = SocketTransport(
                args.worker,
                system_ref(args.system, args.nodes, args.bug, args.invariant),
            )
        except TransportError as exc:
            print(exc, file=sys.stderr)
            return 2
    spec = make_spec(args.system, args.nodes, args.bug, args.invariant)
    temporal_props = []
    if args.temporal:
        from .temporal import resolve_property

        try:
            temporal_props = [
                resolve_property(spec, name) for name in dict.fromkeys(args.temporal)
            ]
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    registry, reporter = _make_stats(args)
    search = dict(
        max_states=args.max_states,
        time_budget=args.time_budget,
        symmetry=args.symmetry,
        metrics=registry,
        progress=reporter,
        workers=workers,
        transport=transport,
        fast=args.fast,
        run_dir=args.run_dir or None,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        checkpoint_states=args.checkpoint_states,
    )
    temporal_results = []
    try:
        if temporal_props:
            from .temporal import explore_and_check

            temporal_results, result = explore_and_check(spec, temporal_props, **search)
        else:
            result = bfs_explore(spec, **search)
    except (RunDirError, TransportError) as exc:
        # TransportError surfaces when transport.start() cannot reach a
        # worker agent — a usage error, not a crash.
        print(exc, file=sys.stderr)
        return 2
    print(f"explored {result.describe()}")
    if temporal_results:
        _print_coverage(temporal_results[0].graph_size, result.stats.distinct_states)
    out_taken = result.found_violation  # the safety trace wins --out
    for tres in temporal_results:
        print(tres.describe())
        if tres.lasso is not None and args.out and not out_taken:
            save_lasso(args.out, tres.lasso, tres.property.name)
            print(f"saved lasso trace to {args.out}")
            out_taken = True
    _finish_stats(args, registry, stats=result.stats, spec=spec)
    if result.found_violation:
        print(result.violation.describe())
        if args.out:
            save_violation(args.out, result.violation)
            print(f"saved violation trace to {args.out}")
        return 1
    if not all(tres.holds for tres in temporal_results):
        return 1
    print("no violation found")
    return 0


def _print_coverage(covered: int, recorded: Optional[int]) -> None:
    """Say so when the checked graph holds fewer states than the run
    explored (a parallel round cut short after its last commit)."""
    if recorded is not None and covered < recorded:
        print(
            f"graph covers {covered} of {recorded} recorded states"
            " (last committed checkpoint)"
        )


def cmd_check_liveness(args: argparse.Namespace) -> int:
    """Post-hoc lasso detection over a finished durable run's state graph."""
    from .core.engine import TracelessStoreError
    from .persist import RunDir
    from .temporal import check_run_dir, resolve_property

    try:
        rd = RunDir.open(args.run_dir)
    except RunDirError as exc:
        print(exc, file=sys.stderr)
        return 2
    spec = make_spec(args.system, args.nodes, args.bug, None)
    label = f"{type(spec).__module__}.{type(spec).__qualname__}"
    recorded = rd.manifest().get("config", {}).get("spec")
    if recorded and recorded != label:
        print(
            f"warning: the run directory records spec {recorded}; rebuilding"
            f" {label} from the flags — fingerprints will only line up if"
            " these are the same specification",
            file=sys.stderr,
        )
    names = list(dict.fromkeys(args.temporal)) if args.temporal else list(PROPERTY_NAMES)
    try:
        props = [resolve_property(spec, name) for name in names]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    registry, _ = _make_stats(args)
    try:
        graph, recorded, results = check_run_dir(spec, rd, props, metrics=registry)
    except TracelessStoreError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RunDirError as exc:
        print(
            f"{exc}\nthe run was killed before its logs were flushed, or before"
            " its first checkpoint: finish it with `sandtable check --resume`"
            " (or run it again) first",
            file=sys.stderr,
        )
        return 2
    print(
        f"materialized {len(graph)} states from {args.run_dir}"
        f" ({len(graph.roots)} roots, {graph.boundary_edges} boundary edges)"
    )
    _print_coverage(len(graph), recorded)
    for tres in results:
        print(tres.describe())
        if tres.lasso is not None:
            name = tres.property.name
            path = rd.artifact_path(f"lasso-{name}.json")
            save_lasso(path, tres.lasso, name, spec=label)
            print(f"saved lasso trace to {path}")
    _finish_stats(args, registry, spec=spec)
    return 0 if all(tres.holds for tres in results) else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = make_spec(args.system, args.nodes, args.bug, args.invariant)
    registry, _ = _make_stats(args)
    result = simulate(
        spec,
        n_walks=args.walks,
        max_depth=args.depth,
        seed=args.seed,
        stop_on_violation=True,
        time_budget=args.time_budget,
        metrics=registry,
    )
    print(
        f"{result.n_walks} walks, mean depth {result.mean_depth:.1f},"
        f" branch coverage {result.branch_coverage},"
        f" {result.mean_walk_time * 1000:.2f} ms/trace"
    )
    reasons = ", ".join(f"{k}: {v}" for k, v in sorted(result.stop_reasons.items()))
    print(f"{result.stats.describe()}, stop: {result.stop_reason} ({reasons})")
    _finish_stats(args, registry, stats=result.stats, spec=spec)
    violation = result.first_violation
    if violation is not None:
        print(violation.describe())
        return 1
    print("no violation found")
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    spec = make_spec(args.system, args.nodes, args.bug, None)
    emitter_factory = None
    if args.emit_log:
        from .tracecheck import system_emitter

        emitter_factory = lambda: system_emitter(  # noqa: E731
            args.system, spec.nodes, meta={"source": "conformance"}
        )
    checker = ConformanceChecker(
        spec,
        SYSTEMS[args.system],
        mapping_for(args.system, spec.nodes),
        impl_bugs=args.impl_bug if args.impl_bug is not None else None,
        emitter_factory=emitter_factory,
    )
    report = checker.run(
        quiet_period=args.quiet_period, max_traces=args.max_traces, seed=args.seed
    )
    if args.emit_log and checker.last_emitter is not None:
        # The last replay's log: on failure, the failing replay's —
        # exactly the execution worth validating against the spec.
        checker.last_emitter.write(args.emit_log)
        print(f"wrote event log to {args.emit_log}")
    print(f"checked {report.traces_checked} traces in {report.elapsed:.1f}s")
    if report.passed:
        print("conformance PASSED (no discrepancy within the quiet period)")
        return 0
    failure = report.failure
    print("conformance FAILED:")
    if failure.crash:
        print(f"  implementation crash: {failure.crash}")
    if failure.engine_error:
        print(f"  event not enabled: {failure.engine_error}")
    if failure.resource_leak:
        print(f"  resource leak: {failure.resource_leak}")
    for discrepancy in failure.discrepancies:
        print(f"  {discrepancy.describe()}")
    print(failure.trace.summary())
    return 1


def cmd_detect(args: argparse.Namespace) -> int:
    bug = BUGS[args.bug_id]
    registry, reporter = _make_stats(args)
    result = detect(
        bug,
        time_budget=args.time_budget,
        seed=args.seed,
        metrics=registry,
        progress=reporter,
    )
    row = result.as_row()
    print(
        f"{row['bug']}: found={row['found']} depth={row['depth']}"
        f" time={row['time_s']}s states={row['states']} walks={row['walks']}"
        f" stop={row['stop']} states/s={row['states_per_s']}"
        f" (paper: {row['paper_time']}, depth {row['paper_depth']},"
        f" {row['paper_states']} states)"
    )
    _finish_stats(args, registry, stats=result.stats)
    if result.found and args.out:
        save_violation(args.out, result.violation, bug=bug.bug_id)
        print(f"saved violation trace to {args.out}")
    return 0 if result.found else 1


def cmd_validate_trace(args: argparse.Namespace) -> int:
    from .persist.rundir import RunDir
    from .tracecheck import (
        TraceLogError,
        read_log,
        validate_log,
        write_report_artifact,
    )

    try:
        log = read_log(args.log)
    except FileNotFoundError:
        print(f"no such log file: {args.log}", file=sys.stderr)
        return 2
    except TraceLogError as exc:
        print(f"bad event log: {exc}", file=sys.stderr)
        return 2
    system = args.system or log.header.spec
    if system not in SPEC_CLASSES:
        print(
            f"unknown system {system!r} (log header says {log.header.spec!r});"
            f" pass --system with one of: {', '.join(sorted(SPEC_CLASSES))}",
            file=sys.stderr,
        )
        return 2
    nodes = args.nodes or (len(log.header.nodes) or 3)
    spec = make_spec(system, nodes, args.bug, None)
    if log.header.nodes and tuple(log.header.nodes) != tuple(spec.nodes):
        print(
            f"log was emitted by nodes {list(log.header.nodes)} but the spec"
            f" models {list(spec.nodes)}; pass a matching --nodes",
            file=sys.stderr,
        )
        return 2
    registry, _ = _make_stats(args)
    report = validate_log(
        spec,
        log,
        stutter_depth=args.stutter,
        max_frontier=args.max_frontier,
        metrics=registry,
    )
    print(report.describe())
    if args.run_dir:
        try:
            run = RunDir.create(
                args.run_dir,
                config={
                    "command": "validate-trace",
                    "system": system,
                    "nodes": nodes,
                    "log": str(args.log),
                },
            )
        except RunDirError as exc:
            print(exc, file=sys.stderr)
            return 2
        path = write_report_artifact(run, report)
        print(f"saved validation report to {path}")
    if args.out:
        from .persist.rundir import atomic_write_json

        atomic_write_json(args.out, report.to_dict())
        print(f"saved validation report to {args.out}")
    _finish_stats(args, registry, spec=spec)
    return 0 if report.conforms else 1


#: The flags that shape a sweep; ``--replay`` re-runs one recorded cell
#: and takes none of them.
_SWEEP_FLAGS = (
    "tracecheck", "temporal", "specs", "seed", "out", "serial_only", "fast", "stats_out"
)

#: ``selftest`` flag combinations the chosen sweep would silently ignore,
#: as ``(condition(args), message)`` rows, refused with exit 2 before any
#: sweep runs (the first row that applies wins).
SELFTEST_CONFLICTS = (
    (
        lambda args: args.tracecheck and args.temporal,
        "--tracecheck and --temporal are two sweeps: run them one at a time",
    ),
    (
        lambda args: args.replay
        and any(getattr(args, flag) not in (None, False) for flag in _SWEEP_FLAGS),
        "--replay re-runs the one cell its artifact records, so it takes no"
        " mode or sweep flag (--tracecheck, --temporal, --specs, --seed,"
        " --out, --serial-only, --fast, --stats-out)",
    ),
    (
        lambda args: args.fast and (args.tracecheck or args.temporal),
        "--fast forces the traceless store onto the engine matrix's cells;"
        " the log and lasso sweeps have none",
    ),
    (
        lambda args: args.serial_only and args.tracecheck,
        "--serial-only drops parallel cells, and the log sweep has none",
    ),
    (
        lambda args: args.stats_out and (args.tracecheck or args.temporal),
        "--stats-out writes the engine matrix's metrics; the log and lasso"
        " sweeps keep none",
    ),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    from .testkit import replay_artifact, run_differential
    from .testkit import run_log_fuzz, run_temporal_fuzz

    if _refused(SELFTEST_CONFLICTS, args):
        return 2
    if args.replay:
        try:
            original, fresh = replay_artifact(args.replay)
        except RunDirError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"replaying {original.kind} artifact: {original.describe()}")
        for item in fresh:
            print(f"  still fails: {item.describe()}")
        if fresh:
            return 1
        print("  no longer reproduces")
        return 0

    specs = 20 if args.specs is None else args.specs
    seed = "0" if args.seed is None else args.seed
    registry = MetricsRegistry() if args.stats_out else None
    reporter = ProgressReporter(enabled=not args.quiet)
    if args.tracecheck:
        report = run_log_fuzz(
            n_specs=specs,
            seed=seed,
            out_dir=args.out,
            progress=lambda line: reporter.event("logfuzz", spec=line),
        )
    elif args.temporal:
        report = run_temporal_fuzz(
            n_specs=specs,
            seed=seed,
            out_dir=args.out,
            serial_only=args.serial_only,
            progress=lambda line: reporter.event("temporal", spec=line),
        )
    else:

        def progress(index: int, generated, n_bad: int) -> None:
            reporter.event(
                "spec",
                seed=generated.seed,
                nodes=generated.params.n_nodes,
                verdict="ok" if n_bad == 0 else f"{n_bad}-DISAGREEMENTS",
            )

        report = run_differential(
            specs,
            seed=seed,
            out_dir=args.out,
            parallel=not args.serial_only,
            progress=progress,
            metrics=registry,
            fast=args.fast,
        )
    print(report.describe())
    if registry is not None:
        MetricsSink(args.stats_out, registry, meta={"command": "selftest"}).close()
        print(f"wrote metrics to {args.stats_out}")
    return 0 if report.ok else 1


def cmd_coverage(args: argparse.Namespace) -> int:
    try:
        sink = resolve_sink_path(args.path)
        coverage = coverage_from_sink(sink)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(coverage.render())
    if args.strict and not coverage.complete:
        return 1
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    if args.trace:
        # Replay a saved counterexample: no re-exploration, just the
        # deterministic implementation-level confirmation.
        try:
            violation = load_violation(args.trace)
        except (OSError, RunDirError) as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.bug_id:
            bug = BUGS[args.bug_id]
            spec = bug.make_spec()
            system = bug.system
        elif args.system:
            spec = make_spec(args.system, args.nodes, args.bug, None)
            system = args.system
        else:
            print("replay --trace needs a bug_id or --system", file=sys.stderr)
            return 2
        checker = ConformanceChecker(
            spec, SYSTEMS[system], mapping_for(system, spec.nodes)
        )
        confirmation = BugReplayer(checker).confirm(violation)
        print(confirmation.describe())
        if confirmation.confirmed:
            print(violation.trace.summary())
        return 0 if confirmation.confirmed else 1
    if not args.bug_id:
        print("replay needs a bug_id (or --trace FILE)", file=sys.stderr)
        return 2
    bug = BUGS[args.bug_id]
    result = detect(bug, time_budget=args.time_budget, seed=args.seed)
    if not result.found:
        print(f"{bug.bug_id}: not found at the specification level")
        return 1
    spec = bug.make_spec()
    checker = ConformanceChecker(
        spec, SYSTEMS[bug.system], mapping_for(bug.system, spec.nodes)
    )
    confirmation = BugReplayer(checker).confirm(result.violation)
    print(confirmation.describe())
    if confirmation.confirmed:
        print(result.violation.trace.summary())
    return 0 if confirmation.confirmed else 1


def _parse_listen(text: str) -> tuple:
    """``HOST:PORT`` for ``--listen``; unlike worker addresses, port 0
    (ephemeral, kernel-assigned) is welcome here."""
    host, _, port_text = str(text).strip().rpartition(":")
    if not host:
        host, port_text = (port_text, "0") if not port_text.isdigit() else (
            "127.0.0.1",
            port_text,
        )
    try:
        port = int(port_text)
    except ValueError:
        raise WorkersError(f"bad --listen {text!r}: expected HOST:PORT") from None
    if not 0 <= port < 65536:
        raise WorkersError(f"bad --listen {text!r}: port out of range")
    return host, port


def cmd_worker(args: argparse.Namespace) -> int:
    from .dist.agent import WorkerAgent

    try:
        host, port = _parse_listen(args.listen)
    except WorkersError as exc:
        print(exc, file=sys.stderr)
        return 2
    log = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet else None
    agent = WorkerAgent(
        host, port, max_sessions=1 if args.once else None, log=log
    )
    # The bound address on stdout first: scripts (and the CI smoke job)
    # read it to learn the ephemeral port.
    print(agent.address, flush=True)
    try:
        agent.serve_forever()
    except KeyboardInterrupt:
        agent.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandtable",
        description="Scalable distributed system model checking with "
        "specification-level state exploration (SandTable reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bugs", help="list the Table 2 bug registry").set_defaults(
        fn=cmd_bugs
    )

    def common(p):
        p.add_argument("--system", required=True, choices=sorted(SPEC_CLASSES))
        p.add_argument("--nodes", type=_nodes_value, default=3)
        p.add_argument("--bug", action="append", default=[], help="seed a bug flag")

    def search_args(p):
        p.add_argument("--invariant", help="check only this invariant")
        p.add_argument("--time-budget", type=_seconds_value, default=60.0)

    def stats_args(p):
        p.add_argument(
            "--stats",
            action="store_true",
            help="live progress lines plus an end-of-run action-coverage report",
        )
        p.add_argument(
            "--stats-out",
            metavar="FILE",
            help="also append JSONL metrics snapshots to FILE (implies --stats)",
        )

    check = sub.add_parser("check", help="BFS model checking")
    common(check)
    search_args(check)
    check.add_argument("--max-states", type=_states_value, default=1_000_000)
    check.add_argument("--symmetry", action="store_true")
    check.add_argument(
        "--fast",
        action="store_true",
        help="traceless fingerprint-only store (~16 bytes/state); a violation's"
        " counterexample is reconstructed by an automatic bounded re-search",
    )
    check.add_argument(
        "--workers",
        type=_workers_value,
        default=None,
        help="parallel BFS worker processes (fingerprint-sharded; 1 = serial;"
        " default: $SANDTABLE_WORKERS or 1)",
    )
    check.add_argument(
        "--worker",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="distribute shards to these sandtable worker agents over TCP"
        " (repeatable; extra addresses past --workers are warm spares)",
    )
    check.add_argument(
        "--run-dir",
        help="durable run directory: disk-backed store + crash-safe checkpoints",
    )
    check.add_argument(
        "--resume",
        action="store_true",
        help="continue the checkpointed run in --run-dir",
    )
    check.add_argument(
        "--checkpoint-every",
        type=_seconds_value,
        default=None,
        metavar="SECONDS",
        help="checkpoint cadence in seconds (default 60 with --run-dir)",
    )
    check.add_argument(
        "--checkpoint-states",
        type=_states_value,
        default=None,
        metavar="N",
        help="also checkpoint every N newly recorded states",
    )
    check.add_argument(
        "--out", help="save the violation trace as a replayable JSON artifact"
    )
    check.add_argument(
        "--temporal",
        action="append",
        default=[],
        metavar="NAME",
        choices=PROPERTY_NAMES,
        help="also check this temporal property over the explored graph:"
        " lasso (prefix + fair cycle) detection under the spec's"
        f" weak-fairness declarations (repeatable; one of: "
        f"{', '.join(PROPERTY_NAMES)})",
    )
    stats_args(check)
    check.set_defaults(fn=cmd_check)

    liveness = sub.add_parser(
        "check-liveness",
        help="post-hoc lasso detection over a finished durable run's graph",
    )
    liveness.add_argument(
        "run_dir", help="a finished `sandtable check --run-dir` directory"
    )
    liveness.add_argument("--system", required=True, choices=sorted(SPEC_CLASSES))
    liveness.add_argument("--nodes", type=_nodes_value, default=3)
    liveness.add_argument("--bug", action="append", default=[], help="seed a bug flag")
    liveness.add_argument(
        "--temporal",
        action="append",
        default=[],
        metavar="NAME",
        choices=PROPERTY_NAMES,
        help="property to check (repeatable; default: all of"
        f" {', '.join(PROPERTY_NAMES)})",
    )
    stats_args(liveness)
    liveness.set_defaults(fn=cmd_check_liveness)

    sim = sub.add_parser("simulate", help="random-walk exploration")
    common(sim)
    search_args(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--walks", type=_positive(int, "walk count"), default=10_000)
    sim.add_argument("--depth", type=_positive(int, "depth"), default=40)
    stats_args(sim)
    sim.set_defaults(fn=cmd_simulate)

    conf = sub.add_parser("conformance", help="spec vs. implementation")
    common(conf)
    conf.add_argument("--seed", type=int, default=0)
    conf.add_argument(
        "--impl-bug",
        action="append",
        default=None,
        help="seed this bug only in the implementation",
    )
    conf.add_argument("--quiet-period", type=_seconds_value, default=10.0)
    conf.add_argument("--max-traces", type=_positive(int, "trace count"), default=None)
    conf.add_argument(
        "--emit-log",
        metavar="FILE",
        help="dump the last replay's event log (JSONL) for validate-trace",
    )
    conf.set_defaults(fn=cmd_conformance)

    vt = sub.add_parser(
        "validate-trace",
        help="check a runtime-emitted event log against the spec",
    )
    vt.add_argument("log", help="JSONL event log (see repro.tracecheck.logfmt)")
    vt.add_argument(
        "--system",
        choices=sorted(SPEC_CLASSES),
        help="spec to validate against (default: the log header's)",
    )
    vt.add_argument(
        "--nodes",
        type=_nodes_value,
        default=None,
        help="cluster size (default: the log header's node count)",
    )
    vt.add_argument("--bug", action="append", default=[], help="seed a bug flag")
    vt.add_argument(
        "--stutter",
        type=int,
        default=0,
        metavar="N",
        help="allow up to N unobserved internal spec steps between events",
    )
    vt.add_argument(
        "--max-frontier",
        type=int,
        default=1024,
        metavar="N",
        help="breadth cap: candidate spec states kept per log event",
    )
    vt.add_argument(
        "--run-dir",
        help="create a durable run directory and save the validation report"
        " as artifacts/validation.json",
    )
    vt.add_argument("--out", help="save the validation report as JSON")
    stats_args(vt)
    vt.set_defaults(fn=cmd_validate_trace)

    det = sub.add_parser("detect", help="run one registry bug detection")
    det.add_argument("bug_id", choices=sorted(BUGS))
    det.add_argument("--time-budget", type=_seconds_value, default=120.0)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument(
        "--out", help="save the violation trace as a replayable JSON artifact"
    )
    stats_args(det)
    det.set_defaults(fn=cmd_detect)

    cov = sub.add_parser(
        "coverage",
        help="per-action coverage report from a run's metrics sink",
    )
    cov.add_argument(
        "path",
        help="a durable run directory (with metrics.jsonl) or a --stats-out file",
    )
    cov.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any action never fired",
    )
    cov.set_defaults(fn=cmd_coverage)

    rep = sub.add_parser("replay", help="detect and confirm at the impl level")
    rep.add_argument("bug_id", nargs="?", choices=sorted(BUGS))
    rep.add_argument(
        "--trace",
        help="replay this saved trace artifact instead of re-exploring",
    )
    rep.add_argument(
        "--system",
        choices=sorted(SPEC_CLASSES),
        help="spec for --trace replay when no bug_id is given",
    )
    rep.add_argument("--nodes", type=_nodes_value, default=3)
    rep.add_argument("--bug", action="append", default=[], help="seed a bug flag")
    rep.add_argument("--time-budget", type=_seconds_value, default=120.0)
    rep.add_argument("--seed", type=int, default=0)
    rep.set_defaults(fn=cmd_replay)

    selftest = sub.add_parser(
        "selftest",
        help="differentially fuzz the checker itself against a naive oracle",
    )
    selftest.add_argument(
        "--specs",
        type=_positive(int, "spec count"),
        help="random specs to fuzz (default 20)",
    )
    selftest.add_argument("--seed", help="sweep seed, any string (default 0)")
    selftest.add_argument(
        "--out", help="write each failure as a replayable JSON artifact here"
    )
    selftest.add_argument(
        "--serial-only",
        action="store_true",
        help="skip the parallel-worker configurations",
    )
    selftest.add_argument(
        "--replay",
        metavar="ARTIFACT",
        help="re-run the one cell a saved artifact of any sweep records",
    )
    selftest.add_argument(
        "--tracecheck",
        action="store_true",
        help="grade the trace validator instead: random-walk logs with"
        " planted divergences at oracle-known indices (repro.testkit.genlog)",
    )
    selftest.add_argument(
        "--temporal",
        action="store_true",
        help="grade the lasso finder instead: random specs whose fair-cycle"
        " verdicts, minimal prefixes, and lasso traces are cross-checked"
        " against a naive reference oracle (repro.testkit.gentemporal)",
    )
    selftest.add_argument(
        "--fast",
        action="store_true",
        help="force the traceless fast store onto every matrix cell",
    )
    selftest.add_argument("--quiet", action="store_true", help="summary line only")
    selftest.add_argument(
        "--stats-out",
        metavar="FILE",
        help="append sweep-wide JSONL metrics snapshots to FILE",
    )
    selftest.set_defaults(fn=cmd_selftest)

    worker = sub.add_parser(
        "worker",
        help="serve BFS shards to remote masters over TCP (repro.dist)",
    )
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address; port 0 picks an ephemeral port"
        " (printed on stdout)",
    )
    worker.add_argument(
        "--once", action="store_true", help="serve one master session, then exit"
    )
    worker.add_argument("--quiet", action="store_true", help="no session log")
    worker.set_defaults(fn=cmd_worker)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
