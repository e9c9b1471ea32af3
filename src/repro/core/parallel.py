"""Sharded parallel BFS: a master and N engine workers over a fingerprint
set partitioned by ``fp % N``.

A :class:`ShardWorker` owns one fingerprint shard and expands the frontier
states it generated itself with the serial explorer's
:class:`~repro.core.engine.ExplorationEngine`; rounds are level-synchronous
(expand, claim, settle, rebalance), and only fingerprints, plus the states
a rebalance moves, cross the barrier.  :class:`ParallelBFS` is the master:
it merges the per-round deltas in worker order, takes round-boundary
checkpoints and rolls the fleet back when a worker dies.  The ops travel
through a transport: :class:`ForkTransport` here, the socket transport in
:mod:`repro.dist.transport`.  Callers reach this module through
:func:`repro.core.explorer.bfs_explore`.  DESIGN.md ("State identity &
parallel exploration", "Distributed checking") has the protocol, the
recovery story and why results are byte-identical across transports.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
import traceback
import warnings
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..obs.metrics import (
    ACTION_FIRES,
    BATCH_BYTES,
    CLAIMS,
    REBALANCED_STATES,
    ROUND_WAIT_MS,
    SIZE_BOUNDS,
    SYMMETRY_GROUP_SIZE,
    WAIT_BOUNDS_MS,
    MetricsRegistry,
)
from .compile import compile_spec
from .engine import (
    CompactStore,
    ExplorationEngine,
    FIFOFrontier,
    FingerprintOnlyStore,
    SearchResult,
    SearchStats,
    StateStore,
    StopReason,
)
from .spec import Spec
from .state import Rec, decode, encode, fingerprint, scope_pair_memo
from .symmetry import SymmetryReducer
from .violation import Violation

__all__ = [
    "ParallelBFS",
    "ShardWorker",
    "serve_worker",
    "Multiplexer",
    "ForkTransport",
    "WorkerDied",
    "WORKER_OPTIONS",
    "worker_options",
]

#: The master levels the frontiers when the largest exceeds the mean by
#: more than this fraction (plus one state, so tiny frontiers never
#: ping-pong).  Rounds are level-synchronous, so the largest frontier
#: sets the round time: the slack bounds what a round can lose to
#: imbalance, and below it moving states costs more than it saves.
REBALANCE_SLACK = 0.10

#: How many worker deaths the master absorbs (replacing the worker and
#: rolling back to the last checkpoint) before it gives the run up.
MAX_REASSIGNMENTS = 3


#: The options a master hands every shard worker, name -> default, spelled
#: out here only: :class:`ShardWorker` takes them as keywords, transports
#: pass them on as one dict, a handshake header carries them by name.
WORKER_OPTIONS: Dict[str, bool] = {
    "symmetry": False,
    "stop_on_violation": True,
    "metrics_on": False,
    "fast": False,
}


def worker_options(given: Mapping[str, Any]) -> Dict[str, bool]:
    """Every worker option, taken from ``given`` or its default, as a bool."""
    unknown = sorted(set(given) - set(WORKER_OPTIONS))
    if unknown:
        raise TypeError(f"unknown shard-worker option(s): {', '.join(unknown)}")
    return {name: bool(value) for name, value in {**WORKER_OPTIONS, **given}.items()}


class WorkerDied(RuntimeError):
    """A shard worker was lost (process death, EOF, or connection error).

    Raised by :meth:`WorkerTransport.recv`/``send`` — *not* for errors in
    worker code (those surface as ``("error", ...)`` replies and raise a
    plain :class:`RuntimeError`, because re-running the same code would
    just die again).  The master reacts by replacing the worker and
    rolling the fleet back to its last committed checkpoint.
    """

    def __init__(self, wid: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"parallel BFS worker {wid} died{detail}")
        self.wid = wid
        self.reason = reason


def _make_reducer(spec: Spec, symmetry: bool) -> Optional[SymmetryReducer]:
    if not symmetry:
        return None
    return SymmetryReducer(spec.symmetry_sets(), key=fingerprint)


def rebalance_plan(sizes: Dict[int, int]) -> Dict[int, List[Tuple[int, int]]]:
    """``donor -> [(recipient, count), ...]`` levelling ``sizes``, or ``{}``.

    Empty while the largest frontier is within :data:`REBALANCE_SLACK`
    (plus one state) of the mean; otherwise every frontier is brought to
    within one state of it.  A pure function of ``sizes``, so every run
    moves the same states.
    """
    n = len(sizes)
    total = sum(sizes.values())
    if max(sizes.values()) * n <= total * (1.0 + REBALANCE_SLACK) + n:
        return {}
    base, extra = divmod(total, n)
    spare = {wid: sizes[wid] - base - (wid < extra) for wid in sorted(sizes)}
    takers = [[wid, -count] for wid, count in spare.items() if count < 0]
    plan: Dict[int, List[Tuple[int, int]]] = {}
    for donor, count in spare.items():
        while count > 0:
            taker = takers[-1]
            moved = min(count, taker[1])
            plan.setdefault(donor, []).append((taker[0], moved))
            count -= moved
            taker[1] -= moved
            if not taker[1]:
                takers.pop()
    return plan


class _Level:
    """The frontier a worker shows the engine: pops drain the level being
    expanded, pushes fill the next one."""

    def __init__(self, current: deque, following: deque):
        self._current = current
        self.popleft = current.popleft
        self.append = following.append

    def __len__(self) -> int:
        return len(self._current)


class _ShardStrategy(FIFOFrontier):
    """How a :class:`ShardWorker` runs the shared engine: one level per
    ``run()``, no seeding (``restore(None)`` seeds), foreign children
    parked until ``settle``, violations anchored by the BFS rule and
    left for the master to resolve."""

    def __init__(self, worker: "ShardWorker"):
        super().__init__()
        self._worker = worker

    def initial_states(self, spec: Spec) -> tuple:
        return ()

    def defer(
        self,
        child: Rec,
        child_fp: int,
        depth: int,
        parent_fp: int,
        transition: Any,
        changed: Optional[frozenset],
    ) -> bool:
        worker = self._worker
        owner = child_fp % worker.workers
        if owner == worker.wid:
            return False
        # The owner judges a claim; a second one from this round it
        # would refuse anyway, so only the first is parked.
        parked = worker._pending[owner]
        if child_fp not in parked:
            parked[child_fp] = (child, child_fp, depth, parent_fp, transition, changed)
        return True

    def resolve(self, violation: Violation) -> Violation:
        """The chain to the anchor crosses shards: the master resolves it
        over the merged shard stores."""
        return violation


class ShardWorker:
    """One shard's protocol logic, independent of how messages arrive.

    Owns the fingerprints with ``fp % workers == wid`` (a local store of
    fingerprints and parent edges) and holds the frontier states it
    generated itself, whoever owns them.  A forked worker
    (:func:`_worker_main`) and the TCP worker agent
    (:class:`repro.dist.agent.WorkerAgent`) both drive one instance
    through :func:`serve_worker`, which keeps the two transports
    behaviorally identical by construction.  ``options`` are the
    :data:`WORKER_OPTIONS`.  Expansion and every invariant check are the
    serial explorer's: one :class:`~repro.core.engine.ExplorationEngine`
    and its :class:`~repro.core.engine.StepChecker`.
    """

    #: the ops a master may send: each names its handler method, and the
    #: rest of the message is that method's arguments
    OPS = frozenset(
        "expand claim settle donate adopt checkpoint restore ping".split()
    )

    def __init__(self, spec: Spec, wid: int, workers: int, **options: bool):
        options = worker_options(options)
        # Workers receive the *source* spec and compile locally:
        # compilation is cheap and per-process.
        self.spec = spec = compile_spec(spec)
        self.wid = wid
        self.workers = workers
        self.fast = options["fast"]
        self.metrics_on = options["metrics_on"]
        #: the states to expand next round: ``(state, fp, depth)``
        self.frontier: deque = deque()
        #: owner -> fp -> foreign child parked this round until ``settle``:
        #: (state, fp, depth, parent fp, transition, changed keys or None)
        self._pending: Dict[int, dict] = {}
        self._strategy = _ShardStrategy(self)
        self._engine = ExplorationEngine(
            spec,
            self._strategy,
            store=FingerprintOnlyStore() if self.fast else CompactStore(),
            stop_on_violation=options["stop_on_violation"],
            reducer=_make_reducer(spec, options["symmetry"]),
        )
        # seeding checks before the first run has bound the strategy
        self._strategy.bind(self._engine)
        self._engine.checker.tracer = self._strategy.violation

    @property
    def store(self) -> StateStore:
        """The fingerprints (and edges) owned here: the engine's own store."""
        return self._engine.store

    def handle(self, msg: tuple) -> tuple:
        """Process one master op; returns the reply message."""
        op = msg[0]
        if op not in self.OPS:
            raise RuntimeError(f"unknown parallel-BFS op {op!r}")
        return getattr(self, op)(*msg[1:])

    def _violations(self) -> List[dict]:
        """Every (anchored) violation since the last reply, as
        :meth:`Violation.to_dict` records."""
        checker = self._engine.checker
        found, checker.violations = checker.violations, []
        return [violation.to_dict() for violation in found]

    # -- ops -----------------------------------------------------------------

    def expand(self, budget: Optional[float]) -> tuple:
        """Expand this worker's level: one run of the shared engine.

        Local children are deduplicated, checked and queued by the
        engine; foreign ones are parked by the strategy and come back as
        claims.  A run cut short (``budget``, the seconds the search has
        left, or a violation) drops what is left of the level — the
        search is over — but keeps the children it did generate.
        """
        engine, strategy = self._engine, self._strategy
        current, self.frontier = self.frontier, deque()
        pending = self._pending = defaultdict(dict)
        strategy.frontier = _Level(current, self.frontier)
        # Per-round observability deltas, shipped to the master with the
        # "expanded" reply and merged there.
        registry = engine.metrics = MetricsRegistry() if self.metrics_on else None
        engine.time_budget = budget
        result = engine.run()
        stats = result.stats
        claims = {
            owner: [
                (fp, parent_fp, tr.action)
                for _, fp, _, parent_fp, tr, _ in parked.values()
            ]
            for owner, parked in pending.items()
        }
        # the fan-out histogram and every count family the run filled
        # (action fires, codec chunks, symmetry), zero labels dropped
        obs = None if registry is None else (
            registry.histogram("engine.fanout", SIZE_BOUNDS).to_dict(),
            {
                family: {label: n for label, n in table.items() if n}
                for family, table in registry.snapshot()["counts"].items()
            },
        )
        found, cut = self._violations(), result.stop_reason is StopReason.TIME_BUDGET
        return ("expanded", self.wid, stats.transitions, stats.pruned,
                stats.distinct_states, claims, found, len(self.frontier), cut, obs)

    def claim(self, batches: list) -> tuple:
        """Dedupe foreign claims on fingerprints owned here.

        ``batches`` is ``[(claimer, [(fp, parent fp, action), ...]), ...]``
        in claimer order; the first claim on a new fingerprint wins and
        its edge is recorded.  Replies with the accepted indices per
        claimer.
        """
        seen, record = self.store.seen, self.store.record
        accepted: Dict[int, List[int]] = {}
        added = 0
        for claimer, claims in batches:
            taken = accepted[claimer] = []
            for index, (fp, parent_fp, action) in enumerate(claims):
                if not seen(fp):
                    record(fp, parent_fp, action)
                    taken.append(index)
            added += len(taken)
        return ("claimed", self.wid, added, accepted)

    def settle(self, accepted: Dict[int, List[int]]) -> tuple:
        """Check and enqueue the pending children the owners accepted."""
        check_state = self._engine.checker.check_state
        frontier = self.frontier
        pending, self._pending = self._pending, {}
        for owner in sorted(accepted):
            children = list(pending[owner].values())
            for index in accepted[owner]:
                child, fp, depth, _, transition, changed = children[index]
                check_state(child, fp, transition, changed)
                frontier.append((child, fp, depth))
        return ("settled", self.wid, self._violations(), len(frontier))

    def donate(self, plan: list) -> tuple:
        """Give away frontier states as ``recipient -> [(bytes, fp, depth)]``."""
        pop = self.frontier.pop
        parcels = {
            recipient: [
                (encode(state), fp, depth)
                for state, fp, depth in (pop() for _ in range(count))
            ]
            for recipient, count in plan
        }
        return ("donated", self.wid, parcels, len(self.frontier))

    def adopt(self, items: list) -> tuple:
        """Take over donated states: already recorded and checked elsewhere."""
        self.frontier.extend((decode(enc), fp, depth) for enc, fp, depth in items)
        return ("adopted", self.wid, len(self.frontier))

    def checkpoint(self) -> tuple:
        """Dump store and frontier as checkpoint container bytes.  A worker
        never touches the run directory: the master writes the
        generation-addressed file, whatever the transport."""
        # Local import: persist depends on core, never the reverse.
        from ..persist.checkpoint import build_checkpoint_bytes

        data = build_checkpoint_bytes(store=self.store, frontier=self.frontier)
        return ("checkpointed", self.wid, data)

    def restore(self, data: Optional[bytes] = None) -> tuple:
        """Reset to a checkpoint (its container bytes), or (``None``) to
        the initial states this shard owns, seeded here.

        Always rebuilds a *fresh* store and drops the pending list, so a
        surviving worker rolled back after a peer's death discards
        everything recorded or claimed past the committed generation —
        whichever phase the aborted round was in.  Bytes that do not
        parse are refused whole: the worker is then left empty.  Seeding
        canonicalises, dedupes, records, checks and queues the owned
        initial states in ``spec.init_states()`` order; the reply counts
        them and carries their violations.
        """
        from ..persist.checkpoint import parse_checkpoint

        engine = self._engine
        fresh = FingerprintOnlyStore if self.fast else CompactStore
        engine.store, self.frontier, self._pending = fresh(), deque(), {}
        if data is not None:
            parsed = parse_checkpoint(bytes(data))
            store, frontier = parsed.restore_into(fresh()), parsed.frontier_items()
            engine.store, self.frontier = store, deque(frontier)
            return ("restored", self.wid, 0, self._violations(), len(self.frontier))
        engine.depth = 0
        scope_pair_memo(self.spec)
        canon = engine.reducer.canonical if engine.reducer is not None else None
        for init in self.spec.init_states():
            state = canon(init) if canon is not None else init
            fp = fingerprint(state)
            if fp % self.workers == self.wid and not engine.store.seen(fp):
                engine.store.record_init(fp, state)
                engine.checker.check_state(state, fp, None)
                self.frontier.append((state, fp, 0))
        seeded = len(self.frontier)
        return ("restored", self.wid, seeded, self._violations(), seeded)

    def ping(self, nonce: int) -> tuple:
        return ("pong", self.wid, nonce)


def serve_worker(
    worker: ShardWorker,
    read: Callable[[], tuple],
    reply: Callable[[tuple], None],
) -> bool:
    """The worker end of a channel, pipe or socket: strict request/reply
    until ``stop``.  ``True`` means it was told to ``die`` — test-only
    fault injection: the caller is to vanish without a reply, as a
    crashed or OOM-killed worker would.  An error in worker code is the
    last reply; a failing ``read`` or ``reply`` (the master is gone) is
    the caller's to catch.
    """
    while True:
        msg = read()
        if msg[0] == "stop":
            return False
        if msg[0] == "die":
            return True
        try:
            answer = worker.handle(msg)
        except Exception:
            reply(("error", worker.wid, traceback.format_exc()))
            return False
        reply(answer)


def _worker_main(
    wid: int, config: Dict[str, Any], channel: Any, inherited: list
) -> None:
    """Fork-worker entry: one :class:`ShardWorker` served over its pipe."""
    # The master's pipe ends came along with the fork.  Held open here
    # they would outlive the master; closed, end of file on a pipe means
    # exactly that the process at its other end is gone.
    for end in inherited:
        end.close()
    try:
        worker = ShardWorker(
            config["spec"], wid, config["workers"], **config["options"]
        )
    except Exception:
        channel.send(("error", wid, traceback.format_exc()))
        return
    with contextlib.suppress(EOFError, OSError, KeyboardInterrupt):  # master gone; ^C
        if serve_worker(worker, channel.recv, channel.send):
            os._exit(1)


class Multiplexer:
    """The master's end of one channel per worker: the only receive path.

    A transport subclasses this and supplies how a channel is opened
    (registering it in ``_channels``), ``_write(channel, msg)`` and
    ``_read(channel)`` — the complete messages a readable channel holds.
    A channel is anything :func:`multiprocessing.connection.wait` accepts
    that has ``close()``, and keeps its messages in order, which the
    master's ping/pong drain relies on after a replacement.
    """

    #: what a read or a write raises when the peer is gone
    lost: Tuple[type, ...] = (EOFError, OSError)

    def __init__(self) -> None:
        #: wid -> live channel
        self._channels: Dict[int, Any] = {}
        self._inbox: deque = deque()

    def send(self, wid: int, msg: Any) -> None:
        channel = self._channels.get(wid)
        if channel is None:
            raise WorkerDied(wid, "channel already lost")
        try:
            self._write(channel, msg)
        except self.lost as exc:
            self._drop(wid)
            raise WorkerDied(wid, f"send failed: {exc}") from exc

    def recv(self, timeout: float = 1.0) -> Optional[tuple]:
        """One worker reply, ``None`` on timeout; raises on lost workers."""
        from multiprocessing.connection import wait  # local: 7 ms no serial run owes

        while not self._inbox:
            if not self._channels:
                raise RuntimeError("no live worker channel to receive from")
            wid_of = {channel: wid for wid, channel in self._channels.items()}
            ready = wait(list(wid_of), timeout)
            if not ready:
                return None
            # Deterministic service order under simultaneous readiness.
            for wid in sorted(wid_of[channel] for channel in ready):
                try:
                    self._inbox.extend(self._read(self._channels[wid]))
                except self.lost as exc:
                    self._drop(wid)
                    reason = str(exc) or "end of file"
                    raise WorkerDied(wid, f"recv failed: {reason}") from exc
        msg = self._inbox.popleft()
        if msg[0] == "error":
            raise RuntimeError(f"parallel BFS worker {msg[1]} failed:\n{msg[2]}")
        return msg

    def close(self) -> None:
        for wid in list(self._channels):
            with contextlib.suppress(WorkerDied):
                self.send(wid, ("stop",))
            self._drop(wid)
        self._inbox.clear()

    def _drop(self, wid: int) -> None:
        channel = self._channels.pop(wid, None)
        if channel is not None:
            with contextlib.suppress(OSError):
                channel.close()


class ForkTransport(Multiplexer):
    """The default transport: forked local workers, a duplex pipe each.

    A pipe is created immediately before its worker's fork and the
    child's end closed here right after, so no other process ever holds
    it: a worker that dies, at whatever instant, reads as end of file on
    its own pipe and disturbs no other.
    """

    def __init__(self) -> None:
        super().__init__()
        self._config: Dict[str, Any] = {}
        self._procs: Dict[int, Any] = {}

    def start(self, config: Dict[str, Any]) -> None:
        self._config = dict(config)
        for wid in range(config["workers"]):
            self._spawn(wid)

    def _spawn(self, wid: int) -> None:
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        inherited = [*self._channels.values(), ours]
        proc = ctx.Process(
            target=_worker_main,
            args=(wid, self._config, theirs, inherited),
            daemon=True,
            name=f"sandtable-bfs-{wid}",
        )
        proc.start()
        theirs.close()
        self._procs[wid], self._channels[wid] = proc, ours

    def _write(self, channel: Any, msg: tuple) -> None:
        channel.send(msg)

    def _read(self, channel: Any) -> List[tuple]:
        return [channel.recv()]

    def replace(self, wid: int) -> bool:
        """Respawn the worker behind shard ``wid`` on a fresh pipe."""
        self._drop(wid)
        old_proc = self._procs[wid]
        if old_proc.is_alive():  # pragma: no cover - defensive
            old_proc.terminate()
        old_proc.join(timeout=5)
        self._spawn(wid)
        return True

    def close(self) -> None:
        super().close()
        for proc in self._procs.values():
            proc.join(timeout=5)
        for proc in self._procs.values():
            if proc.is_alive():  # pragma: no cover - hard shutdown
                proc.terminate()
                proc.join(timeout=5)
        self._procs.clear()  # and with them their sentinel descriptors


class ParallelBFS:
    """Master driver for the sharded parallel breadth-first search.

    Mirrors the serial :class:`~repro.core.explorer.BFSExplorer` surface:
    one instance runs one exploration and :meth:`run` returns the unified
    :class:`~repro.core.engine.SearchResult`.  ``max_states`` is checked
    between rounds, so the distinct-state count can overshoot the bound
    by up to one BFS level (the serial explorer stops exactly at the
    bound).

    ``transport`` selects how the shard workers are reached (default:
    :class:`ForkTransport`); the master absorbs up to
    :data:`MAX_REASSIGNMENTS` worker deaths before giving up.
    """

    def __init__(
        self,
        spec: Spec,
        workers: int = 2,
        symmetry: bool = False,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        time_budget: Optional[float] = None,
        stop_on_violation: bool = True,
        progress: Optional[Callable[[SearchStats], None]] = None,
        progress_interval: int = 50_000,  # accepted for API parity; per-round here
        checkpointer: Optional[Any] = None,
        resume: Optional[Any] = None,
        metrics: Optional[Any] = None,
        fast: bool = False,
        transport: Optional[Any] = None,
    ):
        self.spec = spec
        self.workers = max(1, int(workers))
        self.symmetry = symmetry
        self.max_states = max_states
        self.max_depth = max_depth
        self.time_budget = time_budget
        self.stop_on_violation = stop_on_violation
        self.progress = progress
        self.checkpointer = checkpointer
        self.resume = resume
        self.metrics = metrics
        self.fast = bool(fast)
        self.transport = transport
        #: membership events (deaths + reassignments), carried into every
        #: checkpoint manifest and exposed to callers (the durable runner
        #: records them in the run manifest)
        self.membership: List[Dict[str, Any]] = []
        self._deaths = 0

    @property
    def metrics_on(self) -> bool:
        """The worker option: keep per-round deltas for the master's registry."""
        return self.metrics is not None

    # -- the search ----------------------------------------------------------

    def run(self) -> SearchResult:
        transport = self.transport if self.transport is not None else ForkTransport()
        self._transport = transport
        config = {"workers": self.workers, "spec": self.spec, "metrics": self.metrics}
        config["options"] = {opt: bool(getattr(self, opt)) for opt in WORKER_OPTIONS}
        # start() is inside: a fleet that came up only in part (the second
        # agent refused, say) is stopped and closed like a whole one.
        try:
            transport.start(config)
            return self._drive()
        finally:
            transport.close()

    def _drive(self) -> SearchResult:
        """Rewind to where the run starts, then rounds until a reason to
        stop.  A worker lost on the way — in the rewind, a round, the
        result's store merge, a recovery — is recovered from before the next."""
        resume = self.resume
        self._reducer = _make_reducer(self.spec, self.symmetry)
        #: the registry before any exploration counted (see _rewind)
        self._baseline: Optional[Dict[str, Any]] = None
        if resume is not None:
            # Shard ownership is fp % n: a checkpoint only makes sense to
            # the worker count that wrote it.
            if resume.workers != self.workers:
                raise ValueError(
                    f"checkpoint was written by {resume.workers} workers;"
                    f" resume with --workers {resume.workers} (got {self.workers})"
                )
            self.membership.extend(getattr(resume, "reassignments", ()) or ())
        lost: Optional[WorkerDied] = None
        rewound = False
        while True:
            try:
                if lost is not None:
                    self._recover(lost)
                elif not rewound:
                    self._rewind(resume)
                lost, rewound = None, True
                reason = self._stop_reason()
                self._checkpoint(final=reason is not None)
                # No commit after a round the time budget cut short: what
                # it dropped of the level is recorded but on no frontier,
                # and a resume from a commit made there would lose it.
                reason = reason or self._round()
                if reason is not None:
                    return self._finish(reason)
            except WorkerDied as death:
                lost = death

    def _count_states(self, owner: int, added: int) -> None:
        self.stats.distinct_states += added
        if self.metrics is not None and added:
            self.metrics.merge_counts("parallel.shard_states", {str(owner): added})

    def _rewind(self, point: Optional[Any]) -> None:
        """Put master, registry and fleet at the committed checkpoint
        ``point``, or (``None``) at the initial states, which every worker
        seeds for its own shard.  Every start, resume and rollback goes
        through here."""
        metrics = self.metrics
        if metrics is not None:
            # Discard anything counted past ``point``; the rounds re-run.
            snapshot = (point is not None and point.metrics) or self._baseline
            if snapshot:
                metrics.restore(snapshot)
            fires = metrics.counts(ACTION_FIRES)
            for action in self.spec.actions():
                fires.setdefault(action.name, 0)
            if self._baseline is None:
                # The rollback point while nothing is committed.  Every
                # family a round writes is in it, at zero, so that
                # restoring it resets them all.
                if self._reducer is not None:
                    metrics.gauge(SYMMETRY_GROUP_SIZE).set(self._reducer.group_size)
                for name in ("parallel.rounds", CLAIMS, REBALANCED_STATES, BATCH_BYTES):
                    metrics.counter(name)
                for name in ("engine.queue_depth", "engine.states_per_sec"):
                    metrics.gauge(name)
                metrics.histogram("engine.fanout", SIZE_BOUNDS)
                metrics.histogram("parallel.batch_sizes", SIZE_BOUNDS)
                metrics.histogram(ROUND_WAIT_MS, WAIT_BOUNDS_MS)
                metrics.counts("parallel.shard_states")
                self._baseline = metrics.snapshot()
        if point is None:
            self.stats, self._depth, self._violations = SearchStats(), 0, []
            shards = [None] * self.workers
        else:
            self.stats, self._depth = point.stats, point.depth
            self._violations = list(point.violations)
            shards = [path.read_bytes() for path in point.worker_files]
        # Backdated, so the time budget stays cumulative across resume
        # and rollback; the seeding below counts against it.
        self._started = time.monotonic() - self.stats.elapsed
        self._deadline = (
            self._started + self.time_budget if self.time_budget is not None else None
        )
        #: wid -> frontier length as of that worker's last reply
        self.frontier_sizes: Dict[int, int] = {}
        for _, wid, added, viols, size in self._exchange(
            {wid: ("restore", data) for wid, data in enumerate(shards)}, "restored"
        ):
            self._count_states(wid, added)
            self._violations.extend(map(Violation.from_dict, viols))
            self.frontier_sizes[wid] = size

    def _stop_reason(self) -> Optional[StopReason]:
        """Why the search ends at this round boundary, if it does."""
        stats = self.stats
        if self._violations and self.stop_on_violation:
            return StopReason.VIOLATION
        if self._deadline is not None and time.monotonic() > self._deadline:
            return StopReason.TIME_BUDGET
        if self.max_states is not None and stats.distinct_states >= self.max_states:
            return StopReason.MAX_STATES
        if not any(self.frontier_sizes.values()):
            return StopReason.EXHAUSTED
        if self.max_depth is not None and self._depth >= self.max_depth:
            # BFS semantics: states at the depth bound are not expanded.
            stats.max_depth = self.max_depth
            return StopReason.EXHAUSTED
        return None

    def _checkpoint(self, final: bool = False) -> None:
        """Round boundary: every recorded state is on exactly one frontier
        or already expanded and no claim is pending, so checkpoint here if
        due (or ``final``: the search ends here, and a finished run
        directory holds its whole census) — each worker dumps its store
        shard and its frontier, the master writes the generation's files,
        and its manifest commit publishes the fleet-wide snapshot atomically.
        """
        checkpointer, stats, metrics = self.checkpointer, self.stats, self.metrics
        if checkpointer is None or not (final or checkpointer.due(stats)):
            return
        from ..persist.rundir import atomic_write_bytes  # local: persist imports core

        stats.elapsed = time.monotonic() - self._started
        for _, wid, data in self._exchange(
            {wid: ("checkpoint",) for wid in range(self.workers)}, "checkpointed"
        ):
            atomic_write_bytes(checkpointer.worker_path(wid), data)
        checkpointer.commit(
            workers=self.workers,
            depth=self._depth,
            stats=stats,
            violations=self._violations,
            metrics=metrics.snapshot() if metrics is not None else None,
            reassignments=self.membership,
        )

    def _round(self) -> Optional[StopReason]:
        """One BFS level: expand, claim, settle, rebalance.  Returns
        ``TIME_BUDGET`` when the budget cut the level short, else ``None``."""
        stats, sizes, metrics = self.stats, self.frontier_sizes, self.metrics
        exchange, violations = self._exchange, self._violations

        # expand: every worker pops its frontier slice, keeps its
        # foreign children pending and reports their claims
        wait_start = time.monotonic()
        budget = None if self._deadline is None else self._deadline - wait_start
        replies = exchange(
            {wid: ("expand", budget) for wid in range(self.workers)}, "expanded"
        )
        if metrics is not None:
            wait_ms = (time.monotonic() - wait_start) * 1000.0
            metrics.histogram(ROUND_WAIT_MS, WAIT_BOUNDS_MS).observe(wait_ms)
        truncated = False
        #: owner -> [(claimer, claims)], claimers in wid order
        claims_for: Dict[int, list] = defaultdict(list)
        for reply in replies:
            _, wid, transitions, pruned, added, claims, viols, size, cut, obs = reply
            stats.transitions += transitions
            stats.pruned += pruned
            self._count_states(wid, added)
            violations.extend(map(Violation.from_dict, viols))
            sizes[wid] = size
            truncated = truncated or cut
            for owner, batch in claims.items():
                claims_for[owner].append((wid, batch))
            if metrics is not None and obs is not None:
                fanout_state, families = obs
                metrics.histogram("engine.fanout", SIZE_BOUNDS).merge(fanout_state)
                for family, delta in families.items():
                    metrics.merge_counts(family, delta)
        stats.max_depth = max(stats.max_depth, self._depth)

        # claim: owners dedupe, record the new edges and grant
        #: claimer -> {owner: accepted indices}
        granted: Dict[int, dict] = defaultdict(dict)
        for _, owner, added, accepted in exchange(
            {owner: ("claim", batches) for owner, batches in claims_for.items()},
            "claimed",
        ):
            self._count_states(owner, added)
            for claimer, indices in accepted.items():
                granted[claimer][owner] = indices
            if metrics is not None:
                shipped = sum(len(batch) for _, batch in claims_for[owner])
                metrics.histogram("parallel.batch_sizes", SIZE_BOUNDS).observe(shipped)
                metrics.inc(CLAIMS, shipped)

        # settle: claimers check and enqueue what they were granted
        # — also after a truncated expand, so no recorded edge is
        # left pointing at a state nobody holds
        for _, wid, viols, size in exchange(
            {wid: ("settle", grants) for wid, grants in granted.items()},
            "settled",
        ):
            violations.extend(map(Violation.from_dict, viols))
            sizes[wid] = size
        self._rebalance()

        self._depth += 1
        if metrics is not None:
            metrics.inc("parallel.rounds")
        if self.progress is not None:
            stats.elapsed = time.monotonic() - self._started
            if metrics is not None:
                self._refresh_gauges()
            self.progress(stats)
        return StopReason.TIME_BUDGET if truncated else None

    def _rebalance(self) -> None:
        """States stay where they were generated, so frontiers drift
        apart (a single root starts entirely on one worker): level them
        when the largest — which sets the next round's time — is too far
        above the mean."""
        sizes, metrics = self.frontier_sizes, self.metrics
        plan = rebalance_plan(sizes)
        if not plan:
            return
        parcels_for: Dict[int, list] = defaultdict(list)
        for _, donor, parcels, size in self._exchange(
            {donor: ("donate", moves) for donor, moves in plan.items()}, "donated"
        ):
            sizes[donor] = size
            for recipient, items in parcels.items():
                parcels_for[recipient].extend(items)
        for _, wid, size in self._exchange(
            {wid: ("adopt", items) for wid, items in parcels_for.items()}, "adopted"
        ):
            sizes[wid] = size
        if metrics is not None:
            moved = [len(item[0]) for items in parcels_for.values() for item in items]
            metrics.inc(REBALANCED_STATES, len(moved))
            metrics.inc(BATCH_BYTES, sum(moved))

    def _recover(self, death: WorkerDied) -> None:
        """Elastic membership: replace the lost worker, drain what the
        aborted round left in flight, roll master and fleet back to the last
        committed checkpoint (to the initial states when there is none yet)."""
        metrics, checkpointer = self.metrics, self.checkpointer
        self._deaths += 1
        if metrics is not None:
            metrics.inc("parallel.worker_deaths")
        if self._deaths > MAX_REASSIGNMENTS:
            raise RuntimeError(
                f"parallel BFS giving up after"
                f" {MAX_REASSIGNMENTS} worker reassignments"
                f" (last: {death})"
            ) from death
        if not self._transport.replace(death.wid):
            raise RuntimeError(
                f"parallel BFS worker {death.wid} died and no"
                f" replacement worker is available"
                f" ({death.reason or 'no spare agents'})"
            ) from death
        warnings.warn(
            f"parallel BFS worker {death.wid} died"
            f" ({death.reason or 'no reason recorded'});"
            f" reassigned its shard and rolling back to the last"
            f" committed checkpoint",
            RuntimeWarning,
            stacklevel=3,
        )
        # Per-worker channels keep their order: once every worker answers
        # this recovery's ping, no stale reply can still be in flight —
        # a pong to an earlier recovery's ping included.
        self._exchange(
            {wid: ("ping", self._deaths) for wid in range(self.workers)},
            "pong",
            barrier=self._deaths,
        )
        point = checkpointer.committed() if checkpointer is not None else None
        self._rewind(point)
        self.membership.append(
            {
                "wid": death.wid,
                "reason": death.reason,
                "recovered": "checkpoint" if point else "seed",
                "depth": self._depth,
            }
        )
        if metrics is not None:
            metrics.inc("parallel.reassignments")

    def _refresh_gauges(self) -> None:
        stats, metrics = self.stats, self.metrics
        metrics.gauge("engine.queue_depth").set(sum(self.frontier_sizes.values()))
        metrics.gauge("engine.states_per_sec").set(
            stats.distinct_states / stats.elapsed if stats.elapsed > 0 else 0.0
        )

    def _finish(self, reason: StopReason) -> SearchResult:
        stats = self.stats
        stats.elapsed = time.monotonic() - self._started
        if self.metrics is not None:
            self._refresh_gauges()
        violation = self._build_violation()
        exhausted = reason is StopReason.EXHAUSTED and (
            violation is None or not self.stop_on_violation
        )
        return SearchResult(stats, violation, exhausted, reason)

    # -- plumbing -------------------------------------------------------------

    def _exchange(
        self, messages: Dict[int, tuple], kind: str, barrier: Optional[int] = None
    ) -> List[tuple]:
        """Send ``messages`` (``wid -> op``) and collect one ``kind`` reply each.

        Replies are sorted by worker id before they are returned, so the
        master merges them in a deterministic order regardless of which
        worker (or transport) answered first — this is what makes the
        merged parent edges, and therefore reconstructed counterexample
        traces, byte-identical across runs and transports.  ``barrier``
        is the nonce of a recovery's ping/pong drain: any reply but a pong
        echoing it is what an aborted round or an earlier drain left in
        flight, and is discarded.
        """
        transport = self._transport
        for wid in sorted(messages):
            transport.send(wid, messages[wid])
        awaited = set(messages)
        replies: List[tuple] = []
        while awaited:
            msg = transport.recv(timeout=1.0)
            if msg is None:
                continue
            if msg[0] == kind and (barrier is None or msg[2] == barrier):
                awaited.discard(msg[1])
                replies.append(msg)
            elif barrier is None:  # pragma: no cover - protocol error
                raise RuntimeError(f"unexpected {msg[0]!r} (awaiting {kind!r})")
        replies.sort(key=lambda m: m[1])
        return replies

    def _build_violation(self) -> Optional[Violation]:
        """Resolve the minimal-depth violation over the merged shard stores."""
        # Local imports: explorer and persist both import this package.
        from ..persist.checkpoint import parse_checkpoint
        from .explorer import resolve_violation

        violations = self._violations
        if not violations:
            return None
        # Level synchrony guarantees all candidates from the stopping round
        # share the minimal depth; the rest of the key makes the pick
        # deterministic across runs.
        found = min(
            violations, key=lambda v: (v.depth, v.invariant, v.kind, v.trace.anchor)
        )
        merged: Optional[StateStore] = None
        if not self.fast:  # traceless shards keep no edges: re-search instead
            merged = CompactStore()
            for _, _, data in self._exchange(
                {wid: ("checkpoint",) for wid in range(self.workers)}, "checkpointed"
            ):
                parse_checkpoint(data).restore_into(merged)
        return resolve_violation(self.spec, found, merged, self._reducer, fingerprint)

