"""Durable runs: disk store, checkpoints, resume, and replayable artifacts.

The load-bearing property throughout: a run interrupted at a checkpoint
and resumed finishes with the *identical* SearchResult — same distinct
states, transitions, depth, stop reason, and minimal-depth
counterexample trace — as the uninterrupted run, for the serial engine
and the sharded parallel driver alike.
"""

import json
import multiprocessing
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.core import Rec, Trace, TraceStep, bfs_explore
from repro.core.engine import CompactStore, FingerprintOnlyStore, SearchStats
from repro.core.parallel import ShardWorker
from repro.core.state import CODEC_VERSION, encode, fingerprint
from repro.core.trace import PendingTrace, from_jsonable, to_jsonable
from repro.core.violation import Violation
from repro.persist import (
    DiskStore,
    DiskStoreReader,
    ParallelCheckpointer,
    RunDir,
    RunDirError,
    build_checkpoint_bytes,
    load_parallel_resume,
    load_serial_resume,
    load_lasso,
    load_trace,
    load_violation,
    parse_checkpoint,
    read_checkpoint,
    run_check,
    save_lasso,
    save_trace,
    save_violation,
    write_checkpoint,
)
from repro.persist.diskstore import _FENCE_STRIDE, _Segment
from repro.persist.rundir import HAS_PARENT
from repro.temporal import LassoTrace
from toy_specs import CounterSpec, TokenRingSpec

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def assert_same_result(a, b):
    assert a.stats.distinct_states == b.stats.distinct_states
    assert a.stats.transitions == b.stats.transitions
    assert a.stats.max_depth == b.stats.max_depth
    assert a.stop_reason == b.stop_reason
    assert a.exhausted == b.exhausted
    if a.violation is None:
        assert b.violation is None
    else:
        assert a.violation.invariant == b.violation.invariant
        assert a.violation.trace == b.violation.trace


# ---------------------------------------------------------------------------
# lossless trace serialization
# ---------------------------------------------------------------------------


class TestTraceRoundTrip:
    def make_gnarly_trace(self):
        s0 = Rec(x=0, members=frozenset(), log=())
        s1 = Rec(x=1, members=frozenset({"n1"}), log=(("term", 1),))
        s2 = Rec(x=2, members=frozenset({"n1", "n2"}), log=(("term", 1), ("term", 2)))
        return Trace(
            s0,
            [
                TraceStep("Join", ("n1", frozenset({"n1"})), s1),
                TraceStep("Join", ("n2", ("a", 1), Rec(k=b"\x00\xff")), s2, branch="b"),
            ],
        )

    def test_round_trip_identity(self):
        trace = self.make_gnarly_trace()
        assert Trace.from_json(trace.to_json()) == trace

    def test_round_trip_through_dict(self):
        trace = self.make_gnarly_trace()
        assert Trace.from_dict(trace.to_dict()) == trace

    def test_round_trip_preserves_fingerprints(self):
        trace = self.make_gnarly_trace()
        loaded = Trace.from_json(trace.to_json())
        for before, after in zip(trace.states(), loaded.states()):
            assert fingerprint(before) == fingerprint(after)

    def test_readable_rendering_preserved(self):
        # The human-readable thaw rendering rides along with the codec
        # bytes, so saved traces stay greppable.
        data = json.loads(self.make_gnarly_trace().to_json())
        assert data["initial"]["x"] == 0
        assert data["steps"][1]["branch"] == "b"

    def test_legacy_dict_without_codec_fields(self):
        data = {"initial": {"x": 0}, "steps": [{"action": "Inc", "state": {"x": 1}}]}
        trace = Trace.from_dict(data)
        assert trace.depth == 1
        assert trace.final_state["x"] == 1

    def test_jsonable_tags_invert(self):
        values = [
            ("a", 1, None),
            frozenset({1, 2, 3}),
            Rec(k=(1, 2), v=frozenset({"x"})),
            b"\x00\x01",
            float("nan"),
            float("inf"),
            -0.5,
            True,
        ]
        for value in values:
            back = from_jsonable(json.loads(json.dumps(to_jsonable(value))))
            if isinstance(value, float) and value != value:
                assert back != back  # NaN round-trips as NaN
            else:
                assert back == value

    def test_real_counterexample_round_trips(self):
        result = bfs_explore(TokenRingSpec(3, buggy=True))
        trace = result.violation.trace
        assert Trace.from_json(trace.to_json()) == trace


# ---------------------------------------------------------------------------
# the disk-backed state store
# ---------------------------------------------------------------------------


class TestDiskStore:
    def test_seen_across_spills(self, tmp_path):
        store = DiskStore(tmp_path, memory_budget=4, max_segments=2)
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        for fp in range(1, 40):
            assert not store.seen(fp)
            store.record(fp, fp - 1 if fp > 1 else fingerprint(root), "Inc")
        assert all(store.seen(fp) for fp in range(1, 40))
        assert not store.seen(999)
        assert len(store) == 40
        assert store._segments, "tiny budget must have spilled to segments"
        store.close()

    def test_chain_and_edges_survive_spills(self, tmp_path):
        store = DiskStore(tmp_path, memory_budget=4, max_segments=2)
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        prev = fingerprint(root)
        for fp in range(1, 20):
            store.record(fp, prev, f"Act{fp % 3}")
            prev = fp
        chain = store.chain(19)
        assert [fp for fp, _ in chain] == [fingerprint(root)] + list(range(1, 20))
        edges = {fp: (parent, action) for fp, parent, action in store.edges()}
        assert edges[5] == (4, "Act2")
        assert edges[fingerprint(root)][0] is None
        assert list(store.roots()) == [(fingerprint(root), root)]
        store.close()

    @given(
        st.sets(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
        st.lists(st.integers(0, 2**64 - 1), max_size=20),
        st.integers(1, 7),
    )
    def test_segment_probe_is_set_membership(self, fps, strangers, shift):
        """Fences plus a one-block search answer exactly what the set
        does, for a byte pattern that straddles two neighbours too."""
        ordered = sorted(fps)
        data = b"".join(fp.to_bytes(8, "big") for fp in ordered)
        straddling = [
            int.from_bytes(data[i + shift : i + shift + 8], "big")
            for i in range(0, len(data) - 8, 8)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "seg-0.fp"
            path.write_bytes(data)
            segment = _Segment(path)
            try:
                assert list(segment.fences) == ordered[::_FENCE_STRIDE]
                for probe in ordered + strangers + straddling:
                    assert segment.contains(probe) == (probe in fps)
            finally:
                segment.close()

    def test_rejects_non_integer_fingerprints(self, tmp_path):
        store = DiskStore(tmp_path)
        with pytest.raises(TypeError):
            store.record(b"\x00" * 8, None, "Inc")
        store.close()

    def test_fresh_store_wipes_leftovers(self, tmp_path):
        store = DiskStore(tmp_path, memory_budget=2)
        store.record_init(fingerprint(Rec(x=0)), Rec(x=0))
        for fp in range(1, 10):
            store.record(fp, fp - 1, "Inc")
        store.close()
        fresh = DiskStore(tmp_path)
        assert len(fresh) == 0
        assert not fresh.seen(5)
        fresh.close()

    def test_close_keeps_segments_the_last_checkpoint_references(self, tmp_path):
        # Compaction inputs may still be named by the last committed
        # checkpoint; close() must leave them on disk or resuming an
        # interrupted/stopped run would hit missing segment files.
        store = DiskStore(tmp_path, memory_budget=2, max_segments=2)
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        for fp in range(1, 20):
            store.record(fp, fp - 1, "Inc")
        meta, obsolete = store.checkpoint()
        for stale in obsolete:
            stale.unlink()  # what the checkpointer does after its commit
        # keep recording so compaction consumes the checkpointed segments
        for fp in range(100, 140):
            store.record(fp, fp - 1, "Inc")
        store.close()
        assert all((tmp_path / name).exists() for name, _ in meta["segments"])
        resumed = DiskStore.resume(tmp_path, meta, memory_budget=2, max_segments=2)
        assert len(resumed) == meta["count"]
        assert resumed.seen(5) and resumed.seen(19)
        assert not resumed.seen(105), "post-checkpoint states must be gone"
        resumed.close()


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        store = CompactStore()
        root = Rec(x=0)
        store.record_init(fingerprint(root), root)
        store.record(7, fingerprint(root), "Inc")
        stats = SearchStats(distinct_states=2, transitions=1, max_depth=1, elapsed=0.5)
        path = tmp_path / "test.ckpt"
        write_checkpoint(
            path, stats=stats, store=store, frontier=[(Rec(x=1), 7, 1)]
        )
        data = read_checkpoint(path)
        assert data.stats() == stats
        restored = data.restore_into(CompactStore())
        assert restored.seen(7) and restored.seen(fingerprint(root))
        assert restored.chain(7) == store.chain(7)
        assert data.frontier_items() == [(Rec(x=1), 7, 1)]

    def test_refuses_wrong_codec_version(self, tmp_path):
        path = tmp_path / "test.ckpt"
        write_checkpoint(path, stats=SearchStats())
        raw = path.read_bytes()
        bumped = raw.replace(
            json.dumps({"codec_version": CODEC_VERSION})[1:-1].encode(),
            json.dumps({"codec_version": CODEC_VERSION + 1})[1:-1].encode(),
            1,
        )
        path.write_bytes(bumped)
        with pytest.raises(RunDirError, match="codec version"):
            read_checkpoint(path)

    def test_refuses_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(RunDirError):
            read_checkpoint(path)


# ---------------------------------------------------------------------------
# torn and hostile bytes: one reader, one kind of error
# ---------------------------------------------------------------------------

FPS = st.integers(min_value=0, max_value=2**64 - 1)
SMALL_STATES = st.builds(
    lambda x, tag: Rec(x=x, tag=tag), st.integers(-3, 300), st.text(max_size=3)
)


def mutate(draw, valid, sections):
    """One of PR 20's four mutations of ``valid``: truncate, pad, swap two
    bytes, duplicate a section (one of the byte ranges ``sections``).
    Returns the mutant and whether it has to be refused — only a swap
    can leave bytes that still mean something."""
    kind = draw(st.sampled_from(["truncate", "pad", "swap", "duplicate"]))
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))], True
    if kind == "pad":
        return valid + draw(st.binary(min_size=1, max_size=30)), True
    start, end = draw(st.sampled_from(sections))
    if kind == "swap":  # within one section, so that most miss the header
        index = st.integers(start, end - 1)
        i, j = draw(index), draw(index)
        mutant = bytearray(valid)
        mutant[i], mutant[j] = mutant[j], mutant[i]
        return bytes(mutant), False
    return valid[:end] + valid[start:end] + valid[end:], True


@st.composite
def containers(draw):
    """``(kind, container bytes, its section ranges)`` for a generated
    store and frontier: an inline dump, a traceless one, or a disk
    store's offsets."""
    kind = draw(st.sampled_from(["inline", "fponly", "disk"]))
    fps = draw(st.lists(FPS, unique=True, min_size=1, max_size=8))
    n_roots = draw(st.integers(1, len(fps)))
    store = None
    if kind == "inline":
        store = CompactStore()
        for fp in fps[:n_roots]:
            store.record_init(fp, draw(SMALL_STATES))
        for index in range(n_roots, len(fps)):
            parent = fps[draw(st.integers(0, index - 1))]
            store.record(fps[index], parent, draw(st.sampled_from(["Inc", "Réc", "x"])))
    elif kind == "fponly":
        store = FingerprintOnlyStore(spill_threshold=3)
        for fp in fps:
            store.record(fp, None, "")
    meta = None
    if kind == "disk":
        meta = {"kind": "disk", "edges_len": 21 * len(fps), "segments": []}
    frontier = [
        (draw(SMALL_STATES), fp, draw(st.integers(0, 9)))
        for fp in draw(st.lists(FPS, max_size=4))
    ]
    violations = [Violation("Inv", PendingTrace(2))] if draw(st.booleans()) else []
    valid = build_checkpoint_bytes(
        stats=SearchStats(distinct_states=len(fps), transitions=draw(st.integers(0, 99))),
        store=store,
        store_meta=meta,
        frontier=frontier,
        violations=violations,
    )
    # the section ranges, from the sizes of what went in
    parsed = parse_checkpoint(valid)
    header_end = 8 + 4 + int.from_bytes(valid[8:12], "big")
    names = list(dict.fromkeys(action for _, _, action in parsed.edges))
    actions_end = header_end + sum(4 + len(name.encode()) for name in names)
    edges_end = actions_end + 21 * len(parsed.edges)
    roots_end = edges_end + sum(12 + len(enc) for _, enc in parsed.roots)
    bounds = [8, header_end, actions_end, edges_end, roots_end, len(valid)]
    sections = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    return kind, valid, sections


def restored(data, kind):
    """What ``data`` restores to — parsed container, store, frontier — or
    ``None`` when it is refused.  Anything but a ``RunDirError`` fails."""
    try:
        parsed = parse_checkpoint(data)
        store = parsed.restore_into(
            FingerprintOnlyStore() if kind == "fponly" else CompactStore()
        )
        return parsed, store, parsed.frontier_items(), parsed.stats(), parsed.violations()
    except RunDirError:
        return None


def content(parsed):
    # the label on a parentless edge is the store's to choose, not kept
    edges = [
        (fp, parent, None if parent is None else action)
        for fp, parent, action in parsed.edges
    ]
    return sorted(edges), sorted(parsed.roots), parsed.frontier


WORKERS = {}


def shard_worker(fast):
    if fast not in WORKERS:
        WORKERS[fast] = ShardWorker(CounterSpec(2, 2), 0, 2, fast=fast)
    return WORKERS[fast]


class TestHostileContainers:
    """``parse_checkpoint`` gives back what ``build_checkpoint_bytes`` was
    given or raises ``RunDirError``; on the restore path of every
    transport these bytes are network input."""

    @given(containers())
    def test_round_trip(self, container):
        kind, valid, _ = container
        parsed, store, frontier, stats, violations = restored(valid, kind)
        rebuilt = build_checkpoint_bytes(
            stats=stats,
            store=store if kind != "disk" else None,
            store_meta=parsed.header["store"] if kind == "disk" else None,
            frontier=frontier,
            violations=violations,
        )
        if kind == "fponly":  # a set: the dump order is not kept
            again = parse_checkpoint(rebuilt)
            assert (again.header, content(again)) == (parsed.header, content(parsed))
        else:
            assert rebuilt == valid

    @given(containers(), st.data())
    def test_mutants_are_refused_or_mean_what_they_say(self, container, data):
        kind, valid, sections = container
        mutant, hopeless = mutate(data.draw, valid, sections)
        outcome = restored(mutant, kind)
        worker = shard_worker(kind == "fponly")
        if outcome is None:
            worker.restore(valid)
            with pytest.raises(RunDirError):
                worker.restore(mutant)
            assert len(worker.store) == 0 and not worker.frontier
            assert worker._pending == {}
            return
        assert not hopeless, "accepted bytes no writer writes"
        parsed, store, frontier, stats, violations = outcome
        # every record the container lists was restored, once, as it is
        assert len(store) == len(parsed.edges)
        assert sorted(fp for fp, _, _ in store.edges()) == sorted(
            fp for fp, _, _ in parsed.edges
        )
        assert [(fp, encode(state)) for fp, state in store.roots()] == parsed.roots
        assert [(fp, depth, encode(s)) for s, fp, depth in frontier] == parsed.frontier
        # and writing it out again says the same
        again = parse_checkpoint(
            build_checkpoint_bytes(
                stats=stats, store=store, frontier=frontier, violations=violations
            )
        )
        if kind != "disk":
            assert content(again) == content(parsed)
        assert again.stats() == stats
        assert worker.restore(mutant) == ("restored", 0, 0, [], len(frontier))

    @pytest.mark.parametrize("cut", range(0, 60, 7))
    def test_every_truncation_is_a_run_dir_error(self, cut, tmp_path):
        path = tmp_path / "test.ckpt"
        write_checkpoint(path, stats=SearchStats(), frontier=[(Rec(x=1), 7, 1)])
        raw = path.read_bytes()
        path.write_bytes(raw[: cut % len(raw)])
        with pytest.raises(RunDirError):
            read_checkpoint(path)

    def test_errors_name_the_file_and_the_offset(self, tmp_path):
        store = CompactStore()
        store.record_init(1, Rec(x=0))
        store.record(2, 1, "Inc")
        raw = build_checkpoint_bytes(store=store)
        edge = raw.index(b"Inc") + 3 + 21  # the second edge record
        hostile = raw[: edge + 16] + (9).to_bytes(4, "big") + raw[edge + 20 :]
        with pytest.raises(RunDirError, match=rf"shard-7: .*offset {edge} names action 9"):
            parse_checkpoint(hostile, source="shard-7")
        with pytest.raises(RunDirError, match=r"trailing bytes .*offset \d+"):
            parse_checkpoint(raw + b"\0")

    def test_a_state_recorded_twice_is_refused(self):
        store = CompactStore()
        store.record_init(1, Rec(x=0))
        store.record(2, 1, "Inc")
        raw = bytearray(build_checkpoint_bytes(store=store))
        edge = raw.index(b"Inc") + 3 + 21
        raw[edge : edge + 8] = (1).to_bytes(8, "big")  # the root, again
        with pytest.raises(RunDirError, match="twice"):
            parse_checkpoint(bytes(raw)).restore_into(CompactStore())

    def test_an_orphan_edge_is_refused(self):
        store = CompactStore()
        store.record_init(1, Rec(x=0))
        store.record(2, 1, "Inc")
        store.record(3, 2, "Inc")
        raw = bytearray(build_checkpoint_bytes(store=store))
        edge = raw.index(b"Inc") + 3 + 21  # the second edge record: 2 <- 1
        assert raw[edge + 20] == HAS_PARENT
        raw[edge + 20] = 0
        with pytest.raises(RunDirError, match="0x0000000000000002"):
            parse_checkpoint(bytes(raw)).restore_into(CompactStore())
        worker = shard_worker(False)
        with pytest.raises(RunDirError, match="0x0000000000000002"):
            worker.restore(bytes(raw))


@st.composite
def store_dirs(draw):
    """The three logs of a small disk store, as ``{file name: bytes}``."""
    fps = draw(st.lists(FPS, unique=True, min_size=2, max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        store = DiskStore(tmp)
        store.record_init(fps[0], draw(SMALL_STATES))
        for index in range(1, len(fps)):
            parent = fps[draw(st.integers(0, index - 1))]
            store.record(fps[index], parent, draw(st.sampled_from(["Inc", "Réc", "x"])))
        store.close()
        return {
            name: (DiskStoreReader(tmp).path / name).read_bytes()
            for name in ("edges.log", "roots.log", "actions.txt")
        }


class TestTornStoreLogs:
    """A post-hoc reader over logs a kill tore reads what is whole or
    refuses with the reason — never an ``IndexError`` mid-graph."""

    @pytest.fixture
    def store_dir(self, tmp_path):
        run_check(CounterSpec(2, 3), tmp_path / "run")
        return tmp_path / "run" / "store"

    def test_whole_logs_read_back(self, store_dir):
        reader = DiskStoreReader(store_dir)
        edges = list(reader.edges())
        assert len(edges) == 16 and len(list(reader.roots())) == 1
        assert {action for _, parent, action in edges if parent is not None} == {
            "Increment"
        }

    def test_empty_action_table_is_refused(self, store_dir):
        os.truncate(store_dir / "actions.txt", 0)
        with pytest.raises(RunDirError) as refusal:
            list(DiskStoreReader(store_dir).edges())
        message = str(refusal.value)
        assert "edges.log" in message and "offset 0 names action 0" in message

    def test_empty_roots_log_is_refused(self, store_dir):
        os.truncate(store_dir / "roots.log", 0)
        with pytest.raises(RunDirError, match=r"roots\.log holds no initial state"):
            DiskStoreReader(store_dir)

    def test_torn_root_is_refused(self, store_dir):
        os.truncate(store_dir / "roots.log", 15)
        with pytest.raises(RunDirError, match=r"roots\.log: .*offset 0 runs past"):
            DiskStoreReader(store_dir)

    def test_edge_log_cut_mid_record_reads_every_whole_record(self, store_dir):
        whole = list(DiskStoreReader(store_dir).edges())
        os.truncate(store_dir / "edges.log", 21 * 9 + 13)
        assert list(DiskStoreReader(store_dir).edges()) == whole[:10]  # root + 9

    def test_action_name_without_its_newline_is_not_a_name(self, store_dir):
        with open(store_dir / "actions.txt", "ab") as handle:
            handle.write("Réc".encode()[:2])  # torn inside a character
        assert len(list(DiskStoreReader(store_dir).edges())) == 16

    def test_not_a_store_directory(self, tmp_path):
        with pytest.raises(RunDirError, match="no disk store"):
            DiskStoreReader(tmp_path)

    @given(store_dirs(), st.sampled_from(["edges.log", "roots.log", "actions.txt"]), st.data())
    def test_mutated_logs_read_or_refuse(self, files, victim, data):
        valid = files[victim]
        mutant, _ = mutate(data.draw, valid, [(0, len(valid))])
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                with open(os.path.join(tmp, name), "wb") as handle:
                    handle.write(mutant if name == victim else content)
            try:
                reader = DiskStoreReader(tmp)
                edges = list(reader.edges())
            except RunDirError:
                return
            assert all(isinstance(action, str) for _, _, action in edges)
            assert [fp for fp, _ in reader.roots()] == [
                fp for fp, parent, action in edges if action == "<init>"
            ]

    def test_resume_refuses_a_torn_checkpointed_store(self, tmp_path):
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        roots = tmp_path / "run" / "store" / "roots.log"
        roots.write_bytes(roots.read_bytes()[:-3] + b"\0\0\0\0\0\0")
        with pytest.raises(RunDirError, match=r"roots\.log"):
            run_check(CounterSpec(3, 3), tmp_path / "run", resume=True)


class TestTornRunDirFiles:
    """``sandtable check --resume`` over a torn segment or manifest exits 2
    naming the file — no ``ValueError`` or ``JSONDecodeError`` traceback."""

    ARGV = ["check", "--system", "pysyncobj", "--nodes", "2", "--max-states", "400",
            "--checkpoint-states", "200"]

    @pytest.mark.parametrize(
        "victim, keep",
        [("store/seg-0.fp", 0), ("store/seg-0.fp", 7), ("store/seg-0.fp", 8),
         ("manifest.json", 40)],
        ids=["empty-segment", "torn-segment", "short-segment", "truncated-manifest"],
    )
    def test_resume_names_the_torn_file(self, tmp_path, capsys, victim, keep):
        argv = self.ARGV + ["--run-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        os.truncate(tmp_path / "run" / victim, keep)
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert os.path.basename(victim) in err and "Traceback" not in err

    def test_truncated_parallel_manifest_is_refused(self, tmp_path):
        rd = RunDir.create(tmp_path / "run")
        (rd.checkpoint_dir / "parallel.json").write_text('{"codec_version": 2, "st')
        with pytest.raises(RunDirError, match=r"parallel\.json"):
            load_parallel_resume(rd)


def _drop(key):
    return lambda manifest: manifest.pop(key)


def _put(value, *path):
    def mutate(manifest):
        holder = manifest
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value(holder[path[-1]]) if callable(value) else value

    return mutate


class TestMalformedParallelManifest:
    """A ``parallel.json`` that ``ParallelCheckpointer.commit`` would not
    have written is a ``RunDirError`` naming it — never a ``KeyError``
    traceback, never a worker file read from outside the checkpoint
    directory — and ``check --resume`` and ``check-liveness`` exit 2."""

    @staticmethod
    def committed(tmp_path):
        rd = RunDir.create(tmp_path / "run")
        ParallelCheckpointer(rd).commit(
            workers=2,
            depth=1,
            stats=SearchStats(distinct_states=1),
            violations=[
                Violation(
                    "Inv",
                    PendingTrace(1, 5, TraceStep("Act", ("a",), Rec(x=1))),
                    kind="transition",
                )
            ],
        )
        return rd

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(_drop("stats"), id="no-stats"),
            pytest.param(_put(1, "stats", "bogus"), id="unknown-stat"),
            pytest.param(_put("3", "stats", "transitions"), id="stat-not-int"),
            pytest.param(
                _put(lambda v: list(v.values()), "violations", 0), id="record-not-object"
            ),
            pytest.param(
                _put("zz", "violations", 0, "trace", "step", "state_codec"), id="bad-hex"
            ),
            pytest.param(_put(7, "violations", 0, "invariant"), id="invariant-not-str"),
            pytest.param(
                _put(lambda t: {"pending_depth": 1}, "violations", 0, "trace"),
                id="violation-not-anchored",
            ),
            pytest.param(
                _put(2**64, "violations", 0, "trace", "anchor"), id="anchor-not-fp"
            ),
            pytest.param(_put({"v": 1}, "violations"), id="violations-not-list"),
            pytest.param(_put(lambda f: f[0], "files"), id="files-not-list"),
            pytest.param(
                _put(lambda f: ["../../etc/passwd", f[1]], "files"), id="files-escape"
            ),
            pytest.param(_put(lambda f: f[::-1], "files"), id="files-out-of-order"),
            pytest.param(_put(lambda f: f[:1], "files"), id="files-short"),
            pytest.param(_put("2", "workers"), id="workers-str"),
            pytest.param(_put("1", "depth"), id="depth-str"),
            pytest.param(_put([1], "metrics"), id="metrics-list"),
        ],
    )
    def test_refused_naming_the_file(self, tmp_path, mutate):
        rd = self.committed(tmp_path)
        path = rd.checkpoint_dir / "parallel.json"
        assert load_parallel_resume(rd).workers == 2
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(RunDirError, match=r"parallel\.json"):
            load_parallel_resume(rd)

    def test_a_frontier_sizes_key_is_ignored(self, tmp_path):
        """Manifests written before the master took the frontier lengths
        from the workers' ``restored`` replies alone carry a
        ``frontier_sizes`` object; they resume as if it were absent."""
        rd = self.committed(tmp_path)
        path = rd.checkpoint_dir / "parallel.json"
        manifest = json.loads(path.read_text())
        assert "frontier_sizes" not in manifest
        expected = load_parallel_resume(rd)
        manifest["frontier_sizes"] = {"0": 1, "1": 0}
        path.write_text(json.dumps(manifest))
        assert load_parallel_resume(rd) == expected

    @pytest.mark.skipif(not HAS_FORK, reason="parallel BFS requires fork")
    def test_cli_exits_2(self, tmp_path, capsys):
        run = str(tmp_path / "run")
        argv = ["--system", "pysyncobj", "--nodes", "2"]
        check = ["check", *argv, "--workers", "2", "--max-states", "400",
                 "--checkpoint-states", "200", "--run-dir", run]
        assert main(check) == 0
        path = tmp_path / "run" / "checkpoint" / "parallel.json"
        manifest = json.loads(path.read_text())
        del manifest["stats"]
        path.write_text(json.dumps(manifest))
        liveness = ["check-liveness", run, *argv, "--temporal", "eventually-elects-leader"]
        for command in (check + ["--resume"], liveness):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "parallel.json" in err and "Traceback" not in err

    @pytest.mark.skipif(not HAS_FORK, reason="parallel BFS requires fork")
    def test_descriptor_violations_refused(self, tmp_path, capsys):
        """A manifest whose violations are the 8-tuple descriptors shard
        workers sent before the one record form is refused, not misread."""
        run = str(tmp_path / "run")
        check = ["check", "--system", "pysyncobj", "--nodes", "2", "--workers", "2",
                 "--max-states", "400", "--checkpoint-states", "200", "--run-dir", run]
        assert main(check) == 0
        path = tmp_path / "run" / "checkpoint" / "parallel.json"
        manifest = json.loads(path.read_text())
        manifest["violations"] = [
            ["state", "Inv", 2, 12345, "", {"$tuple": []}, "", None],
            ["transition", "Inv", 2, 67890, "Act", {"$tuple": ["a"]}, "", "00"],
        ]
        path.write_text(json.dumps(manifest))
        with pytest.raises(RunDirError, match=r"parallel\.json"):
            load_parallel_resume(RunDir.open(run))
        capsys.readouterr()
        assert main(check + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert "parallel.json" in err and "Traceback" not in err


class TestCheckpointHeaderViolations:
    """A checkpoint header's violations go through the artifact loader's
    checks: a field of the wrong type is refused, not carried along."""

    @staticmethod
    def container(**changes):
        violation = Violation("Inv", PendingTrace(2), kind="state")
        data = build_checkpoint_bytes(store=CompactStore(), violations=[violation])
        size = int.from_bytes(data[8:12], "big")
        header = json.loads(data[12 : 12 + size])
        header["violations"][0].update(changes)
        body = json.dumps(header).encode()
        return data[:8] + len(body).to_bytes(4, "big") + body + data[12 + size :]

    def test_pending_violation_round_trips(self):
        (found,) = parse_checkpoint(self.container()).violations()
        assert (found.invariant, found.kind, found.depth) == ("Inv", "state", 2)
        assert found.trace.pending

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({"invariant": 5}, id="invariant-int"),
            pytest.param({"kind": [1]}, id="kind-list"),
            pytest.param({"detail": 7}, id="detail-int"),
            pytest.param({"trace": {"pending_depth": "2"}}, id="pending-depth-str"),
            pytest.param({"trace": {"pending_depth": -1}}, id="pending-depth-negative"),
        ],
    )
    def test_wrong_types_refused(self, changes):
        with pytest.raises(RunDirError, match="malformed checkpoint header"):
            parse_checkpoint(self.container(**changes))


# ---------------------------------------------------------------------------
# run directories
# ---------------------------------------------------------------------------


class TestRunDir:
    def test_create_then_open(self, tmp_path):
        rd = RunDir.create(tmp_path / "run", config={"spec": "toy"})
        manifest = RunDir.open(tmp_path / "run").manifest()
        assert manifest["codec_version"] == CODEC_VERSION
        assert manifest["status"] == "running"
        assert manifest["config"] == {"spec": "toy"}
        assert rd.checkpoint_dir.is_dir() and rd.artifacts_dir.is_dir()

    def test_refuses_existing_run(self, tmp_path):
        RunDir.create(tmp_path / "run")
        with pytest.raises(RunDirError, match="already contains a run"):
            RunDir.create(tmp_path / "run")

    def test_refuses_wrong_codec_version(self, tmp_path):
        rd = RunDir.create(tmp_path / "run")
        rd.update_manifest(codec_version=CODEC_VERSION + 1)
        with pytest.raises(RunDirError, match="codec version"):
            RunDir.open(tmp_path / "run")

    def test_refuses_wrong_layout_version(self, tmp_path):
        rd = RunDir.create(tmp_path / "run")
        rd.update_manifest(format_version=99)
        with pytest.raises(RunDirError, match="layout version"):
            RunDir.open(tmp_path / "run")

    def test_config_check_ignores_budget_keys(self, tmp_path):
        rd = RunDir.create(
            tmp_path / "run", config={"spec": "toy", "max_states": 100}
        )
        rd.check_config({"spec": "toy", "max_states": 5000}, ignore=("max_states",))
        with pytest.raises(RunDirError, match="spec"):
            rd.check_config({"spec": "other", "max_states": 100}, ignore=("max_states",))


# ---------------------------------------------------------------------------
# interrupted + resumed == uninterrupted
# ---------------------------------------------------------------------------


class Interrupted(Exception):
    """Stands in for a kill arriving right after a checkpoint commits."""


def kill_after(n):
    def hook(checkpointer):
        if checkpointer.checkpoints_written == n:
            raise Interrupted

    return hook


class TestSerialResume:
    def test_resume_matches_uninterrupted_exhaustion(self, tmp_path):
        baseline = bfs_explore(CounterSpec(3, 3))
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                memory_budget=16,
                on_checkpoint=kill_after(2),
            )
        resumed = run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            resume=True,
            checkpoint_states=10,
            memory_budget=16,
        )
        assert_same_result(resumed, baseline)
        assert RunDir.open(tmp_path / "run").manifest()["status"] == "complete"

    def test_resume_matches_uninterrupted_violation(self, tmp_path):
        baseline = bfs_explore(TokenRingSpec(3, buggy=True))
        with pytest.raises(Interrupted):
            run_check(
                TokenRingSpec(3, buggy=True),
                tmp_path / "run",
                checkpoint_states=2,
                on_checkpoint=kill_after(1),
            )
        resumed = run_check(
            TokenRingSpec(3, buggy=True),
            tmp_path / "run",
            resume=True,
            checkpoint_states=2,
        )
        assert_same_result(resumed, baseline)
        assert resumed.violation.trace == baseline.violation.trace
        saved = load_violation(tmp_path / "run" / "artifacts" / "violation.json")
        assert saved.trace == baseline.violation.trace

    def test_repeated_interruptions(self, tmp_path):
        baseline = bfs_explore(CounterSpec(3, 3))
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                resume=True,
                checkpoint_states=10,
                on_checkpoint=kill_after(2),
            )
        resumed = run_check(
            CounterSpec(3, 3), tmp_path / "run", resume=True, checkpoint_states=10
        )
        assert_same_result(resumed, baseline)

    def test_budget_may_grow_on_resume(self, tmp_path):
        baseline = bfs_explore(CounterSpec(3, 3))
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                max_states=40,
                checkpoint_states=10,
                on_checkpoint=kill_after(2),
            )
        resumed = run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            resume=True,
            checkpoint_states=10,
        )
        assert_same_result(resumed, baseline)

    def test_budget_stopped_run_resumes_after_clean_close(self, tmp_path):
        # A budget stop goes through run_check's finally-close; the store
        # must not delete files the last checkpoint references, or this
        # advertised grow-the-budget flow dies on resume.
        baseline = bfs_explore(CounterSpec(3, 3))
        stopped = run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            max_states=30,
            checkpoint_states=5,
            memory_budget=2,
        )
        assert not stopped.exhausted
        assert RunDir.open(tmp_path / "run").manifest()["status"] == "stopped"
        resumed = run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            resume=True,
            checkpoint_states=5,
            memory_budget=2,
        )
        assert_same_result(resumed, baseline)

    def test_resume_refuses_changed_spec_config(self, tmp_path):
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        with pytest.raises(RunDirError, match="symmetry"):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                resume=True,
                symmetry=True,
                checkpoint_states=10,
            )

    @staticmethod
    def _record_por(run_dir, value):
        """Stamp the run's config as an older checker recorded it."""
        rd = RunDir.open(run_dir)
        rd.update_manifest(config={**rd.manifest()["config"], "por": value})

    def test_resume_accepts_a_run_recorded_without_por(self, tmp_path):
        baseline = bfs_explore(CounterSpec(3, 3))
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                on_checkpoint=kill_after(2),
            )
        self._record_por(tmp_path / "run", False)
        resumed = run_check(
            CounterSpec(3, 3), tmp_path / "run", resume=True, checkpoint_states=10
        )
        assert_same_result(resumed, baseline)
        assert "por" not in RunDir.open(tmp_path / "run").manifest()["config"]

    def test_resume_refuses_a_run_recorded_with_por(self, tmp_path):
        """A partial-order-reduced run explored a smaller space: resuming
        it unreduced would silently mix two state spaces."""
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        self._record_por(tmp_path / "run", True)
        with pytest.raises(RunDirError, match="partial-order reduction"):
            run_check(
                CounterSpec(3, 3), tmp_path / "run", resume=True, checkpoint_states=10
            )

    def test_resume_keeps_the_job_record_of_an_older_checker(self, tmp_path):
        """Older checkers also ran checks as jobs of an HTTP service, which
        wrote a ``job`` key beside the config: such a run dir is an
        ordinary one, and resuming it keeps the record."""
        baseline = bfs_explore(CounterSpec(3, 3))
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                on_checkpoint=kill_after(2),
            )
        job = {
            "id": "job-0001-0f1e2d3c",
            "spec_ref": {"kind": "system", "system": "pysyncobj", "nodes": 2,
                         "bugs": [], "invariant": None},
        }
        RunDir.open(tmp_path / "run").update_manifest(job=job)
        resumed = run_check(
            CounterSpec(3, 3), tmp_path / "run", resume=True, checkpoint_states=10
        )
        assert_same_result(resumed, baseline)
        manifest = RunDir.open(tmp_path / "run").manifest()
        assert manifest["status"] == "complete" and manifest["job"] == job

    def test_resume_without_checkpoint_is_a_clear_error(self, tmp_path):
        run_check(CounterSpec(2, 2), tmp_path / "run", checkpoint_every=3600)
        with pytest.raises(RunDirError, match="no checkpoint"):
            run_check(CounterSpec(2, 2), tmp_path / "run", resume=True)

    def test_resume_fresh_directory_is_a_clear_error(self, tmp_path):
        with pytest.raises(RunDirError, match="not a run directory"):
            run_check(CounterSpec(2, 2), tmp_path / "nope", resume=True)

    def test_checkpoint_reloads_disk_store(self, tmp_path):
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                checkpoint_states=10,
                memory_budget=8,
                on_checkpoint=kill_after(2),
            )
        store, resume = load_serial_resume(RunDir.open(tmp_path / "run"), 8)
        assert isinstance(store, DiskStore)
        assert len(store) == resume.stats.distinct_states
        assert resume.frontier, "a mid-run checkpoint has pending states"
        store.close()


class TestParallelCheckpointGenerations:
    """Worker checkpoint files must never be overwritten before the
    master manifest commits: a crash between the two would otherwise
    leave the old manifest pointing at new-generation shard files from
    a different round, silently losing states on resume."""

    def commit(self, cp, depth):
        cp.commit(
            workers=2,
            depth=depth,
            stats=SearchStats(distinct_states=depth),
            violations=[],
        )

    def write_worker_files(self, cp):
        paths = [cp.worker_path(wid) for wid in range(2)]
        for path in paths:
            write_checkpoint(path, store=CompactStore(), frontier=[])
        return paths

    def test_crash_between_worker_files_and_commit_is_safe(self, tmp_path):
        rd = RunDir.create(tmp_path / "run")
        cp = ParallelCheckpointer(rd)
        gen0 = self.write_worker_files(cp)
        self.commit(cp, depth=1)
        gen1 = self.write_worker_files(cp)
        assert set(gen1).isdisjoint(gen0), "a new generation gets fresh names"
        # crash here: new worker files exist, master manifest not rewritten
        resume = load_parallel_resume(rd)
        assert resume.worker_files == gen0
        assert resume.depth == 1
        assert all(path.exists() for path in gen0)

    def test_commit_prunes_superseded_generations(self, tmp_path):
        rd = RunDir.create(tmp_path / "run")
        cp = ParallelCheckpointer(rd)
        gen0 = self.write_worker_files(cp)
        self.commit(cp, depth=1)
        gen1 = self.write_worker_files(cp)
        self.commit(cp, depth=2)
        assert load_parallel_resume(rd).worker_files == gen1
        assert all(path.exists() for path in gen1)
        assert not any(path.exists() for path in gen0)

    def test_resumed_checkpointer_skips_committed_generation(self, tmp_path):
        rd = RunDir.create(tmp_path / "run")
        cp = ParallelCheckpointer(rd)
        committed = self.write_worker_files(cp)
        self.commit(cp, depth=1)
        # a new session (resume) must not reuse the committed file names
        fresh = ParallelCheckpointer(rd)
        assert set(fresh.worker_path(wid) for wid in range(2)).isdisjoint(committed)


@pytest.mark.skipif(not HAS_FORK, reason="parallel BFS requires fork")
class TestParallelResume:
    def test_resume_matches_uninterrupted_exhaustion(self, tmp_path):
        baseline = bfs_explore(CounterSpec(3, 3), workers=2)
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                workers=2,
                checkpoint_states=10,
                on_checkpoint=kill_after(2),
            )
        resumed = run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            workers=2,
            resume=True,
            checkpoint_states=10,
        )
        assert_same_result(resumed, baseline)

    def test_resume_matches_uninterrupted_violation(self, tmp_path):
        baseline = bfs_explore(TokenRingSpec(3, buggy=True, max_steps=20), workers=2)
        with pytest.raises(Interrupted):
            run_check(
                TokenRingSpec(3, buggy=True, max_steps=20),
                tmp_path / "run",
                workers=2,
                checkpoint_states=2,
                on_checkpoint=kill_after(1),
            )
        resumed = run_check(
            TokenRingSpec(3, buggy=True, max_steps=20),
            tmp_path / "run",
            workers=2,
            resume=True,
            checkpoint_states=2,
        )
        assert_same_result(resumed, baseline)
        assert resumed.violation.trace == baseline.violation.trace

    def test_repeated_interruptions(self, tmp_path):
        # Each session commits fresh checkpoint generations; resuming
        # across several of them still matches the uninterrupted run.
        baseline = bfs_explore(CounterSpec(3, 3), workers=2)
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                workers=2,
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                workers=2,
                resume=True,
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        resumed = run_check(
            CounterSpec(3, 3),
            tmp_path / "run",
            workers=2,
            resume=True,
            checkpoint_states=10,
        )
        assert_same_result(resumed, baseline)

    def test_resume_refuses_changed_worker_count(self, tmp_path):
        with pytest.raises(Interrupted):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                workers=2,
                checkpoint_states=10,
                on_checkpoint=kill_after(1),
            )
        with pytest.raises(RunDirError, match="workers"):
            run_check(
                CounterSpec(3, 3),
                tmp_path / "run",
                workers=3,
                resume=True,
                checkpoint_states=10,
            )


# ---------------------------------------------------------------------------
# durable runs end to end
# ---------------------------------------------------------------------------


class TestRunCheck:
    def test_disk_backed_run_matches_in_memory(self, tmp_path):
        baseline = bfs_explore(CounterSpec(3, 3))
        durable = run_check(
            CounterSpec(3, 3), tmp_path / "run", memory_budget=16
        )
        assert_same_result(durable, baseline)
        manifest = RunDir.open(tmp_path / "run").manifest()
        assert manifest["status"] == "complete"
        assert manifest["result"]["stop_reason"] == "exhausted"

    def test_violation_writes_artifact_and_status(self, tmp_path):
        result = run_check(TokenRingSpec(3, buggy=True), tmp_path / "run")
        assert result.found_violation
        manifest = RunDir.open(tmp_path / "run").manifest()
        assert manifest["status"] == "violation"
        assert manifest["result"]["violation"] == "MutualExclusion"
        saved = load_violation(tmp_path / "run" / "artifacts" / "violation.json")
        assert saved.invariant == "MutualExclusion"
        assert saved.trace == result.violation.trace

    def test_bfs_explore_run_dir_kwarg(self, tmp_path):
        result = bfs_explore(
            CounterSpec(2, 3), run_dir=tmp_path / "run", checkpoint_states=5
        )
        assert result.stats.distinct_states == 16
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_bfs_explore_run_dir_accepts_explorer_kwargs(self, tmp_path):
        # kwargs valid without run_dir must not blow up with it
        result = bfs_explore(
            CounterSpec(2, 3),
            run_dir=tmp_path / "run",
            checkpoint_states=5,
            progress_interval=10,
        )
        assert result.stats.distinct_states == 16


# ---------------------------------------------------------------------------
# replayable artifacts
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_trace_artifact_round_trip(self, tmp_path):
        trace = bfs_explore(TokenRingSpec(3, buggy=True)).violation.trace
        save_trace(tmp_path / "trace.json", trace)
        assert load_trace(tmp_path / "trace.json") == trace

    def test_violation_artifact_round_trip(self, tmp_path):
        violation = bfs_explore(TokenRingSpec(3, buggy=True)).violation
        save_violation(tmp_path / "v.json", violation)
        loaded = load_violation(tmp_path / "v.json")
        assert loaded.invariant == violation.invariant
        assert loaded.kind == violation.kind
        assert loaded.trace == violation.trace

    def test_artifact_refuses_wrong_codec_version(self, tmp_path):
        violation = bfs_explore(TokenRingSpec(3, buggy=True)).violation
        save_violation(tmp_path / "v.json", violation)
        data = json.loads((tmp_path / "v.json").read_text())
        data["codec_version"] = CODEC_VERSION + 1
        (tmp_path / "v.json").write_text(json.dumps(data))
        with pytest.raises(RunDirError, match="codec version"):
            load_violation(tmp_path / "v.json")

    def test_bare_trace_dict_loads(self, tmp_path):
        trace = bfs_explore(TokenRingSpec(3, buggy=True)).violation.trace
        (tmp_path / "bare.json").write_text(json.dumps(trace.to_dict()))
        assert load_trace(tmp_path / "bare.json") == trace

    @pytest.mark.parametrize(
        "artifact",
        [
            # the codec hex is an object and the steps a number
            {"codec_version": CODEC_VERSION, "invariant": "X",
             "trace": {"initial_codec": {"a": 1}, "steps": 3}},
            # a well-formed state, but a step's action is an object
            {"codec_version": CODEC_VERSION, "invariant": "X",
             "trace": {"initial": {"a": 1}, "steps": [{"action": {"a": 1}, "state": {}}]}},
            {"codec_version": CODEC_VERSION, "invariant": "X",
             "trace": {"initial_codec": "zz"}},
            # codec bytes of a value that is not a record
            {"invariant": "X", "trace": {"initial_codec": encode(7).hex()}},
            {"invariant": "X"},
            ["not", "an", "object"],
        ],
    )
    def test_malformed_violation_is_a_run_dir_error(self, artifact, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(RunDirError, match="v.json"):
            load_violation(path)


def _json_paths(value, path=()):
    """Every ``(path, value)`` inside a JSON document, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _set_path(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


_DELETE = object()

#: JSON values a mutant may put anywhere: every JSON type, and hex that
#: decodes to bytes of no value, of a non-record value, or of a record.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["zz", "00", encode(7).hex(), encode(Rec(x=1)).hex()]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["$tuple", "$set", "$rec", "$bytes", "$codec", "$str", "a"]),
        inner,
        max_size=2,
    ),
    max_leaves=6,
)

def _unread(path):
    """Fields the loaders do not read: the thawed state renderings beside
    the codec bytes, the depth and the trace version."""
    if path in (("depth",), ("trace", "version"), ("trace", "initial")):
        return True
    return len(path) == 4 and path[:2] == ("trace", "steps") and path[3] == "state"


class TestHostileArtifacts:
    """``load_violation`` and ``load_lasso`` give back what ``save_*``
    wrote or raise ``RunDirError`` naming the file: ``replay --trace``
    reads these files from the user."""

    @staticmethod
    def mutant(draw, doc, raw):
        """Truncate the bytes, delete a key, or put any JSON value at any
        path; returns the mutant and the path (``None`` for a truncation)."""
        kind = draw(st.sampled_from(["replace", "delete", "truncate"]))
        if kind == "truncate":
            return raw[: draw(st.integers(0, len(raw) - 1))], None
        paths = [path for path, _ in _json_paths(doc)]
        if kind == "delete":
            paths = [path for path in paths if path and isinstance(path[-1], str)]
        path = draw(st.sampled_from(paths))
        value = _DELETE if kind == "delete" else draw(_JSON_VALUES)
        return json.dumps(_set_path(doc, path, value)).encode(), path

    def check(self, data, tmp_path, save, load, original):
        path = tmp_path / "artifact.json"
        save(path, original)
        expected = load(path)
        raw = path.read_bytes()
        mutant, touched = self.mutant(data.draw, json.loads(raw), raw)
        path.write_bytes(mutant)
        try:
            loaded = load(path)
        except RunDirError as exc:
            assert "artifact.json" in str(exc)
            return
        if touched is None or _unread(touched):
            assert loaded == expected
        # what loads is a value the writer writes and reads back as is
        again = tmp_path / "again.json"
        save(again, loaded)
        assert load(again) == loaded

    @given(data=st.data())
    def test_violation_mutants(self, data, tmp_path_factory):
        trace = TestTraceRoundTrip().make_gnarly_trace()
        self.check(
            data,
            tmp_path_factory.mktemp("violation"),
            save_violation,
            load_violation,
            Violation("Inv", trace, kind="state", detail="d"),
        )

    @given(data=st.data())
    def test_lasso_mutants(self, data, tmp_path_factory):
        lasso = LassoTrace(TestTraceRoundTrip().make_gnarly_trace(), cycle_start=1)
        self.check(
            data,
            tmp_path_factory.mktemp("lasso"),
            lambda path, value: save_lasso(path, value[1], value[0]),
            load_lasso,
            ("ev", lasso),
        )
