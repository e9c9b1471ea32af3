"""Tests for the ``sandtable`` command line."""

import re

import pytest

from repro.cli import CHECK_CONFLICTS, SELFTEST_CONFLICTS, main
from repro.persist.rundir import read_json
from repro.testkit import replay_artifact


#: ``check --temporal`` on a census small enough to run to exhaustion.
LIVENESS = ("eventually-elects-leader", "always-commit-caught-up")
LIVENESS_CHECK = ["check", "--system", "pysyncobj", "--nodes", "2"] + [
    arg for name in LIVENESS for arg in ("--temporal", name)
]


def _verdict_lines(out):
    return [line for line in out.splitlines() if line.startswith(("<>", "[]<>"))]


@pytest.fixture(scope="module")
def serial_liveness(tmp_path_factory):
    """The reference for :data:`LIVENESS_CHECK`: the verdict lines and
    the ``--out`` lasso of a serial census kept in memory."""
    from repro.core import BFSExplorer
    from repro.core.engine import CompactStore
    from repro.dist.specref import make_spec
    from repro.persist import save_lasso
    from repro.temporal import check_graph, materialize_graph, resolve_property

    spec = make_spec("pysyncobj", 2, (), None)
    store = CompactStore()
    BFSExplorer(spec, store=store, stop_on_violation=False).run()
    graph = materialize_graph(spec, store)
    results = [check_graph(graph, resolve_property(spec, name)) for name in LIVENESS]
    assert all(not tres.holds for tres in results)
    out = tmp_path_factory.mktemp("serial-liveness") / "lasso.json"
    save_lasso(out, results[0].lasso, LIVENESS[0])
    return [tres.describe() for tres in results], out.read_bytes()


class TestBugsCommand:
    def test_lists_all_bugs(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert "PySyncObj#4" in out
        assert "ZooKeeper#1" in out
        assert out.count("\n") >= 24  # header + 23 bugs


class TestCheckCommand:
    def test_correct_system_is_clean(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--max-states",
                "5000",
                "--time-budget",
                "20",
            ]
        )
        assert code == 0
        assert "no violation" in capsys.readouterr().out

    def test_seeded_bug_found(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "raftos",
                "--nodes",
                "2",
                "--bug",
                "R1",
                "--invariant",
                "MatchIndexMonotonic",
                "--max-states",
                "100000",
                "--time-budget",
                "60",
            ]
        )
        assert code == 1
        assert "MatchIndexMonotonic" in capsys.readouterr().out

    def test_symmetry_flag(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "xraft",
                "--max-states",
                "2000",
                "--symmetry",
                "--time-budget",
                "20",
            ]
        )
        assert code == 0


class TestReducerFlags:
    def test_fast_check_runs_clean(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--fast",
                "--max-states",
                "5000",
                "--time-budget",
                "20",
            ]
        )
        assert code == 0
        assert "no violation" in capsys.readouterr().out

    def test_fast_out_equals_full_store_out(self, tmp_path, capsys):
        """A --fast violation is re-searched into the full-store trace, so
        its --out artifact is the full-store run's, byte for byte."""
        seeded = [
            "check", "--system", "raftos", "--nodes", "2", "--bug", "R1",
            "--invariant", "MatchIndexMonotonic", "--time-budget", "60",
        ]
        fast, full = tmp_path / "fast.json", tmp_path / "full.json"
        assert main(seeded + ["--fast", "--out", str(fast)]) == 1
        assert main(seeded + ["--out", str(full)]) == 1
        assert "MatchIndexMonotonic" in capsys.readouterr().out
        assert fast.read_bytes() == full.read_bytes()

    def test_por_is_a_usage_error(self, capsys):
        """Partial-order reduction is deleted, flag and all."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--system", "pysyncobj", "--nodes", "2", "--por"])
        assert exit_info.value.code == 2
        assert "--por" in capsys.readouterr().err

    def test_no_compile_is_a_usage_error(self, capsys):
        """The interpreted pipeline has no command-line switch any more."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--system", "pysyncobj", "--nodes", "2", "--no-compile"])
        assert exit_info.value.code == 2
        assert "--no-compile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, extra",
        [
            (0, ["--temporal", "eventually-elects-leader", "--fast"]),
            (1, ["--resume"]),
            (2, ["--checkpoint-every", "5"]),
            (2, ["--checkpoint-states", "100"]),
        ],
        ids=["temporal-fast", "resume-without-run-dir",
             "checkpoint-every-without-run-dir", "checkpoint-states-without-run-dir"],
    )
    def test_conflicting_check_flags_exit_2(self, row, extra, tmp_path, monkeypatch, capsys):
        """Every row of the one conflict table is refused with its own
        message, before any work: no run dir, no worker, no exploration."""
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--system", "pysyncobj", "--nodes", "2"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == CHECK_CONFLICTS[row][1] + "\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_check_conflicts_are_the_three_rows(self):
        assert len(CHECK_CONFLICTS) == 3

    @pytest.mark.parametrize(
        "mode",
        [
            [[]],
            [["--run-dir", "run"]],
            [
                ["--run-dir", "run", "--max-states", "3000", "--checkpoint-states", "1000"],
                ["--run-dir", "run", "--resume"],
            ],
            [["--workers", "2"]],
            [["--workers", "3"]],
            [["two-agents"]],
        ],
        ids=["temporal-serial", "temporal-run-dir", "temporal-resume", "temporal-workers",
             "temporal-workers-3", "temporal-worker"],
    )
    def test_temporal_check_takes_every_mode(
        self, mode, serial_liveness, tmp_path, monkeypatch, capsys
    ):
        """``check --temporal`` runs in every search mode ``check`` has:
        explored to exhaustion, each prints the verdict lines of a serial
        census kept in memory and writes its lasso byte for byte."""
        import threading

        from repro.dist.agent import WorkerAgent

        monkeypatch.chdir(tmp_path)
        agents = []
        try:
            for extra in mode:
                if extra == ["two-agents"]:
                    agents = [WorkerAgent() for _ in range(2)]
                    for agent in agents:
                        threading.Thread(target=agent.serve_forever, daemon=True).start()
                    extra = [arg for agent in agents for arg in ("--worker", agent.address)]
                code = main(LIVENESS_CHECK + extra + ["--out", "lasso.json"])
                out = capsys.readouterr().out
        finally:
            for agent in agents:
                agent.close()
        assert code == 1
        verdicts, lasso = serial_liveness
        assert _verdict_lines(out) == verdicts
        assert (tmp_path / "lasso.json").read_bytes() == lasso

    def test_selftest_forced_reducers(self, capsys):
        code = main(
            [
                "selftest",
                "--specs",
                "2",
                "--seed",
                "cli-fast",
                "--serial-only",
                "--quiet",
                "--fast",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out


class TestSimulateCommand:
    def test_reports_walk_metrics(self, capsys):
        code = main(
            ["simulate", "--system", "wraft", "--walks", "50", "--depth", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "walks" in out and "ms/trace" in out


class TestConformanceCommand:
    def test_conforming_pair_passes(self, capsys):
        code = main(
            [
                "conformance",
                "--system",
                "xraft",
                "--quiet-period",
                "1.5",
                "--max-traces",
                "30",
            ]
        )
        assert code == 0
        assert "PASSED" in capsys.readouterr().out

    def test_impl_only_bug_fails(self, capsys):
        code = main(
            [
                "conformance",
                "--system",
                "pysyncobj",
                "--impl-bug",
                "P4",
                "--quiet-period",
                "10",
                "--max-traces",
                "200",
                "--seed",
                "5",
            ]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestValidateTraceCommand:
    def _emit(self, tmp_path):
        # A real runtime-emitted log: conformance replays with an
        # emitter attached and dumps the last replay's event log.
        path = tmp_path / "events.log"
        code = main(
            [
                "conformance",
                "--system",
                "pysyncobj",
                "--quiet-period",
                "30",
                "--max-traces",
                "2",
                "--emit-log",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_emitted_log_conforms(self, tmp_path, capsys):
        path = self._emit(tmp_path)
        code = main(["validate-trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "conforms" in out

    def test_corrupted_log_diverges_with_run_dir(self, tmp_path, capsys):
        import json

        path = self._emit(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            rec = json.loads(line)
            if "currentTerm" in rec.get("obs", {}):
                rec["obs"]["currentTerm"] = 99
                lines[i] = json.dumps(rec, sort_keys=True)
                index = rec["i"]
                break
        else:
            pytest.fail("no event with an observed currentTerm")
        bad = tmp_path / "bad.log"
        bad.write_text("\n".join(lines) + "\n")
        run_dir = tmp_path / "run"
        code = main(["validate-trace", str(bad), "--run-dir", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "diverged" in out
        assert f"#{index}" in out
        report = json.loads((run_dir / "artifacts" / "validation.json").read_text())
        assert report["conforms"] is False
        assert report["divergence_index"] == index

    def test_missing_or_malformed_log_is_usage_error(self, tmp_path, capsys):
        assert main(["validate-trace", str(tmp_path / "nope.log")]) == 2
        garbage = tmp_path / "garbage.log"
        garbage.write_text("not json\n")
        assert main(["validate-trace", str(garbage)]) == 2
        capsys.readouterr()

    def test_selftest_tracecheck_sweep(self, capsys):
        code = main(
            ["selftest", "--tracecheck", "--specs", "2", "--seed", "cli", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "log fuzz" in out and "0 failures" in out


class TestDetectAndReplay:
    def test_detect(self, capsys):
        assert main(["detect", "RaftOS#1", "--time-budget", "60"]) == 0
        out = capsys.readouterr().out
        assert "found=True" in out and "paper" in out

    def test_replay_confirms(self, capsys):
        assert main(["replay", "DaosRaft#1", "--time-budget", "90"]) == 0
        assert "CONFIRMED" in capsys.readouterr().out

    def test_unknown_bug_rejected(self):
        with pytest.raises(SystemExit):
            main(["detect", "NoSuch#1"])

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_symmetric_counterexample_replays(self, workers, tmp_path, capsys):
        # Under symmetry the replayed states are permutations of the
        # canonical ones the search stored; the saved trace must still be
        # one the implementation can follow, step by step.
        out = str(tmp_path / "v.json")
        bug = ["--system", "xraft", "--bug", "X1"]
        argv = ["check", *bug, "--symmetry", "--workers", workers, "--out", out]
        argv += ["--time-budget", "900"]  # ~45 s on an idle 2-vCPU box
        assert main(argv) == 1
        assert "violation of ElectionSafety" in capsys.readouterr().out
        assert main(["replay", "--trace", out, *bug]) == 0
        assert "CONFIRMED: ElectionSafety at depth 11" in capsys.readouterr().out


class TestSelftestCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        code = main(
            ["selftest", "--specs", "3", "--seed", "cli", "--serial-only", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 specs" in out and "OK" in out

    def test_progress_lines_name_each_spec(self, capsys):
        assert main(["selftest", "--specs", "2", "--seed", "cli", "--serial-only"]) == 0
        err = capsys.readouterr().err
        assert "seed=cli:0" in err and "seed=cli:1" in err
        assert "verdict=ok" in err

    def test_disagreement_exits_one_and_saves_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        # Same injected defect as the mutation smoke tests: collapse
        # fingerprints so every store undercounts the census.
        from repro.core.state import fingerprint as real_fingerprint

        monkeypatch.setattr(
            "repro.core.explorer.fingerprint",
            lambda state: real_fingerprint(state) & 0xF,
        )
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "selftest",
                "--specs",
                "1",
                "--seed",
                "mutation",
                "--serial-only",
                "--quiet",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "artifact:" in out
        artifacts = sorted(out_dir.glob("disagreement-*.json"))
        assert artifacts

        # Healthy engine again: --replay reports the artifact stale.
        monkeypatch.undo()
        assert main(["selftest", "--replay", str(artifacts[0])]) == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_tracecheck_out_writes_artifacts_that_replay(
        self, tmp_path, capsys, monkeypatch
    ):
        """A planted validator defect: every log is rejected at event 0.
        --out works under --tracecheck, and each artifact replays the
        failure until the defect is gone."""
        from types import SimpleNamespace

        monkeypatch.setattr(
            "repro.testkit.genlog.validate_log",
            lambda spec, log, **kwargs: SimpleNamespace(
                conforms=False,
                divergence_index=0,
                frontier_limited=False,
                verdict="diverged",
            ),
        )
        out_dir = tmp_path / "artifacts"
        argv = ["selftest", "--tracecheck", "--specs", "1", "--seed", "cli-log"]
        assert main(argv + ["--quiet", "--out", str(out_dir)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "artifact:" in out
        artifacts = sorted(out_dir.glob("log-disagreement-*.json"))
        assert artifacts and all(
            read_json(path)["kind"] == "testkit-log-disagreement" for path in artifacts
        )
        clean = next(path for path in artifacts if read_json(path)["cell"] == "clean")
        original, fresh = replay_artifact(clean)
        assert original.cell == "clean" and original.params is not None
        assert original.describe() in [item.describe() for item in fresh]

        monkeypatch.undo()
        assert main(["selftest", "--replay", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "testkit-log-disagreement" in out and "no longer reproduces" in out

    def test_temporal_artifact_replays_through_the_cli(self, tmp_path, capsys):
        import random

        from repro.testkit import TemporalFuzzFailure, sample_params, write_artifact

        failure = TemporalFuzzFailure(
            spec_seed="cli-temporal",
            params=sample_params(random.Random("cli-temporal-params")),
            cell="disk",
            prop=None,
            message="synthetic census disagreement",
        )
        path = write_artifact(tmp_path, failure)
        assert main(["selftest", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "testkit-temporal-disagreement" in out and "no longer reproduces" in out

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ("{not json", "not readable JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"kind": "testkit-something-else"}', "not a selftest artifact"),
            ('{"kind": "testkit-disagreement"}', "KeyError"),
        ],
        ids=["missing", "malformed", "not-an-object", "foreign-kind", "missing-field"],
    )
    def test_replay_of_a_bad_artifact_exits_2(self, content, reason, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        if content is not None:
            path.write_text(content)
        assert main(["selftest", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and reason in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "row, extra",
        [
            (0, ["--tracecheck", "--temporal"]),
            (1, ["--replay", "a.json", "--specs", "2"]),
            (1, ["--replay", "a.json", "--seed", "0"]),
            (1, ["--replay", "a.json", "--out", "artifacts"]),
            (1, ["--replay", "a.json", "--temporal"]),
            (1, ["--replay", "a.json", "--serial-only"]),
            (2, ["--tracecheck", "--fast"]),
            (2, ["--temporal", "--fast"]),
            (3, ["--tracecheck", "--serial-only"]),
            (4, ["--tracecheck", "--stats-out", "m.jsonl"]),
            (4, ["--temporal", "--stats-out", "m.jsonl"]),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_ignored_selftest_flags_exit_2(
        self, row, extra, tmp_path, monkeypatch, capsys
    ):
        """Every row of the selftest conflict table is refused with its own
        message before any sweep runs: nothing is printed or written."""
        monkeypatch.chdir(tmp_path)
        assert main(["selftest"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == SELFTEST_CONFLICTS[row][1] + "\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--system", "pysyncobj", "--seed", "1"],
            ["conformance", "--system", "pysyncobj", "--invariant", "Nope"],
            ["conformance", "--system", "pysyncobj", "--time-budget", "5"],
        ],
        ids=["check --seed", "conformance --invariant", "conformance --time-budget"],
    )
    def test_flags_no_command_reads_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestDurableRuns:
    def test_check_run_dir_and_resume(self, tmp_path, capsys):
        argv = [
            "check",
            "--system",
            "pysyncobj",
            "--nodes",
            "2",
            "--time-budget",
            "60",
            "--run-dir",
            str(tmp_path / "run"),
            "--checkpoint-states",
            "200",
        ]
        assert main(argv + ["--max-states", "800"]) == 0
        first = capsys.readouterr().out
        assert "800 states" in first
        assert main(argv + ["--resume", "--max-states", "5000"]) == 0
        resumed = capsys.readouterr().out
        assert "no violation" in resumed
        # The resumed run went past the first leg's budget.
        from repro.persist import RunDir

        manifest = RunDir.open(tmp_path / "run").manifest()
        assert manifest["status"] in ("complete", "stopped")
        assert manifest["result"]["stats"]["distinct_states"] > 800

    def test_resume_of_missing_run_is_a_clean_error(self, tmp_path, capsys):
        argv = [
            "check",
            "--system",
            "raftos",
            "--run-dir",
            str(tmp_path / "nowhere"),
            "--resume",
        ]
        assert main(argv) == 2
        assert "not a run directory" in capsys.readouterr().err

    def test_detect_out_then_replay_trace(self, tmp_path, capsys):
        out = tmp_path / "bug.json"
        code = main(["detect", "RaftOS#1", "--time-budget", "60", "--out", str(out)])
        assert code == 0
        assert out.exists()
        capsys.readouterr()
        # Confirmation from the saved trace alone: no re-exploration.
        assert main(["replay", "RaftOS#1", "--trace", str(out)]) == 0
        assert "CONFIRMED" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "content",
        [
            '{"codec_version": 2, "invariant": "X",'
            ' "trace": {"initial_codec": {"a": 1}, "steps": 3}}',
            '{"invariant": "X", "trace": {"initial": {"a": 1},'
            ' "steps": [{"action": {"a": 1}, "state": {}}]}}',
            '{"invariant": "X"',
            None,  # no file at all
        ],
        ids=["codec-not-hex", "action-not-a-string", "torn-json", "missing"],
    )
    def test_replay_malformed_trace_is_a_usage_error(self, content, tmp_path, capsys):
        """Exit 1 means "not confirmed": a bad artifact must not read as one."""
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_text(content)
        assert main(["replay", "RaftOS#1", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "Traceback" not in err


class TestStatsAndCoverage:
    def test_check_stats_prints_coverage_report(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.core.state.CheckedMemo.VERIFY_EVERY", 64)
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--max-states",
                "2000",
                "--time-budget",
                "20",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "action coverage" in out
        assert "ElectionTimeout" in out
        # the pair-digest memo's hit ratio, beside fp_delta_hits
        assert re.search(r"codec: fp_delta_hits \d+, .*pair memo \d+/\d+ hits", out)
        # the verdict memo: predicate evaluations beside the lookups they saved
        line = re.search(
            r"invariants: (\d+) evaluated, (\d+) memo hits \(([\d.]+)%\), 0 clears", out
        )
        evaluated, hits, percent = map(float, line.groups())
        assert 0 < evaluated < hits and percent > 60

    def test_check_stats_has_no_invariants_line_without_declared_reads(self, capsys):
        args = ["check", "--system", "zookeeper", "--max-states", "300", "--stats"]
        assert main(args) == 0
        assert "invariants:" not in capsys.readouterr().out

    def test_check_stats_prints_the_symmetry_line(self, capsys):
        args = ["check", "--system", "raftos", "--max-states", "400", "--stats"]
        assert main(args) == 0
        assert "symmetry:" not in capsys.readouterr().out
        assert main(args + ["--symmetry"]) == 0
        line = re.search(
            r"symmetry: \|G\| 6, (\d+) calls, (\d+) identity,"
            r" orbit memo (\d+)/(\d+) hits \([\d.]+%\), \d+ clears;"
            r" nested memo (\d+)/(\d+) hits \([\d.]+%\), \d+ clears",
            capsys.readouterr().out,
        )
        calls, identity, hits, lookups, nested, nested_lookups = map(int, line.groups())
        assert 0 < identity < calls and hits > 0.8 * lookups
        assert 0 < nested < nested_lookups

    def test_check_stats_out_round_trips_through_coverage(self, tmp_path, capsys):
        sink = tmp_path / "metrics.jsonl"
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--max-states",
                "1500",
                "--time-budget",
                "20",
                "--stats-out",
                str(sink),
            ]
        )
        assert code == 0
        live = capsys.readouterr().out
        assert f"wrote metrics to {sink}" in live

        from repro.obs import read_sink

        events = read_sink(sink)
        assert [e["event"] for e in events] == ["open", "final"]
        assert events[0]["meta"]["command"] == "check"
        assert events[1]["stats"]["distinct_states"] > 0

        assert main(["coverage", str(sink)]) == 0
        replayed = capsys.readouterr().out
        # The offline report reproduces the live one's coverage lines.
        live_coverage = live[live.index("action coverage") :]
        assert replayed.strip() in live_coverage.strip()

    def test_simulate_stats(self, capsys):
        code = main(
            [
                "simulate",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--walks",
                "20",
                "--depth",
                "8",
                "--stats",
            ]
        )
        assert code == 0
        assert "action coverage" in capsys.readouterr().out

    def test_coverage_rejects_missing_file(self, tmp_path, capsys):
        assert main(["coverage", str(tmp_path / "nope.jsonl")]) == 2
        assert "no metrics sink" in capsys.readouterr().err

    def test_selftest_stats_out(self, tmp_path, capsys):
        sink = tmp_path / "selftest.jsonl"
        code = main(
            [
                "selftest",
                "--specs",
                "1",
                "--seed",
                "cli",
                "--serial-only",
                "--quiet",
                "--stats-out",
                str(sink),
            ]
        )
        assert code == 0

        from repro.obs import last_metrics

        counters = last_metrics(sink)["counters"]
        assert counters["selftest.specs"] == 1
        assert counters["selftest.configs"] > 0
        assert counters["selftest.disagreements"] == 0


class TestWorkersValidation:
    def test_zero_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "--system", "pysyncobj", "--workers", "0"])
        assert err.value.code == 2
        assert "worker count must be >= 1" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "--system", "pysyncobj", "--workers", "-2"])
        assert err.value.code == 2

    def test_non_integer_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "--system", "pysyncobj", "--workers", "two"])
        assert err.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_bad_env_workers_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("SANDTABLE_WORKERS", "banana")
        code = main(
            ["check", "--system", "pysyncobj", "--nodes", "2", "--max-states", "10"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "SANDTABLE_WORKERS" in err and "positive integer" in err

    def test_env_workers_flag_wins(self, capsys, monkeypatch):
        # An explicit flag beats a bogus environment value.
        monkeypatch.setenv("SANDTABLE_WORKERS", "banana")
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--nodes",
                "2",
                "--max-states",
                "200",
                "--workers",
                "1",
            ]
        )
        assert code == 0

    def test_workers_exceeding_worker_addresses_rejected(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--workers",
                "3",
                "--worker",
                "127.0.0.1:59999",
            ]
        )
        assert code == 2
        assert "--worker addresses" in capsys.readouterr().err


class TestPositiveNumericFlags:
    """Counts and durations at or below zero are usage errors (exit 2),
    not a crash or a run that explores one or two states."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--system", "pysyncobj", "--nodes", "0"],
            ["simulate", "--system", "pysyncobj", "--nodes", "-1"],
            ["conformance", "--system", "pysyncobj", "--nodes", "0"],
            ["check-liveness", "run", "--system", "pysyncobj", "--nodes", "0"],
            ["validate-trace", "log.jsonl", "--nodes", "0"],
            ["replay", "--trace", "t.json", "--system", "pysyncobj", "--nodes", "0"],
            ["check", "--system", "pysyncobj", "--max-states", "0"],
            ["check", "--system", "pysyncobj", "--max-states", "-3"],
            ["check", "--system", "pysyncobj", "--checkpoint-states", "0"],
            ["check", "--system", "pysyncobj", "--checkpoint-every", "-5"],
            ["check", "--system", "pysyncobj", "--time-budget", "-1"],
            ["simulate", "--system", "pysyncobj", "--time-budget", "0"],
            ["detect", "RaftOS#1", "--time-budget", "nan"],
            ["replay", "RaftOS#1", "--time-budget", "0"],
            ["check", "--system", "pysyncobj", "--max-states", "many"],
            ["selftest", "--specs", "0"],
            ["selftest", "--specs", "-2"],
            ["simulate", "--system", "pysyncobj", "--walks", "0"],
            ["simulate", "--system", "pysyncobj", "--depth", "0"],
            ["conformance", "--system", "pysyncobj", "--max-traces", "0"],
            ["conformance", "--system", "pysyncobj", "--quiet-period", "0"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_non_positive_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err


class TestDistCommands:
    def test_check_against_worker_agents(self, capsys):
        import threading

        from repro.dist.agent import WorkerAgent

        agents = [WorkerAgent() for _ in range(2)]
        for agent in agents:
            threading.Thread(target=agent.serve_forever, daemon=True).start()
        try:
            code = main(
                [
                    "check",
                    "--system",
                    "pysyncobj",
                    "--nodes",
                    "2",
                    "--max-states",
                    "2000",
                    "--worker",
                    agents[0].address,
                    "--worker",
                    agents[1].address,
                    "--stats",
                ]
            )
        finally:
            for agent in agents:
                agent.close()
        assert code == 0
        out = capsys.readouterr().out
        assert "no violation" in out
        assert "exchange:" in out and "wire" in out

    def test_unreachable_worker_is_a_clean_error(self, capsys):
        code = main(
            [
                "check",
                "--system",
                "pysyncobj",
                "--worker",
                "127.0.0.1:1",
            ]
        )
        assert code == 2
        assert "cannot reach worker" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_job_service_commands_are_gone(self, command, capsys):
        """The HTTP job service is deleted, subcommands and all."""
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
