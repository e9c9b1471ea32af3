"""Smoke test of the benchmark suite (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py -q

Runs a whole set at ~1/20 size — one untraced round, the traced round and
the layer microbenches — and checks the shape of what comes out, not the
speed: names, counts, verdict gate, ``--compare`` and the single-run form
the benchmark driver calls.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

SUITE_DIR = pathlib.Path(__file__).resolve().parent
RUN = [sys.executable, str(SUITE_DIR / "run.py")]
MANIFEST = json.loads((SUITE_DIR.parent.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((SUITE_DIR / "expected.json").read_text())

WORKLOADS = [
    "raft_deeplog_serial",
    "grid_fast_serial",
    "pysyncobj_exhaust_serial",
    "pysyncobj_exhaust_workers2",
    "raftos_exhaust_symmetry",
    "raftos_durable_liveness",
    "pysyncobj_tracecheck_walklogs",
]
END_TO_END = ["setup_s", "time_to_verdict_s", "states_per_s", "cpu_s", "peak_rss_mb"]
LAYERS = {
    "core.compile": 9,
    "core.state": 8,
    "core.engine": 21,
    "core.symmetry": 5,
    "core.parallel": 11,
    "dist.wire": 2,
    "persist.diskstore": 6,
    "persist.checkpoint": 4,
    "temporal.graph": 3,
    "temporal.lasso": 3,
    "tracecheck.logfmt": 2,
    "tracecheck.matcher": 4,
    "trace": 2,
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "suite.json"
    proc = subprocess.run(
        RUN + ["--scale", "smoke", "--rounds", "1", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(out.read_text()), proc.stdout


def test_manifest_is_within_the_contract():
    assert [w["name"] for w in MANIFEST["workloads"]] == WORKLOADS
    assert [m["name"] for m in MANIFEST["end_to_end"]] == END_TO_END
    layer_names = [m["name"] for m in MANIFEST["per_layer"]]
    assert len(layer_names) == len(set(layer_names)) == sum(LAYERS.values()) == 80
    for layer, count in LAYERS.items():
        assert sum(name.startswith(layer + ".") for name in layer_names) == count, layer
    assert len(WORKLOADS) <= 8 and len(END_TO_END) <= 16 and len(layer_names) <= 128
    for name in WORKLOADS + END_TO_END + layer_names:
        assert NAME.fullmatch(name), name
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert MANIFEST["paths"] == ["benchmarks/suite"]


def test_expected_census():
    for scale in ("full", "smoke"):
        assert list(EXPECTED[scale]) == WORKLOADS
        gate = EXPECTED[scale]
        assert gate["pysyncobj_exhaust_serial"] == gate["pysyncobj_exhaust_workers2"]
        assert gate["grid_fast_serial"]["distinct_states"] == gate["grid_fast_serial"]["closed_form_states"]
    full = EXPECTED["full"]
    assert full["grid_fast_serial"]["distinct_states"] == 7**6
    serial = full["pysyncobj_exhaust_serial"]
    assert (serial["distinct_states"], serial["transitions"], serial["max_depth"]) == (70_112, 290_619, 19)
    assert serial["stop_reason"] == "exhausted"


def test_full_set_emits_every_name_and_no_failure(suite):
    _, report, stdout = suite
    assert list(report["workloads"]) == WORKLOADS
    layer_names = [m["name"] for m in MANIFEST["per_layer"]]
    for name, entry in report["workloads"].items():
        assert not entry["errors"], (name, entry["errors"])
        assert entry["failed_share"] == 0
        assert list(entry["end_to_end"]) == END_TO_END
        assert all(entry["end_to_end"][m]["median"] > 0 for m in END_TO_END), name
        assert list(entry["per_layer"]) == layer_names
        assert entry["per_layer"]["trace.unattributed_share"] <= 0.02
    # every metric is printed by name with its unit
    for metric in MANIFEST["end_to_end"]:
        assert re.search(rf"{re.escape(metric['name'])}\s+[\d.]+ {re.escape(metric['unit'])}", stdout)


def test_each_layer_shows_on_its_workload(suite):
    layers = {name: entry["per_layer"] for name, entry in suite[1]["workloads"].items()}
    assert layers["raftos_exhaust_symmetry"]["core.symmetry.canonical_s"] > 0
    assert layers["pysyncobj_exhaust_serial"]["core.symmetry.canonical_s"] == 0
    assert layers["pysyncobj_exhaust_workers2"]["core.parallel.rounds"] > 0
    assert layers["pysyncobj_exhaust_workers2"]["dist.wire.encode_message_us_per_state"] > 0
    assert layers["grid_fast_serial"]["core.engine.store.disk.insert_ns"] > 0
    assert layers["raft_deeplog_serial"]["core.state.encode_delta_us"] > 0
    assert layers["raftos_durable_liveness"]["persist.diskstore.spills"] > 0
    assert layers["raftos_durable_liveness"]["temporal.graph.states"] > 0
    assert layers["pysyncobj_tracecheck_walklogs"]["tracecheck.matcher.events_per_s"] > 0


def test_compare_with_itself_is_all_ok(suite):
    out, _, _ = suite
    proc = subprocess.run(RUN + ["--compare", str(out), str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.split()[:1] and line.split()[0] in END_TO_END + ["failed_share"]]
    assert len(rows) == (len(END_TO_END) + 1) * len(WORKLOADS)
    assert all(row.split()[-1] == "ok" for row in rows), proc.stdout
    assert "overall: ok" in proc.stdout


@pytest.mark.parametrize("trace, names", [(0, END_TO_END), (1, [m["name"] for m in MANIFEST["per_layer"]])])
def test_single_run_form(trace, names):
    proc = subprocess.run(
        RUN + ["--workload", "raftos_exhaust_symmetry", "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--scale", "smoke"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)


def test_a_wrong_verdict_fails_the_run():
    sys.path.insert(0, str(SUITE_DIR))
    try:
        import run
    finally:
        sys.path.remove(str(SUITE_DIR))
    gate = json.loads(json.dumps(EXPECTED["smoke"]))
    good = {"workload": "grid_fast_serial", "verdict": dict(gate["grid_fast_serial"])}
    assert run.verdict_errors(good, gate) == []
    gate["grid_fast_serial"]["transitions"] += 1
    assert run.verdict_errors(good, gate)
    assert run.verdict_errors({"error": "timed out"}, gate) == ["timed out"]
