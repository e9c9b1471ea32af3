#!/usr/bin/env python3
"""The layered benchmark suite: one command, every metric, every verdict.

    python3 benchmarks/suite/run.py --seed 0                  # a full set
    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py --compare A.json B.json

A *full set* runs every workload for ``--rounds`` untraced rounds
(round-robin across workloads, so host drift hits all alike) plus one
traced round with the layer microbenches, checks every verdict against
``expected.json``, prints every metric by name with its unit and writes
the set to ``--out``.  With ``--workload`` it is the single-run form the
benchmark driver calls: it prints one JSON object as its last line.
Metric names, units and regression bounds are read from the repository's
``BENCHMARK.json``; see README.md here for what each one means.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

SUITE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
#: the driver allows 180 s per invocation; a child that hangs is killed
#: well before that and counted as failed
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 3
#: the multi-process workload and the serial twin its speed-up is taken
#: against; every other workload is one process, pinned to one CPU
SERIAL_REFERENCE = {"pysyncobj_exhaust_workers2": "pysyncobj_exhaust_serial"}


def load_manifest():
    manifest = json.loads(MANIFEST.read_text())
    manifest["workload_names"] = [w["name"] for w in manifest["workloads"]]
    manifest["units"] = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    return manifest


def load_expected(scale):
    return json.loads((SUITE_DIR / "expected.json").read_text())[scale]


# -- children ------------------------------------------------------------------


def spawn(workload, seed, scale, mode):
    """Run one fresh child; returns its JSON, or ``{"error": ...}``."""
    command = [
        sys.executable,
        str(SUITE_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--mode", mode,
        "--pin", str(int(workload not in SERIAL_REFERENCE)),
        "--spawned", repr(time.monotonic()),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict_errors(run, expected):
    """Why this child's verdict is not the committed one (empty = correct)."""
    if "error" in run:
        return [run["error"]]
    if run.get("mode") == "setup":
        return []
    verdict = run["verdict"]
    return [
        f"{key}: got {verdict.get(key)!r}, expected {want!r}"
        for key, want in expected[run["workload"]].items()
        if verdict.get(key) != want
    ]


# -- end-to-end metrics ----------------------------------------------------------


def run_metrics(run):
    """The end-to-end numbers of one untraced child, in reference seconds."""
    cpu_wall = run["master_cpu_wall_s"] + run["worker_cpu_wall_s"]
    return {
        "setup_s": run["setup_ref_s"],
        "time_to_verdict_s": run["verdict_ref_s"],
        "states_per_s": run["verdict"]["distinct_states"] / run["phases"]["explore"]["ref_s"],
        "cpu_s": cpu_wall / run["life_slowdown"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def summarize(values):
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered), "values": values}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    return out


# -- per-layer metrics -------------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _histogram_p99(hist):
    """Upper edge of the bucket holding the 99th percentile."""
    if not hist or not hist["count"]:
        return 0.0
    rank = hist["count"] * 0.99
    running = 0
    for edge, n in zip(hist["bounds"] + [hist["max"]], hist["buckets"]):
        running += n
        if running >= rank:
            return min(edge, hist["max"])
    return hist["max"]


def layer_metrics(manifest, traced, untraced, serial=None):
    """Every per-layer metric of one workload from its traced child, the
    untraced child of the same invocation and (two-worker workload only)
    an untraced child of its serial twin.  A layer the workload does not
    exercise, or that cannot be observed from outside on it, reads 0.
    Span seconds are divided by the traced run's spin slowdown."""
    slow = traced["run_slowdown"]
    spans = traced["spans"]
    phases = traced["phases"]
    verdict = traced["verdict"]
    counts = traced["counts"]
    registry = counts.get("registry", {})
    counters = registry.get("counters", {})
    histograms = registry.get("histograms", {})
    micro = traced.get("micro", {})

    def busy(layer, phase=None):
        return sum(
            s[layer]["busy_s"] for p, s in spans.items() if layer in s and phase in (None, p)
        ) / slow

    def calls(layer):
        return sum(s[layer]["count"] for s in spans.values() if layer in s)

    def phase_s(name):
        return phases[name]["wall_s"] / slow if name in phases else 0.0

    m = {p["name"]: 0.0 for p in manifest["per_layer"]}
    m.update({k: v for k, v in micro.items() if k in m})

    # core.compile -- the spec's hot entry points, all phases
    m["core.compile.successors_s"] = busy("successors")
    m["core.compile.successors_calls"] = calls("successors")
    m["core.compile.transitions"] = calls("transitions")
    m["core.compile.us_per_transition"] = _ratio(busy("successors") * 1e6, calls("transitions"))
    m["core.compile.check_state_s"] = busy("check_state")
    m["core.compile.check_state_calls"] = calls("check_state")
    m["core.compile.check_transition_s"] = busy("check_transition")
    m["core.compile.state_constraint_s"] = busy("state_constraint")

    # core.state -- exact codec counters: this process's own, or the workers'
    # as the master's registry merged them
    codec = traced["codec"]
    if serial is not None:
        codec = dict.fromkeys(codec, 0)
        codec.update(registry["counts"]["codec.chunk_cache"])
    m["core.state.fingerprint_s"] = busy("fingerprint")
    m["core.state.fingerprint_calls"] = calls("fingerprint")
    m["core.state.delta_encode_ratio"] = _ratio(
        codec["delta_hits"], codec["delta_hits"] + codec["delta_misses"] + codec["full_encodes"]
    )
    m["core.state.pair_digest_reuse_ratio"] = _ratio(
        codec["fp_delta_hits"], codec["fp_delta_hits"] + codec["fp_full"]
    )

    # core.engine -- self time is the explore span minus what it called out to;
    # defined only where the explore phase is an in-process engine loop
    explore_children = sum(
        busy(layer, "explore")
        for layer in (
            "successors", "check_state", "check_transition", "state_constraint",
            "fingerprint", "canonical", "store_seen", "store_record",
        )
    )
    if "successors" in spans.get("explore", {}):
        m["core.engine.loop_self_s"] = phase_s("explore") - explore_children
    m["core.engine.store_seen_s"] = busy("store_seen")
    m["core.engine.store_record_s"] = busy("store_record")
    if "max_depth" in verdict:
        m["core.engine.dedup_hit_ratio"] = 1.0 - _ratio(
            verdict["distinct_states"], verdict["transitions"]
        )
    m["core.engine.frontier_peak"] = counts.get("frontier_peak", 0)

    # core.symmetry
    m["core.symmetry.canonical_s"] = busy("canonical")
    m["core.symmetry.canonical_calls"] = calls("canonical")
    m["core.symmetry.group_size"] = counts.get("group_size", 0)

    # core.parallel -- the master's registry, rusage, and the serial twin
    if serial is not None:
        wait_s = histograms["parallel.round_wait_ms"]["total"] / 1e3
        shards = list(registry["counts"]["parallel.shard_states"].values())
        speedup = _ratio(serial["verdict_ref_s"], untraced["verdict_ref_s"])
        m["core.parallel.rounds"] = counters["parallel.rounds"]
        m["core.parallel.round_wait_s"] = wait_s / slow
        m["core.parallel.round_wait_share"] = wait_s / phases["explore"]["wall_s"]
        m["core.parallel.batch_bytes"] = counters["parallel.batch_bytes"]
        m["core.parallel.bytes_per_state"] = _ratio(
            counters["parallel.batch_bytes"], verdict["distinct_states"]
        )
        m["core.parallel.shard_imbalance"] = max(shards) * len(shards) / sum(shards)
        m["core.parallel.master_cpu_s"] = untraced["master_cpu_wall_s"] / untraced["life_slowdown"]
        m["core.parallel.worker_cpu_s"] = untraced["worker_cpu_wall_s"] / untraced["life_slowdown"]
        m["core.parallel.startup_teardown_s"] = (
            untraced["phases"]["explore"]["wall_s"] - untraced["counts"]["engine_elapsed_s"]
        ) / untraced["run_slowdown"]
        m["core.parallel.speedup_vs_serial"] = speedup
        m["core.parallel.efficiency"] = speedup / len(shards)

    # persist
    if "disk_bytes" in counts:
        m["persist.diskstore.check_overhead_ratio"] = _ratio(
            untraced["phases"]["explore"]["ref_s"], micro["inmemory_reference_s"]
        )
        m["persist.diskstore.spills"] = counters.get("diskstore.spills", 0)
        m["persist.diskstore.compactions"] = counters.get("diskstore.compactions", 0)
        m["persist.diskstore.segment_probes"] = counters.get("diskstore.segment_probes", 0)
        m["persist.diskstore.disk_bytes_per_state"] = _ratio(
            counts["disk_bytes"], verdict["distinct_states"]
        )
        m["persist.diskstore.reader_open_s"] = phase_s("reader_open")
        m["persist.checkpoint.checkpoints"] = counts["checkpoints"]

    # temporal
    if "graph_states" in verdict:
        m["temporal.graph.materialize_s"] = phase_s("materialize")
        m["temporal.graph.states"] = verdict["graph_states"]
        m["temporal.graph.us_per_state"] = _ratio(
            phase_s("materialize") * 1e6, verdict["graph_states"]
        )
        m["temporal.lasso.check_graph_s"] = phase_s("check_graph")
        m["temporal.lasso.scc_count"] = verdict["scc_count"]
        m["temporal.lasso.prefix_len"] = verdict["lasso_prefix_len"] or 0

    # tracecheck
    if "events" in verdict:
        m["tracecheck.matcher.validate_s"] = phase_s("explore")
        m["tracecheck.matcher.events_per_s"] = _ratio(verdict["events"], phase_s("explore"))
        m["tracecheck.matcher.candidates_per_event"] = _ratio(
            verdict["distinct_states"], verdict["events"]
        )
        m["tracecheck.matcher.frontier_p99"] = _histogram_p99(
            histograms.get("tracecheck.frontier_size")
        )

    # the harness itself
    m["trace.overhead_ratio"] = _ratio(traced["verdict_ref_s"], untraced["verdict_ref_s"])
    in_phases = sum(p["wall_s"] for p in phases.values())
    m["trace.unattributed_share"] = 1.0 - in_phases / traced["verdict_wall_s"]
    return m


def trace_errors(traced, untraced, layers):
    """The trace self-check: same census, every second in a named layer."""
    errors = []
    if traced["verdict"] != untraced["verdict"]:
        errors.append(f"traced verdict {traced['verdict']} != untraced {untraced['verdict']}")
    if layers["trace.unattributed_share"] > 0.02:
        errors.append(f"unattributed share {layers['trace.unattributed_share']:.3f} > 0.02")
    if layers["core.engine.loop_self_s"] < 0:
        errors.append("child spans exceed the explore span")
    return errors


def traced_set(manifest, workload, seed, scale, expected, untraced=None):
    """One traced child (with its layer microbench) beside an untraced one
    and, for the two-worker workload, its serial twin.  Returns
    ``(layers or None, runs, errors)``."""
    runs = [untraced or spawn(workload, seed, scale, "run"), spawn(workload, seed, scale, "traced")]
    twin = SERIAL_REFERENCE.get(workload)
    if twin:
        runs.append(spawn(twin, seed, scale, "run"))
    errors = [e for run in runs for e in verdict_errors(run, expected)]
    if any("error" in run for run in runs):
        return None, runs, errors
    layers = layer_metrics(manifest, runs[1], runs[0], runs[2] if twin else None)
    errors += trace_errors(runs[1], runs[0], layers)
    return layers, runs, errors


# -- the driver's single-run form -------------------------------------------------------


def single(args, manifest):
    expected = load_expected(args.scale)
    units = manifest["units"]
    if args.trace:
        metrics, runs, errors = traced_set(
            manifest, args.workload, args.seed, args.scale, expected
        )
    else:
        # Repeat while another repetition still fits in --seconds.
        runs, spent, last = [], 0.0, 0.0
        while not runs or spent + last <= args.seconds:
            started = time.monotonic()
            runs.append(spawn(args.workload, args.seed, args.scale, "run"))
            last = time.monotonic() - started
            spent += last
        setups = [
            spawn(args.workload, args.seed, args.scale, "setup") for _ in range(SETUP_SAMPLES - 1)
        ]
        errors = [e for run in runs + setups for e in verdict_errors(run, expected)]
        per_run = [run_metrics(run) for run in runs if "error" not in run]
        metrics = None
        if per_run:
            metrics = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
            metrics["setup_s"] = statistics.median(
                [r["setup_s"] for r in per_run]
                + [run["setup_ref_s"] for run in setups if "error" not in run]
            )
    for error in errors:
        print(f"run.py: {args.workload}: {error}", file=sys.stderr)
    if metrics is None:
        raise SystemExit(f"run.py: {args.workload}: no run completed")
    failed = sum(1 for run in runs if verdict_errors(run, expected))
    result = {
        "correct": not errors,
        "attempted": len(runs),
        "failed": max(failed, int(bool(errors))),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


# -- a full set ---------------------------------------------------------------------------


def full_set(args, manifest):
    names = manifest["workload_names"]
    expected = load_expected(args.scale)
    started = time.time()
    results = {name: {"runs": [], "errors": []} for name in names}
    traces = {}  # the traced children as they reported: spans, phases, microbench
    for round_no in range(args.rounds):
        for name in names:
            run = spawn(name, args.seed, args.scale, "run")
            errors = verdict_errors(run, expected)
            results[name]["runs"].append(run)
            results[name]["errors"] += errors
            status = "FAILED " + "; ".join(errors) if errors else "ok"
            took = f"{run['verdict_wall_s']:.1f} s wall" if "error" not in run else "-"
            print(f"round {round_no + 1}/{args.rounds} {name}: {took}, {status}", flush=True)
    for name in names:
        entry = results[name]
        good = [run for run in entry["runs"] if "error" not in run]
        layers, runs, errors = traced_set(
            manifest, name, args.seed, args.scale, expected, untraced=good[-1] if good else None
        )
        entry["errors"] += errors
        traces[name] = runs[1]
        entry["per_layer"] = layers or {}
        per_run = [run_metrics(run) for run in good]
        entry["end_to_end"] = {
            metric: summarize([r[metric] for r in per_run]) for metric in (per_run[0] if per_run else ())
        }
        attempted = len(entry["runs"]) + len(runs) - 1
        failures = sum(1 for run in entry["runs"] + runs[1:] if verdict_errors(run, expected))
        entry["failed_share"] = failures / attempted
        entry["counts"] = good[-1]["verdict"] if good else {}
        print(f"traced {name}: {'FAILED ' + '; '.join(errors) if errors else 'ok'}", flush=True)
    report = {
        "meta": {
            "seed": args.seed,
            "scale": args.scale,
            "rounds": args.rounds,
            "started": started,
            "elapsed_s": time.time() - started,
            "python": platform.python_version(),
            "machine": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": results,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    trace_out = out.with_name("trace.json")
    trace_out.write_text(json.dumps(traces, indent=1) + "\n")
    print_report(report, manifest)
    print(f"written: {out} and {trace_out}")
    return 1 if any(entry["errors"] for entry in results.values()) else 0


def print_report(report, manifest):
    units = manifest["units"]
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (failed_share {entry['failed_share']:.2f} ratio)")
        for metric, s in entry["end_to_end"].items():
            spread = f"q1 {s['q1']:.4g} q3 {s['q3']:.4g}" if "q1" in s else ""
            print(f"  {metric:<22} {s['median']:>12.4f} {units[metric]:<9} n={s['n']} {spread}")
        print("  exact counts: " + ", ".join(f"{k}={v}" for k, v in entry["counts"].items()))
        for metric, value in entry["per_layer"].items():
            if value:
                print(f"    {metric:<48} {value:>14.4f} {units[metric]}")


# -- compare -------------------------------------------------------------------------------


def compare(path_a, path_b, manifest):
    """One row per (end-to-end metric, workload): ok / worse / unresolved."""
    a = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    names = manifest["workload_names"]
    print(
        f"{'metric':<20} {'workload':<32} {'A median':>12} {'B median':>12}"
        f" {'B/A':>7} {'bound':>6}  verdict"
    )
    verdicts = set()
    for metric in manifest["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in names:
            sa = a[workload]["end_to_end"][name]
            sb = b[workload]["end_to_end"][name]
            ratio = sb["median"] / sa["median"]
            worse_by = ratio - 1.0 if lower else 1.0 - ratio
            spread = max((s["q3"] - s["q1"]) / s["median"] if "q1" in s else 0.0 for s in (sa, sb))
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound:
                verdict = f"unresolved (iqr/median {spread:.3f})"
            else:
                verdict = "ok"
            verdicts.add(verdict.split()[0])
            print(
                f"{name:<20} {workload:<32} {sa['median']:>12.4f} {sb['median']:>12.4f}"
                f" {ratio:>7.3f} {bound:>6.2f}  {verdict}"
            )
    for workload in names:
        fa, fb = a[workload]["failed_share"], b[workload]["failed_share"]
        verdict = "worse" if fb > fa else "ok"
        verdicts.add(verdict)
        print(f"{'failed_share':<20} {workload:<32} {fa:>12.4f} {fb:>12.4f} {'':>7} {0:>6.2f}  {verdict}")
        if a[workload]["counts"] != b[workload]["counts"]:
            verdicts.add("worse")
            print(f"exact counts differ on {workload}: {a[workload]['counts']} != {b[workload]['counts']}")
    overall = "worse" if "worse" in verdicts else "unresolved" if "unresolved" in verdicts else "ok"
    print(f"overall: {overall}")
    return 0 if overall == "ok" else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measurement budget of a single run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--rounds", type=int, default=5, help="untraced rounds of a full set")
    parser.add_argument("--out", default=str(SUITE_DIR / "out" / "suite.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    manifest = load_manifest()
    if args.compare:
        return compare(*args.compare, manifest)
    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(1, f"run.py: {ROOT / 'src' / 'repro'} not found: nothing to benchmark\n")
    if args.workload:
        if args.workload not in manifest["workload_names"]:
            parser.error(f"unknown workload {args.workload!r}; one of {manifest['workload_names']}")
        if args.seconds is None:
            args.seconds = manifest["run_seconds"]
        return single(args, manifest)
    return full_set(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
