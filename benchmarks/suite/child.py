"""One workload, once, in a fresh process; prints one JSON line.

``run.py`` spawns this for every measurement so that each starts from a
cold interpreter (``PYTHONHASHSEED=0``): imports, ``.pyc`` loading and
spec construction are paid inside ``setup_s`` every time, and
``ru_maxrss`` is the high-water mark of this run alone.

Every duration is reported twice: ``*_wall_s`` as the clock read it and
``*_ref_s`` divided by the reference-spin slowdown over the same window
(see ``calibrate.py``).
"""

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import sys
import time

SUITE_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_DIR))
sys.path.insert(0, str(SUITE_DIR.parent.parent / "src"))

# Stdlib only, so the sampler is running before the heavy imports: they
# are most of setup_s and need a calibration window of their own.
from calibrate import Calibrator  # noqa: E402


class Harness:
    """What a workload's ``run`` sees: phases, the tracer, side counts."""

    def __init__(self, tracer, scratch):
        self.tracer = tracer
        self.scratch = scratch
        self.counts = {}
        self.windows = []  # (phase, start, end) on the monotonic clock

    @contextlib.contextmanager
    def phase(self, name):
        started = time.monotonic()
        try:
            yield
        finally:
            self.windows.append((name, started, time.monotonic()))


def phase_totals(windows, calibrator):
    """Per phase: calls, wall seconds, and reference seconds (wall over
    the spin slowdown across the phase's first-start..last-end envelope)."""
    phases = {}
    for name, start, end in windows:
        entry = phases.setdefault(name, {"calls": 0, "wall_s": 0.0, "start": start})
        entry["calls"] += 1
        entry["wall_s"] += end - start
        entry["end"] = end
    for entry in phases.values():
        slowdown = calibrator.slowdown(entry.pop("start"), entry.pop("end"))
        entry["ref_s"] = entry["wall_s"] / slowdown
    return phases


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--pin", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--mode", choices=("run", "setup", "traced"), default="run")
    args = parser.parse_args()

    calibrator = Calibrator(pin=bool(args.pin))

    from repro.core.state import codec_stats, reset_codec_stats

    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(workload.sizes[args.scale], args.seed)
    ready = time.monotonic()
    out = {"workload": args.workload, "seed": args.seed, "scale": args.scale, "mode": args.mode}

    if args.mode != "setup":
        tracer = Tracer() if args.mode == "traced" else None
        scratch = SUITE_DIR / "out" / f"tmp-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        harness = Harness(tracer, scratch)
        reset_codec_stats()
        try:
            verdict = workload.run(harness)
            done = time.monotonic()
            out["codec"] = codec_stats()
            if tracer:
                import layers

                div = layers.SMOKE_DIVISOR if args.scale == "smoke" else 1
                out["micro"] = layers.run_group(
                    layers.Context(workload, args.seed, scratch, calibrator.slowdown, div)
                )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        run_slowdown = calibrator.slowdown(ready, done)
        out.update(
            verdict=verdict,
            verdict_wall_s=done - ready,
            verdict_ref_s=(done - ready) / run_slowdown,
            run_slowdown=run_slowdown,
            phases=phase_totals(harness.windows, calibrator),
            counts=harness.counts,
        )
        if tracer:
            out["spans"] = tracer.to_dict()

    calibrator.stop()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    setup_wall = ready - args.spawned
    life_slowdown = calibrator.slowdown()
    out.update(
        setup_wall_s=setup_wall,
        setup_ref_s=setup_wall / calibrator.slowdown(args.spawned, ready),
        life_slowdown=life_slowdown,
        master_cpu_wall_s=own.ru_utime + own.ru_stime,
        worker_cpu_wall_s=kids.ru_utime + kids.ru_stime,
        # Linux reports ru_maxrss in KiB; for descendants it is the largest one.
        peak_rss_mb=(own.ru_maxrss + kids.ru_maxrss) / 1024.0,
        calibration_samples=calibrator.sample_count(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
