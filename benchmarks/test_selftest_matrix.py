"""Selftest matrix throughput: what one fuzzing sweep costs.

The differential harness is the regression net every perf PR runs
through, so its own cost matters: this benchmark sweeps a batch of
generated specs through the full configuration matrix and reports specs
per second, configurations per second, and the census sizes covered —
the numbers that decide how many specs the nightly fuzz job can afford.
The sweep must come back clean; a disagreement here is a checker bug,
not a benchmark artifact.
"""

import time

from repro.testkit import generate_spec, oracle_explore, run_differential

from conftest import fmt_row

SPECS = 25
WIDTHS = (22, 12)


def test_selftest_matrix_throughput(emit):
    sizes = []

    def record(index, generated, n_bad):
        census = oracle_explore(generated.spec(invariants=False))
        sizes.append(census.states)

    started = time.perf_counter()
    report = run_differential(SPECS, seed="bench", parallel=True, progress=record)
    elapsed = time.perf_counter() - started

    assert report.ok, report.describe()
    rows = [
        fmt_row(("metric", "value"), WIDTHS),
        fmt_row(("specs", report.specs), WIDTHS),
        fmt_row(("configurations", report.graded), WIDTHS),
        fmt_row(("elapsed_s", f"{elapsed:.2f}"), WIDTHS),
        fmt_row(("specs_per_s", f"{report.specs / elapsed:.1f}"), WIDTHS),
        fmt_row(("configs_per_s", f"{report.graded / elapsed:.1f}"), WIDTHS),
        fmt_row(("min_census", min(sizes)), WIDTHS),
        fmt_row(("max_census", max(sizes)), WIDTHS),
        fmt_row(("mean_census", f"{sum(sizes) / len(sizes):.0f}"), WIDTHS),
    ]
    emit("selftest_matrix", rows)


def test_oracle_vs_engine_cost(emit):
    """The oracle must stay cheap relative to one engine matrix cell."""
    from repro.core import bfs_explore

    generated = generate_spec("bench:oracle", None)
    spec = generated.spec(invariants=False)

    started = time.perf_counter()
    for _ in range(20):
        oracle_explore(spec)
    oracle_s = (time.perf_counter() - started) / 20

    started = time.perf_counter()
    for _ in range(20):
        bfs_explore(spec)
    engine_s = (time.perf_counter() - started) / 20

    rows = [
        fmt_row(("explorer", "ms_per_run"), WIDTHS),
        fmt_row(("oracle", f"{oracle_s * 1000:.2f}"), WIDTHS),
        fmt_row(("engine_serial", f"{engine_s * 1000:.2f}"), WIDTHS),
    ]
    emit("selftest_oracle_cost", rows)
