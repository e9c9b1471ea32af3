"""Checker observability: metrics registry, coverage profiling, progress.

``repro.obs`` is the observability layer for every exploration mode —
the analogue of TLC's coverage/profiling statistics.  It is a *leaf*
package: it imports nothing from the rest of ``repro``, so every other
layer (core, persist, conformance, testkit, CLI) can depend on it
without cycles, and the engines keep seeing it only through an
``Optional[MetricsRegistry]`` parameter that defaults to ``None``
(near-zero cost when disabled — one pointer test per hook).

* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, histograms, and labeled counts; JSON-safe
  ``snapshot``/``restore`` so counters survive checkpoint/resume.
* :mod:`~repro.obs.sink` — the append-only JSONL sink written next to a
  durable run's checkpoints (``metrics.jsonl``).
* :mod:`~repro.obs.reporter` — the TLC-style live progress reporter
  riding the unified ``progress(stats)`` callback.
* :mod:`~repro.obs.report` — the end-of-run per-action coverage report
  (``sandtable coverage``), flagging never-fired actions.
"""

from .metrics import (
    ACTION_FIRES,
    BATCH_BYTES,
    CLAIMS,
    Counter,
    FALLBACK_SERIAL,
    Gauge,
    Histogram,
    MetricsRegistry,
    REBALANCED_STATES,
    ROUND_WAIT_MS,
    SIZE_BOUNDS,
    TIME_BOUNDS,
    WAIT_BOUNDS_MS,
    WIRE_BYTES_RECEIVED,
    WIRE_BYTES_SENT,
)
from .report import (
    METRICS_FILENAME,
    ActionCoverage,
    coverage_from_registry,
    coverage_from_sink,
    resolve_sink_path,
)
from .reporter import ProgressReporter, compose_progress
from .sink import MetricsSink, last_metrics, read_sink

__all__ = [
    "ACTION_FIRES",
    "ActionCoverage",
    "BATCH_BYTES",
    "CLAIMS",
    "Counter",
    "FALLBACK_SERIAL",
    "Gauge",
    "Histogram",
    "METRICS_FILENAME",
    "MetricsRegistry",
    "MetricsSink",
    "ProgressReporter",
    "REBALANCED_STATES",
    "ROUND_WAIT_MS",
    "SIZE_BOUNDS",
    "TIME_BOUNDS",
    "WAIT_BOUNDS_MS",
    "WIRE_BYTES_RECEIVED",
    "WIRE_BYTES_SENT",
    "compose_progress",
    "coverage_from_registry",
    "coverage_from_sink",
    "last_metrics",
    "read_sink",
    "resolve_sink_path",
]
