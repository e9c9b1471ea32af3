"""Liveness checking: lasso detection over the explored state graph.

SandTable itself (§3.1) approximates liveness through safety.  This
package is the checker's one liveness surface, and it answers exactly,
the way TLC does: it materializes the explored state graph a run
directory recorded (serial or sharded, whatever the search mode),
restricts it to the states that violate an "eventually" obligation,
and searches for a
**lasso** — a reachable prefix followed by a cycle that is fair with
respect to the spec's weak-fairness declarations.  A lasso is a definite
counterexample; absence of one is bounded by the explored graph (see
DESIGN.md, "Temporal checking").

The pieces:

* :mod:`~repro.temporal.properties` — the ``TemporalProperty`` DSL:
  ``eventually(P)``, ``always_eventually(P)``, ``leads_to(P, Q)``, plus
  named ready-made properties for the Raft-family specs
  (``eventually-elects-leader``, ``eventually-commits``, ...).
* :mod:`~repro.temporal.graph` — the graph materializer over the
  ``edges()``/``roots()`` store seams.
* :mod:`~repro.temporal.lasso` — iterative-Tarjan SCC fair-cycle search
  emitting a minimal-prefix :class:`~repro.temporal.lasso.LassoTrace`,
  and the one liveness path: ``check_run_dir`` checks properties over a
  run directory's graph (``check-liveness``), and ``explore_and_check``
  explores into a run directory first (``check --temporal``).
"""

from repro.core.spec import WeakFairness

from .graph import STUTTER_ACTION, TemporalGraph, materialize_graph
from .lasso import (
    LassoTrace,
    TemporalResult,
    check_graph,
    check_run_dir,
    explore_and_check,
)
from .properties import (
    PROPERTY_NAMES,
    TemporalProperty,
    always_eventually,
    eventually,
    leads_to,
    resolve_property,
)

__all__ = [
    "WeakFairness",
    "TemporalProperty",
    "eventually",
    "always_eventually",
    "leads_to",
    "resolve_property",
    "PROPERTY_NAMES",
    "TemporalGraph",
    "materialize_graph",
    "STUTTER_ACTION",
    "LassoTrace",
    "TemporalResult",
    "check_graph",
    "check_run_dir",
    "explore_and_check",
]
