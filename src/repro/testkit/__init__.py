"""Self-checking toolkit: fuzz the model checker with the model checker.

``repro.testkit`` generates seeded random specifications with known
ground truth (:mod:`~repro.testkit.genspec`), computes that ground truth
with a deliberately naive reference explorer
(:mod:`~repro.testkit.oracle`), and grades the checker against it in
three sweeps, exposed on the command line as ``sandtable selftest``:
every engine configuration — serial/parallel, all state stores,
symmetry on/off, kill-at-checkpoint→resume
(:mod:`~repro.testkit.differential`, the default); the trace validator
against logs with planted divergences (:mod:`~repro.testkit.genlog`,
``--tracecheck``); and the lasso finder against planted temporal
properties (:mod:`~repro.testkit.gentemporal`, ``--temporal``).

All three keep their outcome the same way (:mod:`~repro.testkit.report`):
one :class:`SelftestReport` (graded and skipped counts per cell, the
findings, the artifacts), one :class:`Finding` base under each sweep's
typed failure, one artifact format tagged with the sweep's ``kind`` and
the codec version, and one :func:`replay_artifact` that re-runs the
failing cell of any kind — ``sandtable selftest --replay FILE``.  The
CLI refuses flag combinations a sweep would ignore (``--tracecheck``
with ``--temporal``, ``--replay`` with any sweep flag, ``--fast``,
``--serial-only`` or ``--stats-out`` where no cell reads them).
"""

from .differential import (
    Disagreement,
    MatrixConfig,
    build_matrix,
    check_spec,
    run_differential,
)
from .genlog import (
    MUTATION_KINDS,
    LogFuzzFailure,
    PlantedLog,
    naive_validate,
    plant_divergence,
    run_log_fuzz,
    walk_log,
)
from .gentemporal import (
    PlantedProperty,
    TemporalFuzzFailure,
    plant_temporal_properties,
    property_from_descriptor,
    run_temporal_fuzz,
)
from .genspec import (
    PLANTED_INVARIANT,
    GeneratedSpec,
    GenParams,
    PlantedViolation,
    RandomSpec,
    generate_spec,
    sample_params,
    signature,
)
from .oracle import (
    OracleResult,
    OracleTemporalGraph,
    OracleTemporalVerdict,
    oracle_check_temporal,
    oracle_explore,
    oracle_temporal_graph,
    oracle_validate_lasso,
)
from .report import Finding, SelftestReport, replay_artifact, write_artifact

__all__ = [
    "Finding",
    "SelftestReport",
    "replay_artifact",
    "write_artifact",
    "Disagreement",
    "MatrixConfig",
    "build_matrix",
    "check_spec",
    "run_differential",
    "PLANTED_INVARIANT",
    "GeneratedSpec",
    "GenParams",
    "PlantedViolation",
    "RandomSpec",
    "generate_spec",
    "sample_params",
    "signature",
    "OracleResult",
    "OracleTemporalGraph",
    "OracleTemporalVerdict",
    "oracle_check_temporal",
    "oracle_explore",
    "oracle_temporal_graph",
    "oracle_validate_lasso",
    "PlantedProperty",
    "TemporalFuzzFailure",
    "plant_temporal_properties",
    "property_from_descriptor",
    "run_temporal_fuzz",
    "MUTATION_KINDS",
    "LogFuzzFailure",
    "PlantedLog",
    "naive_validate",
    "plant_divergence",
    "run_log_fuzz",
    "walk_log",
]
