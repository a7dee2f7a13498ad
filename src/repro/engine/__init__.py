"""Execution engine: runs ETL workflows on in-memory data.

Stable public surface
---------------------
The names re-exported here (see ``__all__``) are the engine's supported
API; everything else under ``repro.engine.*`` is internal and may move
between releases.  The core execution surface is:

* :class:`Batch` — the columnar unit of data flow: a dict of equal-length
  column lists plus a lazy row-dict adapter (``.columns``, ``.rows()``,
  ``.num_rows``, ``from_rows`` / ``to_rows``);
* :class:`Executor` — one ``run(workflow, data, *, budget=...,
  recorder=..., shards=..., checkpoint=...)`` for every execution path;
  an active recorder gets the run's operator spans
  (:meth:`TraceReport.from_recorder` renders them as a profile), and a
  :class:`CheckpointStore` makes the run resumable;
* :class:`ExecutionBudget` / :class:`ExecutionResult` /
  :class:`ExecutionStats` — the run-configuration and run-outcome types;
* :func:`iter_batches` / :func:`rebatch` — chunking helpers that accept a
  :class:`Batch` or a row sequence and always yield :class:`Batch`;
* :func:`partition_plan` / :func:`execute_partitioned` — data-parallel
  sharded streaming (``Executor.run(..., shards=N)``): range-partitioned
  sources, one streaming pipeline per shard, deterministic merge that is
  byte-identical to the serial run on targets/stats/rejects.
"""

from repro.engine.batches import (
    DEFAULT_BATCH_SIZE,
    ExecutionBudget,
    ResidentLedger,
    SpillableRowBuffer,
    StreamingMetrics,
    iter_batches,
    rebatch,
)
from repro.engine.calibrate import (
    CalibrationWarning,
    apply_selectivities,
    calibrate_workflow,
    measure_selectivities,
)
from repro.engine.checkpoint import (
    CheckpointStore,
    PartialCheckpoint,
    SimulatedFailure,
)
from repro.engine.columnar import Batch, supports_columnar
from repro.engine.executor import (
    ExecutionResult,
    ExecutionStats,
    Executor,
    iter_components,
)
from repro.engine.partition import (
    LeafPath,
    PartitionPlan,
    execute_partitioned,
    partition_plan,
    shard_bounds,
)
from repro.engine.operators import (
    EngineContext,
    OperatorRegistry,
    default_registry,
    default_scalar_functions,
)
from repro.engine.rows import Row, as_multiset, freeze_row
from repro.engine.tracing import ActivityTrace, TraceReport
from repro.engine.validate import (
    RunEquivalenceReport,
    StreamingConformanceReport,
    empirically_equivalent,
    streaming_matches_materializing,
)

__all__ = [
    "Batch",
    "supports_columnar",
    "Executor",
    "ExecutionResult",
    "ExecutionStats",
    "iter_components",
    "DEFAULT_BATCH_SIZE",
    "ExecutionBudget",
    "ResidentLedger",
    "SpillableRowBuffer",
    "StreamingMetrics",
    "iter_batches",
    "rebatch",
    "LeafPath",
    "PartitionPlan",
    "partition_plan",
    "execute_partitioned",
    "shard_bounds",
    "ActivityTrace",
    "TraceReport",
    "CheckpointStore",
    "PartialCheckpoint",
    "SimulatedFailure",
    "CalibrationWarning",
    "measure_selectivities",
    "apply_selectivities",
    "calibrate_workflow",
    "EngineContext",
    "OperatorRegistry",
    "default_registry",
    "default_scalar_functions",
    "Row",
    "freeze_row",
    "as_multiset",
    "RunEquivalenceReport",
    "StreamingConformanceReport",
    "empirically_equivalent",
    "streaming_matches_materializing",
]
