"""Online tiering engine: continuous SCOPe over streaming access logs.

The batch pipeline (:mod:`repro.core.pipeline`) optimizes once over a full
historical trace.  This subpackage turns that into an event-driven,
rolling-horizon control loop for the production setting where access patterns
drift and placements must be revisited as new months of telemetry arrive:

* :mod:`repro.engine.events` — trigger windows over timed event streams, and
  dense monthly streams (replayed traces, synthetic drifting workloads,
  dataset catalogs) whose batches step as month-aligned windows;
* :mod:`repro.engine.features` — the incremental sliding-window
  :class:`FeatureStore` (O(new events) per epoch, not O(trace));
* :mod:`repro.engine.policies` — when to re-optimize: :class:`StaticOnce`
  (batch baseline), :class:`PeriodicReoptimize`, :class:`DriftTriggered`;
* :mod:`repro.engine.executor` — the :class:`MigrationExecutor` that applies
  placement changes and bills moves and early-deletion penalties;
* :mod:`repro.engine.engine` — :class:`OnlineTieringEngine`, the loop tying
  stream -> features -> forecast -> OPTASSIGN -> migration -> simulator.

See ``examples/online_tiering.py`` for a three-policy comparison on a
drifting workload and ``benchmarks/bench_engine_online.py`` for the
end-to-end bill / wall-clock benchmark.
"""

from .engine import (
    EngineConfig,
    EngineReport,
    OnlineTieringEngine,
    SettleBlock,
    WindowPlan,
    WindowRecord,
    solve_stacked,
)
from .events import (
    AnyTrigger,
    CountTrigger,
    DriftTrigger,
    EpochBatch,
    ReplayStream,
    SeriesStream,
    StreamWindow,
    TimeTrigger,
    TriggerWindow,
    month_window,
    monthly_batches,
    stream_from_catalog,
    windowed,
)
from .executor import MigrationExecutor, MigrationRecord, MigrationReport
from .features import FeatureStore, PartitionFeatures
from .policies import (
    DriftTriggered,
    PeriodicReoptimize,
    RateColumns,
    StaticOnce,
    TieringPolicy,
    drift_score,
    partition_drift_scores,
)

__all__ = [
    "EngineConfig",
    "EngineReport",
    "WindowRecord",
    "OnlineTieringEngine",
    "SettleBlock",
    "WindowPlan",
    "solve_stacked",
    "EpochBatch",
    "ReplayStream",
    "SeriesStream",
    "stream_from_catalog",
    "StreamWindow",
    "month_window",
    "TriggerWindow",
    "CountTrigger",
    "TimeTrigger",
    "DriftTrigger",
    "AnyTrigger",
    "windowed",
    "monthly_batches",
    "MigrationExecutor",
    "MigrationRecord",
    "MigrationReport",
    "FeatureStore",
    "PartitionFeatures",
    "TieringPolicy",
    "StaticOnce",
    "PeriodicReoptimize",
    "DriftTriggered",
    "RateColumns",
    "drift_score",
    "partition_drift_scores",
]
