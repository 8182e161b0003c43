"""Fleet-scale execution plane: shared warm worker pool (one task per
chunk), multi-pipeline supervision, cross-pipeline rollups."""

from repro.fleet.listeners import FleetListeners
from repro.fleet.pool import PendingTask, PoolStats, WorkerPool
from repro.fleet.rollup import (
    FleetRollup,
    RollupEntry,
    rollup_from_state_dirs,
    tally_from_journal,
)
from repro.fleet.supervisor import (
    FleetConfig,
    FleetReport,
    FleetSupervisor,
    PipelineSpec,
)

__all__ = [
    "FleetConfig",
    "FleetListeners",
    "FleetReport",
    "FleetRollup",
    "FleetSupervisor",
    "PendingTask",
    "PipelineSpec",
    "PoolStats",
    "RollupEntry",
    "WorkerPool",
    "rollup_from_state_dirs",
    "tally_from_journal",
]
