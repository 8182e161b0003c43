"""Runtime data collection, compression, storage, and trace reconstruction."""

from repro.collector.chaos import (
    ChaosConfig,
    ChaosReport,
    ChaosResult,
    inject_chaos,
)
from repro.collector.clock import (
    ClockAlignment,
    ClockSkew,
    DriftEstimate,
    align_records,
    apply_clock_skew,
    estimate_edge_drift,
    estimate_offsets,
)
from repro.collector.compression import (
    bytes_per_packet,
    decode_batch_stream,
    decode_batches,
    decode_exit_records,
    decode_nf_records,
    encode_batches,
    encode_exit_records,
    encode_nf_records,
)
from repro.collector.overhead import (
    DEFAULT_PER_BATCH_NS,
    DEFAULT_PER_PACKET_NS,
    OverheadReport,
    apply_collection_cost,
    measure_overhead,
    measure_overhead_by_type,
)
from repro.collector.health import TelemetryGap, TelemetryHealth
from repro.collector.persistence import load_collected, save_collected
from repro.collector.reconstruct import (
    EdgeSpec,
    ReconstructedHop,
    ReconstructedPacket,
    ReconstructionStats,
    TraceReconstructor,
)
from repro.collector.runtime import (
    BatchRecord,
    BatchStream,
    CollectedData,
    ExitRecord,
    NFRecords,
    RuntimeCollector,
    SourceRecord,
)
from repro.collector.storage import DumperStats, SharedMemoryRing, drain_batches

__all__ = [
    "BatchRecord",
    "BatchStream",
    "ChaosConfig",
    "ChaosReport",
    "ChaosResult",
    "inject_chaos",
    "ClockAlignment",
    "ClockSkew",
    "DriftEstimate",
    "align_records",
    "apply_clock_skew",
    "estimate_edge_drift",
    "estimate_offsets",
    "CollectedData",
    "DEFAULT_PER_BATCH_NS",
    "DEFAULT_PER_PACKET_NS",
    "DumperStats",
    "EdgeSpec",
    "ExitRecord",
    "NFRecords",
    "OverheadReport",
    "ReconstructedHop",
    "ReconstructedPacket",
    "ReconstructionStats",
    "RuntimeCollector",
    "SharedMemoryRing",
    "SourceRecord",
    "TelemetryGap",
    "TelemetryHealth",
    "TraceReconstructor",
    "apply_collection_cost",
    "bytes_per_packet",
    "decode_batch_stream",
    "decode_batches",
    "decode_exit_records",
    "decode_nf_records",
    "drain_batches",
    "encode_batches",
    "encode_exit_records",
    "encode_nf_records",
    "load_collected",
    "save_collected",
    "measure_overhead",
    "measure_overhead_by_type",
]
