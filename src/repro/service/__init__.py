"""Always-on diagnosis service: crash-only checkpoint/restore runtime.

Supervises :class:`~repro.core.streaming.StreamingDiagnosis` chunk by
chunk with a journal + checkpoint commit protocol (SIGKILL-safe at every
point), watchdogged pooled diagnosis with retry/backoff, explicit load
shedding, and a deterministic chaos harness for proving all of it.
Sources are pluggable: a fixed trace replays offline, a live
:class:`LiveTraceSource` diagnoses chunks as :mod:`repro.ingest` seals
them from streaming telemetry.
"""

from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    LoadedCheckpoint,
    canonical_payload_bytes,
)
from repro.service.crashsim import (
    CLOCK_KILL_POINTS,
    CORRUPT_POINTS,
    ENDURANCE_KILL_POINTS,
    FLEET_KILL_POINTS,
    INGEST_KILL_POINTS,
    KILL_POINTS,
    NET_KILL_POINTS,
    TORN_POINTS,
    CrashInjector,
    CrashPlan,
    FlakyPlan,
    SimulatedCrash,
)
from repro.service.health import (
    REPORTS,
    HealthRegistry,
    HealthReport,
    PipelineHealth,
)
from repro.service.journal import (
    ResultJournal,
    chunk_record,
    dead_letter_record,
    decode_diagnoses,
    tally_record,
    victim_from_wire,
    victim_to_wire,
)
from repro.service.runner import (
    DiagnosisService,
    ServiceConfig,
    ServiceReport,
    ServiceStats,
    shed_victims,
)
from repro.service.source import (
    FixedTraceSource,
    LiveTraceSource,
    trace_fingerprint,
    trace_from_collected,
    trace_from_directory,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CLOCK_KILL_POINTS",
    "CORRUPT_POINTS",
    "Checkpointer",
    "ENDURANCE_KILL_POINTS",
    "HealthRegistry",
    "HealthReport",
    "PipelineHealth",
    "REPORTS",
    "CrashInjector",
    "CrashPlan",
    "DiagnosisService",
    "FLEET_KILL_POINTS",
    "FixedTraceSource",
    "FlakyPlan",
    "INGEST_KILL_POINTS",
    "KILL_POINTS",
    "LiveTraceSource",
    "LoadedCheckpoint",
    "NET_KILL_POINTS",
    "ResultJournal",
    "ServiceConfig",
    "ServiceReport",
    "ServiceStats",
    "SimulatedCrash",
    "TORN_POINTS",
    "canonical_payload_bytes",
    "chunk_record",
    "dead_letter_record",
    "decode_diagnoses",
    "shed_victims",
    "tally_record",
    "trace_fingerprint",
    "trace_from_collected",
    "trace_from_directory",
    "victim_from_wire",
    "victim_to_wire",
]
