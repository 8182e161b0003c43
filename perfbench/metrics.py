"""The metric catalogue: every name the benchmark prints, with its unit,
direction, regression bound and — for per-layer metrics — the end-to-end
metric it is expected to move.  End-to-end times and rates are reported
at the reference host's speed (:mod:`perfbench.hostspeed`).
``BENCHMARK.json`` at the repo root lists the same names;
``tests/test_contract.py`` keeps the two in step.

Every workload reports every metric: a layer that does not run in a
workload (``net`` in ``replay-dense``, say) reports 0 for its per-layer
metrics, and the three throughput metrics are the same timed wall seen
through three honest counts (records in, packet-hops covered, victims
given a verdict), so each stays defined — and non-zero — everywhere.
README.md names the primary one per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: What it measures (end-to-end) or which end-to-end metric it should
    #: move, on which workload (per-layer).
    note: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: float = 0.0


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "simulate + persist + program-under-test process start and input "
           "load, up to the first timed call", 0.25),
    Metric("records_per_s", "1/s", "higher",
           "telemetry records taken from input to verdict per second of "
           "timed wall (primary on wire-*)", 0.25),
    Metric("packet_hops_per_s", "1/s", "higher",
           "trace packet-hops covered per second of timed wall (primary on "
           "offline-postmortem)", 0.25),
    Metric("victims_per_s", "1/s", "higher",
           "victims given a journalled/emitted verdict per second of timed "
           "wall (primary on replay-dense)", 0.25),
    Metric("verdict_lag_ms_p50", "ms", "lower",
           "median time from a result's last input being due to its verdict "
           "being durable (gates wire-paced)", 0.25),
    Metric("culprit_top1_accuracy", "share", "higher",
           "share of ground-truth-covered victims whose top-ranked culprit "
           "is the injected one", 0.15),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident set of the program-under-test process plus its "
           "largest worker", 0.15),
]

_RPS_SAT = "records_per_s on wire-saturate"
_LAG = "verdict_lag_ms_p50 on wire-paced"
_HOPS = "packet_hops_per_s on offline-postmortem"
_VPS = "victims_per_s on replay-dense"

PER_LAYER: List[Metric] = [
    # generator: is the open loop itself on time?
    Metric("generator.late_ms_p50", "ms", "lower",
           "how late the open loop ran; above 5 ms at p90 the wire-paced lag "
           "is the generator's, not the program's"),
    Metric("generator.late_ms_p90", "ms", "lower", "see generator.late_ms_p50"),
    Metric("generator.records_offered", "count", "higher", "input size"),
    # net
    Metric("net.pull_wait_s", "s", "lower",
           f"time the pipeline waited on the reader thread -> {_RPS_SAT}; "
           "falls when codec cost falls"),
    Metric("net.pull_calls", "count", "lower", _RPS_SAT),
    Metric("net.records_delivered", "count", "higher", "work count"),
    Metric("net.frames_sent", "count", "lower", _RPS_SAT),
    Metric("net.records_resent", "count", "lower", "at-least-once tax"),
    Metric("net.acks_received", "count", "lower", _RPS_SAT),
    Metric("net.reconnects", "count", "lower", "must stay 0"),
    Metric("net.credit_overruns", "count", "lower",
           "records the server dropped beyond its credit window; must stay "
           "0 (see loadgen.py)"),
    Metric("net.wire_bytes_per_record", "B", "lower", _RPS_SAT),
    Metric("net.codec_encode_ns_per_record", "ns", "lower",
           f"probe -> {_RPS_SAT}"),
    Metric("net.codec_decode_ns_per_record", "ns", "lower",
           f"probe -> {_RPS_SAT} via net.pull_wait_s"),
    # ingest
    Metric("ingest.feed_pump_self_s", "s", "lower", _RPS_SAT),
    Metric("ingest.apply_self_s", "s", "lower", _RPS_SAT),
    Metric("ingest.records_applied", "count", "higher", "work count"),
    Metric("ingest.pumps", "count", "lower", _RPS_SAT),
    Metric("ingest.peak_buffered", "count", "lower", "peak_rss_mb"),
    Metric("ingest.sheds", "count", "lower", "must stay 0"),
    Metric("ingest.prune_s", "s", "lower", f"per chunk -> {_LAG}"),
    Metric("ingest.evictions", "count", "higher", "peak_rss_mb"),
    Metric("ingest.snapshot_s", "s", "lower", f"per chunk -> {_LAG}"),
    Metric("ingest.snapshot_bytes", "B", "lower", "state size"),
    # time
    Metric("time.clock_ns_per_record", "ns", "lower", f"probe -> {_RPS_SAT}"),
    Metric("time.updates", "count", "lower", _RPS_SAT),
    Metric("time.repairs", "count", "lower", _RPS_SAT),
    Metric("time.faults", "count", "lower", "must stay 0"),
    Metric("time.uncertainty_ns", "ns", "lower",
           "widens the seal barrier -> verdict_lag_ms_* on wire-paced"),
    # collector
    Metric("collector.load_s", "s", "lower", _HOPS),
    Metric("collector.reconstruct_s", "s", "lower", _HOPS),
    Metric("collector.records", "count", "higher", "work count"),
    Metric("collector.reconstruct_exact_share", "share", "higher",
           "must stay 1.0"),
    # core
    Metric("core.columns_build_s", "s", "lower",
           f"paid per chunk in live mode -> {_LAG} first, {_RPS_SAT} second"),
    Metric("core.columns_builds", "count", "lower", "see core.columns_build_s"),
    Metric("core.victim_select_s", "s", "lower", f"{_LAG}; {_HOPS}"),
    Metric("core.engine_open_s", "s", "lower", f"per chunk -> {_LAG}"),
    Metric("core.diagnose_s", "s", "lower",
           f"{_VPS}; small on offline-postmortem, negligible on wire-*"),
    Metric("core.victims", "count", "higher", "work count"),
    Metric("core.relations_s", "s", "lower", _HOPS),
    Metric("core.relations", "count", "higher", "work count"),
    Metric("core.local_hit_ratio", "share", "higher", "core.diagnose_s"),
    Metric("core.decomp_hit_ratio", "share", "higher", "core.diagnose_s"),
    Metric("core.preset_hit_ratio", "share", "higher", "core.diagnose_s"),
    # aggregation
    Metric("aggregation.tally_update_s", "s", "lower", f"per chunk -> {_LAG}"),
    Metric("aggregation.patterns_s", "s", "lower", _HOPS),
    Metric("aggregation.patterns", "count", "higher", "work count"),
    # service
    Metric("service.journal_encode_s", "s", "lower",
           f"chunk_record/tally_record volume -> {_VPS}"),
    Metric("service.journal_append_s", "s", "lower",
           f"fsync-bound commit -> {_LAG}; line encode + write -> {_VPS}"),
    Metric("service.journal_read_s", "s", "lower",
           f"the report re-reads the whole journal at end of run -> {_VPS}"),
    Metric("service.journal_bytes", "B", "lower", _VPS),
    Metric("service.checkpoint_s", "s", "lower", f"fsync-bound commit -> {_LAG}"),
    Metric("service.checkpoint_bytes", "B", "lower", "state size"),
    Metric("service.journal_maintain_s", "s", "lower", _LAG),
    Metric("service.chunks", "count", "higher", "work count"),
    Metric("service.retries", "count", "lower", "must stay 0"),
    Metric("service.verdict_lag_ms_p90", "ms", "lower",
           "tail of verdict_lag_ms_p50's sample; per-layer because on a "
           "shared host it measures the neighbours (spread ~50% run to run)"),
    Metric("service.verdict_lag_samples", "count", "higher",
           "sample count behind verdict_lag_ms_*"),
    Metric("service.late_verdicts", "count", "lower",
           "verdicts later than 4x the frozen wire-paced median"),
    Metric("service.lag_drift_ratio", "ratio", "lower",
           "median lag of the last third over the first; above 2 the offered "
           "rate is not sustainable and the wire-paced run is invalid"),
    # fleet
    Metric("fleet.pool_tasks", "count", "lower", _VPS),
    Metric("fleet.trace_shares", "count", "lower", _VPS),
    Metric("fleet.trace_reuses", "count", "higher", _VPS),
    Metric("fleet.respawns", "count", "lower", "must stay 0"),
    Metric("fleet.worker_failures", "count", "lower", "must stay 0"),
    Metric("fleet.worker_timeouts", "count", "lower", "must stay 0"),
    Metric("fleet.scheduler_waited", "count", "lower", _VPS),
    Metric("fleet.peak_inflight", "count", "higher", _VPS),
    Metric("fleet.pipeline_wall_skew", "share", "lower",
           "gap between first and last pipeline to finish, over supervisor "
           f"wall -> {_VPS}"),
    Metric("fleet.serial_baseline_victims_per_s", "1/s", "higher",
           "one standalone serial service over the same trace"),
    Metric("fleet.speedup_vs_serial", "ratio", "higher",
           "fleet victims_per_s over the serial baseline; read with run.cpus"),
    # run
    Metric("run.wall_s", "s", "lower", "traced run's wall"),
    Metric("run.unattributed_share", "share", "lower",
           "traced wall no span covers; the traced run fails above 0.10"),
    Metric("run.trace_overhead_share", "share", "lower",
           "traced wall over untraced wall, minus one"),
    Metric("run.host_speed", "ratio", "higher",
           "yardstick speed during the run over the reference's (hostspeed.py); "
           "every end-to-end time and rate is scaled by it"),
    Metric("run.cpus", "count", "higher", "host CPUs the run could use"),
]

#: The traced run is invalid above this share of unexplained wall.
MAX_UNATTRIBUTED = 0.10


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}


def fill(values: Dict[str, float], catalogue: List[Metric]) -> Dict[str, float]:
    """``values`` over exactly the catalogue's names, absent ones as 0."""
    unknown = set(values) - {m.name for m in catalogue}
    if unknown:
        raise KeyError(f"metrics not in the catalogue: {sorted(unknown)}")
    return {m.name: float(values.get(m.name, 0.0)) for m in catalogue}
